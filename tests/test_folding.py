"""The four folding operations and the duality theorem."""

from fractions import Fraction

import pytest

from rootfold.folding import (
    RootSystemV,
    dual_vector,
    fold,
    fold_all,
    orbit_orthogonal,
    verify_duality,
)
from rootfold.lattice import average, group_closure
from rootfold.linalg import identity_matrix, mat_vec, vec_scale
from rootfold.presets import load_preset, preset_names
from rootfold.rootdata import AutomorphismAction, build_datum, diagram_automorphism


def flip(r):
    return tuple(r - 1 - i for i in range(r))


def _setup(cartan, perm, iso="adjoint"):
    d = build_datum(cartan, iso)
    m = diagram_automorphism(d, perm)
    act = AutomorphismAction(d, [m])
    return d, act


def test_a2n_flip_example():
    # the A_{2n} example: res/res'/N/N' give B_n/C_n/B_n/C_n
    for n in (1, 2, 3):
        d, act = _setup("A%d" % (2 * n), flip(2 * n))
        rs = RootSystemV.from_datum(d)
        got = {op: fold(rs, act.group, op).type_label()
               for op in ("res", "resprime", "N", "Nprime")}
        assert got == {"res": "B%d" % n, "resprime": "C%d" % n,
                       "N": "B%d" % n, "Nprime": "C%d" % n}


def test_a4_flip_bases():
    # explicit middle-orbit doubling: N' doubles exactly the middle fold
    d, act = _setup("A4", flip(4))
    rs = RootSystemV.from_datum(d)
    N = fold(rs, act.group, "N")
    Np = fold(rs, act.group, "Nprime")
    res = fold(rs, act.group, "res")
    resp = fold(rs, act.group, "resprime")
    assert Np.base[0] == N.base[0]
    assert Np.base[1] == vec_scale(2, N.base[1])
    assert resp.base[0] == res.base[0]
    assert resp.base[1] == vec_scale(2, res.base[1])
    assert res.base[1] == vec_scale(Fraction(1, 2), N.base[1])


def test_trivial_group_identity():
    d = build_datum("B2")
    rs = RootSystemV.from_datum(d)
    triv = (identity_matrix(2),)
    for op in ("res", "resprime", "N", "Nprime"):
        f = fold(rs, triv, op)
        assert set(f.roots) == set(rs.roots)
        assert f.base == rs.base


def test_d4_triality():
    d, act = _setup("D4", (2, 1, 3, 0), iso="simply_connected")
    rs = RootSystemV.from_datum(d)
    outs = fold_all(rs, act.group)
    for op, f in outs.items():
        assert f.type_label() == "G2"
        assert len(f.roots) == 12
    # orbits pairwise orthogonal, so N = N' and res = res'
    assert outs["N"].base == outs["Nprime"].base
    assert outs["res"].base == outs["resprime"].base


def test_orbit_orthogonality():
    d, act = _setup("A4", flip(4))
    rs = RootSystemV.from_datum(d)
    # the outer orbit {e1-e2, e4-e5} is orthogonal, the middle pair is not
    assert orbit_orthogonal(rs, act.group, d.simple_roots[0])
    assert not orbit_orthogonal(rs, act.group, d.simple_roots[1])
    with pytest.raises(ValueError):
        orbit_orthogonal(rs, act.group, d.roots[0] if d.roots[0] not in d.simple_roots
                         else (5, 5, 5, 5))


def test_averaging_lemma():
    # (alpha^vee)^diamond = (1/|orbit|) (alpha^diamond)^vee, doubled
    # denominator when the orbit is not pairwise orthogonal
    cases = [("A4", flip(4), "adjoint"), ("A2", flip(2), "simply_connected"),
             ("D4", (2, 1, 3, 0), "simply_connected"), ("E6", (5, 1, 4, 3, 2, 0),
                                                        "adjoint")]
    for cartan, perm, iso in cases:
        d, act = _setup(cartan, perm, iso)
        rs = RootSystemV.from_datum(d)
        rs_co = RootSystemV.dual_from_datum(d)
        iota = __import__("rootfold.folding", fromlist=["x"])._form_identification(d)
        for i, (a, av) in enumerate(zip(d.simple_roots, d.simple_coroots)):
            orb = {mat_vec(g, a) for g in act.group}
            orth = orbit_orthogonal(rs, act.group, a)
            a_avg = average(a, act.group)
            av_avg = average(av, act.cochar_group)
            # realize the coroot average inside the character space
            lhs = tuple(mat_vec(iota, av_avg))
            dual_avg = dual_vector(d.gram(), a_avg)
            denom = len(orb) if orth else 2 * len(orb)
            assert lhs == vec_scale(Fraction(1, denom), dual_avg), (cartan, i)


def test_duality_theorem():
    cases = [("A2", flip(2)), ("A3", flip(3)), ("A4", flip(4)), ("A5", flip(5)),
             ("A6", flip(6)), ("D4", (0, 1, 3, 2)), ("D4", (2, 1, 3, 0)),
             ("D5", (0, 1, 2, 4, 3)), ("E6", (5, 1, 4, 3, 2, 0))]
    for cartan, perm in cases:
        for iso in ("adjoint", "simply_connected"):
            d, act = _setup(cartan, perm, iso)
            rep = verify_duality(d, act.group, act.cochar_group)
            assert rep["ok"], (cartan, iso, rep)


def test_weyl_group_orders_match():
    d, act = _setup("A4", flip(4))
    rs = RootSystemV.from_datum(d)
    orders = {fold(rs, act.group, op).weyl_order()
              for op in ("res", "resprime", "N", "Nprime")}
    assert orders == {8}  # |W(B2)|
    d4, act4 = _setup("D4", (2, 1, 3, 0), iso="simply_connected")
    rs4 = RootSystemV.from_datum(d4)
    assert fold(rs4, act4.group, "res").weyl_order() == 12  # |W(G2)|


def test_normalization_independence():
    # rescaling the invariant form must not change the classification or
    # the orthogonality pattern
    d, act = _setup("A4", flip(4))
    rs = RootSystemV.from_datum(d)
    scaled = RootSystemV(d.simple_roots,
                         tuple(tuple(5 * x for x in row) for row in d.gram()))
    for op in ("res", "resprime", "N", "Nprime"):
        f1 = fold(rs, act.group, op)
        f2 = fold(scaled, act.group, op)
        assert f1.type_label() == f2.type_label()
        assert [o for _, o in f1.orbits] == [o for _, o in f2.orbits]


def test_folded_systems_are_root_systems():
    # reflection closure and Cartan integrality, checked constructively
    d, act = _setup("A6", flip(6), iso="simply_connected")
    rs = RootSystemV.from_datum(d)
    for op in ("res", "resprime", "N", "Nprime"):
        f = fold(rs, act.group, op)
        roots = set(f.roots)
        for b in f.base:
            for r in f.roots:
                from rootfold.folding import reflect
                assert tuple(reflect(f.gram, b, r)) in roots
        f.cartan()  # raises on non-integrality


def test_base_preservation_error():
    from rootfold.lattice import MalformedAction
    d = build_datum("A2", "adjoint")
    rs = RootSystemV.from_datum(d)
    bad = ((0, -1), (-1, 0))  # sends simple roots to negatives
    with pytest.raises(MalformedAction):
        fold(rs, group_closure([bad]), "res")


# -- reference closure -------------------------------------------------------

def reference_roots(base, gram):
    """Roots by Fraction reflection closure in the ambient space."""
    from rootfold.folding import reflect
    from rootfold.linalg import frac_vec, vec_neg
    base = tuple(frac_vec(b) for b in base)
    seen = set(base)
    frontier = list(base)
    while frontier:
        nxt = []
        for v in frontier:
            for b in base:
                w = reflect(gram, b, v)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    seen |= {vec_neg(v) for v in seen}
    return tuple(sorted(seen))


def reference_positive_roots(base, roots):
    """Roots with nonnegative coordinates, solved one by one over the base."""
    from rootfold.linalg import frac_vec, gauss_solve, mat_transpose
    A = mat_transpose(tuple(frac_vec(b) for b in base))
    return tuple(sorted(r for r in roots if all(c >= 0 for c in gauss_solve(A, r))))


def assert_matches_reference(rs):
    roots = reference_roots(rs.base, rs.gram)
    assert rs.roots == roots, rs
    assert rs.positive_roots() == reference_positive_roots(rs.base, roots), rs
    dual = rs.dual()
    dual_roots = tuple(sorted(dual_vector(rs.gram, r) for r in roots))
    assert dual.roots == dual_roots, rs
    assert dual.positive_roots() == reference_positive_roots(dual.base, dual_roots), rs


def _preset_groups(lgd):
    inertia = (lgd.inertia.group, lgd.inertia.cochar_group)
    galois = (group_closure(tuple(lgd.inertia.generators) + (lgd.tau_char,)),
              group_closure(tuple(lgd.inertia.cochar_generators) + (lgd.tau_cochar,)))
    return inertia, galois


@pytest.mark.parametrize("name", preset_names())
def test_closure_matches_reference(name):
    d = load_preset(name).datum
    char = d.root_system()
    cochar = d.coroot_system()
    assert char is d.root_system() and cochar is d.coroot_system()
    assert_matches_reference(char)
    assert_matches_reference(cochar)
    for g_char, g_cochar in _preset_groups(load_preset(name).lgd):
        for op in ("res", "resprime", "N", "Nprime"):
            assert_matches_reference(fold(char, g_char, op))
            assert_matches_reference(fold(cochar, g_cochar, op))


def test_scaled_form_closure_matches_reference():
    d, act = _setup("A4", flip(4))
    scaled = RootSystemV(d.simple_roots,
                         tuple(tuple(5 * x for x in row) for row in d.gram()))
    assert_matches_reference(scaled)
    assert scaled.roots == d.root_system().roots
    for op in ("res", "resprime", "N", "Nprime"):
        assert_matches_reference(fold(scaled, act.group, op))


def test_dependent_base_rejected():
    eye = identity_matrix(2)
    with pytest.raises(ValueError):
        RootSystemV(((1, -1), (-2, 2)), eye)
    with pytest.raises(ValueError):
        RootSystemV(((1, 0), (0, 1), (1, 1)), eye)


def test_closure_cap(monkeypatch):
    import rootfold.folding as folding
    from rootfold.lattice import ResourceCap
    monkeypatch.setattr(folding, "_CLOSURE_CAP", 5)
    d = build_datum("A3")
    with pytest.raises(ResourceCap):
        RootSystemV.from_datum(d)


def test_shared_systems_first_build_race():
    # threads racing on the first build may each build; all see equal systems
    import sys
    import threading
    d = build_datum("D4")
    got = []

    def worker():
        got.append((d.root_system().roots, d.coroot_system().roots))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    ref = (reference_roots(d.simple_roots, d.gram()),
           reference_roots(d.simple_coroots, d.gram_star()))
    assert got == [ref] * 8
    assert d.root_system() is d.root_system()
