"""The four folding operations and the duality theorem."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootfold.folding import (
    OP_TAGS,
    _components,
    FoldedRootSystem,
    RootSystemV,
    base_orbits,
    base_permutation,
    dual_mismatch,
    fold,
    verify_duality,
)
from rootfold.echelonnage import LocalGroupDatum, TheoremViolation
from rootfold.lattice import ResourceCap, group_closure
from rootfold.linalg import (
    fraction_rows,
    identity_matrix,
    mat_integer_inverse,
    mat_mul,
    mat_transpose,
    mat_vec,
    vec_dot,
    vec_scale,
    vec_sub,
)
from rootfold.presets import Preset, _load_raw, load_preset, preset_names
from rootfold.rootdata import (
    AutomorphismAction,
    BasedRootDatum,
    build_datum,
    classify_cartan,
    diagram_automorphism,
)
from fraction_linalg import average, frac_vec
from test_rootdata import cartan_data


def from_datum(d):
    """Phi of the datum, closed afresh from its simple roots and its form."""
    return RootSystemV(d.simple_roots, d.gram(), label=d.label)


def dual_from_datum(d):
    """Phi^vee of the datum, closed afresh from its simple coroots and the
    induced form."""
    return RootSystemV(d.simple_coroots, d.gram_star(), label=d.label + "^" if d.label else "")


def flip(r):
    return tuple(r - 1 - i for i in range(r))


def form_value(gram, u, v):
    """(u|v) in Fractions."""
    return vec_dot(frac_vec(u), mat_vec(gram, frac_vec(v)))


def dual_vector(gram, v):
    """v^vee = 2v/(v|v) with respect to the form, in Fractions."""
    return vec_scale(Fraction(2) / form_value(gram, v, v), frac_vec(v))


def reflect(gram, root, v):
    """Reflection of v in the hyperplane orthogonal to `root`."""
    c = Fraction(2) * form_value(gram, root, v) / form_value(gram, root, root)
    return vec_sub(frac_vec(v), vec_scale(c, frac_vec(root)))


def weyl_order(rs, cap=2000000):
    """Order of the Weyl group, by closure over reflection matrices."""
    n = len(rs.base[0])
    mats = []
    for b in rs.base:
        cols = []
        for k in range(n):
            e = tuple(Fraction(1 if i == k else 0) for i in range(n))
            cols.append(reflect(rs.gram, b, e))
        mats.append(mat_transpose(cols))
    seen = {tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for h in frontier:
            for g in mats:
                p = mat_mul(g, h)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
                    if len(seen) > cap:
                        raise ResourceCap("Weyl closure exceeded cap")
        frontier = nxt
    return len(seen)


def _setup(cartan, perm, iso="adjoint"):
    d = build_datum(cartan, iso)
    m = diagram_automorphism(d, perm)
    act = AutomorphismAction(d, [m])
    return d, act


def test_a2n_flip_example():
    # the A_{2n} example: res/res'/N/N' give B_n/C_n/B_n/C_n
    for n in (1, 2, 3):
        d, act = _setup("A%d" % (2 * n), flip(2 * n))
        rs = from_datum(d)
        got = {op: fold(rs, act.group, op).type_label()
               for op in ("res", "resprime", "N", "Nprime")}
        assert got == {"res": "B%d" % n, "resprime": "C%d" % n,
                       "N": "B%d" % n, "Nprime": "C%d" % n}


def test_a4_flip_bases():
    # explicit middle-orbit doubling: N' doubles exactly the middle fold
    d, act = _setup("A4", flip(4))
    rs = from_datum(d)
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
    rs = from_datum(d)
    triv = (identity_matrix(2),)
    for op in ("res", "resprime", "N", "Nprime"):
        f = fold(rs, triv, op)
        assert set(f.roots) == set(rs.roots)
        assert f.base == rs.base


def test_d4_triality():
    d, act = _setup("D4", (2, 1, 3, 0), iso="simply_connected")
    rs = from_datum(d)
    outs = {op: fold(rs, act.group, op) for op in OP_TAGS}
    for op, f in outs.items():
        assert f.type_label() == "G2"
        assert len(f.roots) == 12
    # orbits pairwise orthogonal, so N = N' and res = res'
    assert outs["N"].base == outs["Nprime"].base
    assert outs["res"].base == outs["resprime"].base


# The classical folding table above rank 3, where no golden reaches: the
# labels of (N, N', res, res') on the adjoint datum under the diagram
# automorphism `perm`, as `rootfold fold --type T --tau perm` prints them.
CLASSICAL_FOLDS = {
    ("A5", (4, 3, 2, 1, 0)): ("B3", "B3", "C3", "C3"),
    ("A4", (3, 2, 1, 0)): ("B2", "C2", "B2", "C2"),
    ("D5", (0, 1, 2, 4, 3)): ("C4", "C4", "B4", "B4"),
    ("E6", (5, 1, 4, 3, 2, 0)): ("F4",) * 4,
    ("D4", (3, 1, 0, 2)): ("G2",) * 4,
    ("E7", ()): ("E7",) * 4,
    ("E8", ()): ("E8",) * 4,
}


@pytest.mark.parametrize("cartan_type, perm", sorted(CLASSICAL_FOLDS))
def test_classical_folding_table(cartan_type, perm):
    d = build_datum(cartan_type)
    gens = (diagram_automorphism(d, perm),) if perm else ()
    rs = d.root_system()
    got = tuple(fold(rs, gens, op).type_label() for op in OP_TAGS)
    assert got == CLASSICAL_FOLDS[cartan_type, perm]


def test_orbit_orthogonality():
    d, act = _setup("A4", flip(4))
    rs = from_datum(d)
    # the outer orbit {e1-e2, e4-e5} is orthogonal, the middle pair is not
    for op in OP_TAGS:
        assert fold(rs, act.group, op).orbits == (((0, 3), True), ((1, 2), False))
    # the same pattern on the coroot side
    rs_co = dual_from_datum(d)
    assert fold(rs_co, act.cochar_group, "res").orbits == \
        (((0, 3), True), ((1, 2), False))


def test_averaging_lemma():
    # (alpha^vee)^diamond = (1/|orbit|) (alpha^diamond)^vee, doubled
    # denominator when the orbit is not pairwise orthogonal
    cases = [("A4", flip(4), "adjoint"), ("A2", flip(2), "simply_connected"),
             ("D4", (2, 1, 3, 0), "simply_connected"), ("E6", (5, 1, 4, 3, 2, 0),
                                                        "adjoint")]
    for cartan, perm, iso in cases:
        d, act = _setup(cartan, perm, iso)
        rs = from_datum(d)
        rs_co = dual_from_datum(d)
        iota = d.gram_star()
        orth_of = {i: orth for orb, orth in fold(rs, act.group, "N").orbits
                   for i in orb}
        for i, (a, av) in enumerate(zip(d.simple_roots, d.simple_coroots)):
            orb = {mat_vec(g, a) for g in act.group}
            orth = orth_of[i]
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
            bad = verify_duality(d, act.group, act.cochar_group)
            assert not bad, (cartan, iso, bad)


def test_dual_mismatch_reports_base():
    # res(Phi^vee)^vee is N'(Phi); against N(Phi) the doubled middle orbit
    # of the A4 flip shows up in the base
    d, act = _setup("A4", flip(4))
    lhs = fold(d.coroot_system(), act.cochar_group, "res")
    assert dual_mismatch(lhs, fold(d.root_system(), act.group, "Nprime"),
                         d._gram_star_pair) == ()
    assert dual_mismatch(lhs, fold(d.root_system(), act.group, "N"),
                         d._gram_star_pair) == ("base", "roots")


def test_weyl_group_orders_match():
    d, act = _setup("A4", flip(4))
    rs = from_datum(d)
    orders = {weyl_order(fold(rs, act.group, op))
              for op in ("res", "resprime", "N", "Nprime")}
    assert orders == {8}  # |W(B2)|
    d4, act4 = _setup("D4", (2, 1, 3, 0), iso="simply_connected")
    rs4 = from_datum(d4)
    assert weyl_order(fold(rs4, act4.group, "res")) == 12  # |W(G2)|


def test_normalization_independence():
    # rescaling the invariant form must not change the classification or
    # the orthogonality pattern
    d, act = _setup("A4", flip(4))
    rs = from_datum(d)
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
    rs = from_datum(d)
    for op in ("res", "resprime", "N", "Nprime"):
        f = fold(rs, act.group, op)
        roots = set(f.roots)
        for b in f.base:
            for r in f.roots:
                assert tuple(reflect(f.gram, b, r)) in roots
        f.cartan()  # raises on non-integrality


def test_base_preservation_error():
    from rootfold.lattice import MalformedAction
    d = build_datum("A2", "adjoint")
    rs = from_datum(d)
    bad = ((0, -1), (-1, 0))  # sends simple roots to negatives
    with pytest.raises(MalformedAction):
        fold(rs, group_closure([bad]), "res")
    collapse = ((1, 1), (0, 0))  # sends both simple roots to the first
    assert rs.base == ((1, 0), (0, 1))
    with pytest.raises(MalformedAction):
        fold(rs, (collapse,), "res")


# -- reference closure -------------------------------------------------------

def vec_neg(u):
    return tuple(-a for a in u)


def reference_roots(base, gram):
    """Roots by Fraction reflection closure in the ambient space."""
    base = tuple(frac_vec(b) for b in base)
    # v - 2(b|v)/(b|b) b, with G b and (b|b) computed once per simple root
    mirrors = [(b, mat_vec(gram, b), form_value(gram, b, b)) for b in base]
    seen = set(base)
    frontier = list(base)
    while frontier:
        nxt = []
        for v in frontier:
            for b, gb, bb in mirrors:
                w = vec_sub(v, vec_scale(2 * vec_dot(gb, v) / bb, b))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    seen |= {vec_neg(v) for v in seen}
    return tuple(sorted(seen))


def reference_coords(base, roots):
    """{root: its coordinates over the base}, solved one by one."""
    from fraction_linalg import gauss_solve
    A = mat_transpose(tuple(frac_vec(b) for b in base))
    return {r: tuple(int(c) for c in gauss_solve(A, r)) for r in roots}


def reference_positive_roots(coords):
    """The roots with nonnegative coordinates, from `reference_coords`."""
    return tuple(sorted(r for r, c in coords.items() if min(c) >= 0))


def reference_cartan(base, gram):
    """C[i][j] = 2(b_i|b_j)/(b_i|b_i) from the Fraction Gram matrix of the
    base."""
    G = [[form_value(gram, u, v) for v in base] for u in base]
    C = [[2 * gij / row[i] for gij in row] for i, row in enumerate(G)]
    return tuple(tuple(int(x) if x.denominator == 1 else x for x in row) for row in C)


def pointwise_dual(rs):
    """The dual system (same ambient space and form, transposed Cartan
    matrix) from the dual base and coroot coordinates of `_dual_parts`,
    which `dual_mismatch` reads."""
    den, rows, coords = rs._dual_parts
    return RootSystemV.from_closure((den, rows), (rs._gram_den, rs._gram_int),
                                    tuple(zip(*rs._cartan)), coords, rs.label + "^")


def reference_dual(rs):
    """The dual base and the sorted dual roots, pointwise 2r/(r|r)."""
    return (tuple(dual_vector(rs.gram, b) for b in rs.base),
            tuple(sorted(dual_vector(rs.gram, r) for r in rs.roots)))


def reference_dual_mismatch(res_side, norm_side, carry):
    """dual_mismatch with the pointwise Fraction dual and one mat_vec of the
    carry per root."""
    base, roots = reference_dual(res_side)
    out = []
    if tuple(mat_vec(carry, b) for b in base) != norm_side.base:
        out.append("base")
    if {mat_vec(carry, r) for r in roots} != set(norm_side.roots):
        out.append("roots")
    return tuple(out)


def assert_matches_reference(rs):
    roots = reference_roots(rs.base, rs.gram)
    coords = reference_coords(rs.base, roots)
    assert rs.roots == roots and rs.coords == coords, rs
    assert rs.positive_roots() == reference_positive_roots(coords), rs
    cartan = rs.cartan()
    assert cartan == reference_cartan(rs.base, rs.gram), rs
    assert all(type(x) is int for row in cartan for x in row), rs
    dual = pointwise_dual(rs)
    dual_base, dual_roots = reference_dual(rs)
    dual_coords = reference_coords(dual_base, dual_roots)
    assert dual.base == dual_base and dual.roots == dual_roots, rs
    assert dual.coords == dual_coords, rs
    assert dual.positive_roots() == reference_positive_roots(dual_coords), rs
    assert dual.cartan() == mat_transpose(cartan), rs


def reference_orbits(rs, group):
    """Orbits of the base by Fraction image-and-lookup, each with its
    pairwise orthogonality under the invariant form."""
    index = {b: i for i, b in enumerate(rs.base)}
    seen = set()
    out = []
    for i, b in enumerate(rs.base):
        if i in seen:
            continue
        orb = tuple(sorted({index[tuple(Fraction(x) for x in mat_vec(g, b))]
                            for g in group}))
        seen |= set(orb)
        orth = all(form_value(rs.gram, rs.base[j], rs.base[k]) == 0
                   for j in orb for k in orb if j < k)
        out.append((orb, orth))
    return tuple(out)


def assert_fold_matches_reference(rs, group, op):
    f = fold(rs, group, op)
    orbits = reference_orbits(rs, group)
    assert f.orbits == orbits, (rs, op)
    assert_matches_reference(f)
    # the labelling rule applied to the reference Cartan matrix and orbits
    assert f.type_label() == reference_type_label(
        op, orbits, reference_cartan(f.base, f.gram)), (rs, op)
    return f


def reference_type_label(op, orbits, cartan):
    """`FoldedRootSystem.type_label` on a Cartan matrix: each component's
    submatrix classified on its own, except that a rank-1 component from a
    non-orthogonal orbit is B1 under N and res and C1 under N' and res'."""
    names = []
    for comp in _components(cartan):
        if len(comp) == 1 and not orbits[comp[0]][1]:
            letter = "B" if op in ("N", "res") else "C"
            names.append((1, letter, letter + "1"))
        else:
            lbl = classify_cartan(tuple(tuple(cartan[i][j] for j in comp) for i in comp))
            names.append((len(comp), lbl[0], lbl))
    return "x".join(nm for _, _, nm in sorted(names))


def full_group_orbits(rs, group):
    """Orbits of the base read off every element of a whole group: the
    orbit of i is {p(i)} over the permutations p of all the elements."""
    perms = [base_permutation(rs, g) for g in group]
    seen = set()
    orbits = []
    for i in range(len(rs.base)):
        if i in seen:
            continue
        orb = tuple(sorted({p[i] for p in perms}))
        seen.update(orb)
        orbits.append(orb)
    return tuple(orbits)


def assert_cochar_group_is_inverse_transpose(act):
    """The closure of the cocharacter generators lists g^{-T} for the k-th
    element g of the character group at the same position k."""
    assert len(act.cochar_group) == len(act.group)
    for g, gstar in zip(act.group, act.cochar_group):
        assert gstar == mat_transpose(mat_integer_inverse(g)), act.datum.label


def _preset_actions(lgd):
    """(source system, generators, whole group) of the inertia and Galois
    actions on Phi and Phi^vee, and of tau on Sigma_breve and its dual."""
    d = lgd.datum
    inertia = lgd.inertia
    galois = (inertia.generators + (lgd.tau_char,),
              inertia.cochar_generators + (lgd.tau_cochar,))
    breve = lgd.echelonnage().sigma_breve
    return ((d.root_system(), inertia.generators, inertia.group),
            (d.coroot_system(), inertia.cochar_generators, inertia.cochar_group),
            (d.root_system(), galois[0], group_closure(galois[0])),
            (d.coroot_system(), galois[1], group_closure(galois[1])),
            (breve.rs_root, (lgd.tau_char,), group_closure([lgd.tau_char])),
            (breve.rs_co, (lgd.tau_cochar,), group_closure([lgd.tau_cochar])))


@pytest.mark.parametrize("name", preset_names())
def test_closure_matches_reference(name):
    d = load_preset(name).datum
    char = d.root_system()
    cochar = d.coroot_system()
    assert char is d.root_system() and cochar is d.coroot_system()
    assert_matches_reference(char)
    assert_matches_reference(cochar)
    for rs, _gens, group in _preset_actions(load_preset(name).lgd):
        for op in OP_TAGS:
            assert_fold_matches_reference(rs, group, op)


@pytest.mark.parametrize("name", preset_names())
def test_generator_orbits_match_full_group(name):
    """Folding by generators reads the orbits of the whole group, and
    returns the very fold that the whole group gives."""
    lgd = load_preset(name).lgd
    for rs, gens, group in _preset_actions(lgd):
        assert base_orbits(rs, gens) == full_group_orbits(rs, group), (name, rs)
        for op in OP_TAGS:
            assert fold(rs, gens, op) is fold(rs, group, op), (name, rs, op)
    assert_cochar_group_is_inverse_transpose(lgd.inertia)
    galois = lgd.inertia.generators + (lgd.tau_char,)
    assert_cochar_group_is_inverse_transpose(AutomorphismAction(lgd.datum, galois))


def test_sigma_breve_folds_built_once(monkeypatch, fresh_tables):
    """theorem-A(inertia) and echelonnage() both fold Phi by N' and Phi^vee
    by res under the inertia; on a fresh preset, from empty process-wide
    tables, each fold is built once (`fold` builds from int rows, through
    `FoldedRootSystem._closed`)."""
    from rootfold.verify import Verifier
    built = []
    orig = FoldedRootSystem._closed

    def counted(cls, base, gram, label=""):
        built.append(label)
        return orig(base, gram, label)

    monkeypatch.setattr(FoldedRootSystem, "_closed", classmethod(counted))
    preset = Preset("su3-ramified", _load_raw("su3-ramified"))
    Verifier()._theorem_a("su3-ramified", preset)
    d = preset.datum
    # tau is trivial here, so theorem-A(galois) reuses the inertia folds
    assert sorted(built) == ["N_GL3", "Nprime_GL3", "res_GL3^", "resprime_GL3^"]
    breve = preset.lgd.echelonnage().sigma_breve
    # echelonnage() adds only the four tau-folds of Sigma_breve
    assert len(built) == len(set(built)) == 8, built
    inertia = preset.lgd.inertia
    assert breve.rs_root is fold(d.root_system(), inertia.generators, "Nprime")
    assert breve.rs_co is fold(d.coroot_system(), inertia.cochar_generators, "res")


def test_builds_compute_no_ambient_vector(monkeypatch, fresh_tables):
    """A build orders its roots by their coordinates: from empty tables,
    the systems of D4, their four folds under triality, the duality check
    and the echelonnage data all build with `RootSystemV._vectors`
    raising, and the Fraction view `roots` and Sigma_1, which is built on
    first read, then call it."""
    def refuse(self, coords, den):
        raise AssertionError("an ambient root vector was built")

    monkeypatch.setattr(RootSystemV, "_vectors", refuse)
    d = build_datum("D4")
    lgd = LocalGroupDatum(d, (diagram_automorphism(d, (2, 1, 3, 0)),))
    inertia = lgd.inertia
    assert verify_duality(d, inertia.generators, inertia.cochar_generators) == []
    folds = [fold(rs, gens, op) for op in OP_TAGS
             for rs, gens in ((d.root_system(), inertia.generators),
                              (d.coroot_system(), inertia.cochar_generators))]
    ech = lgd.echelonnage()
    for rs in [d.root_system(), d.coroot_system()] + folds:
        with pytest.raises(AssertionError, match="ambient root vector"):
            rs.roots
    with pytest.raises(AssertionError, match="ambient root vector"):
        ech.sigma1


@pytest.mark.parametrize("name", preset_names())
def test_shared_systems_reuse_datum_closure(name, monkeypatch, fresh_tables):
    """root_system() and coroot_system() take the coordinates of the datum's
    own closure: with cartan_closure disabled they still build, and they
    equal the systems closed afresh from the base and the form.  From empty
    tables the datum has built neither system yet, so both are built here."""
    import rootfold.folding as folding
    p = load_preset(name).datum
    d = BasedRootDatum(p.simple_roots, p.simple_coroots, p.rank, label=p.label)
    char, cochar = from_datum(d), dual_from_datum(d)
    assert d._root_system is None and d._coroot_system is None, name

    def closed_again(_cartan):
        raise AssertionError("the datum's Cartan matrix was closed again")

    monkeypatch.setattr(folding, "cartan_closure", closed_again)
    for got, ref in ((d.root_system(), char), (d.coroot_system(), cochar)):
        assert got == ref and got.roots == ref.roots, name
        assert got.coords == ref.coords and got.label == ref.label, name
        assert got.positive_roots() == ref.positive_roots(), name
        assert got.cartan() == ref.cartan(), name
    assert d.coroot_system().cartan() == mat_transpose(d.cartan)


def test_shared_systems_reject_a_form_of_another_type(fresh_tables):
    """A form whose Cartan matrix is not the datum's is an internal fault.
    The patched data stay in tables that end with the test."""
    d = build_datum("B2")
    d._gram_pair = (1, identity_matrix(2))
    with pytest.raises(TheoremViolation, match="the form gives Cartan matrix"):
        d.root_system()
    d = build_datum("B2")
    d._gram_star_pair = (1, identity_matrix(2))
    with pytest.raises(TheoremViolation, match="the form gives Cartan matrix"):
        d.coroot_system()


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


def test_closure_cap(monkeypatch, fresh_tables):
    import rootfold.folding as folding
    import rootfold.rootdata as rootdata
    d = build_datum("A3")
    monkeypatch.setattr(folding, "_CLOSURE_CAP", 5)
    # the cap bounds the one closure, so the roots of a datum built afresh
    # (not the interned one) as well
    monkeypatch.setattr(rootdata, "_DATA", {})
    with pytest.raises(ResourceCap):
        build_datum("A3")
    with pytest.raises(ResourceCap):
        from_datum(d)


def test_one_closure_per_cartan_matrix(monkeypatch, fresh_tables):
    """One run_verify() from empty process-wide tables asks for 194 root
    closures of only 16 distinct Cartan matrices, and closes each matrix
    once; every request returns the same frozenset.  Each of the 15 data
    asks twice, for C and for its transpose.  (Before data and folds were
    shared by value it asked 366 times: 4 more data and 55 more folds;
    before theorem B read the parameter function of its CenterContext, 307:
    61 more from 19 more parameter functions; before Phi^vee was read off
    the closure of the transpose, 246; before the parameter function read
    L off the tau-orbits of Sigma_0 instead of closing the parabolic of
    each orbit of walls, 261 requests of 18 matrices.)"""
    import rootfold.folding as folding
    import rootfold.rootdata as rootdata
    from rootfold.verify import run_verify
    requested, computed = [], []
    request, close = folding.cartan_closure, folding._close_cartan

    def counted_request(cartan):
        out = request(cartan)
        requested.append((tuple(map(tuple, cartan)), out))
        return out

    def counted_close(cartan):
        computed.append(cartan)
        return close(cartan)

    for module in (folding, rootdata):
        monkeypatch.setattr(module, "cartan_closure", counted_request)
    monkeypatch.setattr(folding, "_close_cartan", counted_close)
    code, _lines = run_verify()
    assert code == 0
    assert (len(requested), len(computed)) == (194, 16)
    assert len(set(computed)) == len(computed) == len(folding._CLOSURES)
    for cartan, roots in requested:
        assert type(roots) is frozenset and roots is folding._CLOSURES[cartan]


def test_shared_systems_first_build_race(fresh_tables):
    # threads racing, from empty process-wide tables, on the first build of
    # a datum, its systems, their folds and a Freudenthal table may each
    # build; all see equal systems, and the process-wide tables hand every
    # thread the one datum, fold and table they keep
    import sys
    import threading
    from rootfold.characters import freudenthal
    got = []

    def worker():
        d = build_datum("D4")
        triality = (diagram_automorphism(d, (2, 1, 3, 0)),)
        folds = tuple(fold(d.root_system(), triality, op) for op in OP_TAGS)
        table = freudenthal(d.coroot_system(), (1, 1, 1, 1))
        got.append((d, folds, table, d.root_system().roots, d.coroot_system().roots))

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
    assert len(got) == 8
    d, folds, table = got[0][:3]
    for other in got:
        assert other[0] is d
        assert all(f is g for f, g in zip(other[1], folds))
        assert other[2] is table
    assert all(other[3:] == (reference_roots(d.simple_roots, d.gram()),
                             reference_roots(d.simple_coroots, d.gram_star()))
               for other in got)
    triality = (diagram_automorphism(d, (2, 1, 3, 0)),)
    assert [f.roots for f in folds] == [
        reference_roots(fold(d.root_system(), triality, op).base, d.gram())
        for op in OP_TAGS]
    assert d.root_system() is d.root_system()
    assert sum(table.values()) == 2 ** 12  # dim V_rho = 2^|positive roots|


# -- the int systems against the Fraction references, on generated data ------

def diagram_automorphisms(cartan):
    """Every permutation of the nodes that preserves the Cartan matrix."""
    n = len(cartan)
    return [p for p in itertools.permutations(range(n))
            if all(cartan[i][j] == cartan[p[i]][p[j]] for i in range(n) for j in range(n))]


@st.composite
def folding_data(draw):
    """A datum from `cartan_data` with the group generated by a drawn set of
    its diagram automorphisms, so that every subgroup can come up."""
    d = draw(cartan_data())
    perms = draw(st.lists(st.sampled_from(diagram_automorphisms(d.cartan)), max_size=3))
    return d, AutomorphismAction(d, [diagram_automorphism(d, p) for p in perms])


@settings(max_examples=20, deadline=None)
@given(folding_data())
def test_int_systems_match_references_property(data):
    """Roots, coordinates, positives, Cartan matrix, orbits, type label and
    dual of Phi, Phi^vee and their four folds; dual_mismatch, in both
    directions, on the two pairs of the duality theorem and the two pairs
    that differ from it by the doubling."""
    d, act = data
    char, cochar = d.root_system(), d.coroot_system()
    assert_matches_reference(char)
    assert_matches_reference(cochar)
    folds = {op: (assert_fold_matches_reference(char, act.group, op),
                  assert_fold_matches_reference(cochar, act.cochar_group, op))
             for op in OP_TAGS}
    for res_op, norm_op in (("res", "Nprime"), ("resprime", "N"),
                            ("res", "N"), ("resprime", "Nprime")):
        for res, norm, carry in ((folds[res_op][1], folds[norm_op][0], d._gram_star_pair),
                                 (folds[res_op][0], folds[norm_op][1], d._gram_pair)):
            assert dual_mismatch(res, norm, carry) == \
                reference_dual_mismatch(res, norm, fraction_rows(*carry)), \
                (d.label, res_op, norm_op)


@settings(max_examples=20, deadline=None)
@given(folding_data())
def test_generator_orbits_match_full_group_property(data):
    d, act = data
    assert_cochar_group_is_inverse_transpose(act)
    for rs, gens, group in ((d.root_system(), act.generators, act.group),
                            (d.coroot_system(), act.cochar_generators,
                             act.cochar_group)):
        assert base_orbits(rs, gens) == full_group_orbits(rs, group), d.label


def test_dual_mismatch_compares_roots_on_their_own():
    """A norm side with the right base but one +- pair of roots missing
    differs in "roots" only, which a comparison of bases cannot see."""
    d, act = _setup("A4", flip(4))
    lhs = fold(d.coroot_system(), act.cochar_group, "res")
    norm = fold(d.root_system(), act.group, "Nprime")
    c = max(norm.coords.values())  # the highest root, not simple
    short = RootSystemV.from_closure((norm._den, norm._base_int),
                                     (norm._gram_den, norm._gram_int), norm.cartan(),
                                     set(norm.coords.values()) - {c, tuple(-x for x in c)},
                                     label=norm.label)
    assert short.base == norm.base and len(short.roots) == len(norm.roots) - 2
    assert dual_mismatch(lhs, norm, d._gram_star_pair) == ()
    assert dual_mismatch(lhs, short, d._gram_star_pair) == ("roots",)
    assert reference_dual_mismatch(lhs, short, d.gram_star()) == ("roots",)


def test_non_integral_cartan_is_a_theorem_violation():
    """(b1|b1) = 2, (b2|b2) = 1/2, (b1|b2) = -1/2: the reflections close up,
    but C[0][1] = -1/2, an internal fault that names the system."""
    rs = RootSystemV(((1, 0), (0, Fraction(1, 2))), ((2, -1), (-1, 2)), label="bad")
    assert rs._cartan == ((2, Fraction(-1, 2)), (-2, 2))
    with pytest.raises(TheoremViolation, match="bad: non-integral Cartan entry"):
        rs.cartan()
