"""Coinvariants, invariants, averaging: examples and well-definedness."""

import itertools
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootfold.lattice import (
    CoinvariantElement,
    MalformedAction,
    average,
    closure,
    coinvariants,
    group_closure,
)
from rootfold.hecke import CenterContext
from rootfold.linalg import (
    identity_matrix,
    integer_solver,
    integral_rows,
    mat_sub,
    mat_vec,
    vec_add,
    vec_dot,
    vec_scale,
)
from rootfold.presets import load_preset, preset_names
from rootfold.rootdata import build_datum, diagram_automorphism, unitary_dual_action
import fraction_linalg
from fraction_linalg import hermite_row_basis

SWAP = ((0, 1), (1, 0))


def free_class(L, free):
    """The class of L with free coordinates `free` and zero residues."""
    return CoinvariantElement(tuple(free), (0,) * len(L.torsion))


def reduced(L, free, tors):
    """The class of L with int coordinates `free` and residues `tors`,
    each residue reduced modulo its torsion factor."""
    return CoinvariantElement(tuple(free), tuple(t % d for t, d in zip(tors, L.torsion)))


def combination(L, coeffs, classes):
    """sum_i coeffs[i] classes[i] in L, coordinate by coordinate, reduced
    once at the end."""
    terms = list(zip(coeffs, classes))
    return reduced(
        L, [sum(c * e.free[k] for c, e in terms) for k in range(L.free_rank)],
        [sum(c * e.tors[k] for c, e in terms) for k in range(len(L.torsion))])


def invariants(rank, generators):
    """Canonical integer basis of the fixed sublattice {x : gx = x for all
    g}: the reference for the free rank and section of `coinvariants`."""
    if not generators:
        return tuple(identity_matrix(rank))
    stacked = []
    eye = identity_matrix(rank)
    for g in generators:
        stacked.extend(mat_sub(g, eye))
    return hermite_row_basis(integer_solver(tuple(stacked))[1])


def test_trivial_action():
    L = coinvariants(2, [])
    assert L.free_rank == 2 and L.torsion == ()
    assert invariants(3, []) == identity_matrix(3)


def test_swap_on_z2():
    # brute-force oracle: Z^2 / <(x,y)-(y,x)> = Z via x+y
    L = coinvariants(2, [SWAP])
    assert L.free_rank == 1 and L.torsion == ()
    seen = {}
    for x in range(-3, 4):
        for y in range(-3, 4):
            cls = L.project((x, y))
            key = x + y
            if key in seen:
                assert seen[key] == cls
            else:
                seen[key] = cls
    assert len(set(seen.values())) == len(seen)


def test_sl2_style_torsion():
    # x -> -x on Z: quotient Z/2Z; oracle: cosets of 2Z
    L = coinvariants(1, [((-1,),)])
    assert L.free_rank == 0 and L.torsion == (2,)
    assert L.project((5,)) == L.project((3,))
    assert L.project((4,)) != L.project((3,))
    assert L.project((4,)) == L.project((0,))


def test_unitary_u3_torsion():
    L = coinvariants(3, [unitary_dual_action(3)])
    assert L.free_rank == 1 and L.torsion == (2,)
    # torsion class: the central cocharacter (1,1,1) minus averaging-visible part
    e = L.project((0, 1, 0))
    assert e.tors != (0,) or e.free != (0,)


def test_projection_invariance():
    for gens in ([SWAP], [unitary_dual_action(3)]):
        rank = len(gens[0])
        L = coinvariants(rank, gens)
        for g in L.group:
            for k in range(rank):
                x = tuple(1 if i == k else 0 for i in range(rank))
                assert L.project(mat_vec(g, x)) == L.project(x)


def test_average_well_defined_on_flat():
    L = coinvariants(3, [unitary_dual_action(3)])
    for x in [(1, 0, 0), (0, 1, 0), (2, -1, 3)]:
        e = L.project(x)
        # averaging the canonical lift equals averaging the original vector
        assert L.section_vector(e) == fraction_linalg.average(x, L.group) \
            or e.tors != (0,) * 1
    # on torsion-free classes they agree exactly
    e = L.project((1, 0, 1))
    assert L.section_vector(e) == fraction_linalg.average((1, 0, 1), L.group)


def test_flat_map():
    L = coinvariants(3, [unitary_dual_action(3)])
    # pure torsion flattens to zero
    t = CoinvariantElement((0,), (1,))
    assert t.free == (0,)
    assert L.section_vector(t) == (Fraction(0),) * 3


def test_invariants_vs_coinvariants_rank():
    for gens in ([SWAP], [unitary_dual_action(3)], [((-1,),)]):
        rank = len(gens[0])
        L = coinvariants(rank, gens)
        inv = invariants(rank, gens)
        assert len(inv) == L.free_rank
        # averaging is a bijection between the two rational spaces:
        # sections of the free basis must span the invariant subspace
        from fraction_linalg import gauss_solve
        from rootfold.linalg import mat_transpose
        secs = [L.section_vector(free_class(L, e)) for e in identity_matrix(L.free_rank)]
        for v in inv:
            assert gauss_solve(mat_transpose(secs), v) is not None


def test_average_examples():
    d = build_datum("A2", "adjoint")
    m = diagram_automorphism(d, (1, 0))
    grp = group_closure([m])
    # fixed vector is fixed: (orbit size, orbit sum)
    assert average((1, 1), grp) == (1, (1, 1))
    # alpha1 averages to (alpha1+alpha2)/2
    assert average((1, 0), grp) == (2, (1, 1))
    # D4 triality: orbit of an outer simple root has size 3
    d4 = build_datum("D4", "simply_connected")
    rho = diagram_automorphism(d4, (2, 1, 3, 0))
    grp3 = group_closure([rho])
    orbit = {mat_vec(g, d4.simple_roots[0]) for g in grp3}
    assert len(orbit) == 3
    avg = average(d4.simple_roots[0], grp3)
    total = tuple(sum(v[i] for v in orbit) for i in range(4))
    assert avg == (3, total)


def test_closure_is_breadth_first_in_the_order_found():
    # x -> x + 3, x + 5 on Z/10 from the seeds 0, 4 (0 given twice)
    out = list(closure([0, 4, 0], lambda x: ((x + 3) % 10, (x + 5) % 10)))
    assert out == [0, 4, 3, 5, 7, 9, 6, 8, 2, 1]
    # a step that reaches nothing new leaves the seeds
    assert list(closure([(1,), (2,)], lambda x: [x])) == [(1,), (2,)]


def test_group_closure_order():
    """The identity, then the products g h, h in the order found and g in
    the order given: the dihedral group of order 6 on the A2 lattice."""
    r = ((0, -1), (1, -1))
    assert group_closure([SWAP, r]) == (
        ((1, 0), (0, 1)), SWAP, r, ((-1, 0), (-1, 1)), ((1, -1), (0, -1)),
        ((-1, 1), (-1, 0)))


def test_malformed_action():
    with pytest.raises(MalformedAction):
        group_closure([((2, 0), (0, 1))])
    # unipotent: no power up to GROUP_CAP is the identity
    with pytest.raises(MalformedAction, match="^generator has infinite order$"):
        group_closure([SWAP, ((1, 1), (0, 1))])


def test_endo_validation():
    L = coinvariants(1, [((-1,),)])
    endo = L.endo_from_matrix(((3,),))  # commutes with -1, descends mod 2
    t = CoinvariantElement((), (1,))
    assert endo(t) == t
    with pytest.raises(MalformedAction):
        # does not descend: y -> 2y kills the torsion inconsistently?
        # actually 2y descends (2 mod 2 = 0); use a genuinely bad case on rank 2
        L2 = coinvariants(2, [SWAP])
        L2.endo_from_matrix(((1, 0), (0, 2)))


def test_subgroups():
    L = coinvariants(3, [unitary_dual_action(3)])
    a = L.project((1, 0, 0))
    b = L.project((0, 1, 0))
    add = L.add
    assert L.same_subgroup([a, b], [b, a, add(a, b)])
    assert L.same_subgroup([a, b, add(a, a)], [a, b])
    assert L.same_subgroup([L.zero()], [])
    assert L.same_subgroup([a], []) == (a == L.zero())
    # b is the torsion class: 2b = 0, so it lies in no subgroup of 2a's
    assert not L.same_subgroup([add(a, a)], [a])
    assert not L.same_subgroup([a], [a, b])
    assert L.same_subgroup([add(a, b), b], [a, add(add(b, b), b)])


def reference_same_subgroup(L, a, b):
    """Equal Hermite forms of the (free, tors) rows of a and of b, each
    with the torsion relation rows d_k e_k."""
    f, t = L.free_rank, len(L.torsion)
    relations = [(0,) * (f + k) + (d,) + (0,) * (t - k - 1)
                 for k, d in enumerate(L.torsion)]

    def basis(elems):
        return hermite_row_basis([e.free + e.tors for e in elems] + relations)

    return basis(a) == basis(b)


# Z + Z/2 (the GL3 lattice with the unitary swap), Z^2 (su4-ramified), Z/3
# (an order-3 rotation of Z^2) and (Z/2)^2 (-1 on Z^2)
_SUBGROUP_LATTICES = {
    "gl3-unitary": lambda: coinvariants(3, [unitary_dual_action(3)]),
    "su4-ramified": lambda: load_preset("su4-ramified").lgd.coinv,
    "rotation-3": lambda: coinvariants(2, [((0, -1), (1, -1))]),
    "minus-one": lambda: coinvariants(2, [((-1, 0), (0, -1))]),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_SUBGROUP_LATTICES)), st.data())
def test_same_subgroup_matches_hermite_reference_property(name, data):
    """Random generators a, and b drawn from the integral combinations of a
    (all of a again, or only some combinations, or one more element): the
    solver's mutual inclusion against equal Hermite forms."""
    L = _SUBGROUP_LATTICES[name]()
    vec = st.lists(st.integers(-3, 3), min_size=L.rank, max_size=L.rank)
    a = [L.project(v) for v in data.draw(st.lists(vec, max_size=3))]
    coeffs = st.lists(st.integers(-2, 2), min_size=len(a), max_size=len(a))
    b = [combination(L, cs, a) for cs in data.draw(st.lists(coeffs, max_size=3))]
    if data.draw(st.booleans()):
        b += a
    if data.draw(st.booleans()):
        b.append(L.project(data.draw(vec)))
    assert L.same_subgroup(a, b) == L.same_subgroup(b, a) \
        == reference_same_subgroup(L, a, b), (name, a, b)


def test_action_json_round_trip():
    from rootfold.lattice import action_from_json, action_to_json
    g = unitary_dual_action(3)
    data = action_to_json(3, [g])
    rank, gens = action_from_json(data)
    assert rank == 3 and gens == (g,)
    import pytest as _pytest
    with _pytest.raises(MalformedAction):
        action_from_json({"rank": 2, "generators": [[[1, 0, 0], [0, 1, 0]]]})


def test_non_integral_coordinates_raise():
    """`project` is where ambient vectors enter: it takes integral Fractions
    and floats to int classes, and raises on anything else (U is
    unimodular, so U x is integral exactly when x is)."""
    L = coinvariants(3, [unitary_dual_action(3)])
    for x in ((Fraction(1, 2), 0, 0), (0, 1.7, 0), (1, 0, Fraction(-1, 3))):
        with pytest.raises(ArithmeticError):
            L.project(x)
    e = L.project((Fraction(4, 2), 3.0, 0))
    assert e == L.project((2, 3, 0))
    assert all(type(x) is int for x in e.free + e.tors)
    assert all(0 <= t < d for t, d in zip(e.tors, L.torsion))


def test_classes_are_pairs():
    """A class equals, hashes and sorts as its (free, tors) pair, holds no
    lattice, and the tuple `+` and `*` raise instead of concatenating."""
    L = coinvariants(3, [unitary_dual_action(3)])
    classes = [L.project(x) for x in itertools.product(range(-1, 2), repeat=3)]
    for c in classes:
        assert isinstance(c, tuple) and not hasattr(c, "lattice")
        assert hash(c) == hash((c.free, c.tors)) and c == (c.free, c.tors)
    assert sorted(classes) == sorted(classes, key=lambda c: (c.free, c.tors))
    a, b = classes[:2]
    for op in (lambda: a + b, lambda: a * 2, lambda: 2 * a):
        with pytest.raises(TypeError):
            op()
    assert L.add(a, b) == combination(L, (1, 1), (a, b))
    assert L.neg(a) == combination(L, (-1,), (a,))
    assert L.add(a, L.neg(a)) == L.zero()


def test_section_pairing_matches_section_vector():
    L = coinvariants(3, [unitary_dual_action(3)])
    vectors = [(1, 0, 0), (Fraction(1, 2), 1, -1), (0, 0, 3)]
    den, rows = L.section_pairing(*integral_rows(vectors))
    assert den > 0 and all(type(x) is int for row in rows for x in row)
    for x in [(1, 0, 0), (2, -1, 3), (0, 1, 0)]:
        e = L.project(x)
        sec = L.section_vector(e)
        for v, row in zip(vectors, rows):
            pairing = sum(a * b for a, b in zip(v, sec))
            assert pairing == Fraction(sum(a * b for a, b in zip(row, e.free)), den)


def reference_section(L):
    """The Fraction section columns: the group average of the lift of each
    free basis class."""
    return [fraction_linalg.average(L.lift(free_class(L, e)), L.group)
            for e in identity_matrix(L.free_rank)]


def reference_section_pairing(L, vectors):
    """section_pairing with one Fraction dot product per (vector, free
    coordinate), normalised by integral_rows."""
    cols = reference_section(L)
    return integral_rows([[vec_dot(v, s) for s in cols] for v in vectors])


def reference_section_vector(L, e):
    v = (Fraction(0),) * L.rank
    for c, col in zip(e.free, reference_section(L)):
        v = vec_add(v, vec_scale(Fraction(c), col))
    return v


@pytest.mark.parametrize("name", preset_names())
def test_section_pairing_matches_fraction_reference(name):
    """The pairing rows of both affine engines, over the positive roots in
    the order of their coordinates, the FixedGroup's rows of the simple
    roots, and the section vectors of a few classes, equal the Fraction
    route's."""
    center = CenterContext(load_preset(name).lgd)
    for eng in (center.breve_engine, center.tau_engine):
        coords = eng.sigma.rs_root.coords
        roots = sorted(eng.sigma.rs_root.positive_roots(), key=coords.__getitem__)
        assert eng.coinv.section_pairing(*integral_rows(roots)) == (
            reference_section_pairing(eng.coinv, roots))
        assert (eng._den, eng._rows) == reference_section_pairing(eng.coinv, roots)
    h = center.chars.h
    base = h.sigma.rs_root.base
    assert h.coinv.section_pairing(*integral_rows(base)) == (
        reference_section_pairing(h.coinv, base))
    coords = h.sigma.rs_root.coords
    roots = sorted(h.sigma.rs_root.positive_roots(), key=coords.__getitem__)
    rows = reference_section_pairing(h.coinv, roots)[1]
    assert h.sigma.base_rows == tuple(rows[roots.index(b)] for b in base)
    L = h.coinv
    for x in identity_matrix(L.rank) + (tuple(range(-1, L.rank - 1)),):
        e = L.project(x)
        assert L.section_vector(e) == reference_section_vector(L, e)


# -- lam - sum c_i class_i: the int map against the per-coefficient loop ----

SIGMA_SYSTEMS = ("sigma_breve", "sigma0", "sigma0_tilde")


def reference_lower(L, lam, classes, c):
    """lam - sum_i c_i classes[i] in L by `combination`, as the characters
    of the fixed group computed it before they expanded in ints."""
    return combination(L, (1,) + tuple(-x for x in c), (lam,) + tuple(classes))


def unreduced_lowering(L, classes):
    """`CoinvariantLattice.lowering` without the `% d` on the residues: the
    negative control, which a lattice with torsion must catch."""
    free = tuple(tuple(cls.free[j] for cls in classes) for j in range(L.free_rank))
    tors = tuple(tuple(cls.tors[k] for cls in classes) for k in range(len(L.torsion)))

    def lower(lam, c):
        return CoinvariantElement(tuple([x - sum(map(mul, row, c))
                                         for x, row in zip(lam.free, free)]),
                                  tuple([t - sum(map(mul, row, c))
                                         for t, row in zip(lam.tors, tors)]))
    return lower


def _lowering_draw(data, name, which):
    lgd = load_preset(name).lgd
    sigma = getattr(lgd.echelonnage(), which)
    L = lgd.coinv
    lam = L.project(data.draw(st.lists(st.integers(-3, 3), min_size=L.rank,
                                       max_size=L.rank)))
    n = len(sigma.base_classes)
    c = tuple(data.draw(st.lists(st.integers(-4, 6), min_size=n, max_size=n)))
    return L, sigma, lam, c


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(preset_names()), st.sampled_from(SIGMA_SYSTEMS), st.data())
def test_lowering_matches_reference_property(name, which, data):
    """Every preset's three Sigma systems, at a drawn class and coefficient
    tuple: the int map of `SigmaSystem.lower` against the loop."""
    L, sigma, lam, c = _lowering_draw(data, name, which)
    assert sigma.lower(lam, c) == reference_lower(L, lam, sigma.base_classes, c)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SIGMA_SYSTEMS), st.data())
def test_lowering_matches_reference_with_torsion(which, data):
    """su3-ramified, the one preset whose lattice has torsion, (2,): the
    property above, drawn there every time."""
    L, sigma, lam, c = _lowering_draw(data, "su3-ramified", which)
    assert L.torsion == (2,)
    assert sigma.lower(lam, c) == reference_lower(L, lam, sigma.base_classes, c)


def test_unreduced_lowering_fails_with_torsion():
    """The negative control: without `% d` the map leaves residues outside
    0..d-1, which the reference never does.  It fails on su3-ramified and
    passes on a preset without torsion."""
    for name, caught in (("su3-ramified", True), ("su4-unramified", False)):
        lgd = load_preset(name).lgd
        L = lgd.coinv
        lams = [L.project(x) for x in identity_matrix(L.rank)]
        for which in SIGMA_SYSTEMS:
            classes = getattr(lgd.echelonnage(), which).base_classes
            bad = unreduced_lowering(L, classes)
            cs = list(itertools.product(range(-2, 3), repeat=len(classes)))
            wrong = [(lam, c) for lam in lams for c in cs
                     if bad(lam, c) != reference_lower(L, lam, classes, c)]
            assert bool(wrong) == caught, (name, which)
