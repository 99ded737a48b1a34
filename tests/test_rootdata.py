"""Root data: construction, classification, orders, weight sets."""

import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootfold.folding import base_permutation, cartan_closure
from rootfold.lattice import MalformedAction
from rootfold.linalg import (
    identity_matrix,
    integer_solver,
    mat_integer_inverse,
    mat_mul,
    mat_transpose,
    mat_vec,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
)
from rootfold.presets import load_preset, preset_names
from rootfold import rootdata
from rootfold.rootdata import (
    AutomorphismAction,
    BasedRootDatum,
    build_datum,
    cartan_matrix,
    classify_cartan,
    diagram_automorphism,
    gl_datum,
    parse_cartan_type,
    pinned_cochar,
    symmetrizers,
    UndeterminedAutomorphism,
    unitary_dual_action,
)
from fraction_linalg import frac_vec, gauss_jordan, gauss_solve, solve_integer

ROOT_COUNTS = {
    "A1": 2, "A2": 6, "A3": 12, "A4": 20, "A5": 30, "A6": 42,
    "B2": 8, "B3": 18, "B4": 32, "B5": 50, "B6": 72,
    "C3": 18, "C4": 32, "C5": 50, "C6": 60 + 12,
    "D4": 24, "D5": 40, "D6": 60,
    "E6": 72, "F4": 48, "G2": 12,
}


def int_vector(v):
    assert all(x.denominator == 1 for x in v), v
    return tuple(int(x) for x in v)


def ambient_roots(d):
    """(roots, coroots, positive roots) of a datum as int vectors, read off
    `root_system()` and `coroot_system()`: the roots sorted, the coroot of
    each beside it, and the positive roots in the same order.  The coroot
    of alpha is the member 2 G alpha / (alpha|alpha) of Phi^vee, for G the
    invariant form on X^*: <x, alpha^vee> = 2 (x|alpha) / (alpha|alpha)."""
    G = d.gram()
    coroots = {int_vector(c) for c in d.coroot_system().roots}
    pairs = {}
    for r in d.root_system().roots:
        Gr = mat_vec(G, r)
        q = vec_dot(r, Gr)
        c = int_vector([2 * x / q for x in Gr])
        assert c in coroots, (d.label, r, c)
        pairs[int_vector(r)] = c
    assert len(pairs) == len(coroots) == len(set(pairs.values())), d.label
    roots = tuple(sorted(pairs))
    positive = set(map(int_vector, d.root_system().positive_roots()))
    return (roots, tuple(pairs[r] for r in roots),
            tuple(r for r in roots if r in positive))


def test_root_counts():
    for t, n in ROOT_COUNTS.items():
        for iso in ("adjoint", "simply_connected"):
            d = build_datum(t, iso)
            assert len(ambient_roots(d)[0]) == n, (t, iso)


def test_pairing_and_closure():
    for t in ("A2", "B2", "G2", "D4"):
        d = build_datum(t, "simply_connected")
        d_roots, d_coroots, _ = ambient_roots(d)
        roots = set(d_roots)
        for r, c in zip(d_roots, d_coroots):
            assert vec_dot(r, c) == 2
            for i in range(len(d.simple_roots)):
                assert reflect_char(d, i, r) in roots
        for r in d_roots:
            for c in d_coroots:
                val = vec_dot(r, c)
                assert isinstance(val, int)


def reference_coroot_coords(d):
    """{coordinates of a root over the simple roots: those of its coroot
    over the simple coroots} by the per-root formula: over
    cartan_closure(C), the coroot of sum_j c_j alpha_j is
    sum_j (2 c_j d_j / (beta|beta)) alpha_j^vee, with d the symmetrizers and
    (beta|beta) = sum_{i,j} c_i c_j d_i C[i][j]."""
    C = d.cartan
    sym = symmetrizers(C)
    n = len(C)
    out = {}
    for c in cartan_closure(C):
        norm = sum(c[i] * c[j] * sym[i] * C[i][j] for i in range(n) for j in range(n))
        assert all(2 * cj * sym[j] % norm == 0 for j, cj in enumerate(c)), c
        out[c] = tuple(2 * cj * sym[j] // norm for j, cj in enumerate(c))
    return out


ORACLE_TYPES = ("A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3", "C4",
                "D4", "D5", "E6", "E7", "E8", "F4", "G2", "A2xB2", "B3xG2")


@pytest.mark.parametrize("t, iso", [(t, iso) for t in ORACLE_TYPES
                                     for iso in ("adjoint", "simply_connected")]
                         + [("GL3", None)])
def test_coroot_closure_matches_per_root_formula(t, iso):
    """Phi^vee's coordinates, the closure of the transposed Cartan matrix,
    are exactly the images of the per-root coroot formula, which is a
    bijection from Phi; in ambient ints every root pairs to 2 with its
    coroot."""
    d = gl_datum(3) if iso is None else build_datum(t, iso)
    ref = reference_coroot_coords(d)
    assert len(set(ref.values())) == len(ref)
    assert set(ref.values()) == cartan_closure(mat_transpose(d.cartan)) == d._coclosure
    cols, cocols = mat_transpose(d.simple_roots), mat_transpose(d.simple_coroots)
    for c, cv in ref.items():
        root, coroot = mat_vec(cols, c), mat_vec(cocols, cv)
        assert vec_dot(root, coroot) == 2, (c, cv)


def test_classification():
    for t in ("A1", "A2", "B2", "C2", "B3", "C3", "D4", "D5", "E6", "F4", "G2"):
        assert classify_cartan(build_datum(t).cartan) == t
    assert classify_cartan(build_datum("A2xA2").cartan) == "A2xA2"
    assert classify_cartan(build_datum("A1xB2").cartan) == "A1xB2"
    # deterministic factor order
    assert classify_cartan(build_datum("B2xA1").cartan) == "A1xB2"
    assert classify_cartan(gl_datum(3).cartan) == "A2"


def test_duals():
    assert classify_cartan(build_datum("B3").dual().cartan) == "C3"
    assert classify_cartan(build_datum("C3").dual().cartan) == "B3"
    assert classify_cartan(build_datum("F4").dual().cartan) == "F4"
    assert classify_cartan(build_datum("A4").dual().cartan) == "A4"
    # B2 dual is C2 with matched base order (first root short after dualizing)
    assert classify_cartan(build_datum("B2").dual().cartan) == "C2"


# -- the type lookup against the isomorphism search it replaced ---------------

def _standard_cartans(rank):
    """All standard Cartan matrices of the given rank, keyed by type string."""
    out = {"A%d" % rank: cartan_matrix("A", rank)}
    if rank >= 2:
        out["B%d" % rank] = cartan_matrix("B", rank)
        out["C%d" % rank] = cartan_matrix("C", rank)
    if rank >= 4:
        out["D%d" % rank] = cartan_matrix("D", rank)
    if rank in (6, 7, 8):
        out["E%d" % rank] = cartan_matrix("E", rank)
    if rank == 4:
        out["F4"] = cartan_matrix("F", 4)
    if rank == 2:
        out["G2"] = cartan_matrix("G", 2)
    return out


def _cartan_isomorphic(C1, C2):
    """Whether two Cartan matrices agree up to simultaneous permutation."""
    n = len(C1)
    if len(C2) != n:
        return False

    def signature(C, i):
        return tuple(sorted((C[i][j], C[j][i]) for j in range(n) if j != i and C[i][j] != 0))

    sig1 = [signature(C1, i) for i in range(n)]
    sig2 = [signature(C2, i) for i in range(n)]
    if sorted(sig1) != sorted(sig2):
        return False

    assignment = [None] * n

    def backtrack(i):
        if i == n:
            return True
        for j in range(n):
            if j in assignment[:i] or sig1[i] != sig2[j]:
                continue
            if all(C1[i][k] == C2[j][assignment[k]] and C1[k][i] == C2[assignment[k]][j]
                   for k in range(i)):
                assignment[i] = j
                if backtrack(i + 1):
                    return True
                assignment[i] = None
        return False

    return backtrack(0)


def reference_classify_cartan(C):
    """The isomorphism search `classify_cartan` replaced: each component's
    submatrix is matched, up to a simultaneous permutation, against every
    standard Cartan matrix of its rank in name order, except that rank 1 is
    A1 and a rank-2 double bond is B2 when its first simple root is long."""
    d = symmetrizers(C)
    names = []
    for comp in rootdata._components(C):
        sub = tuple(tuple(C[i][j] for j in comp) for i in comp)
        r = len(comp)
        if r == 1:
            names.append((1, "A", "A1"))
            continue
        label = None
        if r == 2 and sub[0][1] * sub[1][0] == 2:
            label = "B2" if d[comp[0]] > d[comp[1]] else "C2"
        else:
            for cand, mat in sorted(_standard_cartans(r).items()):
                if _cartan_isomorphic(sub, mat):
                    label = cand
                    break
        if label is None:
            raise ValueError("not a finite-type Cartan matrix")
        names.append((r, label[0], label))
    names.sort()
    return "x".join(nm for _, _, nm in names)


# (letter, least rank, greatest rank or None for no limit); D3 is A3
_IRREDUCIBLE = (("A", 1, None), ("B", 2, None), ("C", 2, None), ("D", 3, None),
                ("E", 6, 8), ("F", 4, 4), ("G", 2, 2))


@st.composite
def permuted_cartans(draw, budget=8):
    """The Cartan matrix of a product of irreducible types of total rank
    <= `budget`, its nodes relabelled by a random permutation."""
    blocks = []
    while budget and (not blocks or draw(st.booleans())):
        letter, lo, hi = draw(st.sampled_from(
            [f for f in _IRREDUCIBLE if f[1] <= budget]))
        rank = draw(st.integers(lo, min(hi or budget, budget)))
        blocks.append(cartan_matrix(letter, rank))
        budget -= rank
    n = sum(map(len, blocks))
    M = [[0] * n for _ in range(n)]
    off = 0
    for B in blocks:
        for i, row in enumerate(B):
            M[off + i][off:off + len(B)] = row
        off += len(B)
    p = draw(st.permutations(range(n)))
    return tuple(tuple(M[p[i]][p[j]] for j in range(n)) for i in range(n))


def assert_classify_matches_reference(C):
    assert classify_cartan(C) == reference_classify_cartan(C), C


@settings(max_examples=150, deadline=None)
@given(permuted_cartans())
def test_classify_matches_isomorphism_search(C):
    assert_classify_matches_reference(C)


def count_only_type(comp, cartan, coords, lengths):
    """`folding.component_type` without the short-root count: the first
    type of the rank whose number of roots matches."""
    r = len(comp)
    if r == 2 and cartan[comp[0]][comp[1]] * cartan[comp[1]][comp[0]] == 2:
        return "B2" if lengths[comp[0]] > lengths[comp[1]] else "C2"
    count = sum(1 for c in coords if any(c[i] for i in comp))
    for letter, n in (("A", r * (r + 1)), ("B", 2 * r * r), ("C", 2 * r * r),
                      ("D", 2 * r * (r - 1) if r >= 4 else None),
                      ("E", {6: 72, 7: 126, 8: 240}.get(r)),
                      ("F", 48 if r == 4 else None), ("G", 12 if r == 2 else None)):
        if count == n:
            return "%s%d" % (letter, r)


def test_classify_negative_control(monkeypatch):
    """With the short-root count ignored, C3 is named B3 and the reference
    check fails."""
    monkeypatch.setattr(rootdata, "component_type", count_only_type)
    with pytest.raises(AssertionError):
        assert_classify_matches_reference(cartan_matrix("C", 3))
    assert classify_cartan(cartan_matrix("C", 3)) == "B3"


@pytest.mark.parametrize("C", [((2, -2), (-2, 2)), ((2, -3), (-3, 2))],
                         ids=["affine-A1", "hyperbolic"])
def test_classify_rejects_infinite_type_before_closing(monkeypatch, C):
    def no_closure(C):
        raise AssertionError("closure of an infinite-type matrix")

    monkeypatch.setattr(rootdata, "cartan_closure", no_closure)
    with pytest.raises(ValueError, match="Cartan matrix is not of finite type"):
        classify_cartan(C)


def test_bad_types():
    with pytest.raises(ValueError):
        build_datum("E9")
    with pytest.raises(ValueError):
        build_datum("H4")
    with pytest.raises(ValueError):
        build_datum("A0")
    with pytest.raises(ValueError):
        parse_cartan_type("")


def test_invariant_form():
    d = build_datum("B2")
    G = d.gram()

    def q(v):
        return vec_dot(frac_vec(v), mat_vec(G, frac_vec(v)))

    assert q(d.simple_roots[1]) == 2  # short
    assert q(d.simple_roots[0]) == 4  # long
    # W-invariance
    for i in range(2):
        ref = []
        n = d.rank
        for k in range(n):
            e = tuple(1 if j == k else 0 for j in range(n))
            ref.append(reflect_char(d, i, e))
        S = mat_transpose(ref)
        assert mat_mul(mat_transpose(S), mat_mul(G, S)) == G
    # A2xA2 with the factor swap: block-equal form, swap-invariant
    d2 = build_datum("A2xA2")
    swap = diagram_automorphism(d2, (2, 3, 0, 1))
    G2 = d2.gram()
    assert mat_mul(mat_transpose(swap), mat_mul(G2, swap)) == G2


def test_weight_sets():
    d1 = build_datum("A1", "adjoint")
    assert d1.weight_set((0,)) == ((0,),)
    ws = d1.weight_set(d1.simple_coroots[0])
    assert set(ws) == {(-2,), (0,), (2,)}
    # A2: fundamental coweight is minuscule: 3-element orbit
    d2 = build_datum("A2", "adjoint")
    ws2 = d2.weight_set((1, 0))
    assert len(ws2) == 3
    assert set(ws2) == set(d2.weyl_orbit_cochar((1, 0)))
    # saturation: every dominant nu <= mu_dom lies in the set
    mu = (1, 1)
    ws3 = d2.weight_set(mu)
    for nu in ws3:
        assert dominance_leq(d2, dominant_cochar(d2, nu), mu)
        for w in ws3:
            pass
    for nu in d2.weyl_orbit_cochar((1, 1)):
        assert nu in ws3
    assert (0, 0) in ws3


def test_weyl_orbits():
    d = build_datum("B2", "simply_connected")
    reg = (3, 2)  # strictly dominant, hence regular
    assert all(vec_dot(a, reg) > 0 for a in d.simple_roots)
    assert len(d.weyl_orbit_cochar(reg)) == 8
    dom = dominant_cochar(d, (-1, -1))
    assert d.is_dominant_cochar(dom)
    assert dominant_cochar(d, dom) == dom


def test_automorphism_validation():
    d = build_datum("A2", "adjoint")
    for perm in ((0, 0), (2, 3), (-1, 0), (0, 1, 2), (1,)):
        with pytest.raises(MalformedAction, match="is not a permutation of 0..1, "
                           "the indices of the 2 simple roots"):
            diagram_automorphism(d, perm)
    with pytest.raises(MalformedAction):
        # not a diagram automorphism of B2
        diagram_automorphism(build_datum("B2"), (1, 0))
    m = diagram_automorphism(d, (1, 0))
    act = AutomorphismAction(d, [m])
    assert base_permutation(d.root_system(), m) == (1, 0)
    assert len(act.group) == 2
    u = unitary_dual_action(3)
    act3 = AutomorphismAction(gl_datum(3), [u])
    assert len(act3.group) == 2


def test_pinned_cochar_rejects_broken_pairing():
    """Negative control: on Z^2 with simple root (2, 0) and simple coroot
    (1, 0), g = ((1, 1), (0, 1)) fixes the simple root, but its cocharacter
    matrix sends the simple coroot to (1, -1)."""
    d = BasedRootDatum(((2, 0),), ((1, 0),), 2)
    g = ((1, 1), (0, 1))
    assert mat_vec(g, (2, 0)) == (2, 0)
    assert mat_vec(mat_transpose(mat_integer_inverse(g)), (1, 0)) == (1, -1)
    with pytest.raises(MalformedAction, match="^action breaks the root/coroot pairing$"):
        pinned_cochar(d, g)
    assert pinned_cochar(d, ((1, 0), (0, -1))) == ((1, 0), (0, -1))


def test_automorphism_group_cap(monkeypatch):
    """The closure of an action stops at lattice.GROUP_CAP, read when the
    action is built."""
    import rootfold.lattice as lattice
    d = build_datum("D4", "simply_connected")
    gens = [diagram_automorphism(d, p) for p in ((2, 1, 3, 0), (0, 1, 3, 2))]
    assert len(AutomorphismAction(d, gens).group) == 6
    monkeypatch.setattr(lattice, "GROUP_CAP", 5)
    with pytest.raises(lattice.ResourceCap, match="group closure exceeded 5 elements"):
        AutomorphismAction(d, gens)


def test_dominant_enumeration():
    d = build_datum("A2", "adjoint")
    mus = d.dominant_cochars_up_to(4)
    assert all(d.is_dominant_cochar(m) for m in mus)
    assert all(d.two_rho_pairing(m) <= 4 for m in mus)
    assert (0, 0) in mus and (1, 0) in mus
    g = gl_datum(2)
    mus2 = g.dominant_cochars_up_to(2, central_box=1)
    assert (1, 0) in mus2 and (1, 1) in mus2 and (0, 0) in mus2


def test_json_round_trip():
    from rootfold.rootdata import BasedRootDatum
    d = gl_datum(3)
    d2 = BasedRootDatum.from_json(d.to_json())
    assert d2.simple_roots == d.simple_roots
    assert ambient_roots(d2)[0] == ambient_roots(d)[0]


def test_value_equal_data_are_one_object(fresh_tables):
    """Data built separately with equal constructor arguments (simple roots,
    simple coroots, rank and label) are one interned object, whatever the
    route; the presets that share a datum value share the object, and with
    it Phi, Phi^vee and the weight sets."""
    d = build_datum("A3")
    assert build_datum("A3") is d
    assert BasedRootDatum([list(r) for r in d.simple_roots], d.simple_coroots,
                          d.rank, label=d.label) is d
    assert BasedRootDatum.from_json(d.to_json()) is d
    assert gl_datum(3) is gl_datum(3) is BasedRootDatum.from_json(gl_datum(3).to_json())
    assert copy.deepcopy(d) is d and pickle.loads(pickle.dumps(d)) is d
    assert d.dual().dual() is not d  # the labels differ: A3(adjoint)^^
    assert build_datum("A3", "simply_connected") is not d
    ram, unram = load_preset("su4-ramified").datum, load_preset("su4-unramified").datum
    assert ram is unram is d
    assert load_preset("su3-unramified").datum is load_preset("tower-su3").datum
    assert ram.root_system() is unram.root_system()
    assert ram.weight_set((1, 0, 1)) is unram.weight_set((1, 0, 1))


def reference_roots(d):
    """(roots, coroots, positive roots) of a datum the slow way: close the
    (root, coroot) pairs of the base under the simple reflections on both
    lattices, add the negatives, sort, and call a root positive when its
    coefficients over the simple roots (by gauss_solve) are >= 0."""
    n = len(d.simple_roots)
    pairs = set(zip(d.simple_roots, d.simple_coroots))
    frontier = list(pairs)
    while frontier:
        nxt = []
        for root, coroot in frontier:
            for i in range(n):
                p = (reflect_char(d, i, root), reflect_cochar(d, i, coroot))
                if p not in pairs:
                    pairs.add(p)
                    nxt.append(p)
        frontier = nxt
    pairs |= {(tuple(-x for x in r), tuple(-x for x in c)) for r, c in pairs}
    ordered = sorted(pairs)
    roots = tuple(r for r, _ in ordered)
    assert len(set(roots)) == len(roots)
    A = mat_transpose(d.simple_roots)
    positive = tuple(r for r in roots if all(x >= 0 for x in gauss_solve(A, r)))
    return roots, tuple(c for _, c in ordered), positive


# (letter, least rank, greatest rank or None for no limit)
_FACTORS = (("A", 1, None), ("B", 2, None), ("C", 2, None), ("D", 3, None),
            ("F", 4, 4), ("G", 2, 2))


@st.composite
def cartan_data(draw):
    """A datum of a Cartan type of rank <= 5 (products included) with either
    isogeny."""
    budget = 5
    factors = []
    while budget and (not factors or draw(st.booleans())):
        letter, lo, hi = draw(st.sampled_from(
            [f for f in _FACTORS if f[1] <= budget]))
        rank = draw(st.integers(lo, min(hi or budget, budget)))
        factors.append("%s%d" % (letter, rank))
        budget -= rank
    iso = draw(st.sampled_from(("adjoint", "simply_connected")))
    return build_datum("x".join(factors), iso)


@st.composite
def root_data(draw):
    """A datum from `cartan_data`, or a GL_n datum with n <= 5."""
    if draw(st.booleans()):
        return gl_datum(draw(st.integers(1, 5)))
    return draw(cartan_data())


@settings(max_examples=80, deadline=None)
@given(root_data(), st.data())
def test_roots_match_reflection_closure(d, data):
    roots, coroots, positive = reference_roots(d)
    d_roots, d_coroots, d_positive = ambient_roots(d)
    assert d_roots == roots, d.label
    assert d_coroots == coroots, d.label
    assert d_positive == positive, d.label
    coroot_of = dict(zip(d_roots, d_coroots))
    for r, c in zip(roots, coroots):
        assert coroot_of[r] == c
    mu = data.draw(st.lists(st.integers(-3, 3), min_size=d.rank,
                            max_size=d.rank))
    assert d.two_rho_pairing(mu) == sum(vec_dot(a, mu) for a in positive)


# -- the walks against the boxes they replace ---------------------------------

def reference_dominant_cochars(d, bound, central_box=1):
    """`dominant_cochars_up_to` by the box: every m in [0, bound]^r with
    sum h_i m_i <= bound, for h the coordinates of 2rho over the simple
    roots (by gauss_solve), solved for mu over X_* and translated by every
    central vector in the box."""
    simples = d.simple_roots
    r = len(simples)
    central = integer_solver(tuple(simples))[1] if simples else identity_matrix(d.rank)
    two_rho = tuple(map(sum, zip(*ambient_roots(d)[2]))) or (0,) * d.rank
    heights = gauss_solve(mat_transpose(simples), two_rho) if r else ()
    assert all(h.denominator == 1 for h in heights)
    heights = tuple(map(int, heights))
    out = set()
    for m in itertools.product(range(bound + 1), repeat=r):
        if sum(h * mi for h, mi in zip(heights, m)) > bound:
            continue
        part = solve_integer(tuple(simples), m) if r else (0,) * d.rank
        if part is None:
            continue
        for cs in itertools.product(range(-central_box, central_box + 1),
                                    repeat=len(central)):
            mu = part
            for c, z in zip(cs, central):
                mu = vec_add(mu, vec_scale(c, z))
            if d.is_dominant_cochar(mu):
                out.add(tuple(mu))
    return tuple(sorted(out))


# -- the datum's Weyl-group helpers, which only the tests use ----------------

def reflect_char(d, i, x):
    """s_i on the character side: x - <x, a_i^vee> a_i."""
    return vec_sub(x, vec_scale(vec_dot(x, d.simple_coroots[i]), d.simple_roots[i]))


def reflect_cochar(d, i, y):
    """s_i on the cocharacter side: y - <a_i, y> a_i^vee."""
    return vec_sub(y, vec_scale(vec_dot(d.simple_roots[i], y), d.simple_coroots[i]))


def _conjugate_cochar(d, v, sign):
    """Reflect v by s_i while sign * <a_i, v> < 0 for some i."""
    v = tuple(v)
    while True:
        for i, a in enumerate(d.simple_roots):
            if sign * vec_dot(a, v) < 0:
                v = reflect_cochar(d, i, v)
                break
        else:
            return v


def dominant_cochar(d, v):
    """The unique dominant element of the Weyl orbit of v."""
    return _conjugate_cochar(d, v, 1)


def antidominant_cochar(d, v):
    """The unique antidominant element of the Weyl orbit of v."""
    return _conjugate_cochar(d, v, -1)


def dominance_leq(d, nu, mu):
    """nu <= mu iff mu - nu is a nonnegative integral sum of simple coroots:
    its int coordinates over them, by one Smith form."""
    solve = integer_solver(mat_transpose(d.simple_coroots) or ((),) * d.rank)[0]
    c = solve(vec_sub(mu, nu))
    return c is not None and min(c, default=0) >= 0


def reference_dominance_leq(d, nu, mu):
    """nu <= mu by gauss_solve over the simple coroots."""
    diff = vec_sub(mu, nu)
    A = mat_transpose(d.simple_coroots)
    sol = gauss_solve(A, diff) if A else ()
    if sol is None or any(c.denominator != 1 or c < 0 for c in sol):
        return False
    return mat_vec(A, sol) == frac_vec(diff) if A else not any(diff)


def reference_weight_set(d, mu):
    """Wt(mu) by the box: every nu = mu - sum c_i alpha_i^vee with
    0 <= c <= the coordinates of mu - w_0 mu, kept when its dominant
    conjugate is <= mu."""
    A = mat_transpose(d.simple_coroots)
    diff = vec_sub(mu, antidominant_cochar(d, mu))
    bounds = [int(c) for c in gauss_solve(A, diff)] if A else []
    out = []
    for cs in itertools.product(*(range(b + 1) for b in bounds)):
        nu = tuple(mu)
        for c, acov in zip(cs, d.simple_coroots):
            nu = vec_sub(nu, vec_scale(c, acov))
        if reference_dominance_leq(d, dominant_cochar(d, nu), mu):
            out.append(nu)
    return tuple(sorted(out))


@pytest.mark.parametrize("name", preset_names())
def test_walks_match_boxes_on_presets(name):
    """Bounds 0..8 with central_box 0 and 1, and Wt(mu) for every mu with
    <2rho, mu> <= 6.  The box runs once at bound 8; a lower bound keeps the
    part of it with <2rho, mu> <= bound."""
    d = load_preset(name).datum
    for central_box in (0, 1):
        box = reference_dominant_cochars(d, 8, central_box)
        for bound in range(9):
            expect = tuple(mu for mu in box if d.two_rho_pairing(mu) <= bound)
            assert d.dominant_cochars_up_to(bound, central_box) == expect, \
                (bound, central_box)
    for mu in reference_dominant_cochars(d, 6):
        assert d.weight_set(mu) == reference_weight_set(d, mu), mu


@settings(max_examples=40, deadline=None)
@given(root_data(), st.integers(0, 5), st.integers(0, 1))
def test_walks_match_boxes_property(d, bound, central_box):
    mus = d.dominant_cochars_up_to(bound, central_box)
    assert mus == reference_dominant_cochars(d, bound, central_box), d.label
    for mu in mus:
        assert d.weight_set(mu) == reference_weight_set(d, mu), (d.label, mu)


def test_weight_set_walks_below_simple_coroot_steps():
    """In A2 (adjoint) the only dominant weight below the highest coroot
    theta^vee = alpha_1^vee + alpha_2^vee is 0, and theta^vee - alpha_i^vee
    is not dominant for either i: the walk down needs theta^vee itself."""
    d = build_datum("A2", "adjoint")
    theta = vec_add(*d.simple_coroots)
    assert d.weight_set(theta) == tuple(sorted(d.weyl_orbit_cochar(theta) + ((0, 0),)))
    with pytest.raises(ValueError, match="mu must be dominant"):
        d.weight_set(vec_scale(-1, theta))


def test_weight_set_walked_once_per_datum_and_mu(monkeypatch, fresh_tables):
    """One run_verify() asks 114 times for Wt(mu) and walks it once per
    (datum, mu), 60 times.  Value-equal data of different presets (A3 in
    su4-ramified and su4-unramified, for one) are one interned object, so
    the walks are also once per (datum value, mu).  The run starts from
    empty process-wide tables, as in a new process."""
    from rootfold import rootdata
    from rootfold.verify import run_verify
    asked, walked = [], []
    weight_set, closure = BasedRootDatum.weight_set, rootdata.closure

    def counted_weight_set(self, mu):
        asked.append((self, tuple(mu)))
        return weight_set(self, mu)

    def counted_closure(seeds, step):
        if getattr(step, "__func__", None) is BasedRootDatum._dominant_below:
            (mu,) = seeds
            walked.append((step.__self__, mu))
        return closure(seeds, step)

    monkeypatch.setattr(BasedRootDatum, "weight_set", counted_weight_set)
    monkeypatch.setattr(rootdata, "closure", counted_closure)
    assert run_verify()[0] == 0
    assert len(asked) == 114
    assert len(walked) == 60
    assert {(id(d), mu) for d, mu in walked} == {(id(d), mu) for d, mu in asked}
    assert len({(d.simple_roots, d.simple_coroots, mu) for d, mu in walked}) == 60


# <2rho, mu> <= 16 with no central translation: the box's hit counts (the
# box itself walks 17^r points here, about 30 s on each rank-6 preset)
BOUND16_HITS = {"e6-flip": 3, "su6-ramified": 3, "su6-unramified": 3,
                "su7-ramified": 2, "su7-unramified": 2}


@pytest.mark.parametrize("name", sorted(BOUND16_HITS))
def test_dominant_cochars_at_bound_16(name):
    d = load_preset(name).datum
    mus = d.dominant_cochars_up_to(16, central_box=0)
    assert len(mus) == BOUND16_HITS[name]
    assert mus == tuple(sorted(set(mus)))
    assert all(d.is_dominant_cochar(mu) and d.two_rho_pairing(mu) <= 16
               for mu in mus)
    assert mus[0] == (0,) * d.rank


def reference_symmetrizers(C):
    """The Fraction walk `symmetrizers` replaced: each component by its own
    depth-first todo/seen loop, d_j = d_i C[i][j] / C[j][i], normalised by
    the smallest value."""
    n = len(C)
    d = [0] * n
    placed = set()
    for s in range(n):
        if s in placed:
            continue
        comp = [s]
        placed.add(s)
        d[s] = Fraction(1)
        todo = [s]
        while todo:
            i = todo.pop()
            for j in range(n):
                if j not in placed and C[i][j] != 0:
                    d[j] = d[i] * Fraction(C[i][j], C[j][i])
                    placed.add(j)
                    comp.append(j)
                    todo.append(j)
        scale = min(d[i] for i in comp)
        for i in comp:
            q = d[i] / scale
            if q.denominator != 1:
                raise ValueError("non-integral symmetrizer")
            d[i] = int(q)
    return tuple(d)


def test_symmetrizers_match_fraction_reference():
    """Every standard Cartan matrix up to rank 6, and block sums of two of
    rank <= 4 with their nodes shuffled, so components interleave."""
    cartans = [C for r in range(1, 7) for C in _standard_cartans(r).values()]
    small = [C for C in cartans if len(C) <= 4]
    for A, B in itertools.product(small, repeat=2):
        n = len(A) + len(B)
        M = [[0] * n for _ in range(n)]
        for off, X in ((0, A), (len(A), B)):
            for i, row in enumerate(X):
                M[off + i][off:off + len(X)] = row
        p = list(range(n))[::-1][::2] + list(range(n))[::-1][1::2]
        cartans.append([[M[p[i]][p[j]] for j in range(n)] for i in range(n)])
    for C in cartans:
        assert symmetrizers(C) == reference_symmetrizers(C), C
    # hyperbolic: the symmetrizers (2, 3) of this matrix do not start at 1
    with pytest.raises(ValueError, match="Cartan matrix is not of finite type"):
        symmetrizers([[2, -3], [-2, 2]])


# -- the invariant form and diagram automorphisms against Fraction inverses ----

def reference_gram(d):
    """The form as `gram` built it before: B^-T G_basis B^-1 with B^-1 from
    the Fraction Gauss-Jordan and two Fraction products."""
    d_sym = symmetrizers(d.cartan)
    n, r = d.rank, len(d.simple_roots)
    comp = list(integer_solver(d.simple_coroots)[1]) if r else list(identity_matrix(n))
    basis = list(d.simple_roots) + comp
    G_basis = [[Fraction(0)] * n for _ in range(n)]
    for i in range(r):
        for j in range(r):
            G_basis[i][j] = Fraction(d_sym[i] * d.cartan[i][j])
    for i, u in enumerate(comp):
        for j, v in enumerate(comp):
            G_basis[r + i][r + j] = Fraction(vec_dot(u, v))
    Binv = gauss_jordan(mat_transpose(tuple(frac_vec(v) for v in basis)))[1]
    return mat_mul(mat_transpose(Binv), mat_mul(tuple(map(tuple, G_basis)), Binv))


def reference_automorphism_matrix(d, perm):
    """The lattice matrix of a diagram automorphism by a Fraction inverse
    (T S^-1 on the simple roots, or the inverse transpose of S T^-1 on the
    simple coroots), or None when it is not integral."""
    if len(d.simple_roots) == d.rank:
        S = mat_transpose(d.simple_roots)
        T = mat_transpose(tuple(d.simple_roots[j] for j in perm))
        g = mat_mul(T, gauss_jordan(S)[1])
    else:
        S = mat_transpose(d.simple_coroots)
        T = mat_transpose(tuple(d.simple_coroots[j] for j in perm))
        g = mat_transpose(mat_mul(S, gauss_jordan(T)[1]))
    if any(x.denominator != 1 for row in g for x in row):
        return None
    return tuple(tuple(int(x) for x in row) for row in g)


def diagram_permutations(C):
    """Every simple-root permutation that preserves the Cartan matrix."""
    n = len(C)
    return [p for p in itertools.permutations(range(n))
            if all(C[i][k] == C[p[i]][p[k]] for i in range(n) for k in range(n))]


def assert_form_matches_reference(d, perms):
    G = d.gram()
    assert G == reference_gram(d), d.label
    assert all(type(x) is Fraction for row in G for x in row)
    G_star = d.gram_star()
    assert G_star == gauss_jordan(G)[1], d.label
    assert all(type(x) is Fraction for row in G_star for x in row)
    for perm in perms:
        if len(d.simple_roots) != d.rank and len(d.simple_coroots) != d.rank:
            with pytest.raises(UndeterminedAutomorphism):
                diagram_automorphism(d, perm)
            continue
        ref = reference_automorphism_matrix(d, perm)
        if ref is None:
            with pytest.raises(MalformedAction, match="does not preserve the lattice"):
                diagram_automorphism(d, perm)
        else:
            assert diagram_automorphism(d, perm) == ref, (d.label, perm)


@pytest.mark.parametrize("name", preset_names())
def test_form_and_automorphisms_match_fraction_reference(name):
    d = load_preset(name).datum
    assert_form_matches_reference(d, diagram_permutations(d.cartan))


@settings(max_examples=60, deadline=None)
@given(root_data(), st.data())
def test_form_and_automorphisms_property(d, data):
    perms = diagram_permutations(d.cartan)
    assert_form_matches_reference(d, data.draw(st.lists(st.sampled_from(perms),
                                                        max_size=3)))
