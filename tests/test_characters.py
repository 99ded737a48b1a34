"""Weight multiplicities, twining characters, branching, tau-traces.

The independent oracles: sl2 strings, the Weyl dimension formula, and an
explicit 8-dimensional matrix model of the A2 flip on sl3.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootfold.characters import (
    CharacterContext,
    DualGroup,
    FixedGroup,
    freudenthal,
)
from rootfold.echelonnage import LocalGroupDatum
from rootfold.folding import _ratio
from rootfold.lattice import CoinvariantElement
from rootfold.linalg import (
    fraction_rows,
    integral_rows,
    mat_mul,
    mat_transpose,
    mat_vec,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
)
from rootfold.presets import load_preset, preset_names
from rootfold.rootdata import (
    build_datum,
    classify_cartan,
    diagram_automorphism,
    gl_datum,
    unitary_dual_action,
)
from fraction_linalg import frac_vec, gauss_solve
from test_affine import KL_LADDER
from test_echelonnage import reference_orbit_classes
from test_folding import folding_data
from test_lattice import reference_lower


def flip(r):
    return tuple(r - 1 - i for i in range(r))


# -- Freudenthal against independent oracles ---------------------------------

def test_sl2_strings():
    d = build_datum("A1", "simply_connected")
    system = d.root_system()
    (alpha,) = d.simple_roots
    # V_m for sl2: weights m, m-2, ..., -m each with multiplicity one
    for m in range(5):
        mu = tuple(m * x for x in alpha)
        mults = {tuple(x - c * a for x, a in zip(mu, alpha)): mult
                 for (c,), mult in freudenthal(system, mu).items()}
        # mu = m*alpha has the full string m, m-1, ..., -m in alpha units
        for k in range(-m - 1, m + 2):
            nu = tuple(k * x for x in alpha)
            expect = 1 if abs(k) <= m else 0
            assert mults.get(nu, 0) == expect, (m, k)


def _weyl_dimension(datum, mu):
    """Independent oracle: the Weyl dimension formula on the dual side."""
    system_base = datum.simple_coroots
    dual = DualGroup(datum)
    pos = dual.system.positive_roots()
    gram = datum.gram_star()

    def B(u, w):
        return vec_dot(frac_vec(u), mat_vec(gram, frac_vec(w)))

    rho = (Fraction(0),) * datum.rank
    from rootfold.linalg import vec_add, vec_scale
    for p in pos:
        rho = vec_add(rho, vec_scale(Fraction(1, 2), frac_vec(p)))
    num = Fraction(1)
    den = Fraction(1)
    for p in pos:
        num *= B(vec_add(frac_vec(mu), rho), p)
        den *= B(rho, p)
    return num / den


@pytest.mark.parametrize("cartan,iso,mu,dim", [
    ("A2", "adjoint", (1, 1), 8),
    ("A2", "adjoint", (1, 0), 3),
    ("B2", "simply_connected", (1, 1), None),
    ("A3", "adjoint", (1, 0, 1), 15),
    ("G2", "adjoint", (1, 0), None),
])
def test_freudenthal_dimensions(cartan, iso, mu, dim):
    d = build_datum(cartan, iso)
    dual = DualGroup(d)
    total = sum(dual.weight_table(mu).values())
    expect = _weyl_dimension(d, mu)
    assert total == expect
    if dim is not None:
        assert total == dim


def reference_freudenthal(base, positives, gram, mu):
    """Freudenthal's recursion on ambient Fraction vectors: box bounds and
    root coordinates by gauss_solve, dominant representatives by reflecting
    vectors in the form."""

    def B(u, w):
        return vec_dot(frac_vec(u), mat_vec(gram, frac_vec(w)))

    def to_dominant(v, sign=1):
        while True:
            for b in base:
                if sign * B(b, v) < 0:
                    v = vec_sub(v, vec_scale(2 * B(b, v) / B(b, b), b))
                    break
            else:
                return v

    base = tuple(frac_vec(b) for b in base)
    mu = frac_vec(mu)
    A = mat_transpose(base)
    bounds = [int(c) for c in gauss_solve(A, vec_sub(mu, to_dominant(mu, -1)))]
    coords = {p: tuple(int(x) for x in gauss_solve(A, frac_vec(p))) for p in positives}
    rho = (Fraction(0),) * len(mu)
    for p in positives:
        rho = vec_add(rho, vec_scale(Fraction(1, 2), frac_vec(p)))
    vec = {}
    for c in itertools.product(*(range(b + 1) for b in bounds)):
        v = mu
        for ci, b in zip(c, base):
            v = vec_sub(v, vec_scale(ci, b))
        vec[c] = v
    cs = sorted(vec, key=lambda c: (sum(c), c))
    mult = {}
    norm_mu = B(vec_add(mu, rho), vec_add(mu, rho))
    for c in cs:
        v = vec[c]
        if to_dominant(v) != v:
            continue
        if sum(c) == 0:
            mult[v] = 1
            continue
        total = Fraction(0)
        for p in positives:
            k = 1
            while all(ci >= k * pi for ci, pi in zip(c, coords[p])):
                c2 = tuple(ci - k * pi for ci, pi in zip(c, coords[p]))
                total += B(vec_add(v, vec_scale(k, p)), p) \
                    * mult.get(to_dominant(vec[c2]), 0)
                k += 1
        denom = norm_mu - B(vec_add(v, rho), vec_add(v, rho))
        mult[v] = 2 * total / denom if denom else 0
    out = {c: mult.get(to_dominant(vec[c]), 0) for c in cs}
    return {c: m for c, m in out.items() if m}


def box_freudenthal(rs, mu):
    """Freudenthal's recursion over the whole box of coordinates c with
    0 <= c <= the coordinates of the lowest weight w_0 mu, in the int
    arithmetic of `freudenthal`: each box point is reflected to the
    dominant chamber, and the result is listed in box order by height."""
    cart = rs.cartan()
    positives = rs._positive_coords
    mu_den, (mu_int,) = integral_rows([mu])
    gram_mu = mat_vec(rs._gram_int, mu_int)
    g = tuple(tuple(2 * mu_den * x for x in row) for row in rs._base_gram)
    mb = tuple(2 * rs._den * vec_dot(b, gram_mu) for b in rs._base_int)
    two_rho = [sum(col) for col in zip(*positives)]
    mrb = tuple(2 * x + vec_dot(two_rho, row) for x, row in zip(mb, g))
    top = tuple(_ratio(2 * x, g[i][i]) for i, x in enumerate(mb))
    pos = [(a, vec_dot(a, mb), mat_vec(g, a)) for a in positives]

    def to_dominant(c, sign=1):
        """The dominant (sign=-1: antidominant) weight in the Weyl orbit of
        the weight with coordinates c."""
        while True:
            for i, (t, row) in enumerate(zip(top, cart)):
                p = t - sum(cj * cij for cj, cij in zip(c, row))
                if sign * p < 0:
                    c = c[:i] + (c[i] + p,) + c[i + 1:]
                    break
            else:
                return c

    bounds = to_dominant((0,) * len(rs.base), sign=-1)
    assert all(Fraction(b).denominator == 1 and b >= 0 for b in bounds)
    all_cs = sorted(itertools.product(*(range(int(b) + 1) for b in bounds)),
                    key=lambda c: (sum(c), c))
    dominant_mult = {}
    for c in all_cs:
        if to_dominant(c) != c:
            continue
        if sum(c) == 0:
            dominant_mult[c] = 1
            continue
        denom = vec_dot(c, mrb) - vec_dot(c, mat_vec(g, c))
        total = 0
        for a, a_mu, g_a in pos:
            k = 1
            while True:
                c2 = tuple(ci - k * ai for ci, ai in zip(c, a))
                if any(x < 0 for x in c2):
                    break
                m2 = dominant_mult.get(to_dominant(c2), 0)
                if m2:
                    total += (a_mu - vec_dot(c2, g_a)) * m2
                k += 1
        if denom:
            m, rem = divmod(2 * total, denom)
            assert not rem and m >= 0
            if m:
                dominant_mult[c] = m
    out = {}
    for c in all_cs:
        m = dominant_mult.get(to_dominant(c), 0)
        if m:
            out[c] = m
    return out


def freudenthal_cases(lgd, bound):
    """(system, mu, den) for Phi^vee, Sigma_breve^vee and the Knop fold, on
    the dominant inputs up to `bound`: the highest weight mu / den, mu an
    int vector (the section of a class for the last two)."""
    h = FixedGroup(lgd)
    cases = []
    for mu in lgd.datum.dominant_cochars_up_to(bound, central_box=0):
        cases.append((lgd.datum.coroot_system(), mu, 1))
        lam = lgd.coinv.project(mu)
        if h.is_dominant(lam):
            den, v = lgd.coinv.section(lam)
            cases.append((h.sigma.rs_co, v, den))
            if h.is_tau_fixed(lam):
                cases.append((h.knop.rs_co, v, den))
    return cases


def assert_freudenthal_matches_reference(lgd, bound):
    for rs, mu, den in freudenthal_cases(lgd, bound):
        q = fraction_rows(den, (mu,))[0]
        ref = reference_freudenthal(rs.base, rs.positive_roots(), rs.gram, q)
        assert freudenthal(rs, mu, den) == ref, (lgd.label, rs, q)


def assert_freudenthal_matches_box(lgd, bound):
    """The same dict in the same order as the box recursion."""
    for rs, mu, den in freudenthal_cases(lgd, bound):
        q = fraction_rows(den, (mu,))[0]
        assert list(freudenthal(rs, mu, den).items()) == \
            list(box_freudenthal(rs, q).items()), (lgd.label, rs, q)


@pytest.mark.parametrize("name", preset_names())
def test_freudenthal_matches_reference(name):
    assert_freudenthal_matches_reference(load_preset(name).lgd, 6)


@pytest.mark.parametrize("name", preset_names())
def test_freudenthal_matches_box(name):
    assert_freudenthal_matches_box(load_preset(name).lgd, 8)


def _drawn_lgd(data, as_frobenius):
    """The drawn group acts as inertia, or its first generator as
    Frobenius."""
    d, act = data
    if as_frobenius and act.generators:
        return LocalGroupDatum(d, (), act.generators[0])
    return LocalGroupDatum(d, act.generators)


@settings(max_examples=20, deadline=None)
@given(folding_data(), st.booleans())
def test_freudenthal_matches_reference_property(data, as_frobenius):
    assert_freudenthal_matches_reference(_drawn_lgd(data, as_frobenius), 4)


@settings(max_examples=20, deadline=None)
@given(folding_data(), st.booleans())
def test_freudenthal_matches_box_property(data, as_frobenius):
    assert_freudenthal_matches_box(_drawn_lgd(data, as_frobenius), 8)


def test_freudenthal_rejects_a_weight_that_is_not_dominant():
    rs = build_datum("A2", "adjoint").coroot_system()
    for mu in ((-1, 0), (1, -1)):
        with pytest.raises(ValueError, match="mu must be a dominant weight"):
            freudenthal(rs, mu)


def test_freudenthal_table_shared_by_value(fresh_tables):
    """Value-equal systems share one table per (mu, den), whether or not
    they are one object; another mu, den or form is another table, and a
    weight that is not dominant leaves nothing behind."""
    from rootfold import characters
    from rootfold.folding import RootSystemV
    rs = build_datum("B2", "adjoint").coroot_system()
    twin = RootSystemV(rs.base, rs.gram)
    assert twin is not rs
    table = freudenthal(rs, (1, 1))
    assert freudenthal(twin, [1, 1]) is table
    halved = freudenthal(rs, (2, 2), 2)
    assert halved == table and halved is not table
    assert freudenthal(rs, (2, 2)) != table
    scaled = RootSystemV(rs.base, tuple(tuple(3 * x for x in row) for row in rs.gram))
    assert freudenthal(scaled, (1, 1)) == table
    assert freudenthal(scaled, (1, 1)) is not table
    with pytest.raises(ValueError):
        freudenthal(rs, (-1, 0))
    assert len(characters._TABLES) == 4


@pytest.mark.parametrize("name,vec", KL_LADDER)
def test_freudenthal_matches_reference_on_kl_ladder(name, vec):
    """The Sigma_breve^vee and Knop systems of the twining route on each
    rung of the KL ladder, at its lambda."""
    lgd = load_preset(name).lgd
    h = FixedGroup(lgd)
    lam = lgd.coinv.project(vec)
    assert h.is_dominant(lam) and h.is_tau_fixed(lam)
    den, v = lgd.coinv.section(lam)
    for rs in (h.sigma.rs_co, h.knop.rs_co):
        ref = reference_freudenthal(rs.base, rs.positive_roots(), rs.gram,
                                    lgd.coinv.section_vector(lam))
        assert freudenthal(rs, v, den) == ref, (name, rs)


def test_adjoint_zero_multiplicity():
    d = build_datum("A2", "adjoint")
    dual = DualGroup(d)
    assert dual.weight_multiplicity((1, 1), (0, 0)) == 2
    assert dual.weight_multiplicity((1, 1), (1, 1)) == 1
    assert dual.weight_multiplicity((1, 1), (2, 2)) == 0


# -- the explicit matrix model of the A2 flip (oracle in sl3_oracle.py) ------

from sl3_oracle import _gl3_basis, _pinned_involution, _sl3_weight_basis


def test_pinned_involution_is_lie_automorphism():
    theta = _pinned_involution()
    E = _gl3_basis()

    def bracket(X, Y):
        return tuple(tuple(p - q for p, q in zip(r1, r2))
                     for r1, r2 in zip(mat_mul(X, Y), mat_mul(Y, X)))

    basis = [E(0, 1), E(1, 2), E(0, 2), E(1, 0), E(2, 1), E(2, 0)]
    for X in basis:
        for Y in basis:
            assert theta(bracket(X, Y)) == bracket(theta(X), theta(Y))
    assert theta(E(0, 1)) == E(1, 2)           # pins the flip
    assert theta(theta(E(0, 2))) == E(0, 2)    # involution
    assert theta(E(0, 2)) == tuple(tuple(-x for x in r) for r in E(0, 2))


def test_twining_vs_matrix_model():
    """tr(sigma | V_mu(nu)) from the folded-group route equals the explicit
    matrix trace on the 8-dimensional representation, for every fixed weight.

    The normalized module operator is -theta (theta the pinned Lie-algebra
    involution): the extension convention fixes the highest weight line
    pointwise, and theta([E12, E23]) = -E13."""
    d = build_datum("A2", "simply_connected")
    lgd = LocalGroupDatum(d, (), diagram_automorphism(d, flip(2)), label="su3")
    ctx = CharacterContext(lgd)
    theta = _pinned_involution()

    def T(X):
        return tuple(tuple(-x for x in row) for row in theta(X))

    basis = _sl3_weight_basis()
    # T permutes weight spaces according to the flip on the dual torus
    tau = lgd.tau_cochar
    for wt, mats in basis.items():
        for m in mats:
            img = T(m)
            target = tuple(mat_vec(tau, wt))
            span = basis[target]
            sol = gauss_solve(mat_transpose([tuple(x for row in s for x in row)
                                             for s in span]),
                              tuple(x for row in img for x in row))
            assert sol is not None, (wt,)
    # the highest line is fixed pointwise (the extension convention)
    E13 = _gl3_basis()(0, 2)
    assert T(E13) == E13
    # traces on fixed weight spaces
    mu = (1, 1)
    for wt in [(1, 1), (-1, -1), (0, 0)]:
        span = basis[wt]
        flat = [tuple(x for row in s for x in row) for s in span]
        trace = Fraction(0)
        for k, m in enumerate(span):
            img = tuple(x for row in T(m) for x in row)
            sol = gauss_solve(mat_transpose(flat), img)
            trace += sol[k]
        got = ctx.dual.trace_table(tau, mu).get(wt, 0)
        assert trace == got, (wt, trace, got)
    # and the fixed-space dimension matches the averaging formula applied to
    # the datum with the flip in the inertia position
    lgd_ram = LocalGroupDatum(d, (diagram_automorphism(d, flip(2)),), None,
                              label="su3-ram-sc")
    inv = CharacterContext(lgd_ram).invariants_character(mu)
    dim_inv = sum(inv.values())
    # matrix side: dim ker(T - 1) on the 8-dimensional space
    all_mats = [m for mats in basis.values() for m in mats]
    flat = [tuple(x for row in m for x in row) for m in all_mats]
    images = []
    for m in all_mats:
        img = tuple(x for row in T(m) for x in row)
        images.append(gauss_solve(mat_transpose(flat), img))
    n = len(all_mats)
    fix_matrix = tuple(tuple(images[j][i] - (1 if i == j else 0) for j in range(n))
                       for i in range(n))
    # rational kernel dimension via rank over Q
    rank = 0
    rows = [list(map(Fraction, r)) for r in fix_matrix]
    for c in range(n):
        piv = next((i for i in range(rank, n) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    assert n - rank == dim_inv == 5


# -- fixed group and branching -------------------------------------------------

def test_fixed_point_datum_matches_sigma():
    d = gl_datum(3)
    lgd = LocalGroupDatum(d, (unitary_dual_action(3),), None, label="u3")
    ctx = CharacterContext(lgd)
    # H's roots are Sigma_breve^vee: rank 1 system here
    assert len(ctx.h.sigma.rs_co.base) == 1
    assert classify_cartan(ctx.h.sigma.rs_co.cartan()) == "A1"
    d2 = build_datum("D4", "simply_connected")
    lgd2 = LocalGroupDatum(d2, (diagram_automorphism(d2, (2, 1, 3, 0)),), None)
    ctx2 = CharacterContext(lgd2)
    assert classify_cartan(ctx2.h.sigma.rs_co.cartan()) == "G2"


def test_disconnected_hw_characters():
    d = gl_datum(3)
    lgd = LocalGroupDatum(d, (unitary_dual_action(3),), None, label="u3")
    ctx = CharacterContext(lgd)
    L = lgd.coinv
    mubar = L.project((1, 0, -1))
    ch = ctx.h.hw_character(mubar)
    assert ch[mubar] == 1
    assert sum(ch.values()) == 5
    # the torsion gate: weights with the wrong central character are absent
    shifted = L.add(mubar, CoinvariantElement((0,), (1,)))
    assert shifted not in ch
    # trivial representation
    ch0 = ctx.h.hw_character(L.zero())
    assert ch0 == {L.zero(): 1}


def test_branching_su3_ramified():
    d = gl_datum(3)
    lgd = LocalGroupDatum(d, (unitary_dual_action(3),), None, label="u3")
    ctx = CharacterContext(lgd)
    mu = (1, 0, -1)
    br = ctx.branching(mu)
    mubar = lgd.coinv.project(mu)
    assert br[mubar] == 1
    assert all(a >= 0 for a in br.values())
    assert ctx.dimension_bookkeeping(mu)
    assert ctx.weight_equality_check(mu)
    # tau trivial: traces equal dimensions
    assert ctx.tau_traces_on_H(mu) == br


def test_tau_traces_su3_unramified():
    d = build_datum("A2", "simply_connected")
    lgd = LocalGroupDatum(d, (), diagram_automorphism(d, flip(2)), label="su3")
    ctx = CharacterContext(lgd)
    mu = (1, 1)
    L = lgd.coinv
    tr = ctx.tau_traces_on_H(mu)
    assert tr == {L.project((1, 1)): 1}
    br = ctx.branching(mu)
    assert br == {L.project((1, 1)): 1}
    assert ctx.weight_equality_check(mu)


def test_trace_specializes_to_dimension():
    d = build_datum("A3", "adjoint")
    lgd = LocalGroupDatum(d, (), diagram_automorphism(d, flip(3)), label="su4")
    ctx = CharacterContext(lgd)
    from rootfold.linalg import identity_matrix
    mu = (1, 0, 1)
    table = ctx.dual.weight_table(mu)
    assert table == ctx.dual.trace_table(identity_matrix(3), mu)
    assert sum(table.values()) == _weyl_dimension(d, mu) == 15


def test_twisted_character_w0_invariance():
    d = build_datum("A3", "adjoint")
    lgd = LocalGroupDatum(d, (), diagram_automorphism(d, flip(3)), label="su4")
    ctx = CharacterContext(lgd)
    tw = ctx.twisted_invariants_character((1, 0, 1))
    from rootfold.affine import build_affine, build_tau_fixed
    teng = build_tau_fixed(lgd, build_affine(lgd))
    for nu, val in tw.items():
        for nu2 in teng.weyl_orbit_class(nu):
            assert tw.get(nu2, 0) == val


def test_twisted_consistency_identity():
    # sum over tau-fixed lambda of tr(tau|H_mu(lambda)) * twisted char of
    # V_lambda equals the twisted character of V_mu^I at every weight
    for cartan, iso, tau in [("A2", "simply_connected", flip(2)),
                             ("A3", "adjoint", flip(3))]:
        d = build_datum(cartan, iso)
        lgd = LocalGroupDatum(d, (), diagram_automorphism(d, tau), label="t")
        ctx = CharacterContext(lgd)
        mu = tuple(1 for _ in range(d.rank)) if cartan == "A2" else (1, 0, 1)
        tw = ctx.twisted_invariants_character(mu)
        acc = {}
        for lam, t in ctx.tau_traces_on_H(mu).items():
            for nu, val in ctx.h.twisted_hw_character(lam).items():
                acc[nu] = acc.get(nu, 0) + t * val
        acc = {k: v for k, v in acc.items() if v}
        assert acc == tw


def test_errors():
    d = build_datum("A2", "simply_connected")
    lgd = LocalGroupDatum(d, (), diagram_automorphism(d, flip(2)), label="su3")
    ctx = CharacterContext(lgd)
    with pytest.raises(ValueError):
        ctx.branching((1, 0))  # not tau-fixed
    with pytest.raises(ValueError):
        # alpha1^vee is not dominant for the Sigma-breve positivity
        ctx.h.hw_character(lgd.coinv.project((1, 0)))
    with pytest.raises(ValueError):
        ctx.dual.weight_table((-1, 0))


def test_convenience_surfaces():
    from rootfold.characters import FixedGroup
    d = build_datum("A2", "simply_connected")
    m = diagram_automorphism(d, flip(2))
    lgd = LocalGroupDatum(d, (m,), None, label="ram")
    h = FixedGroup(lgd)
    assert classify_cartan(h.sigma.rs_co.cartan()) == "A1"
    table = DualGroup(d).trace_table(lgd.inertia.cochar_generators[0], (1, 1))
    from fractions import Fraction as F
    assert table[(F(1), F(1))] == 1
    assert (F(0), F(0)) not in table


@pytest.mark.parametrize("name", preset_names())
def test_fixed_group_characters_match_coefficient_loop(name):
    """Both characters of H against Freudenthal expanded one coefficient at
    a time: over the Sigma_breve classes for `hw_character`, over the Knop
    classes of the per-orbit loop for `twisted_hw_character`, at every
    dominant class (tau-fixed for the twisted one) from mu with
    <2rho, mu> <= 4."""
    preset = load_preset(name)
    lgd = preset.lgd
    h = FixedGroup(lgd)
    breve = lgd.echelonnage().sigma_breve.base_classes
    knop = reference_orbit_classes(lgd.coinv, breve, h.knop.orbits, True)
    for mu in preset.datum.dominant_cochars_up_to(4):
        lam = lgd.coinv.project(mu)
        if not h.is_dominant(lam):
            continue
        den, v = lgd.coinv.section(lam)
        assert h.hw_character(lam) == {
            reference_lower(lgd.coinv, lam, breve, c): m
            for c, m in freudenthal(h.sigma.rs_co, v, den).items()}
        if h.is_tau_fixed(lam):
            assert h.twisted_hw_character(lam) == {
                reference_lower(lgd.coinv, lam, knop, c): m
                for c, m in freudenthal(h.knop.rs_co, v, den).items()}
