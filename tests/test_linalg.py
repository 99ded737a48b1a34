"""Exact linear algebra: transform identities and canonical forms, and the
one fraction-free elimination against the Fraction references."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rootfold.echelonnage import LocalGroupDatum
from rootfold.linalg import (
    adjugate,
    identity_matrix,
    integer_solver,
    is_positive_definite,
    mat_det,
    mat_integer_inverse,
    mat_mul,
    mat_transpose,
    mat_vec,
    smith_normal_form,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
)
from rootfold.presets import load_preset, preset_names
from rootfold.rootdata import _budget_walk
from fraction_linalg import (
    frac_vec,
    gauss_jordan,
    gauss_solve,
    hermite_row_basis,
    solve_integer,
)
from test_lattice import combination
from test_rootdata import (
    cartan_data,
    dominance_leq,
    reference_dominance_leq,
    reference_weight_set,
)

small_mat = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-7, 7), min_size=n, max_size=n),
            min_size=m, max_size=m)))


@settings(max_examples=120, deadline=None)
@given(small_mat)
def test_snf_transform_identity(rows):
    M = tuple(tuple(r) for r in rows)
    D, U, V = smith_normal_form(M)
    assert mat_mul(mat_mul(U, M), V) == D
    # unimodular transforms
    assert abs(mat_det(U)) == 1
    assert abs(mat_det(V)) == 1
    diag = [D[i][i] for i in range(min(len(D), len(D[0])))]
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        elif b != 0:
            assert b % a == 0
    for i in range(len(D)):
        for j in range(len(D[0])):
            if i != j:
                assert D[i][j] == 0


def test_snf_deterministic():
    M = ((6, 4, 2), (2, 8, 4))
    assert smith_normal_form(M) == smith_normal_form(tuple(map(tuple, M)))


@settings(max_examples=80, deadline=None)
@given(small_mat)
def test_kernel_and_solve(rows):
    M = tuple(tuple(r) for r in rows)
    for k in integer_solver(M)[1]:
        assert all(x == 0 for x in mat_vec(M, k))
    rng = random.Random(42)
    x = tuple(rng.randint(-3, 3) for _ in range(len(M[0])))
    b = mat_vec(M, x)
    sol = solve_integer(M, b)
    assert sol is not None
    assert mat_vec(M, sol) == b


@settings(max_examples=80, deadline=None)
@given(small_mat, st.data())
def test_integer_solver_matches_per_call_reference(rows, data):
    """One Smith form per matrix gives the solutions and the kernel that a
    Smith form per call gives."""
    M = tuple(tuple(r) for r in rows)
    m, n = len(M), len(M[0])
    solve, kernel = integer_solver(M)
    D, _U, V = smith_normal_form(M)
    assert kernel == tuple(tuple(V[i][j] for i in range(n)) for j in range(n)
                           if (D[j][j] if j < m else 0) == 0)
    ints = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    for _ in range(3):
        b = mat_vec(M, tuple(data.draw(ints)))
        assert solve(b) == solve_integer(M, b) is not None
    for _ in range(3):
        b = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m)))
        assert solve(b) == solve_integer(M, b)


@pytest.mark.parametrize("name", preset_names())
def test_integer_solver_on_presets(name):
    """The simple-root solver of every preset against the per-call Smith
    form, on every m of the budget walk at bound 8 (so bounds 0..8)."""
    d = load_preset(name).datum
    solve, central = d._simple_solver
    heights = tuple(map(sum, zip(*(c for c in d._closure if min(c) >= 0))))
    for m in _budget_walk(heights, 8):
        assert solve(m) == solve_integer(d.simple_roots, m), m
    assert central == integer_solver(d.simple_roots)[1]


def test_kernels_reject_mismatched_lengths():
    """vec_dot, mat_vec and mat_mul check every length, a ragged row of
    mat_mul's left factor and a right factor with no column included, and
    still take Fractions."""
    for call in (lambda: vec_dot((1, 2), (1, 2, 3)),
                 lambda: vec_dot((1, 2, 3), (1, 2)),
                 lambda: mat_vec(((1, 2), (3, 4)), (1, 2, 3)),
                 lambda: mat_vec(((1, 2), (3, 4, 5)), (1, 2)),
                 lambda: mat_mul(((1, 2, 3),), ((1, 0), (0, 1))),
                 lambda: mat_mul(((1, 0), (0, 1, 2)), ((1, 0), (0, 1))),
                 lambda: mat_mul(((1, 0, 2), (0, 1)), ((1, 0), (0, 1), (1, 1))),
                 lambda: mat_mul(((1, 2, 3),), ((), ()))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            call()
    h = Fraction(1, 2)
    assert vec_dot((h, 1), (2, h)) == Fraction(3, 2)
    assert mat_vec(((h, 0), (0, 3)), (4, h)) == (2, Fraction(3, 2))
    assert mat_mul(((h, 0), (0, 1)), ((2, 0), (0, h))) == ((1, 0), (0, h))
    assert (vec_add((h, 1), (h, 2)), vec_sub((h, 1), (h, 2)), vec_scale(h, (2, 1))) \
        == ((1, 3), (0, -1), (1, h))


def test_hermite_canonical():
    # the same lattice from different generators
    b1 = hermite_row_basis([(2, 0), (0, 2), (1, 1)])
    b2 = hermite_row_basis([(1, 1), (1, -1)])
    assert b1 == b2
    assert hermite_row_basis(list(b1) + [(3, 1)]) == b1
    assert hermite_row_basis(list(b1) + [(1, 0)]) != b1


def test_rational_inverse_and_definite():
    M = ((2, -1), (-1, 2))
    det, adj = adjugate(M)
    assert mat_mul(M, adj) == ((det, 0), (0, det)) == ((3, 0), (0, 3))
    assert is_positive_definite(M)
    assert not is_positive_definite(((1, 2), (2, 1)))
    assert mat_integer_inverse(((1, 1), (0, 1))) == ((1, -1), (0, 1))


def reference_is_positive_definite(M):
    """Sylvester's criterion minor by minor, one determinant per leading
    principal minor: the loop `is_positive_definite` ran before it became
    one elimination."""
    n = len(M)
    return all(mat_det(tuple(tuple(M[i][j] for j in range(k)) for i in range(k))) > 0
               for k in range(1, n + 1))


def _gram(rows, n):
    """rows^T rows, n x n: positive semidefinite, of rank len(rows) at most."""
    return tuple(tuple(sum(r[i] * r[j] for r in rows) for j in range(n))
                 for i in range(n))


@st.composite
def symmetric_matrices(draw):
    """(kind, M) for a symmetric int matrix M of order 1..5: "definite" is
    A^T A + I, "semidefinite" B^T B for B with fewer rows than columns
    (singular), "singular-lead" a random symmetric matrix whose leading
    k x k block is such a B^T B, and "random" any symmetric matrix (mostly
    indefinite)."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("definite", "semidefinite", "singular-lead",
                                 "random")))

    def rows(k, m):
        return [draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
                for _ in range(k)]

    if kind == "definite":
        G = _gram(rows(n, n), n)
        return kind, tuple(tuple(x + (i == j) for j, x in enumerate(row))
                           for i, row in enumerate(G))
    if kind == "semidefinite":
        return kind, _gram(rows(draw(st.integers(0, n - 1)), n), n)
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = draw(st.integers(-4, 4))
    if kind == "singular-lead":
        k = draw(st.integers(1, n))
        lead = _gram(rows(draw(st.integers(0, k - 1)), k), k)
        for i in range(k):
            M[i][:k] = lead[i]
    return kind, tuple(map(tuple, M))


@settings(max_examples=300, deadline=None)
@given(symmetric_matrices(), st.integers(1, 6))
def test_is_positive_definite_matches_sylvester_property(kind_m, d):
    """One elimination against one determinant per leading minor, on int
    matrices and on the same matrices over d (Fraction entries)."""
    kind, M = kind_m
    expect = reference_is_positive_definite(M)
    assert is_positive_definite(M) == expect
    assert is_positive_definite(tuple(tuple(Fraction(x, d) for x in row)
                                      for row in M)) == expect
    if kind == "definite":
        assert expect
    elif kind != "random":
        assert not expect


def test_gauss_solve_none():
    assert gauss_solve(((1, 0), (1, 0)), (1, 2)) is None


def test_integer_inverse_rejects_non_unimodular():
    with pytest.raises(ArithmeticError) as exc:
        mat_integer_inverse(((2, 0), (0, 1)))
    assert not isinstance(exc.value, ValueError)
    with pytest.raises(ArithmeticError):
        mat_integer_inverse(((1, 2), (2, 4)))
    assert adjugate(((1, 2), (2, 4))) == (0, None)
    # dependent rows: the transposed solver has a kernel
    assert integer_solver(mat_transpose(((1, 2, 0), (2, 4, 0))))[1] != ()


# -- adjugate and coordinates against Fraction elimination -----------------

@st.composite
def square_int_matrices(draw):
    """A square int matrix of size <= 6; about one in three is made singular
    by setting a row to a combination of two others (or to zero)."""
    n = draw(st.integers(0, 6))
    rows = [draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
            for _ in range(n)]
    if n and draw(st.integers(0, 2)) == 0:
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        rows[i] = [a * x + b * y if i not in (j, k) else 0
                   for x, y in zip(rows[j], rows[k])]
    return tuple(map(tuple, rows))


@settings(max_examples=150, deadline=None)
@given(square_int_matrices(), st.integers(1, 4))
def test_adjugate_matches_fraction_gauss_jordan(M, d):
    n = len(M)
    det, adj = adjugate(M)
    ref_det, ref_inv = gauss_jordan(M)
    assert type(det) is int and det == ref_det
    if ref_inv is None:
        assert adj is None
    else:
        assert all(type(x) is int for row in adj for x in row)
        assert mat_mul(adj, M) == mat_mul(M, adj) == tuple(
            tuple(det * x for x in row) for row in identity_matrix(n))
        assert tuple(tuple(Fraction(x, det) for x in row) for row in adj) == ref_inv
        if det in (1, -1):
            assert mat_integer_inverse(M) == ref_inv
    # a rational matrix M / d: det / d^n and adj / d^(n-1)
    Md = tuple(tuple(Fraction(x, d) for x in row) for row in M)
    det_d, adj_d = adjugate(Md)
    assert det_d == Fraction(ref_det, d ** n) == gauss_jordan(Md)[0]
    if adj is None:
        assert adj_d is None
    else:
        assert adj_d == tuple(tuple(Fraction(x, d ** (n - 1)) for x in row)
                              for row in adj)


def _reference_coordinates(rows, v):
    """Integer coordinates of v over `rows` by gauss_solve, or None."""
    sol = gauss_solve(mat_transpose(rows), v) if rows else (
        () if not any(v) else None)
    if sol is None or any(Fraction(c).denominator != 1 for c in sol):
        return None
    return tuple(int(c) for c in sol)


@st.composite
def independent_rows(draw):
    """(k, n, rows): k <= n linearly independent int rows of length n <= 5."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n))
    rows = tuple(tuple(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
                 for _ in range(k))
    assume(gauss_jordan(tuple(tuple(sum(a * b for a, b in zip(r, s)) for s in rows)
                              for r in rows))[1] is not None)
    return k, n, rows


@settings(max_examples=150, deadline=None)
@given(independent_rows(), st.data())
def test_coordinates_match_gauss_solve(krows, data):
    """Coordinates over independent rows, as `BasedRootDatum` and
    `SigmaSystem` take them: `integer_solver` on the transpose, with no
    kernel."""
    k, n, rows = krows

    def coordinates(rows):
        solve, kernel = integer_solver(mat_transpose(rows) or ((),) * n)
        assert kernel == ()
        return solve

    solve = coordinates(rows)
    ints = st.lists(st.integers(-4, 4), min_size=k, max_size=k)
    # in the lattice: x itself comes back
    x = tuple(data.draw(ints))
    v = tuple(sum(xi * r[j] for xi, r in zip(x, rows)) for j in range(n))
    assert solve(v) == x == _reference_coordinates(rows, v)
    # in the span, not in the lattice: over rows with the first one scaled
    # by q, the first coordinate of v becomes x_0 / q
    q = data.draw(st.integers(2, 3))
    if k and x[0] % q:
        scaled = (tuple(q * a for a in rows[0]),) + rows[1:]
        assert gauss_solve(mat_transpose(scaled), v) is not None
        assert coordinates(scaled)(v) is None
        assert _reference_coordinates(scaled, v) is None
    # anywhere: outside the span when k < n (for almost every draw)
    w = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)))
    assert solve(w) == _reference_coordinates(rows, w)


# -- the dominance order, Wt(mu) and the class cone against gauss_solve ------

def _reference_class_leq(L, sigma, lam, mu):
    diff = combination(L, (1, -1), (mu, lam))
    cols = tuple(frac_vec(c.free) for c in sigma.base_classes)
    if not cols:
        return diff == L.zero()
    sol = gauss_solve(mat_transpose(cols), frac_vec(diff.free))
    if sol is None or any(c.denominator != 1 or c < 0 for c in sol):
        return False
    return combination(L, [int(c) for c in sol], sigma.base_classes) == diff


def assert_orders_match_references(lgd, bound):
    datum = lgd.datum
    mus = datum.dominant_cochars_up_to(bound)
    # pairs of dominant mu, and each mu against its shifts by simple coroots
    # and by unit vectors (off the coroot lattice on most data)
    for mu in mus:
        assert datum.weight_set(mu) == reference_weight_set(datum, mu)
        others = list(mus) + [vec_sub(mu, c) for c in datum.simple_coroots] + [
            vec_add(mu, e) for e in identity_matrix(datum.rank)]
        for nu in others:
            assert dominance_leq(datum, nu, mu) == reference_dominance_leq(datum, nu, mu)
    ech = lgd.echelonnage()
    classes = sorted({lgd.coinv.project(mu) for mu in mus}, key=repr)
    for sigma in (ech.sigma_breve, ech.sigma0):
        for lam in classes:
            for mu in classes:
                assert sigma.class_leq(lam, mu) == _reference_class_leq(
                    lgd.coinv, sigma, lam, mu)


@pytest.mark.parametrize("name", preset_names())
def test_orders_match_references_on_presets(name):
    assert_orders_match_references(load_preset(name).lgd, 4)


@settings(max_examples=25, deadline=None)
@given(cartan_data())
def test_orders_match_references_property(datum):
    assert_orders_match_references(LocalGroupDatum(datum), 3)
