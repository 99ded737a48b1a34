"""Exact linear algebra over Z and Q.

Everything here works on immutable tuples (vectors are tuples, matrices are
tuples of row tuples) with int or Fraction entries.  No floats anywhere: the
rest of the library depends on every identity being exact.  A rational
matrix is carried as (den, int rows): `integral_rows` builds that form,
`lowest_terms` normalises it and `fraction_rows` undoes it.

Determinants and inverses come from one fraction-free elimination,
`adjugate`; `integer_solver` gives a reusable int solver for the integral
solutions of a fixed int matrix, and its kernel, from one Smith normal
form.  Singular, non-unimodular or dependent input raises ArithmeticError:
callers that take such matrices from the user turn it into their own input
error.  The vector and matrix kernels run on `map` over `operator`
functions and list comprehensions, not generator expressions; `vec_dot`,
`mat_vec` and `mat_mul` raise ValueError("dimension mismatch") on unequal
lengths.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub


def vec_add(u, v):
    return tuple(map(add, u, v))


def vec_sub(u, v):
    return tuple(map(sub, u, v))


def vec_scale(c, u):
    return tuple([c * a for a in u])


def vec_dot(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(map(mul, u, v))


def _check_rows(M, n):
    """Raise ValueError("dimension mismatch") unless every row of M has n
    entries."""
    if any(map(n.__ne__, map(len, M))):
        raise ValueError("dimension mismatch")


def exact_int(x):
    """x as an int; raises ArithmeticError when x is not integral."""
    n = int(x)
    if n != x:
        raise ArithmeticError("non-integral value %r" % (x,))
    return n


def integral_rows(rows):
    """(d, d * rows) with d the least common denominator of the int or
    Fraction entries, so the scaled rows are int."""
    d = lcm(*[x.denominator for row in rows for x in row])
    return d, tuple([tuple([x.numerator * (d // x.denominator) for x in row])
                     for row in rows])


def lowest_terms(den, rows):
    """(den, rows) divided by the gcd of den > 0 and every entry, so that
    den is the least common denominator, as `integral_rows` gives it."""
    g = gcd(den, *[x for row in rows for x in row])
    return den // g, tuple([tuple([x // g for x in row]) for row in rows])


def fraction_rows(den, rows):
    """The int rows over the int den as Fraction rows."""
    return tuple([tuple([Fraction(x, den) for x in row]) for row in rows])


def identity_matrix(n):
    return tuple([tuple([1 if i == j else 0 for j in range(n)]) for i in range(n)])


def mat_vec(M, v):
    _check_rows(M, len(v))
    return tuple([sum(map(mul, row, v)) for row in M])


def mat_mul(A, B):
    """A B; every row of A must have len(B) entries."""
    _check_rows(A, len(B))
    Bt = tuple(zip(*B))
    return tuple([tuple([sum(map(mul, row, col)) for col in Bt]) for row in A])


def mat_transpose(M):
    return tuple(zip(*M))


def mat_sub(A, B):
    return tuple(map(vec_sub, A, B))


def adjugate(M):
    """(det M, adj M) of a square int or Fraction matrix; (0, None) when M
    is singular.

    This is the one elimination of the library: fraction-free (Bareiss)
    Gauss-Jordan on the int matrix [A | I], A = d M for d the common
    denominator of M's entries.  After the step on column c every entry
    is, up to sign, a minor of [A | I] of order c + 1, so each division by
    the previous pivot is exact.  At the end the left block is det(A) I and
    the right block is adj(A), both up to the sign of the row swaps; then
    det M = det(A) / d^n and adj M = adj(A) / d^(n-1).  An int M gives int
    results.
    """
    n = len(M)
    d, a = integral_rows(M)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    sign = prev = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return 0, None
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            sign = -sign
        piv = rows[c]
        pv = piv[c]
        for i in range(n):
            if i != c:
                f = rows[i][c]
                rows[i] = [(pv * x - f * y) // prev for x, y in zip(rows[i], piv)]
        prev = pv
    if d == 1:
        return sign * prev, tuple([tuple([sign * x for x in row[n:]]) for row in rows])
    return (Fraction(sign * prev, d ** n),
            tuple([tuple([Fraction(sign * x, d ** (n - 1)) for x in row[n:]])
                   for row in rows]))


def mat_det(M):
    """Exact determinant (an int for an int matrix)."""
    return adjugate(M)[0]


def mat_integer_inverse(U):
    """Inverse of a unimodular int matrix: det U = +-1, so U^-1 = det U adj U."""
    det, adj = adjugate(U)
    if det not in (1, -1):
        raise ArithmeticError("matrix is not unimodular")
    return adj if det == 1 else tuple(tuple(-x for x in row) for row in adj)


def is_positive_definite(M):
    """Sylvester's criterion for a symmetric rational matrix, by one
    fraction-free elimination of A = d M (d > 0 the common denominator)
    without row swaps: the pivot of step k is the leading principal minor
    of A of order k + 1, so M is positive definite exactly when no pivot is
    <= 0, and the elimination stops at the first one that is."""
    _d, a = integral_rows(M)
    rows = [list(row) for row in a]
    prev = 1
    for c, piv in enumerate(rows):
        pv = piv[c]
        if pv <= 0:
            return False
        for i in range(c + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(pv * x - f * y) // prev for x, y in zip(rows[i], piv)]
        prev = pv
    return True


def smith_normal_form(M):
    """Smith normal form with transforms: returns (D, U, V), U*M*V = D.

    U, V are unimodular over Z; the diagonal of D is nonnegative with each
    entry dividing the next.  Pivot selection is deterministic so identical
    inputs always produce identical transforms.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A = [list(row) for row in M]
    U = [list(row) for row in identity_matrix(m)]
    V = [list(row) for row in identity_matrix(n)]

    def row_op(i, j, q):
        # row_i -= q * row_j
        A[i] = [a - q * b for a, b in zip(A[i], A[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, q):
        # col_i -= q * col_j
        for r in range(m):
            A[r][i] -= q * A[r][j]
        for r in range(n):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while t < min(m, n):
        # deterministic pivot: smallest |value|, ties by (row, col)
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0:
                    key = (abs(A[i][j]), i, j)
                    if pivot is None or key < pivot:
                        pivot = key
        if pivot is None:
            break
        _, pi, pj = pivot
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    row_op(i, t, q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        if A[t][t] < 0:
                            A[t] = [-a for a in A[t]]
                            U[t] = [-a for a in U[t]]
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    col_op(j, t, q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        if A[t][t] < 0:
                            A[t] = [-a for a in A[t]]
                            U[t] = [-a for a in U[t]]
                        dirty = True
            if not dirty:
                break
        # divisibility: fold in any entry the pivot does not divide
        culprit = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t] != 0:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            row_op(t, culprit, -1)  # add culprit row to pivot row
            continue
        t += 1

    D = tuple(tuple(row) for row in A)
    return D, tuple(tuple(row) for row in U), tuple(tuple(row) for row in V)


def integer_solver(M):
    """(solve, kernel) for an int matrix M (m x n), from one Smith normal form
    U M V = D.

    solve(b) is one int solution x of M x = b, or None when there is none:
    with c = U b, it needs c_i = 0 where D has no pivot and d_i | c_i where it
    has one, and then x = V y for y_i = c_i / d_i (0 beyond the pivots).
    kernel is an int basis of {x : M x = 0}: the columns of V that meet no
    pivot.  Both read the one transform, so a caller solving many right-hand
    sides against one matrix pays for one Smith form.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    D, U, V = smith_normal_form(M)
    piv = [i for i in range(min(m, n)) if D[i][i]]
    pivots = tuple((U[i], D[i][i]) for i in piv)
    vanishing = tuple(U[i] for i in range(m) if i not in piv)
    basis = tuple(tuple(row[i] for i in piv) for row in V)
    kernel = tuple(tuple(row[j] for row in V) for j in range(n) if j not in piv)

    def solve(b):
        _check_rows(U, len(b))
        if any(sum(map(mul, row, b)) for row in vanishing):
            return None
        y = []
        for row, d in pivots:
            q, r = divmod(sum(map(mul, row, b)), d)
            if r:
                return None
            y.append(q)
        return mat_vec(basis, y)

    return solve, kernel

