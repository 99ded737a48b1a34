"""Exact linear algebra over Z and Q.

Everything here works on immutable tuples (vectors are tuples, matrices are
tuples of row tuples) with int or Fraction entries.  No floats anywhere: the
rest of the library depends on every identity being exact.

Determinants, inverses and coordinates over a base all come from one
fraction-free elimination, `adjugate`; `coordinates` turns it into a
reusable int solver for a fixed base.  Singular, non-unimodular or
dependent input raises ArithmeticError: callers that take such matrices
from the user turn it into their own input error.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


def vec_dot(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(a * b for a, b in zip(u, v))


def exact_int(x):
    """x as an int; raises ArithmeticError when x is not integral."""
    n = int(x)
    if n != x:
        raise ArithmeticError("non-integral value %r" % (x,))
    return n


def frac_vec(u):
    return tuple(a if type(a) is Fraction else Fraction(a) for a in u)


def integral_rows(rows):
    """(d, d * rows) with d the least common denominator of the int or
    Fraction entries, so the scaled rows are int."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                    for row in rows)


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(M, v):
    return tuple(vec_dot(row, v) for row in M)


def mat_mul(A, B):
    Bt = tuple(zip(*B))
    return tuple(tuple(vec_dot(row, col) for col in Bt) for row in A)


def mat_transpose(M):
    return tuple(zip(*M))


def mat_sub(A, B):
    return tuple(vec_sub(r, s) for r, s in zip(A, B))


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
        return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in rows)
    return (Fraction(sign * prev, d ** n),
            tuple(tuple(Fraction(sign * x, d ** (n - 1)) for x in row[n:])
                  for row in rows))


def mat_det(M):
    """Exact determinant (an int for an int matrix)."""
    return adjugate(M)[0]


def mat_rational_inverse(M):
    """Inverse of a square matrix over Q, as adj M / det M."""
    det, adj = adjugate(M)
    if adj is None:
        raise ArithmeticError("matrix is singular")
    return tuple(tuple(Fraction(x, det) for x in row) for row in adj)


def mat_integer_inverse(U):
    """Inverse of a unimodular int matrix: det U = +-1, so U^-1 = det U adj U."""
    det, adj = adjugate(U)
    if det not in (1, -1):
        raise ArithmeticError("matrix is not unimodular")
    return adj if det == 1 else tuple(tuple(-x for x in row) for row in adj)


def coordinates(rows):
    """Solver for coordinates over linearly independent int rows B.

    Returns solve(v): the int tuple x with sum_i x_i B_i == v, or None when
    v is not such an integral combination.  The left inverse adj(G) B over
    det(G), G = B B^T, is built once; each query is one int mat-vec, a
    divisibility check by det(G) and a check that x really gives v (v may lie
    outside the span).  Raises ArithmeticError when the rows are dependent.
    """
    B = tuple(map(tuple, rows))
    det, adj = adjugate(tuple(tuple(vec_dot(r, s) for s in B) for r in B))
    if adj is None:
        raise ArithmeticError("rows are linearly dependent")
    left = mat_mul(adj, B)

    def solve(v):
        x = []
        for row in left:
            q, r = divmod(vec_dot(row, v), det)
            if r:
                return None
            x.append(q)
        if any(vk != sum(xi * b[k] for xi, b in zip(x, B)) for k, vk in enumerate(v)):
            return None
        return tuple(x)

    return solve


def is_positive_definite(M):
    """Sylvester criterion for a symmetric rational matrix."""
    n = len(M)
    for k in range(1, n + 1):
        minor = tuple(tuple(M[i][j] for j in range(k)) for i in range(k))
        if mat_det(minor) <= 0:
            return False
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


def hermite_row_basis(vectors):
    """Canonical basis (row-style Hermite form) of the lattice the rows span.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot).  The result is a canonical invariant of the lattice itself.
    """
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return ()
    n = len(rows[0])
    basis = []
    for c in range(n):
        pool = [r for r in rows if r[c] != 0]
        if not pool:
            continue
        # gcd-eliminate column c: shrink until a single row carries the pivot
        while len(pool) > 1:
            pool.sort(key=lambda r: abs(r[c]))
            piv = pool[0]
            for r in pool[1:]:
                q = r[c] // piv[c]
                if q:
                    for k in range(n):
                        r[k] -= q * piv[k]
            pool = [piv] + [r for r in pool[1:] if r[c] != 0]
        piv = pool[0]
        if piv[c] < 0:
            for k in range(n):
                piv[k] = -piv[k]
        basis.append(piv)
        rows = [r for r in rows if r is not piv and any(r)]
    # reduce entries above each pivot into [0, pivot) for canonicity
    for i in range(len(basis)):
        c = next(k for k in range(n) if basis[i][k] != 0)
        for j in range(i):
            q = basis[j][c] // basis[i][c]
            if q:
                for k in range(n):
                    basis[j][k] -= q * basis[i][k]
    return tuple(tuple(r) for r in basis)


def lattice_member(basis, v):
    """Whether integer vector v lies in the lattice spanned by HNF `basis`."""
    n = len(v)
    v = list(v)
    for row in basis:
        c = next(k for k in range(n) if row[k] != 0)
        if v[c] % row[c] == 0:
            q = v[c] // row[c]
            if q:
                for k in range(n):
                    v[k] -= q * row[k]
    return all(a == 0 for a in v)


def kernel_basis(M):
    """Integer basis of {x : M x = 0}, via the SNF column transform."""
    if not M or not M[0]:
        n = len(M[0]) if M else 0
        return tuple(identity_matrix(n))
    D, _U, V = smith_normal_form(M)
    m = len(M)
    n = len(M[0])
    cols = []
    for j in range(n):
        dj = D[j][j] if j < m else 0
        if dj == 0:
            cols.append(tuple(V[i][j] for i in range(n)))
    return tuple(cols)


def solve_integer(M, b):
    """One integer solution of M x = b, or None if none exists."""
    m = len(M)
    n = len(M[0]) if m else 0
    D, U, V = smith_normal_form(M)
    c = mat_vec(U, b)
    y = [0] * n
    for i in range(m):
        d = D[i][i] if i < n else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            if i < n:
                y[i] = c[i] // d
    return mat_vec(V, tuple(y))
