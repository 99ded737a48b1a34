"""Exact linear algebra over Z and Q.

Everything here works on immutable tuples (vectors are tuples, matrices are
tuples of row tuples) with int or Fraction entries.  No floats anywhere: the
rest of the library depends on every identity being exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u):
    return tuple(-a for a in u)


def vec_scale(c, u):
    return tuple(c * a for a in u)


def vec_dot(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(a * b for a, b in zip(u, v))


def vec_is_zero(u):
    return all(a == 0 for a in u)


def frac_vec(u):
    return tuple(a if type(a) is Fraction else Fraction(a) for a in u)


def integral_rows(rows):
    """(d, d * rows) with d the least common denominator of the int or
    Fraction entries, so the scaled rows are int."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in row)
                    for row in rows)


def int_vec(u):
    """Cast a rational vector with integer entries back to ints."""
    out = []
    for a in u:
        f = Fraction(a)
        if f.denominator != 1:
            raise ValueError("entry %r is not an integer" % (a,))
        out.append(int(f))
    return tuple(out)


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


def mat_int(M):
    return tuple(int_vec(row) for row in M)


def gauss_solve(A, b):
    """Solve A x = b over Q.  Returns a Fraction tuple, or None if unsolvable.

    When the solution space is positive-dimensional an arbitrary (but
    deterministic) solution is returned.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    rows = [[Fraction(x) for x in A[i]] + [Fraction(b[i])] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if rows[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = rows[i][n]
    return tuple(x)


def mat_rational_inverse(M):
    """Inverse of a square matrix over Q, or None if singular."""
    n = len(M)
    rows = [[Fraction(x) for x in M[i]] + [Fraction(1 if j == i else 0) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            return None
        rows[c], rows[pr] = rows[pr], rows[c]
        pv = rows[c][c]
        rows[c] = [x / pv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return tuple(tuple(rows[i][n:]) for i in range(n))


def mat_det(M):
    """Exact determinant, by fraction-free (Bareiss) elimination of the
    matrix scaled to ints by the common denominator d of its entries."""
    n = len(M)
    d, a = integral_rows(M)
    a = list(a)
    sign = prev = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            sign = -sign
        pv = a[c][c]
        for i in range(c + 1, n):
            f = a[i][c]
            a[i] = [(pv * x - f * y) // prev for x, y in zip(a[i], a[c])]
        prev = pv
    return Fraction(sign * prev, d ** n)


def is_positive_definite(M):
    """Sylvester criterion for a symmetric rational matrix."""
    n = len(M)
    for k in range(1, n + 1):
        minor = tuple(tuple(M[i][j] for j in range(k)) for i in range(k))
        if mat_det(minor) <= 0:
            return False
    return True


def mat_integer_inverse(U):
    """Inverse of a unimodular integer matrix, as an integer matrix."""
    inv = mat_rational_inverse(U)
    if inv is None:
        raise ValueError("matrix is singular")
    return mat_int(inv)


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
    rows = [list(v) for v in vectors if not vec_is_zero(v)]
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
