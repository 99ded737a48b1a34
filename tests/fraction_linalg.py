"""Fraction Gaussian elimination: the reference for `rootfold.linalg`.

The library decides determinants and inverses with one fraction-free
integer elimination (`linalg.adjugate`) and coordinates over a base with
one Smith form (`linalg.integer_solver`).  The tests check them against
these plain Fraction eliminations, and use `gauss_solve` wherever they need
coordinates of their own.  `solve_integer` is the per-call Smith-form solver that
`linalg.integer_solver` replaced.

`hermite_row_basis` is the canonical basis by which the library once
compared subgroups; `CoinvariantLattice.same_subgroup`, which solves with
`linalg.integer_solver` instead, is checked against it.

`average`, `weight_items` and `reference_base` are the Fraction routes that
the int representation of the Sigma systems replaced: the orbit average,
the weights of a trace table, and the int representation `RootSystemV`
used to derive from Fraction input.
"""

from fractions import Fraction


def frac_vec(u):
    """The vector u with Fraction entries."""
    return tuple(a if type(a) is Fraction else Fraction(a) for a in u)


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


def gauss_jordan(M):
    """(det M, M^-1) over Q by Fraction Gauss-Jordan; (0, None) when M is
    singular.  The determinant is the signed product of the pivots."""
    n = len(M)
    rows = [[Fraction(x) for x in M[i]] + [Fraction(int(j == i)) for j in range(n)]
            for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            return Fraction(0), None
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = -det
        pv = rows[c][c]
        det *= pv
        rows[c] = [x / pv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det, tuple(tuple(rows[i][n:]) for i in range(n))


def solve_integer(M, b):
    """One integer solution of M x = b, or None if none exists, from a Smith
    normal form computed on every call: the reference for
    `linalg.integer_solver`, which builds the form once per matrix."""
    from rootfold.linalg import mat_vec, smith_normal_form
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


def average(v, group):
    """The average of v over its orbit as a Fraction vector."""
    from rootfold.linalg import mat_vec, vec_add, vec_scale
    orb = {mat_vec(g, frac_vec(v)) for g in group} or {frac_vec(v)}
    total = (Fraction(0),) * len(v)
    for u in orb:
        total = vec_add(total, u)
    return vec_scale(Fraction(1, len(orb)), total)


def weight_items(base, mu, table):
    """(c, mu - sum_i c_i base[i], multiplicity) over a weight table, in
    Fraction vectors."""
    from rootfold.linalg import vec_scale, vec_sub
    for c, m in table.items():
        v = frac_vec(mu)
        for ci, b in zip(c, base):
            if ci:
                v = vec_sub(v, vec_scale(ci, frac_vec(b)))
        yield c, v, m


def reference_base(base, gram):
    """(den, base rows, gram den, gram rows, base Gram, Cartan matrix) of
    the Fraction base and form, each rational matrix over its least common
    denominator and the base Gram matrix den^2 gram_den (b_i|b_j)."""
    from rootfold.folding import cartan_of_gram
    from rootfold.linalg import integral_rows, mat_vec, vec_dot
    den, rows = integral_rows([frac_vec(b) for b in base])
    gram_den, gram_rows = integral_rows([frac_vec(r) for r in gram])
    base_gram = tuple(tuple(vec_dot(u, mat_vec(gram_rows, v)) for v in rows)
                      for u in rows)
    return den, rows, gram_den, gram_rows, base_gram, cartan_of_gram(base_gram)
