"""Integer lattices with finite group actions.

Provides coinvariants (with torsion, in Smith normal form coordinates), the
averaging map onto the fixed subspace, and subgroup equality in coinvariant
lattices.  Every object is immutable after construction and all
arithmetic is exact.

A coinvariant class has one integer representation, the named pair
`CoinvariantElement(free, tors)`: a tuple of free coordinates and a tuple of
residues, each reduced modulo its torsion factor.  It equals, hashes and
sorts as that pair, and holds no reference to its lattice.  Only this module
knows how the pair sits in the full Smith normal form coordinates.  An
induced endomorphism is stored as compact int tables on (free, tors), built
once, so applying it is one int mat-vec and one `%` per torsion coordinate;
so is lam - sum_i c_i classes_i for a fixed tuple of classes
(`CoinvariantLattice.lowering`).  The section over the free
coordinates, and its pairings with ambient vectors
(`CoinvariantLattice.section_pairing`), are int rows over one denominator.
Ambient vectors enter through `CoinvariantLattice.project`, which checks
that they are integral and reduces the residues; sums and negatives are
`CoinvariantLattice.add` and `neg`.  Every other result of this arithmetic
is reduced where it is computed.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from math import lcm
from operator import add, mul

from .linalg import (
    exact_int,
    fraction_rows,
    identity_matrix,
    integer_solver,
    lowest_terms,
    mat_integer_inverse,
    mat_mul,
    mat_sub,
    mat_transpose,
    mat_vec,
    smith_normal_form,
)

GROUP_CAP = 10080


class MalformedAction(ValueError):
    """A generator is not invertible over Z, or the action is inconsistent."""


class ResourceCap(RuntimeError):
    """An enumeration exceeded its configured bound."""


class TheoremViolation(RuntimeError):
    """Two constructions that a theorem forces to agree came out different."""


def closure(seeds, step):
    """Yield the seeds in their order, then every element that `step`
    reaches from them, breadth first: each element once, in the order it
    was found.  `step(x)` returns the neighbours of x."""
    seen = set()
    queue = []
    for x in seeds:
        if x not in seen:
            seen.add(x)
            queue.append(x)
            yield x
    # the queue grows while it is read
    for x in queue:
        for y in step(x):
            if y not in seen:
                seen.add(y)
                queue.append(y)
                yield y


def _finite_order(g, eye):
    """True when g^k = 1 for the order k <= `GROUP_CAP` of g mod 3.
    Reduction mod 3 is injective on finite subgroups of GL_n(Z)
    (Minkowski), so a g of finite order has the order of g mod 3: k is
    found with entries in {0, 1, 2}, and g^k = 1 is tested over Z by
    repeated squaring."""
    g3 = tuple([tuple([x % 3 for x in row]) for row in g])
    p, k = g3, 1
    while p != eye:
        if k == GROUP_CAP:
            return False
        p, k = tuple([tuple([x % 3 for x in row]) for row in mat_mul(p, g3)]), k + 1
    power = eye
    while True:
        if k & 1:
            power = mat_mul(power, g)
        k >>= 1
        if not k:
            return power == eye
        g = mat_mul(g, g)


# generator tuple -> the group it generates, never changed, so two threads
# racing on one key only close it twice
_GROUPS = {}


def group_closure(generators):
    """All elements of the group the matrices generate, breadth first from
    the identity (for one generator g: 1, g, g^2, ...).  Raises
    MalformedAction on a generator that is not invertible over Z, or that
    has no power g^k = 1 with k <= `GROUP_CAP` ("infinite order", decided
    by `_finite_order`: the largest finite order in GL_n(Z),
    max lcm{m_i : sum phi(m_i) <= n}, is 60 at n = 8 and 9240 at n = 27 but
    13860 at n = 28, so this is exact through rank 27), and ResourceCap
    past `GROUP_CAP` elements.  Each generator tuple that passes is closed
    once per process and kept in `_GROUPS`; the cap applies to every
    request."""
    if not generators:
        return ()
    key = tuple(tuple(map(tuple, g)) for g in generators)
    group = _GROUPS.get(key)
    if group is None:
        eye = identity_matrix(len(key[0]))
        for g in key:
            try:
                mat_integer_inverse(g)
            except ArithmeticError:
                raise MalformedAction("generator is not invertible over Z")
            if not _finite_order(g, eye):
                raise MalformedAction("generator has infinite order")
        group = tuple(islice(closure([eye], lambda h: (mat_mul(g, h) for g in key)),
                             GROUP_CAP + 1))
        if len(group) <= GROUP_CAP:
            group = _GROUPS.setdefault(key, group)
    if len(group) > GROUP_CAP:
        raise ResourceCap("group closure exceeded %d elements" % GROUP_CAP)
    return group


def average(v, group):
    """The average of the int vector v over its orbit (divided by the orbit
    size, not the group order), the map onto the fixed subspace, as
    (orbit size, orbit sum): the average is the sum over the size."""
    orb = {mat_vec(g, v) for g in group} or {tuple(v)}
    return len(orb), tuple(map(sum, zip(*orb)))


class CoinvariantElement(namedtuple("CoinvariantElement", "free tors")):
    """A class of a coinvariant lattice: the int tuple of free coordinates
    and the int tuple of residues, each reduced modulo its torsion factor.
    Equality, hashing and the class order are the pair's, by free
    coordinates, then residues; every listing of classes (reports,
    peel-offs, orbit seeds) sorts by it.  Only code that has reduced the
    residues builds one; sums and negatives need the torsion factors and
    are `CoinvariantLattice.add` and `neg`, so the tuple `+` and `*` are
    switched off."""

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = None

    def __repr__(self):
        if self.tors:
            return "Coinv(free=%r, tors=%r)" % (self.free, self.tors)
        return "Coinv(free=%r)" % (self.free,)


class QuotientEndo:
    """An endomorphism of a coinvariant lattice induced by an ambient matrix.

    `matrix` is the action on the full SNF coordinates.  It is applied
    through two compact tables built once here: an int row over the free
    coordinates for each free output (the descent check in
    `endo_from_matrix` proves that torsion inputs never reach a free
    output), and an int row over free + tors with its modulus for each
    torsion output."""

    __slots__ = ("matrix", "_free", "_tors")

    def __init__(self, lattice, matrix):
        self.matrix = matrix
        free = lattice._free_rows
        both = free + lattice._tors_rows
        self._free = tuple(tuple(matrix[i][j] for j in free) for i in free)
        self._tors = tuple((tuple(matrix[i][j] for j in both), d)
                           for i, d in zip(lattice._tors_rows, lattice.torsion))

    def __call__(self, e):
        f = e.free
        x = f + e.tors
        return CoinvariantElement(
            tuple([sum(map(mul, row, f)) for row in self._free]),
            tuple([sum(map(mul, row, x)) % d for row, d in self._tors]))

    def shift(self, base, e):
        """base + self(e), in one pass."""
        f = e.free
        x = f + e.tors
        return CoinvariantElement(
            tuple([b + sum(map(mul, row, f)) for b, row in zip(base.free, self._free)]),
            tuple([(b + sum(map(mul, row, x))) % d
                   for b, (row, d) in zip(base.tors, self._tors)]))


class CoinvariantLattice:
    """X/<gx - x> for a finite action on X = Z^rank, in SNF coordinates.

    Coordinates: `torsion` lists the moduli d_i >= 2; elements carry an
    integer vector of free coordinates and a residue per torsion factor.
    """

    def __init__(self, rank, generators):
        self.rank = rank
        self.generators = tuple(tuple(map(tuple, g)) for g in generators)
        self.group = group_closure(self.generators) or (identity_matrix(rank),)
        eye = identity_matrix(rank)
        cols = []
        for g in self.generators:
            diff = mat_sub(g, eye)
            for j in range(rank):
                cols.append(tuple(diff[i][j] for i in range(rank)))
        if cols:
            R = tuple(zip(*cols))  # rank x (rank*k), columns span the relations
        else:
            R = tuple((0,) * 1 for _ in range(rank)) if rank else ()
        D, U, _V = smith_normal_form(R) if rank else ((), (), ())
        self._U = U if rank else ()
        self._Uinv = mat_integer_inverse(U) if rank else ()
        ncols = len(R[0]) if rank and R else 0
        diag = [D[i][i] if i < ncols else 0 for i in range(rank)]
        self._moduli = tuple(diag)  # 0 = free, 1 = dead, >=2 = torsion
        self.torsion = tuple(d for d in diag if d >= 2)
        self._tors_rows = tuple(i for i, d in enumerate(diag) if d >= 2)
        self._free_rows = tuple(i for i, d in enumerate(diag) if d == 0)
        self.free_rank = len(self._free_rows)
        self._section = self._build_section()

    # -- coordinates ------------------------------------------------------

    def project(self, x):
        """Image of an ambient integer vector in the quotient; raises
        ArithmeticError when a coordinate is not integral."""
        y = mat_vec(self._U, x)
        return CoinvariantElement(
            tuple(exact_int(y[i]) for i in self._free_rows),
            tuple(exact_int(y[i]) % d for i, d in zip(self._tors_rows, self.torsion)))

    def _full_coords(self, e):
        y = [0] * self.rank
        for i, t in zip(self._tors_rows, e.tors):
            y[i] = t
        for i, u in zip(self._free_rows, e.free):
            y[i] = u
        return tuple(y)

    def lift(self, e):
        """Canonical integer preimage of a coinvariant element."""
        return mat_vec(self._Uinv, self._full_coords(e))

    def zero(self):
        return CoinvariantElement((0,) * self.free_rank, (0,) * len(self.torsion))

    def add(self, a, b):
        return CoinvariantElement(tuple(map(add, a.free, b.free)),
                                  tuple((x + y) % d for x, y, d in
                                        zip(a.tors, b.tors, self.torsion)))

    def neg(self, a):
        return CoinvariantElement(tuple(-x for x in a.free),
                                  tuple(-t % d for t, d in zip(a.tors, self.torsion)))

    def _build_section(self):
        """The section as (den, int rows), one row per ambient coordinate:
        column i is den times the group-average of the lift of the i-th
        free basis class."""
        zero = (0,) * len(self.torsion)
        avgs = [average(self.lift(CoinvariantElement(free, zero)), self.group)
                for free in identity_matrix(self.free_rank)]
        den = lcm(*(size for size, _total in avgs))
        return lowest_terms(den, [tuple(den // size * total[k] for size, total in avgs)
                                  for k in range(self.rank)])

    def section(self, e):
        """(den, den v), v the group-average of any lift of e: the vector
        realizing its free part on the fixed subspace (torsion maps to 0)."""
        den, rows = self._section
        return den, tuple([sum(map(mul, row, e.free)) for row in rows])

    def section_vector(self, e):
        """`section` as a Fraction vector."""
        den, v = self.section(e)
        return fraction_rows(den, (v,))[0]

    def section_pairing(self, vden, vrows):
        """(den, rows) with rows[k][i] = den * <vrows[k] / vden, section of
        the i-th free basis class> all ints, den > 0 their least common
        denominator: <v, section_vector(e)> is sum(row * e.free) / den."""
        sden, rows = self._section
        cols = tuple(zip(*rows))
        return lowest_terms(sden * vden, [[sum(map(mul, v, col)) for col in cols]
                                          for v in vrows])

    # -- induced maps ------------------------------------------------------

    def lowering(self, classes):
        """The map (lam, c) -> lam - sum_i c_i classes[i] for int c, from
        int tables built once, as in `QuotientEndo`: per free coordinate the
        row of the classes' free parts, per torsion coordinate the row of
        their residues and its modulus.  It returns reduced elements."""
        free = tuple(tuple(cls.free[j] for cls in classes)
                     for j in range(self.free_rank))
        tors = tuple((tuple(cls.tors[k] for cls in classes), d)
                     for k, d in enumerate(self.torsion))

        def lower(lam, c):
            return CoinvariantElement(
                tuple([x - sum(map(mul, row, c)) for x, row in zip(lam.free, free)]),
                tuple([(t - sum(map(mul, row, c))) % d
                       for t, (row, d) in zip(lam.tors, tors)]))
        return lower

    def endo_from_matrix(self, M):
        """The endomorphism induced by an ambient matrix commuting with the
        action.  Raises MalformedAction if M does not descend."""
        A = mat_mul(mat_mul(self._U, M), self._Uinv)
        for j in range(self.rank):
            dj = self._moduli[j]
            if dj == 0:
                continue
            for i in range(self.rank):
                di = self._moduli[i]
                entry = A[i][j] * dj
                if di == 0:
                    ok = entry == 0
                else:
                    ok = entry % di == 0
                if not ok:
                    raise MalformedAction("matrix does not descend to the quotient")
        return QuotientEndo(self, A)

    # -- subgroups ---------------------------------------------------------

    def same_subgroup(self, a, b):
        """True when the elements a and the elements b generate the same
        subgroup: each lies in the subgroup of the other (`_contains`)."""
        return self._contains(a, b) and self._contains(b, a)

    def _contains(self, gens, elements):
        """True when every element lies in the subgroup the gens generate:
        its (free, tors) vector is an integral combination of theirs and of
        the torsion relation rows d_k e_k, one Smith form for all of them
        (`linalg.integer_solver`)."""
        f, t = self.free_rank, len(self.torsion)
        rows = [e.free + e.tors for e in gens]
        rows += [(0,) * (f + k) + (d,) + (0,) * (t - k - 1)
                 for k, d in enumerate(self.torsion)]
        solve = integer_solver(mat_transpose(rows) or ((),) * (f + t))[0]
        return all(solve(e.free + e.tors) is not None for e in elements)


def coinvariants(rank, generators):
    """Coinvariant lattice of a finite integer action, in SNF coordinates."""
    return CoinvariantLattice(rank, generators)


def action_to_json(rank, generators):
    return {"rank": rank, "generators": [[list(row) for row in g] for g in generators]}


def action_from_json(data):
    rank = int(data["rank"])
    gens = tuple(tuple(tuple(int(x) for x in row) for row in g)
                 for g in data["generators"])
    for g in gens:
        if len(g) != rank or any(len(row) != rank for row in g):
            raise MalformedAction("generator shape does not match rank")
    return rank, gens
