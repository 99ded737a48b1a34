"""The four folding operations on based root systems with automorphisms.

A root system here is a finite set of exact rational vectors with a chosen
base, living in an ambient space that carries an invariant positive form.
The operations produce their output inside the fixed subspace: restriction
is realized through the averaging map, so that norms and restrictions can be
compared by literal vector equality (the duality theorem is an identity).
The work runs in integer coordinates over the base (Casselman, "Machine
calculations in Weyl groups", Invent. Math. 116, 1994): a system keeps its
base and form as int rows over common denominators, converts rational input
once, and builds Fractions only where a caller reads them.

An automorphism acts on a based system only through the permutation of
simple-root indices it induces (`base_permutation`), so the operations take
generators of a group and read its orbits on the base as the connected
components of their permutations; each system is built once per process
for each value, and a `Fold` keeps the operation and orbits beside it.  An
orbit is orthogonal exactly when the source Cartan matrix vanishes on each
pair in it, since C[i][j] = 2(b_i|b_j)/(b_i|b_i).  The two sides of a
duality identity are compared by `dual_mismatch`, which carries the dual
base of one side across by the invariant form (`gram` or its inverse
`gram_star`) and rebuilds the carried roots from their coroot coordinates;
each system builds its dual base and coroot coordinates once, on first read.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from .lattice import MalformedAction, ResourceCap, TheoremViolation, closure
from .linalg import fraction_rows, integral_rows, lowest_terms, mat_det, mat_vec, vec_dot

OP_TAGS = ("N", "Nprime", "res", "resprime")

_CLOSURE_CAP = 100000


def _ratio(a, b):
    """a/b as an int when it is integral, else as a Fraction."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _span(c, cols):
    """sum_j c_j b_j for the vectors b_j whose components are `cols`."""
    return tuple([sum(map(mul, c, col)) for col in cols])


def _root_set(coords, rows):
    """{+-sum_j c_j rows_j : c in coords} as int vectors."""
    cols = tuple(zip(*rows))
    spans = [_span(c, cols) for c in coords]
    return set(spans) | {tuple([-x for x in v]) for v in spans}


def cartan_of_gram(base_gram):
    """C[i][j] = 2(b_i|b_j)/(b_i|b_i) from the Gram matrix of a base, with
    int entries wherever they are integral."""
    return tuple(tuple(_ratio(2 * gij, row[i]) for gij in row)
                 for i, row in enumerate(base_gram))


# Cartan matrix -> the frozenset of its roots' coordinates, and
# `RootSystemV._value` -> the one system of that value.  The values are
# never changed, so two threads racing on one key only compute it twice.
_CLOSURES = {}
_SYSTEMS = {}


def cartan_closure(cartan):
    """All roots of the system with Cartan matrix C[i][j] = <b_j, b_i^vee>,
    as a frozenset of coordinate tuples over its base.  The coordinates
    depend on C alone, so each matrix is closed once and kept in
    `_CLOSURES`; the `_CLOSURE_CAP` check applies to every request."""
    key = tuple(map(tuple, cartan))
    roots = _CLOSURES.get(key)
    if roots is None:
        roots = _CLOSURES[key] = _close_cartan(key)
    if len(roots) > _CLOSURE_CAP:
        raise ResourceCap("root closure exceeded cap")
    return roots


def _close_cartan(cartan):
    """The orbit of the simple roots under s_i(c) = c - (sum_j c_j C[i][j])
    e_i, closed under negation; stops at `_CLOSURE_CAP` roots."""
    n = len(cartan)
    rows = tuple(enumerate(cartan))

    def reflections(c):
        for i, row in rows:
            p = sum(map(mul, c, row))
            if p:
                yield c[:i] + (c[i] - p,) + c[i + 1:]

    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots = set()
    for c in closure(simple, reflections):
        roots.add(c)
        if len(roots) > _CLOSURE_CAP:
            raise ResourceCap("root closure exceeded cap")
    roots |= {tuple(-x for x in c) for c in roots}
    return frozenset(roots)


def _components(C):
    """The connected components of the Dynkin diagram of C (nodes i, j
    linked when C[i][j] != 0), each a sorted tuple, in the order of their
    lowest nodes."""
    n = len(C)
    placed = set()
    comps = []
    for s in range(n):
        if s not in placed:
            comp = tuple(sorted(closure([s], lambda i: (j for j in range(n) if C[i][j] != 0))))
            placed.update(comp)
            comps.append(comp)
    return tuple(comps)


def component_type(comp, cartan, coords, lengths):
    """The type of the irreducible finite root system on the nodes `comp`,
    given the Cartan matrix, the coordinates over the base of all the roots
    and the squared lengths of the simple roots (up to a factor).  The rank
    r, the number of roots supported on `comp` and the number of its short
    simple roots name the type (Bourbaki, Lie Groups and Lie Algebras,
    Ch. VI, Plates I-IX); D_3 = A_3 is named A3.  A rank-2 double-bond
    component is B2 when its first simple root is the long one, C2
    otherwise."""
    r = len(comp)
    if r == 2 and cartan[comp[0]][comp[1]] * cartan[comp[1]][comp[0]] == 2:
        return "B2" if lengths[comp[0]] > lengths[comp[1]] else "C2"
    count = sum(1 for c in coords if any(c[i] for i in comp))
    low = min(lengths[i] for i in comp)
    short = sum(1 for i in comp if lengths[i] == low)
    for letter, n, s in (("A", r * (r + 1), r), ("B", 2 * r * r, 1), ("C", 2 * r * r, r - 1),
                         ("D", 2 * r * (r - 1) if r >= 4 else None, r),
                         ("E", {6: 72, 7: 126, 8: 240}.get(r), r),
                         ("F", 48 if r == 4 else None, 2), ("G", 12 if r == 2 else None, 1)):
        if (count, short) == (n, s):
            return "%s%d" % (letter, r)
    raise ValueError("not a finite-type Cartan matrix")


def join_types(names):
    """The factors `names` sorted by (rank, letter) and joined with "x"."""
    return "x".join(sorted(names, key=lambda nm: (int(nm[1:]), nm)))


class RootSystemV:
    """A based root system given by exact vectors and an invariant form.

    A system stores only ints: the base as a least common denominator `_den`
    and int rows `_base_int`, the form as `_gram_den` and `_gram_int`, and
    `_base_gram[i][j]` = den^2 gram_den (b_i|b_j), which gives the Cartan
    matrix C[i][j] = <b_j, b_i^vee>.  The closure runs in simple-root
    coordinates, s_i(c) = c - (sum_j c_j C[i][j]) e_i (Humphreys, Reflection
    Groups and Coxeter Groups, 1.5).  `_coords` lists the sorted positive
    coordinates followed by their negatives; a build computes no ambient
    vector.  `_value`, the tuple (_den, _base_int, _gram_den, _gram_int) in
    lowest terms, determines the system: the library builds each value once
    per process (`_closed`, on `(den, int rows)` pairs), and `__init__`
    converts rational input and builds a system of its own.  Fraction views
    are built on first read: `base`, `gram`, and `coords`, `roots` and
    `positive_roots()`, which compute and sort the ambient vectors
    themselves.  So are the Dynkin components and what `folding`,
    `echelonnage` and `affine` read of them: `components`, `component_of`,
    `component_types` and `highest_roots`, and the dual parts that
    `dual_mismatch` reads.  A system is never changed.
    """

    def __init__(self, base, gram):
        self._set_base(integral_rows(base) + integral_rows(gram))
        self._index(cartan_closure(self._cartan))

    @classmethod
    def _closed(cls, base, gram):
        """The one system on the `(den, int rows)` pairs `base` and `gram`, in
        lowest terms: kept in `_SYSTEMS`, built only when it is missing."""
        value = lowest_terms(*base) + lowest_terms(*gram)
        out = _SYSTEMS.get(value)
        if out is None:
            out = cls.__new__(cls)
            out._set_base(value)
            out._index(cartan_closure(out._cartan))
            out = _SYSTEMS.setdefault(value, out)
        return out

    def _set_base(self, value):
        self._value = value
        self._den, self._base_int, self._gram_den, self._gram_int = value
        gram_base = [mat_vec(self._gram_int, b) for b in self._base_int]
        self._base_gram = tuple(tuple(vec_dot(u, gv) for gv in gram_base)
                                for u in self._base_int)
        if mat_det(self._base_gram) == 0:
            raise ValueError("the base is not linearly independent")
        self._cartan = cartan_of_gram(self._base_gram)

    def _index(self, coords):
        """Install the roots whose coordinates over the base are the positive
        members of `coords`, sorted, followed by their negatives."""
        zero = (0,) * len(self._base_int)
        self._positive_coords = tuple(sorted(c for c in coords if c > zero))
        self._coords = self._positive_coords + tuple(
            tuple([-x for x in c]) for c in self._positive_coords)

    def _vectors(self, coords, den):
        """The int vectors over den (a multiple of `_den`) with `coords`."""
        k = den // self._den
        cols = tuple(tuple(k * x for x in col) for col in zip(*self._base_int))
        return [_span(c, cols) for c in coords]

    @cached_property
    def _positive_vectors(self):
        """The positive roots as int vectors over `_den`, in the order of
        `_positive_coords`."""
        return tuple(self._vectors(self._positive_coords, self._den))

    @cached_property
    def base(self):
        return fraction_rows(self._den, self._base_int)

    @cached_property
    def gram(self):
        return fraction_rows(self._gram_den, self._gram_int)

    @cached_property
    def coords(self):
        """{root: its coordinates over `base`}, the roots as ambient Fraction
        vectors in sorted order."""
        vectors = fraction_rows(self._den, self._vectors(self._coords, self._den))
        return dict(sorted(zip(vectors, self._coords)))

    @cached_property
    def roots(self):
        """The roots as ambient Fraction vectors, sorted."""
        return tuple(self.coords)

    def cartan(self):
        """C[i][j] = <beta_j, beta_i^vee> = 2(b_i|b_j)/(b_i|b_i).  Raises
        TheoremViolation, naming the matrix, unless every entry is an int."""
        if any(isinstance(x, Fraction) for row in self._cartan for x in row):
            raise TheoremViolation("non-integral Cartan entry in %r" % (self._cartan,))
        return self._cartan

    def positive_roots(self):
        zero = (0,) * len(self._base_int)
        return tuple(r for r, c in self.coords.items() if c > zero)

    @cached_property
    def components(self):
        """The connected components of the Dynkin diagram, as `_components`."""
        return _components(self._cartan)

    @cached_property
    def component_types(self):
        """The type of each of `components`, by `component_type`."""
        cart = self.cartan()
        lengths = [row[i] for i, row in enumerate(self._base_gram)]
        return tuple(component_type(comp, cart, self._coords, lengths)
                     for comp in self.components)

    @cached_property
    def component_of(self):
        """{simple-root index: the position of its component in `components`}."""
        return {i: k for k, comp in enumerate(self.components) for i in comp}

    @cached_property
    def highest_roots(self):
        """The coordinates over the base of the highest root of each
        component, in the order of `components`.  A positive root is
        supported on one component, the one of its first nonzero
        coordinate."""
        best = {}
        for c in self._positive_coords:
            k = self.component_of[next(i for i, x in enumerate(c) if x)]
            if k not in best or sum(c) > sum(best[k]):
                best[k] = c
        return tuple(best[k] for k in range(len(self.components)))

    @cached_property
    def _dual_parts(self):
        """(L, rows, coords): the dual base b_j^vee = 2 b_j/(b_j|b_j) as int
        rows over L, and the coordinates over it of the positive coroots.
        The coroot of the root with coordinates c has coordinates
        c_j (b_j|b_j)/(beta|beta), so positivity and support carry over."""
        G = self._base_gram
        L = lcm(*(G[j][j] for j in range(len(G))))
        scale = 2 * self._den * self._gram_den * L
        rows = tuple(tuple(scale // G[j][j] * x for x in b)
                     for j, b in enumerate(self._base_int))
        norms = [vec_dot(c, mat_vec(G, c)) for c in self._positive_coords]
        return L, rows, tuple(tuple(_ratio(cj * G[j][j], norm) for j, cj in enumerate(c))
                              for c, norm in zip(self._positive_coords, norms))

    def __eq__(self, other):
        # on one base, equal root sets are equal coordinate sets
        return (isinstance(other, RootSystemV)
                and (self._den, self._base_int) == (other._den, other._base_int)
                and set(self._coords) == set(other._coords))

    def __repr__(self):
        return "RootSystemV(%r, %d roots)" % (self._cartan, len(self._coords))


class Fold(namedtuple("Fold", "system op orbits")):
    """Output of one of the four operations: the shared `system` of its
    value, the operation `op`, and `orbits`, a tuple of (orbit_indices,
    orthogonal) per folded base element, where orbit_indices are positions
    in the source base (lowest first), read off the simple-root permutations
    of the generators, and orthogonal says that the source Cartan matrix is
    zero on every pair of the orbit.
    """

    __slots__ = ()

    def type_label(self):
        """Cartan type, refined for rank-1 components: an orbit that was not
        pairwise orthogonal yields B1 under the non-doubling operations
        (N, res) and C1 under the doubling ones (Nprime, resprime)."""
        names = []
        for comp, name in zip(self.system.components, self.system.component_types):
            if len(comp) == 1 and not self.orbits[comp[0]][1]:
                name = "B1" if self.op in ("N", "res") else "C1"
            names.append(name)
        return join_types(names)


def base_permutation(rs, g):
    """The simple-root index permutation p of a linear map g that permutes
    the base of rs: g b_i = b_{p(i)}.  Images are compared as the int rows
    of the base over its common denominator."""
    base = rs._base_int
    index = {b: i for i, b in enumerate(base)}
    try:
        p = tuple(index[mat_vec(g, b)] for b in base)
    except KeyError:
        p = ()
    if len(set(p)) != len(base):
        raise MalformedAction("action does not preserve the base")
    return p


def base_orbits(rs, generators):
    """Orbits of the base under the group the matrices generate, as sorted
    index tuples ordered by lowest index: the connected components of the
    links i - p(i) of their permutations (a whole group generates itself)."""
    n = len(rs._base_int)
    links = [[0] * n for _ in range(n)]
    for g in generators:
        for i, j in enumerate(base_permutation(rs, g)):
            links[i][j] = links[j][i] = 1
    return _components(links)


def fold(rs, generators, op):
    """Apply one of N, Nprime, res, resprime to a based system, under the
    group the matrices `generators` generate, as a `Fold`.

    The result lives in the fixed subspace of the same ambient space;
    restriction is computed as the orbit average (the image of res under the
    averaging identification).  Orbit sums are taken on the int rows of the
    base, over the denominator times k, the lcm of the averaged orbits'
    sizes; the system is the one of that base and the source's form."""
    if op not in OP_TAGS:
        raise ValueError("unknown operation %r" % op)
    orbits = base_orbits(rs, generators)
    cart = rs._cartan
    sizes = [len(orb) if op in ("res", "resprime") else 1 for orb in orbits]
    k = lcm(*sizes)
    rows = []
    meta = []
    for orb, size in zip(orbits, sizes):
        # (b_i|b_j) = 0 exactly when C[i][j] = 2(b_i|b_j)/(b_i|b_i) = 0
        orth = all(cart[i][j] == 0 for i in orb for j in orb if i < j)
        total = [sum(col) for col in zip(*(rs._base_int[i] for i in orb))]
        num = (1 if orth or op in ("N", "res") else 2) * (k // size)
        rows.append(tuple(num * x for x in total))
        meta.append((orb, orth))
    system = RootSystemV._closed((rs._den * k, rows), (rs._gram_den, rs._gram_int))
    return Fold(system, op, tuple(meta))


def dual_mismatch(res_side, norm_side, carry):
    """The parts, of ("base", "roots"), in which the dual of `res_side`,
    carried across by the `(den, int rows)` matrix `carry`, differs from
    `norm_side`.  Both sides of one duality identity are built
    independently.  Only the dual base is carried; the carried root with
    coroot coordinates c is sum_j c_j carry(b_j^vee).  Both sides are
    compared as int vectors over one denominator; an empty result means the
    identity holds."""
    den, rows, coords = res_side._dual_parts
    carry_den, carry = carry
    lhs = tuple(tuple(norm_side._den * x for x in mat_vec(carry, row)) for row in rows)
    rhs = tuple(tuple(carry_den * den * x for x in row) for row in norm_side._base_int)
    out = []
    if lhs != rhs:
        out.append("base")
    if _root_set(coords, lhs) != _root_set(norm_side._positive_coords, rhs):
        out.append("roots")
    return tuple(out)


def verify_duality(datum, gens_char, gens_cochar):
    """Check res(Phi^vee)^vee = N'(Phi) and res'(Phi^vee)^vee = N(Phi) for
    the group generated by `gens_char`, acting on X_* by `gens_cochar`.

    Both sides are computed independently; the cocharacter side is carried
    into the character space by the induced form (the inverse Gram matrix
    `gram_star()`, sending v to the vector representing <., v>).  Returns the
    list of mismatches, empty when the theorem holds here.
    """
    char = datum.root_system()
    cochar = datum.coroot_system()
    mismatches = []
    for res_op, norm_op in (("res", "Nprime"), ("resprime", "N")):
        lhs = fold(cochar, gens_cochar, res_op).system
        for part in dual_mismatch(lhs, fold(char, gens_char, norm_op).system,
                                  datum._gram_star_pair):
            mismatches.append("%s(Phi^vee)^vee %s != %s(Phi) %s"
                              % (res_op, part, norm_op, part))
    return mismatches
