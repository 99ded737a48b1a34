"""The four folding operations on based root systems with automorphisms.

A root system here is a finite set of exact rational vectors with a chosen
base, living in an ambient space that carries an invariant positive form.
The operations produce their output inside the fixed subspace: restriction
is realized through the averaging map, so that norms and restrictions can be
compared by literal vector equality (the duality theorem is an identity).

An automorphism acts on a based system only through the permutation of
simple-root indices it induces (`base_permutation`).  Orbits of the base
come from those permutations, and an orbit is orthogonal exactly when the
source Cartan matrix vanishes on each pair in it, since
C[i][j] = 2(b_i|b_j)/(b_i|b_i).  The two sides of a duality identity are
compared by `dual_mismatch`, which carries one side across by the
invariant form (`gram` or its inverse `gram_star`).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .lattice import MalformedAction, ResourceCap
from .linalg import frac_vec, mat_det, mat_vec, vec_add, vec_dot, vec_scale

OP_TAGS = ("N", "Nprime", "res", "resprime")

_CLOSURE_CAP = 100000


def _as_int(x):
    """x as an int when it is integral, else unchanged."""
    return int(x) if x.denominator == 1 else x


def _integral(rows):
    """(d, d * rows) with d the least common denominator, so the scaled rows
    are int."""
    den = 1
    for row in rows:
        for x in row:
            den = lcm(den, Fraction(x).denominator)
    return den, tuple(tuple(int(x * den) for x in row) for row in rows)


def _is_negative(c):
    """Whether the first nonzero entry of a coordinate tuple is negative."""
    return next(x for x in c if x) < 0


def form_value(gram, u, v):
    return vec_dot(frac_vec(u), mat_vec(gram, frac_vec(v)))


def dual_vector(gram, v):
    """v^vee = 2v/(v|v) with respect to the form."""
    return vec_scale(Fraction(2) / form_value(gram, v, v), frac_vec(v))


def cartan_of_gram(base_gram):
    """C[i][j] = 2(b_i|b_j)/(b_i|b_i) from the Gram matrix of a base, with
    int entries wherever they are integral."""
    return tuple(tuple(_as_int(2 * gij / row[i]) for gij in row)
                 for i, row in enumerate(base_gram))


def cartan_closure(cartan):
    """All roots of the system with Cartan matrix C[i][j] = <b_j, b_i^vee>,
    as coordinate tuples over its base: the orbit of the simple roots under
    s_i(c) = c - (sum_j c_j C[i][j]) e_i, closed under negation."""
    n = len(cartan)
    rows = tuple(enumerate(cartan))
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = simple
    while frontier:
        nxt = []
        for c in frontier:
            for i, row in rows:
                p = sum(cj * cij for cj, cij in zip(c, row))
                if not p:
                    continue
                w = c[:i] + (c[i] - p,) + c[i + 1:]
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
                    if len(seen) > _CLOSURE_CAP:
                        raise ResourceCap("root closure exceeded cap")
        frontier = nxt
    seen |= {tuple(-x for x in c) for c in seen}
    return seen


class RootSystemV:
    """A based root system given by exact vectors and an invariant form.

    The closure runs in simple-root coordinates: with the Cartan matrix
    C[i][j] = <b_j, b_i^vee> of the base, s_i sends c to
    c - (sum_j c_j C[i][j]) e_i (Humphreys, Reflection Groups and Coxeter
    Groups, 1.5), in plain int arithmetic whenever C is integral.  Each root
    is mapped to its ambient Fraction vector once.  `roots` is the sorted
    tuple of ambient vectors and `coords[r]` the coordinates of the root r
    over `base`.  A system is never changed after construction.
    """

    def __init__(self, base, gram, label=""):
        self._set_base(base, gram, label)
        self._index(self._ambient(cartan_closure(self._cartan)))

    @classmethod
    def from_closure(cls, base, gram, cartan, coords, label=""):
        """The system on `base` whose roots have the coordinates `coords`
        (the closure of `cartan`, negatives included), without closing
        again.  Raises TheoremViolation unless the form gives `cartan`."""
        out = cls.__new__(cls)
        out._set_base(base, gram, label)
        if out._cartan != cartan:
            from .echelonnage import TheoremViolation
            raise TheoremViolation("%s: the form gives Cartan matrix %r, not %r"
                                   % (label or "?", out._cartan, cartan))
        out._index(out._ambient(coords))
        return out

    def _set_base(self, base, gram, label):
        self.base = tuple(frac_vec(b) for b in base)
        self.gram = tuple(tuple(Fraction(x) for x in row) for row in gram)
        self.label = label
        gram_base = [mat_vec(self.gram, b) for b in self.base]
        self._base_gram = tuple(tuple(vec_dot(u, gv) for gv in gram_base)
                                for u in self.base)
        if mat_det(self._base_gram) == 0:
            raise ValueError("the base is not linearly independent")
        self._cartan = cartan_of_gram(self._base_gram)

    @classmethod
    def from_datum(cls, datum):
        """The character-side system (Phi, Delta) of a based root datum."""
        return cls(datum.simple_roots, datum.gram(), label=datum.label)

    @classmethod
    def dual_from_datum(cls, datum):
        """The cocharacter-side system (Phi^vee, Delta^vee) with the induced
        form (inverse Gram)."""
        return cls(datum.simple_coroots, datum.gram_star(),
                   label=datum.label + "^" if datum.label else "")

    def _ambient(self, coord_tuples):
        """{ambient vector: coordinates} for a set of coordinate tuples that
        holds the negative of each of its members."""
        den, base = _integral(self.base)
        out = {}
        for c in coord_tuples:
            if _is_negative(c):
                continue
            v = [0] * len(self.gram)
            for cj, b in zip(c, base):
                if cj:
                    for k, bk in enumerate(b):
                        v[k] += cj * bk
            v = tuple(Fraction(x, den) for x in v)
            out[v] = c
            out[tuple(-x for x in v)] = tuple(-x for x in c)
        return out

    def _index(self, coords):
        """Install {root: coordinates} as `roots`, `coords` and positives."""
        self.coords = coords
        self.roots = tuple(sorted(coords))
        self._positive = tuple(r for r in self.roots
                               if all(x >= 0 for x in coords[r]))

    def cartan(self):
        """C[i][j] = <beta_j, beta_i^vee> = 2(b_i|b_j)/(b_i|b_i)."""
        if any(isinstance(x, Fraction) for row in self._cartan for x in row):
            raise ValueError("non-integral Cartan entry")
        return self._cartan

    def classify(self):
        from .rootdata import classify_cartan
        return classify_cartan(self.cartan())

    def positive_roots(self):
        return self._positive

    def dual(self):
        """Pointwise dual system (same ambient space and form).

        A root with coordinates c has coroot with coordinates
        c_j (b_j|b_j)/(beta|beta) over the dual base, so positivity and
        support carry over."""
        out = RootSystemV.__new__(RootSystemV)
        out.base = tuple(dual_vector(self.gram, b) for b in self.base)
        out.gram = self.gram
        out.label = self.label + "^"
        G = self._base_gram
        n = len(G)
        out._base_gram = tuple(tuple(4 * G[i][j] / (G[i][i] * G[j][j])
                                     for j in range(n)) for i in range(n))
        out._cartan = tuple(zip(*self._cartan))
        den, Gd = _integral(G)
        coords = {}
        for r, c in self.coords.items():
            if _is_negative(c):
                continue
            # (beta|beta) = norm / den
            norm = sum(ci * cj * Gd[i][j] for i, ci in enumerate(c) if ci
                       for j, cj in enumerate(c) if cj)
            scale = Fraction(2 * den, norm)
            rv = tuple(scale * x for x in r)
            cv = tuple(_as_int(Fraction(cj * Gd[j][j], norm)) for j, cj in enumerate(c))
            coords[rv] = cv
            coords[tuple(-x for x in rv)] = tuple(-x for x in cv)
        out._index(coords)
        return out

    def __eq__(self, other):
        return (isinstance(other, RootSystemV)
                and self.base == other.base and set(self.roots) == set(other.roots))

    def __repr__(self):
        return "RootSystemV(%s, %d roots)" % (self.label or "?", len(self.roots))


class FoldedRootSystem(RootSystemV):
    """Output of one of the four operations, with its orbit bookkeeping.

    orbits: tuple of (orbit_indices, orthogonal) per folded base element,
    where orbit_indices are positions in the source base (lowest first),
    read off the simple-root permutations of the group, and orthogonal says
    that the source Cartan matrix is zero on every pair of the orbit.
    """

    def __init__(self, base, gram, op, orbits, label=""):
        self.op = op
        self.orbits = orbits
        super().__init__(base, gram, label=label)

    def type_label(self):
        """Cartan type, refined for rank-1 components: an orbit that was not
        pairwise orthogonal yields B1 under the non-doubling operations
        (N, res) and C1 under the doubling ones (Nprime, resprime)."""
        from .rootdata import _components, classify_cartan
        comps = _components(self.cartan())
        names = []
        for comp in comps:
            if len(comp) == 1 and not self.orbits[comp[0]][1]:
                letter = "B" if self.op in ("N", "res") else "C"
                names.append((1, letter, letter + "1"))
            else:
                sub = tuple(tuple(self.cartan()[i][j] for j in comp) for i in comp)
                lbl = classify_cartan(sub)
                names.append((len(comp), lbl[0], lbl))
        names.sort()
        return "x".join(nm for _, _, nm in names)


def base_permutation(rs, g):
    """The simple-root index permutation p of a linear map g that permutes
    the base of rs: g b_i = b_{p(i)}.  Images are compared as integer
    vectors (the base scaled by its common denominator)."""
    _den, base = _integral(rs.base)
    index = {b: i for i, b in enumerate(base)}
    try:
        p = tuple(index[mat_vec(g, b)] for b in base)
    except KeyError:
        p = ()
    if len(set(p)) != len(base):
        raise MalformedAction("action does not preserve the base")
    return p


def base_orbits(rs, group):
    """Orbits of the base under a matrix group, as sorted index tuples
    ordered by lowest index."""
    perms = [base_permutation(rs, g) for g in group]
    seen = set()
    orbits = []
    for i in range(len(rs.base)):
        if i in seen:
            continue
        orb = tuple(sorted({p[i] for p in perms}))
        seen.update(orb)
        orbits.append(orb)
    return tuple(orbits)


def fold(rs, group, op):
    """Apply one of N, Nprime, res, resprime to a based system.

    The result lives in the fixed subspace of the same ambient space;
    restriction is computed as the orbit average (the image of res under the
    averaging identification)."""
    if op not in OP_TAGS:
        raise ValueError("unknown operation %r" % op)
    cart = rs._cartan
    new_base = []
    meta = []
    for orb in base_orbits(rs, group):
        vecs = [rs.base[i] for i in orb]
        # (b_i|b_j) = 0 exactly when C[i][j] = 2(b_i|b_j)/(b_i|b_i) = 0
        orth = all(cart[i][j] == 0 for i in orb for j in orb if i < j)
        total = vecs[0]
        for v in vecs[1:]:
            total = vec_add(total, v)
        if op == "N":
            folded = total
        elif op == "Nprime":
            folded = total if orth else vec_scale(2, total)
        elif op == "res":
            folded = vec_scale(Fraction(1, len(vecs)), total)
        else:  # resprime
            avg = vec_scale(Fraction(1, len(vecs)), total)
            folded = avg if orth else vec_scale(2, avg)
        new_base.append(folded)
        meta.append((orb, orth))
    return FoldedRootSystem(new_base, rs.gram, op, tuple(meta),
                            label="%s_%s" % (op, rs.label))


def dual_mismatch(res_side, norm_side, carry):
    """The parts, of ("base", "roots"), in which the dual of `res_side`,
    carried across by the matrix `carry`, differs from `norm_side`.  Both
    sides of one duality identity are built independently and compared as
    exact vectors; an empty result means the identity holds."""
    lhs = res_side.dual()
    out = []
    if tuple(mat_vec(carry, b) for b in lhs.base) != norm_side.base:
        out.append("base")
    if {mat_vec(carry, r) for r in lhs.roots} != set(norm_side.roots):
        out.append("roots")
    return tuple(out)


def verify_duality(datum, group_char, group_cochar):
    """Check res(Phi^vee)^vee = N'(Phi) and res'(Phi^vee)^vee = N(Phi).

    Both sides are computed independently; the cocharacter side is carried
    into the character space by the induced form (the inverse Gram matrix
    `gram_star`, sending v to the vector representing <., v>).  Returns a
    report dict with a list of mismatches (empty means the theorem holds
    here).
    """
    char = datum.root_system()
    cochar = datum.coroot_system()
    mismatches = []
    for res_op, norm_op in (("res", "Nprime"), ("resprime", "N")):
        lhs = fold(cochar, group_cochar, res_op)
        for part in dual_mismatch(lhs, fold(char, group_char, norm_op),
                                  datum.gram_star()):
            mismatches.append("%s(Phi^vee)^vee %s != %s(Phi) %s"
                              % (res_op, part, norm_op, part))
    return {"datum": datum.label, "mismatches": mismatches, "ok": not mismatches}
