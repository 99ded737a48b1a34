"""The four folding operations on based root systems with automorphisms.

A root system here is a finite set of exact rational vectors with a chosen
base, living in an ambient space that carries an invariant positive form.
The operations produce their output inside the fixed subspace: restriction
is realized through the averaging map, so that norms and restrictions can be
compared by literal vector equality (the duality theorem is an identity).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .lattice import MalformedAction, ResourceCap
from .linalg import (
    frac_vec,
    mat_det,
    mat_mul,
    mat_rational_inverse,
    mat_transpose,
    mat_vec,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
)

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


def reflect(gram, root, v):
    """Reflection of v in the hyperplane orthogonal to `root`."""
    c = Fraction(2) * form_value(gram, root, v) / form_value(gram, root, root)
    return vec_sub(frac_vec(v), vec_scale(c, frac_vec(root)))


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
        self.base = tuple(frac_vec(b) for b in base)
        self.gram = tuple(tuple(Fraction(x) for x in row) for row in gram)
        self.label = label
        gram_base = [mat_vec(self.gram, b) for b in self.base]
        self._base_gram = tuple(tuple(vec_dot(u, gv) for gv in gram_base)
                                for u in self.base)
        if mat_det(self._base_gram) == 0:
            raise ValueError("the base is not linearly independent")
        self._cartan = cartan_of_gram(self._base_gram)
        self._index(self._ambient(cartan_closure(self._cartan)))

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

    def weyl_order(self, cap=2000000):
        """Order of the Weyl group, by closure over reflection matrices."""
        n = len(self.base[0])
        mats = []
        for b in self.base:
            cols = []
            for k in range(n):
                e = tuple(Fraction(1 if i == k else 0) for i in range(n))
                cols.append(reflect(self.gram, b, e))
            mats.append(mat_transpose(cols))
        seen = {tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))}
        frontier = list(seen)
        while frontier:
            nxt = []
            for h in frontier:
                for g in mats:
                    p = mat_mul(g, h)
                    if p not in seen:
                        seen.add(p)
                        nxt.append(p)
                        if len(seen) > cap:
                            raise ResourceCap("Weyl closure exceeded cap")
            frontier = nxt
        return len(seen)

    def __eq__(self, other):
        return (isinstance(other, RootSystemV)
                and self.base == other.base and set(self.roots) == set(other.roots))

    def __repr__(self):
        return "RootSystemV(%s, %d roots)" % (self.label or "?", len(self.roots))


class FoldedRootSystem(RootSystemV):
    """Output of one of the four operations, with its orbit bookkeeping.

    orbits: tuple of (orbit_indices, orthogonal) per folded base element,
    where orbit_indices are positions in the source base (lowest first).
    """

    def __init__(self, base, gram, op, orbits, source_base, label=""):
        self.op = op
        self.orbits = orbits
        self.source_base = source_base
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


def base_orbits(rs, group):
    """Orbits of the base under a matrix group, ordered by lowest index."""
    index = {b: i for i, b in enumerate(rs.base)}
    seen = set()
    orbits = []
    for i, b in enumerate(rs.base):
        if i in seen:
            continue
        orb = set()
        for g in group:
            img = tuple(Fraction(x) for x in mat_vec(g, b))
            if img not in index:
                raise MalformedAction("action does not preserve the base")
            orb.add(index[img])
        seen |= orb
        orbits.append(tuple(sorted(orb)))
    return tuple(orbits)


def orbit_orthogonal(rs, group, alpha):
    """Whether the orbit of a simple root is pairwise orthogonal under the
    invariant form."""
    alpha = frac_vec(alpha)
    if alpha not in rs.base:
        raise ValueError("alpha is not a simple root")
    orb = sorted({tuple(Fraction(x) for x in mat_vec(g, alpha)) for g in group})
    for i in range(len(orb)):
        for j in range(i + 1, len(orb)):
            if form_value(rs.gram, orb[i], orb[j]) != 0:
                return False
    return True


def fold(rs, group, op):
    """Apply one of N, Nprime, res, resprime to a based system.

    The result lives in the fixed subspace of the same ambient space;
    restriction is computed as the orbit average (the image of res under the
    averaging identification)."""
    if op not in OP_TAGS:
        raise ValueError("unknown operation %r" % op)
    orbits = base_orbits(rs, group)
    new_base = []
    meta = []
    for orb in orbits:
        vecs = [rs.base[i] for i in orb]
        orth = all(
            form_value(rs.gram, vecs[i], vecs[j]) == 0
            for i in range(len(vecs)) for j in range(i + 1, len(vecs))
        )
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
    return FoldedRootSystem(new_base, rs.gram, op, tuple(meta), rs.base,
                            label="%s_%s" % (op, rs.label))


def fold_all(rs, group):
    return {op: fold(rs, group, op) for op in OP_TAGS}


def verify_duality(datum, group_char, group_cochar):
    """Check res(Phi^vee)^vee = N'(Phi) and res'(Phi^vee)^vee = N(Phi).

    Both sides are computed independently; the cocharacter side is carried
    into the character space by the form identification.  Returns a report
    dict with a list of mismatches (empty means the theorem holds here).
    """
    char = datum.root_system()
    cochar = datum.coroot_system()
    iota = _form_identification(datum)

    mismatches = []
    for res_op, norm_op in (("res", "Nprime"), ("resprime", "N")):
        lhs = fold(cochar, group_cochar, res_op).dual()
        lhs_base = tuple(mat_vec(iota, b) for b in lhs.base)
        lhs_roots = {tuple(mat_vec(iota, r)) for r in lhs.roots}
        rhs = fold(char, group_char, norm_op)
        if lhs_base != rhs.base:
            mismatches.append("%s(Phi^vee)^vee base != %s(Phi) base" % (res_op, norm_op))
        if lhs_roots != set(rhs.roots):
            mismatches.append("%s(Phi^vee)^vee roots != %s(Phi) roots" % (res_op, norm_op))
    return {"datum": datum.label, "mismatches": mismatches, "ok": not mismatches}


def _form_identification(datum):
    """inverse Gram: carries X_* (x) Q into X^* (x) Q, sending v to the
    vector representing <., v> under the invariant form."""
    return mat_rational_inverse(datum.gram())
