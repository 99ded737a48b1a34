"""Based root data: lattices, paired roots/coroots, Weyl combinatorics.

Conventions: the character lattice X^* and cocharacter lattice X_* are both
Z^rank with the dot product as the canonical pairing.  For built-in types the
simple roots (adjoint isogeny) or simple coroots (simply connected) are unit
vectors, which keeps every coordinate an integer.  Cartan matrices follow
Bourbaki numbering, stored as C[i][j] = <alpha_j, alpha_i^vee>.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .folding import (
    RootSystemV,
    _components,
    cartan_closure,
    cartan_of_gram,
    component_type,
    join_types,
)
from .jsoninput import MalformedInput, json_field, json_int_rows
from .lattice import MalformedAction, TheoremViolation, closure, group_closure
from .linalg import (
    adjugate,
    fraction_rows,
    identity_matrix,
    integer_solver,
    is_positive_definite,
    mat_integer_inverse,
    mat_mul,
    mat_transpose,
    mat_vec,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
)


def cartan_matrix(letter, n):
    """Bourbaki Cartan matrix of an irreducible type, C[i][j] = <a_j, a_i^v>."""
    letter = letter.upper()
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    if letter == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif letter == "B":
        if n < 2:
            raise ValueError("B requires rank >= 2")
        for i in range(n - 2):
            bond(i, i + 1)
        # alpha_{n-1} long, alpha_n short: <a_{n-1}, a_n^v> = -2
        bond(n - 2, n - 1, cij=-1, cji=-2)
    elif letter == "C":
        if n < 2:
            raise ValueError("C requires rank >= 2")
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, cij=-2, cji=-1)
    elif letter == "D":
        if n < 3:
            raise ValueError("D requires rank >= 3")
        for i in range(n - 3):
            bond(i, i + 1)
        bond(n - 3, n - 2)
        bond(n - 3, n - 1)
    elif letter == "E":
        if n not in (6, 7, 8):
            raise ValueError("E requires rank 6, 7 or 8")
        # Bourbaki: chain 1-3-4-5-6(-7-8), node 2 attached to 4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(1, 3)
    elif letter == "F":
        if n != 4:
            raise ValueError("F requires rank 4")
        bond(0, 1)
        bond(1, 2, cij=-1, cji=-2)  # alpha_2 long, alpha_3 short
        bond(2, 3)
    elif letter == "G":
        if n != 2:
            raise ValueError("G requires rank 2")
        # alpha_1 short, alpha_2 long: <a_2, a_1^v> = -3
        bond(0, 1, cij=-3, cji=-1)
    else:
        raise ValueError("unknown type letter %r" % letter)
    return tuple(tuple(row) for row in C)


def parse_cartan_type(s):
    """Parse "A2", "A2xB3", "D4" into a list of (letter, rank) factors."""
    factors = []
    for part in s.replace(" ", "").split("x"):
        if not part or not part[0].isalpha():
            raise ValueError("bad Cartan type %r" % s)
        letter = part[0].upper()
        try:
            rank = int(part[1:])
        except ValueError:
            raise ValueError("bad Cartan type %r" % s)
        if rank < 1:
            raise ValueError("rank must be positive in %r" % s)
        factors.append((letter, rank))
    if not factors:
        raise ValueError("empty Cartan type")
    return factors


def symmetrizers(C):
    """Minimal positive integers d with d_i C[i][j] = d_j C[j][i] for a
    Cartan matrix C of finite type; d_i is half the squared length of
    alpha_i when short roots have squared length 2.  Raises ValueError
    unless the symmetrized matrix d_i C[i][j] is symmetric and positive
    definite, which is what finite type means."""
    if any((C[i][j] == 0) != (C[j][i] == 0) for i in range(len(C)) for j in range(i)):
        raise ValueError("Cartan entries C[i][j] and C[j][i] must vanish together")
    d = [0] * len(C)
    for comp in _components(C):
        order = list(closure([comp[0]], lambda i: (j for j in comp if C[i][j])))
        d[order[0]] = 1
        for k, j in enumerate(order[1:], 1):
            # from a node met before j: d_j / d_i = C[i][j] / C[j][i]; when
            # that is not integral, scale the component's values so far
            i = next(i for i in order[:k] if C[i][j])
            num, den = d[i] * C[i][j], C[j][i]
            if num % den:
                for m in order[:k]:
                    d[m] *= abs(den)
                num *= abs(den)
            d[j] = num // den
        # the least symmetrizer of a finite-type component is 1
        low = min(d[i] for i in comp)
        if any(d[i] % low for i in comp):
            raise ValueError("Cartan matrix is not of finite type")
        for i in comp:
            d[i] //= low
    sym = [[d[i] * x for x in row] for i, row in enumerate(C)]
    if sym != [list(col) for col in zip(*sym)] or not is_positive_definite(sym):
        raise ValueError("Cartan matrix is not of finite type")
    return tuple(d)


def classify_cartan(C):
    """Cartan type of a generalized Cartan matrix of finite type, its
    components named by `folding.component_type` from the roots of
    `cartan_closure(C)` and the symmetrizers.

    Returns factors sorted by (rank, letter), joined with "x"; rank-1
    components are reported as A1.  Raises ValueError, before any closure,
    unless C is of finite type (`symmetrizers`)."""
    d = symmetrizers(C)
    roots = cartan_closure(C)
    return join_types(component_type(comp, C, roots, d) for comp in _components(C))


def _budget_walk(heights, bound):
    """Every m in N^len(heights) with sum(h * m) <= bound, depth first."""
    m = [0] * len(heights)

    def walk(i, left):
        if i == len(heights):
            if left >= 0:
                yield tuple(m)
            return
        for x in range(left // heights[i] + 1):
            m[i] = x
            yield from walk(i + 1, left - x * heights[i])
        m[i] = 0

    return walk(0, bound)


# (simple roots, simple coroots, rank, label) -> the one datum with them.
# A datum is never changed after its build, so threads racing on a first
# build each build the same value and `setdefault` keeps one.
_DATA = {}


class BasedRootDatum:
    """A based root datum on explicit integer simple roots and coroots.

    Data are interned: the constructor returns the one object built for its
    arguments (`_DATA`), so value-equal data share every memo below; Phi
    and Phi^vee are the one systems of their values."""

    def __new__(cls, simple_roots, simple_coroots, rank, label=""):
        key = (tuple(map(tuple, simple_roots)), tuple(map(tuple, simple_coroots)),
               rank, label)
        out = _DATA.get(key)
        if out is None:
            out = super().__new__(cls)
            out._build(*key)
            out = _DATA.setdefault(key, out)
        return out

    def __reduce__(self):
        # unpickling and copying go through the constructor, so they return
        # the interned datum
        return BasedRootDatum, (self.simple_roots, self.simple_coroots, self.rank,
                                self.label)

    def _build(self, simple_roots, simple_coroots, rank, label):
        self.rank = rank
        self.simple_roots = simple_roots
        self.simple_coroots = simple_coroots
        self.label = label
        n = len(self.simple_roots)
        self.cartan = tuple(
            tuple(vec_dot(self.simple_roots[j], self.simple_coroots[i]) for j in range(n))
            for i in range(n)
        )
        self._validate()
        # Phi by its coordinates over the simple roots, the integer closure
        # of C.  A root is positive when every coordinate is >= 0.
        self._closure = cartan_closure(self.cartan)
        # Phi and Phi^vee, looked up on first use; a race only looks twice
        self._root_system = None
        self._coroot_system = None
        # Wt(mu) per dominant mu, walked once; the values are immutable
        # tuples, so a race on a first walk only walks twice.
        self._weight_sets = {}

    # -- construction ------------------------------------------------------

    def _validate(self):
        n = len(self.simple_roots)
        for i in range(n):
            if self.cartan[i][i] != 2:
                raise ValueError("<alpha_i, alpha_i^vee> must be 2")
            for j in range(n):
                if i != j and self.cartan[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
        # finite type; the symmetrizers are kept for the invariant form
        self._symmetrizers = symmetrizers(self.cartan)

    # -- basic maps ---------------------------------------------------------

    @cached_property
    def simple_reflections_cochar(self):
        """s_i on X_* as int matrices, y -> y - <alpha_i, y> alpha_i^vee."""
        n = self.rank
        return tuple(tuple(tuple(int(k == j) - av[k] * a[j] for j in range(n))
                           for k in range(n))
                     for a, av in zip(self.simple_roots, self.simple_coroots))

    def dual(self):
        """The dual datum: roots and coroots (and the two lattices) swapped."""
        return BasedRootDatum(self.simple_coroots, self.simple_roots, self.rank,
                              label=self.label + "^" if self.label else "")

    # -- invariant form -----------------------------------------------------

    @cached_property
    def _form_basis(self):
        """(B, G_basis): the int matrix B whose columns are the simple roots
        followed by a kernel basis of the coroot pairing, and the int Gram
        matrix of the form on those columns, (a_i | a_j) = d_i C[i][j] on the
        roots and the standard dot product on the kernel, the two blocks
        orthogonal."""
        n = self.rank
        d = self._symmetrizers
        span = list(self.simple_roots)
        if self.simple_coroots:
            comp = list(integer_solver(self.simple_coroots)[1])
        else:
            comp = list(identity_matrix(n))
        basis = span + comp
        if len(basis) != n:
            raise ValueError("simple roots are not linearly independent")
        r = len(span)
        G_basis = [[0] * n for _ in range(n)]
        for i in range(r):
            for j in range(r):
                G_basis[i][j] = d[i] * self.cartan[i][j]
        for i in range(len(comp)):
            for j in range(len(comp)):
                G_basis[r + i][r + j] = vec_dot(comp[i], comp[j])
        return mat_transpose(basis), tuple(map(tuple, G_basis))

    @cached_property
    def _gram_pair(self):
        """W x Aut-invariant form on X^* (x) Q as (den, int rows): short roots
        of each component have squared length 2; the coroot-kernel
        complement is orthogonal and carries the standard form averaged over
        nothing (it is canonical).  In standard coordinates it is
        B^-T G_basis B^-1 = adj(B)^T G_basis adj(B) / det(B)^2 (see
        `_form_basis`)."""
        B, G_basis = self._form_basis
        det, adj = adjugate(B)
        return det * det, mat_mul(mat_transpose(adj), mat_mul(G_basis, adj))

    @cached_property
    def _gram_star_pair(self):
        """Induced invariant form on X_* (x) Q, the inverse Gram matrix
        B G_basis^-1 B^T = B adj(G_basis) B^T / det(G_basis), as a
        (den, int rows) pair."""
        B, G_basis = self._form_basis
        det, adj = adjugate(G_basis)
        return det, mat_mul(B, mat_mul(adj, mat_transpose(B)))

    def gram(self):
        """The invariant form `_gram_pair` as Fraction rows."""
        return fraction_rows(*self._gram_pair)

    def gram_star(self):
        """The induced form `_gram_star_pair` as Fraction rows."""
        return fraction_rows(*self._gram_star_pair)

    # -- the root systems Phi and Phi^vee ---------------------------------------

    def root_system(self):
        """(Phi, Delta) in X^* (x) Q with the invariant form, shared."""
        if self._root_system is None:
            self._root_system = self._system(self.simple_roots, self._gram_pair, self.cartan)
        return self._root_system

    def coroot_system(self):
        """(Phi^vee, Delta^vee) in X_* (x) Q with the induced form, shared;
        its Cartan matrix is the transpose of the datum's."""
        if self._coroot_system is None:
            self._coroot_system = self._system(self.simple_coroots, self._gram_star_pair,
                                               tuple(zip(*self.cartan)))
        return self._coroot_system

    def _system(self, base, gram, cartan):
        """The system on the int rows `base` and the form `gram`; raises
        TheoremViolation, before any closure, unless it gives `cartan`."""
        got = cartan_of_gram([[vec_dot(u, mat_vec(gram[1], v)) for v in base] for u in base])
        if got != cartan:
            raise TheoremViolation("%s: the form gives Cartan matrix %r, not %r"
                                   % (self.label or "?", got, cartan))
        return RootSystemV._closed((1, base), gram)

    # -- Weyl combinatorics on the cocharacter side -------------------------

    def weyl_orbit_cochar(self, v):
        return tuple(sorted(closure([tuple(v)], self._reflections_cochar)))

    def _reflections_cochar(self, v):
        return (mat_vec(s, v) for s in self.simple_reflections_cochar)

    def is_dominant_cochar(self, v):
        return all(vec_dot(a, v) >= 0 for a in self.simple_roots)

    def weight_set(self, mu):
        """The saturated set Wt(mu) = {nu : w nu <= mu for all w}: the
        W-orbits of the dominant lambda <= mu.

        Those are found by walking down from mu, subtracting positive
        coroots while staying dominant.  The walk reaches every one of them:
        a saturated chain of dominant weights runs from lambda up to mu, and
        each cover in it is a positive coroot (Stembridge, "The partial
        order of dominant weights", Adv. Math. 136, 1998).  The result is
        kept per mu."""
        mu = tuple(mu)
        out = self._weight_sets.get(mu)
        if out is None:
            if not self.is_dominant_cochar(mu):
                raise ValueError("mu must be dominant")
            out = self._weight_sets[mu] = tuple(sorted(closure(
                closure([mu], self._dominant_below), self._reflections_cochar)))
        return out

    def _dominant_below(self, lam):
        """The dominant lam - beta^vee over the positive coroots beta^vee,
        the positive roots of Phi^vee (int vectors, as its base, the simple
        coroots, is integral)."""
        for b in self.coroot_system()._positive_vectors:
            nu = vec_sub(lam, b)
            if self.is_dominant_cochar(nu):
                yield nu

    @cached_property
    def _heights(self):
        """The heights of 2rho over the simple roots: the column sums of the
        positive roots' coordinates."""
        return tuple(map(sum, zip(*(c for c in self._closure if min(c) >= 0))))

    def two_rho_pairing(self, mu):
        """<2 rho, mu> = sum_i h_i <alpha_i, mu> over the `_heights` h."""
        return sum(h * vec_dot(a, mu) for h, a in zip(self._heights, self.simple_roots))

    @cached_property
    def _simple_solver(self):
        """(solve, central): solve(m) is one mu in X_* with <alpha_i, mu> =
        m_i (None when there is none) and central an int basis of the
        coroot-pairing kernel, both from one Smith form of the simple roots
        (`linalg.integer_solver`)."""
        if self.simple_roots:
            return integer_solver(self.simple_roots)
        zero = (0,) * self.rank
        return (lambda m: zero), identity_matrix(self.rank)

    def dominant_cochars_up_to(self, bound, central_box=1):
        """All dominant cocharacters mu with <2rho, mu> <= bound.

        With m_i = <alpha_i, mu> and h the heights of 2rho over the simple
        roots, <2rho, mu> = sum h_i m_i, so the m are walked depth first
        over the budget left: m_i runs over 0..left // h_i.  Central
        directions (the coroot-pairing kernel) are unbounded, so their
        coordinates are restricted to [-central_box, central_box];
        everything downstream is invariant under central translation.
        """
        solve, central = self._simple_solver
        out = set()
        for m in _budget_walk(self._heights, bound):
            # solve <alpha_i, mu> = m_i over X_*
            part = solve(m)
            if part is None:
                continue
            for cs in itertools.product(range(-central_box, central_box + 1),
                                        repeat=len(central)):
                mu = part
                for c, z in zip(cs, central):
                    mu = vec_add(mu, vec_scale(c, z))
                if self.is_dominant_cochar(mu):
                    out.add(tuple(mu))
        return tuple(sorted(out))

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {
            "rank": self.rank,
            "simple_roots": [list(v) for v in self.simple_roots],
            "simple_coroots": [list(v) for v in self.simple_coroots],
            "label": self.label,
        }

    @classmethod
    def from_json(cls, data):
        """The datum of a `to_json` object; MalformedInput, naming the key,
        for a value of the wrong type or shape."""
        rank = json_field(data, "rank", int)
        if rank < 1:
            raise MalformedInput("rank", "expected a positive integer, got %d" % rank)
        roots = json_int_rows(data, "simple_roots", rank)
        coroots = json_int_rows(data, "simple_coroots", rank, len(roots))
        return cls(roots, coroots, rank, label=json_field(data, "label", str, ""))


def build_datum(cartan_type, isogeny="adjoint"):
    """Construct the datum of a Cartan type with a chosen isogeny.

    adjoint: X^* is the root lattice (simple roots are unit vectors);
    simply_connected: X_* is the coroot lattice (simple coroots are unit
    vectors).  Coordinates are deterministic either way.
    """
    factors = parse_cartan_type(cartan_type)
    blocks = [cartan_matrix(letter, rank) for letter, rank in factors]
    n = sum(r for _, r in factors)
    C = [[0] * n for _ in range(n)]
    off = 0
    for B in blocks:
        r = len(B)
        for i in range(r):
            for j in range(r):
                C[off + i][off + j] = B[i][j]
        off += r
    C = tuple(tuple(row) for row in C)
    eye = identity_matrix(n)
    if isogeny == "adjoint":
        simple_roots = eye
        simple_coroots = tuple(tuple(C[i][j] for j in range(n)) for i in range(n))
    elif isogeny == "simply_connected":
        simple_coroots = eye
        simple_roots = tuple(tuple(C[j][i] for j in range(n)) for i in range(n))
    else:
        raise ValueError("isogeny must be adjoint or simply_connected")
    return BasedRootDatum(simple_roots, simple_coroots, n,
                          label="%s(%s)" % (cartan_type, isogeny))


def gl_datum(n):
    """GL_n-style datum: X^* = Z^n, roots e_i - e_j."""
    simple_roots = tuple(
        tuple(1 if k == i else (-1 if k == i + 1 else 0) for k in range(n))
        for i in range(n - 1)
    )
    return BasedRootDatum(simple_roots, simple_roots, n, label="GL%d" % n)


def unitary_dual_action(n):
    """The outer action x -> (-x_n, ..., -x_1) on the GL_n lattice Z^n.

    This is the standard Galois action of a quadratic extension on the datum
    of the unitary group U(n); it flips the A_{n-1} diagram.
    """
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][n - 1 - i] = -1
    return tuple(tuple(row) for row in g)


def pinned_cochar(datum, g):
    """The cocharacter matrix g^{-T} of a character-lattice matrix g, once g
    is checked to be a pinned automorphism of the datum: invertible over Z,
    permuting the simple roots and matching the root/coroot bijection."""
    try:
        gstar = mat_transpose(mat_integer_inverse(g))
    except ArithmeticError:
        raise MalformedAction("generator is not invertible over Z")
    index = {a: i for i, a in enumerate(datum.simple_roots)}
    perm = [index.get(mat_vec(g, a)) for a in datum.simple_roots]
    if None in perm:
        raise MalformedAction("action does not permute the simple roots")
    # g alpha_i = alpha_j must carry alpha_i^vee to alpha_j^vee
    for j, av in zip(perm, datum.simple_coroots):
        if mat_vec(gstar, av) != datum.simple_coroots[j]:
            raise MalformedAction("action breaks the root/coroot pairing")
    return gstar


class AutomorphismAction:
    """A finite group acting on a based root datum by pinned automorphisms.

    Generators are integer matrices on the character lattice; the induced
    cocharacter action is the inverse transpose.  Each generator must permute
    the simple roots and match the root/coroot bijection.  Since g -> g^{-T}
    is an isomorphism, closing the cocharacter generators lists the
    cocharacter group in the order of `group`.
    """

    def __init__(self, datum, generators):
        self.datum = datum
        self.generators = tuple(tuple(map(tuple, g)) for g in generators)
        self.cochar_generators = tuple(pinned_cochar(datum, g) for g in self.generators)
        eye = (identity_matrix(datum.rank),)
        self.group = group_closure(self.generators) or eye
        self.cochar_group = group_closure(self.cochar_generators) or eye


class UndeterminedAutomorphism(MalformedAction):
    """A simple-root permutation of a datum whose lattice is spanned by
    neither the simple roots nor the simple coroots, so that the permutation
    does not determine a lattice automorphism."""


class NotAPermutation(MalformedAction):
    """A simple-root `perm` that does not permute the indices 0..r-1."""

    def __init__(self, perm, count):
        super().__init__("%s is not a permutation of 0..%d, the indices of the "
                         "%d simple roots" % (",".join(map(str, perm)), count - 1, count))
        self.perm = perm


def diagram_automorphism(datum, perm):
    """Character-lattice matrix of a simple-root permutation.

    Only available when the simple (co)roots form a basis of the lattice
    (adjoint or simply connected data); explicit lattices must supply their
    own matrices.
    """
    n = datum.rank
    if sorted(perm) != list(range(len(datum.simple_roots))):
        raise NotAPermutation(perm, len(datum.simple_roots))
    for i, j in enumerate(perm):
        for k, l in enumerate(perm):
            if datum.cartan[i][k] != datum.cartan[j][l]:
                raise MalformedAction("permutation is not a diagram automorphism")
    if len(datum.simple_roots) == n:
        # g alpha_i = alpha_perm(i): g = T S^-1 = T adj(S) / det(S), with the
        # simple roots as the columns of S and their images as the columns
        # of T
        S = mat_transpose(datum.simple_roots)
        T = mat_transpose(tuple(datum.simple_roots[j] for j in perm))
        det, adj = adjugate(S)
        g = mat_mul(T, adj)
    elif len(datum.simple_coroots) == n:
        # the same on the coroots gives g* = S T^-1, and g is its inverse
        # transpose (S adj(T) / det(T))^T
        S = mat_transpose(datum.simple_coroots)
        T = mat_transpose(tuple(datum.simple_coroots[j] for j in perm))
        det, adj = adjugate(T)
        g = mat_transpose(mat_mul(S, adj))
    else:
        raise UndeterminedAutomorphism("datum lattice does not determine the "
                                       "automorphism; give it as {\"matrix\": ...}")
    if any(x % det for row in g for x in row):
        raise MalformedAction("permutation does not preserve the lattice")
    return tuple(tuple([x // det for x in row]) for row in g)
