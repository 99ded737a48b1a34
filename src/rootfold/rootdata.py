"""Based root data: lattices, paired roots/coroots, Weyl combinatorics.

Conventions: the character lattice X^* and cocharacter lattice X_* are both
Z^rank with the dot product as the canonical pairing.  For built-in types the
simple roots (adjoint isogeny) or simple coroots (simply connected) are unit
vectors, which keeps every coordinate an integer.  Cartan matrices follow
Bourbaki numbering, stored as C[i][j] = <alpha_j, alpha_i^vee>.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .folding import RootSystemV
from .lattice import MalformedAction, ResourceCap, group_closure
from .linalg import (
    frac_vec,
    gauss_solve,
    identity_matrix,
    is_positive_definite,
    kernel_basis,
    mat_int,
    mat_integer_inverse,
    mat_mul,
    mat_rational_inverse,
    mat_transpose,
    mat_vec,
    solve_integer,
    vec_add,
    vec_dot,
    vec_neg,
    vec_scale,
    vec_sub,
)

ROOT_CLOSURE_CAP = 100000


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
    """Minimal positive integers d with d_i C[i][j] = d_j C[j][i]; d_i is half
    the squared length of alpha_i when short roots have squared length 2."""
    n = len(C)
    d = [0] * n
    comps = _components(C)
    for comp in comps:
        d[comp[0]] = 1
        todo = [comp[0]]
        seen = {comp[0]}
        while todo:
            i = todo.pop()
            for j in comp:
                if j not in seen and C[i][j] != 0:
                    # d_j / d_i = C[i][j] / C[j][i]
                    val = Fraction(d[i]) * Fraction(C[i][j], C[j][i])
                    d[j] = val
                    seen.add(j)
                    todo.append(j)
        scale = min(Fraction(d[i]) for i in comp)
        for i in comp:
            q = Fraction(d[i]) / scale
            if q.denominator != 1:
                raise ValueError("non-integral symmetrizer")
            d[i] = int(q)
    return tuple(d)


def _components(C):
    n = len(C)
    seen = set()
    comps = []
    for s in range(n):
        if s in seen:
            continue
        comp = []
        todo = [s]
        seen.add(s)
        while todo:
            i = todo.pop()
            comp.append(i)
            for j in range(n):
                if j not in seen and C[i][j] != 0:
                    seen.add(j)
                    todo.append(j)
        comps.append(sorted(comp))
    return comps


_STANDARD_TYPES = {}


def _standard_cartans(rank):
    """All standard Cartan matrices of the given rank, keyed by type string."""
    if rank in _STANDARD_TYPES:
        return _STANDARD_TYPES[rank]
    out = {}
    out["A%d" % rank] = cartan_matrix("A", rank)
    if rank >= 2:
        out["B%d" % rank] = cartan_matrix("B", rank)
        out["C%d" % rank] = cartan_matrix("C", rank)
    if rank >= 4:
        out["D%d" % rank] = cartan_matrix("D", rank)
    if rank in (6, 7, 8):
        out["E%d" % rank] = cartan_matrix("E", rank)
    if rank == 4:
        out["F4"] = cartan_matrix("F", 4)
    if rank == 2:
        out["G2"] = cartan_matrix("G", 2)
    _STANDARD_TYPES[rank] = out
    return out


def _cartan_isomorphic(C1, C2):
    """Whether two Cartan matrices agree up to simultaneous permutation."""
    n = len(C1)
    if len(C2) != n:
        return False

    def signature(C, i):
        return tuple(sorted((C[i][j], C[j][i]) for j in range(n) if j != i and C[i][j] != 0))

    sig1 = [signature(C1, i) for i in range(n)]
    sig2 = [signature(C2, i) for i in range(n)]
    if sorted(sig1) != sorted(sig2):
        return False

    assignment = [None] * n

    def backtrack(i):
        if i == n:
            return True
        for j in range(n):
            if j in assignment[:i]:
                continue
            if sig1[i] != sig2[j]:
                continue
            ok = True
            for k in range(i):
                if C1[i][k] != C2[j][assignment[k]] or C1[k][i] != C2[assignment[k]][j]:
                    ok = False
                    break
            if ok:
                assignment[i] = j
                if backtrack(i + 1):
                    return True
                assignment[i] = None
        return False

    return backtrack(0)


def classify_cartan(C):
    """Cartan type of a generalized Cartan matrix of finite type.

    Returns factors sorted by (rank, letter), joined with "x".  A rank-2
    double-bond component is B2 when its first simple root (lowest index) is
    the long one, C2 otherwise; rank-1 components are reported as A1.
    """
    comps = _components(C)
    d = symmetrizers(C)
    names = []
    for comp in comps:
        sub = tuple(tuple(C[i][j] for j in comp) for i in comp)
        r = len(comp)
        if r == 1:
            names.append((1, "A", "A1"))
            continue
        label = None
        if r == 2 and sub[0][1] * sub[1][0] == 2:
            label = "B2" if d[comp[0]] > d[comp[1]] else "C2"
        else:
            for cand, mat in sorted(_standard_cartans(r).items()):
                if _cartan_isomorphic(sub, mat):
                    label = cand
                    break
        if label is None:
            raise ValueError("not a finite-type Cartan matrix")
        names.append((r, label[0], label))
    names.sort()
    return "x".join(nm for _, _, nm in names)


class BasedRootDatum:
    """A based root datum with explicit integer root and coroot vectors."""

    def __init__(self, simple_roots, simple_coroots, rank, label=""):
        self.rank = rank
        self.simple_roots = tuple(map(tuple, simple_roots))
        self.simple_coroots = tuple(map(tuple, simple_coroots))
        self.label = label
        n = len(self.simple_roots)
        self.cartan = tuple(
            tuple(vec_dot(self.simple_roots[j], self.simple_coroots[i]) for j in range(n))
            for i in range(n)
        )
        self._validate()
        self.roots, self.coroots = self._generate_roots()
        self._root_index = {r: k for k, r in enumerate(self.roots)}
        self._gram = None
        self._gram_star = None
        # Phi and Phi^vee as RootSystemV, built on first use and never
        # changed afterwards, so every consumer of this datum shares one
        # closure of each.  Two threads racing on the first build each
        # build the same value and one assignment wins; no lock is needed.
        self._root_system = None
        self._coroot_system = None

    # -- construction ------------------------------------------------------

    def _validate(self):
        n = len(self.simple_roots)
        for i in range(n):
            if self.cartan[i][i] != 2:
                raise ValueError("<alpha_i, alpha_i^vee> must be 2")
            for j in range(n):
                if i != j and self.cartan[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
        # finite type: symmetrized form positive definite on the root span
        d = symmetrizers(self.cartan)
        sym = tuple(tuple(Fraction(d[i] * self.cartan[i][j]) for j in range(n)) for i in range(n))
        if not is_positive_definite(sym):
            raise ValueError("Cartan matrix is not of finite type")

    def _generate_roots(self):
        pairs = set(zip(self.simple_roots, self.simple_coroots))
        frontier = list(pairs)
        while frontier:
            nxt = []
            for root, coroot in frontier:
                for i in range(len(self.simple_roots)):
                    r2 = self.reflect_char(i, root)
                    c2 = self.reflect_cochar(i, coroot)
                    if (r2, c2) not in pairs:
                        pairs.add((r2, c2))
                        nxt.append((r2, c2))
                        if len(pairs) > ROOT_CLOSURE_CAP:
                            raise ResourceCap("root closure exceeded cap")
            frontier = nxt
        pairs |= {(vec_neg(r), vec_neg(c)) for r, c in pairs}
        ordered = sorted(pairs)
        roots = tuple(r for r, _ in ordered)
        coroots = tuple(c for _, c in ordered)
        if len(set(roots)) != len(roots):
            raise ValueError("root/coroot pairing is not a bijection")
        for r in roots:
            if vec_scale(2, r) in set(roots):
                raise ValueError("root system is not reduced")
        return roots, coroots

    # -- basic maps ---------------------------------------------------------

    def reflect_char(self, i, x):
        """s_i on the character side: x - <x, a_i^vee> a_i."""
        return vec_sub(x, vec_scale(vec_dot(x, self.simple_coroots[i]), self.simple_roots[i]))

    def reflect_cochar(self, i, y):
        """s_i on the cocharacter side: y - <a_i, y> a_i^vee."""
        return vec_sub(y, vec_scale(vec_dot(self.simple_roots[i], y), self.simple_coroots[i]))

    def coroot_of(self, root):
        return self.coroots[self._root_index[tuple(root)]]

    @property
    def positive_roots(self):
        if not hasattr(self, "_positive_roots"):
            self._positive_roots = tuple(r for r in self.roots if self.is_positive_root(r))
        return self._positive_roots

    def is_positive_root(self, r):
        coeffs = self.root_coefficients(r)
        return all(c >= 0 for c in coeffs)

    def root_coefficients(self, r):
        """Coefficients of a root over the simple roots (exact, integral)."""
        A = mat_transpose(self.simple_roots)
        sol = gauss_solve(A, r)
        if sol is None:
            raise ValueError("vector not in the root span")
        out = []
        for c in sol:
            if Fraction(c).denominator != 1:
                raise ValueError("non-integral root coefficient")
            out.append(int(c))
        return tuple(out)

    def dual(self):
        """The dual datum: roots and coroots (and the two lattices) swapped."""
        return BasedRootDatum(self.simple_coroots, self.simple_roots, self.rank,
                              label=self.label + "^" if self.label else "")

    def classify(self):
        return classify_cartan(self.cartan)

    # -- invariant form -----------------------------------------------------

    def gram(self):
        """W x Aut-invariant form on X^* (x) Q: short roots of each component
        have squared length 2; the coroot-kernel complement is orthogonal and
        carries the standard form averaged over nothing (it is canonical)."""
        if self._gram is not None:
            return self._gram
        n = self.rank
        d = symmetrizers(self.cartan)
        # basis: simple roots then a kernel basis of the coroot pairing
        span = list(self.simple_roots)
        pairing_rows = tuple(self.simple_coroots)
        if pairing_rows:
            comp = list(kernel_basis(pairing_rows))
        else:
            comp = list(identity_matrix(n))
        basis = span + comp
        if len(basis) != n:
            raise ValueError("simple roots are not linearly independent")
        r = len(span)
        G_basis = [[Fraction(0)] * n for _ in range(n)]
        for i in range(r):
            for j in range(r):
                # (a_i | a_j) = d_i * C[i][j]
                G_basis[i][j] = Fraction(d[i] * self.cartan[i][j])
        for i in range(len(comp)):
            for j in range(len(comp)):
                G_basis[r + i][r + j] = Fraction(vec_dot(comp[i], comp[j]))
        # convert to standard coordinates: G = (B^-1)^T G_basis (B^-1)
        B = mat_transpose(tuple(frac_vec(v) for v in basis))  # columns are basis
        Binv = mat_rational_inverse(B)
        G = mat_mul(mat_transpose(Binv), mat_mul(tuple(map(tuple, G_basis)), Binv))
        self._gram = tuple(tuple(x) for x in G)
        return self._gram

    def gram_star(self):
        """Induced invariant form on X_* (x) Q (the inverse Gram matrix)."""
        if self._gram_star is None:
            self._gram_star = mat_rational_inverse(self.gram())
        return self._gram_star

    # -- the root systems Phi and Phi^vee ---------------------------------------

    def root_system(self):
        """(Phi, Delta) in X^* (x) Q with the invariant form, shared."""
        if self._root_system is None:
            self._root_system = RootSystemV.from_datum(self)
        return self._root_system

    def coroot_system(self):
        """(Phi^vee, Delta^vee) in X_* (x) Q with the induced form, shared."""
        if self._coroot_system is None:
            self._coroot_system = RootSystemV.dual_from_datum(self)
        return self._coroot_system

    # -- Weyl combinatorics on the cocharacter side -------------------------

    def weyl_orbit_cochar(self, v):
        v = tuple(v)
        seen = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for u in frontier:
                for i in range(len(self.simple_roots)):
                    w = self.reflect_cochar(i, u)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return tuple(sorted(seen))

    def is_dominant_cochar(self, v):
        return all(vec_dot(a, v) >= 0 for a in self.simple_roots)

    def dominant_cochar(self, v):
        """The unique dominant element of the Weyl orbit of v."""
        v = tuple(v)
        while True:
            for i in range(len(self.simple_roots)):
                if vec_dot(self.simple_roots[i], v) < 0:
                    v = self.reflect_cochar(i, v)
                    break
            else:
                return v

    def antidominant_cochar(self, v):
        v = tuple(v)
        while True:
            for i in range(len(self.simple_roots)):
                if vec_dot(self.simple_roots[i], v) > 0:
                    v = self.reflect_cochar(i, v)
                    break
            else:
                return v

    def dominance_leq(self, nu, mu):
        """nu <= mu iff mu - nu is a nonnegative integral sum of positive
        coroots (equivalently of simple coroots)."""
        if len(nu) != len(mu):
            raise ValueError("rank mismatch")
        diff = vec_sub(mu, nu)
        A = mat_transpose(self.simple_coroots)
        sol = gauss_solve(A, diff)
        if sol is None:
            return False
        if any(Fraction(c).denominator != 1 or c < 0 for c in sol):
            return False
        return mat_vec(A, sol) == tuple(map(Fraction, diff))

    def weight_set(self, mu):
        """The saturated set Wt(mu) = {nu : w nu <= mu for all w}."""
        mu = tuple(mu)
        if not self.is_dominant_cochar(mu):
            raise ValueError("mu must be dominant")
        lowest = self.antidominant_cochar(mu)
        diff = vec_sub(mu, lowest)
        A = mat_transpose(self.simple_coroots)
        sol = gauss_solve(A, diff)
        if sol is None:
            raise ValueError("mu - w0(mu) is not in the coroot span")
        bounds = []
        for c in sol:
            if Fraction(c).denominator != 1 or c < 0:
                raise ValueError("bad dominance box")
            bounds.append(int(c))
        out = []
        for cs in itertools.product(*(range(b + 1) for b in bounds)):
            nu = mu
            for c, acov in zip(cs, self.simple_coroots):
                nu = vec_sub(nu, vec_scale(c, acov))
            if self.dominance_leq(self.dominant_cochar(nu), mu):
                out.append(nu)
        return tuple(sorted(out))

    def two_rho_pairing(self, mu):
        """<2 rho, mu> = sum over positive roots of <alpha, mu>."""
        return sum(vec_dot(a, mu) for a in self.positive_roots)

    def dominant_cochars_up_to(self, bound, central_box=1):
        """All dominant cocharacters mu with <2rho, mu> <= bound.

        Central directions (the coroot-pairing kernel) are unbounded, so their
        coordinates are restricted to [-central_box, central_box]; everything
        downstream is invariant under central translation.
        """
        n = self.rank
        simples = self.simple_roots
        r = len(simples)
        central = kernel_basis(tuple(simples)) if simples else identity_matrix(n)
        two_rho = tuple(sum(a[k] for a in self.positive_roots) for k in range(n))
        # heights n_i of 2rho over the simple roots
        if r:
            sol = gauss_solve(mat_transpose(simples), two_rho)
            heights = tuple(int(c) for c in sol)
        else:
            heights = ()
        out = set()
        for m in itertools.product(*(range(bound + 1) for _ in range(r))):
            if sum(h * mi for h, mi in zip(heights, m)) > bound:
                continue
            # solve <alpha_i, mu> = m_i over X_*
            part = solve_integer(tuple(simples), tuple(m)) if r else (0,) * n
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
        return cls(
            tuple(tuple(int(x) for x in v) for v in data["simple_roots"]),
            tuple(tuple(int(x) for x in v) for v in data["simple_coroots"]),
            int(data["rank"]),
            label=data.get("label", ""),
        )


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


class AutomorphismAction:
    """A finite group acting on a based root datum by pinned automorphisms.

    Generators are integer matrices on the character lattice; the induced
    cocharacter action is the inverse transpose.  Each element must permute
    the simple roots and match the root/coroot bijection.
    """

    def __init__(self, datum, generators, cap=10080):
        self.datum = datum
        self.generators = tuple(tuple(map(tuple, g)) for g in generators)
        for g in self.generators:
            self._validate(g)
        self.group = group_closure(self.generators, cap) or (identity_matrix(datum.rank),)
        self.cochar_generators = tuple(self._cochar(g) for g in self.generators)
        self.cochar_group = tuple(self._cochar(g) for g in self.group)

    @staticmethod
    def _cochar_of(g):
        return mat_transpose(mat_integer_inverse(g))

    def _cochar(self, g):
        return self._cochar_of(g)

    def _validate(self, g):
        datum = self.datum
        try:
            gstar = self._cochar_of(g)
        except ValueError:
            raise MalformedAction("generator is not invertible over Z")
        simple_set = set(datum.simple_roots)
        for a in datum.simple_roots:
            if mat_vec(g, a) not in simple_set:
                raise MalformedAction("action does not permute the simple roots")
        for a, av in zip(datum.simple_roots, datum.simple_coroots):
            ga = mat_vec(g, a)
            if datum.coroot_of(ga) != mat_vec(gstar, av):
                raise MalformedAction("action breaks the root/coroot pairing")

    def simple_permutation(self, g):
        """The permutation of simple-root indices an element induces."""
        idx = {a: i for i, a in enumerate(self.datum.simple_roots)}
        return tuple(idx[mat_vec(g, a)] for a in self.datum.simple_roots)

    def order(self):
        return len(self.group)


def invariant_inner_product(datum, action=None):
    """The canonical W x Aut-invariant form on X^* (x) Q as a Gram matrix,
    normalized so short roots of each component have squared length 2.

    When an action is given it is validated to preserve the form (diagram
    automorphisms always do, since they preserve the Cartan matrix)."""
    G = datum.gram()
    if action is not None:
        for g in action.group:
            gf = tuple(frac_vec(row) for row in g)
            if mat_mul(mat_transpose(gf), mat_mul(G, gf)) != G:
                raise MalformedAction("action does not preserve the form")
    return G


def diagram_automorphism(datum, perm):
    """Character-lattice matrix of a simple-root permutation.

    Only available when the simple (co)roots form a basis of the lattice
    (adjoint or simply connected data); explicit lattices must supply their
    own matrices.
    """
    n = datum.rank
    if len(perm) != len(datum.simple_roots):
        raise MalformedAction("permutation length mismatch")
    for i, j in enumerate(perm):
        for k, l in enumerate(perm):
            if datum.cartan[i][k] != datum.cartan[j][l]:
                raise MalformedAction("permutation is not a diagram automorphism")
    simples = mat_transpose(datum.simple_roots)
    if len(datum.simple_roots) == n:
        # columns alpha_i -> alpha_{perm(i)}
        target = mat_transpose(tuple(datum.simple_roots[j] for j in perm))
        sol = mat_mul(tuple(map(tuple, target)), mat_rational_inverse(simples))
        return mat_int(sol)
    cosimples = mat_transpose(datum.simple_coroots)
    if len(datum.simple_coroots) == n:
        target = mat_transpose(tuple(datum.simple_coroots[j] for j in perm))
        sol_star = mat_mul(tuple(map(tuple, target)), mat_rational_inverse(cosimples))
        return mat_transpose(mat_integer_inverse(mat_int(sol_star)))
    raise MalformedAction("datum lattice does not determine the automorphism; "
                          "provide an explicit matrix")
