"""Extended affine Weyl groups W~ = X_*(T)_I x| W, Bruhat order, admissible
sets, and the extremal-elements theorem.

An engine is built from a coinvariant lattice, a folded root system with
coroot lattice classes, and integer matrices for the simple reflections of
the finite Weyl group.  Elements are pairs (translation class, Weyl matrix);
lengths come from the inversion formula, normal forms from descent peeling,
and the Bruhat order from the subword recursion.  Torsion classes are
central and have length zero (they land in Omega).
"""

from __future__ import annotations

from fractions import Fraction

from .echelonnage import TheoremViolation
from .lattice import ResourceCap
from .linalg import (
    frac_vec,
    gauss_solve,
    identity_matrix,
    mat_integer_inverse,
    mat_mul,
    mat_transpose,
    mat_vec,
    vec_dot,
    vec_neg,
)

ADM_CAP = 10 ** 6
DOUBLE_COSET_CAP = 200000


class AffineElement:
    """t_lambda * w, with lambda a coinvariant class and w a Weyl matrix."""

    __slots__ = ("lam", "w")

    def __init__(self, lam, w):
        self.lam = lam
        self.w = w

    def __eq__(self, other):
        return isinstance(other, AffineElement) and self.lam == other.lam \
            and self.w == other.w

    def __hash__(self):
        return hash((self.lam, self.w))

    def __repr__(self):
        return "AffineElement(%r)" % (self.lam,)


class ExtendedAffineWeyl:
    """W~ = Lambda x| W for a folded system Sigma with coroot classes.

    `base_triples` lists (root vector, coroot vector, coroot class) for the
    simple roots of Sigma; `simple_matrices` gives the corresponding
    reflections as integer matrices on the ambient cocharacter lattice.
    Caches (lengths, Bruhat pairs, normal forms) are per-instance dicts;
    confine an instance to one thread or guard access externally.
    """

    def __init__(self, coinv, base_triples, simple_matrices, gram, label="",
                 restrict_endo=None):
        self.coinv = coinv
        self.gram = gram
        self.label = label
        self.base_roots = tuple(frac_vec(t[0]) for t in base_triples)
        self.base_coroots = tuple(frac_vec(t[1]) for t in base_triples)
        self.base_classes = tuple(t[2] for t in base_triples)
        self.simple_matrices = tuple(simple_matrices)
        self.restrict_endo = restrict_endo
        self._endos = {}
        self._char = {}
        self._inv = {}
        self._len = {}
        self._nf = {}
        self._bruhat = {}
        self._interval = {}
        self.e_mat = identity_matrix(coinv.rank)
        self._build_roots()
        self._build_pairing()
        self._build_walls()
        self.identity = AffineElement(coinv.zero(), self.e_mat)

    # -- root bookkeeping ---------------------------------------------------

    def _build_roots(self):
        triples = {}
        frontier = []
        for k in range(len(self.base_roots)):
            t = (self.base_roots[k], self.base_coroots[k], self.base_classes[k],
                 self.simple_matrices[k])
            triples[t[0]] = t
            frontier.append(t)
        while frontier:
            nxt = []
            for root, coroot, cls, refl in frontier:
                for k, m in enumerate(self.simple_matrices):
                    r2 = tuple(Fraction(x) for x in mat_vec(self.char_action(m), root))
                    if r2 in triples:
                        continue
                    c2 = tuple(Fraction(x) for x in mat_vec(tuple(map(frac_vec, m)), coroot))
                    cls2 = self.endo(m)(cls)
                    refl2 = mat_mul(mat_mul(m, refl), self.inverse_matrix(m))
                    t2 = (r2, c2, cls2, refl2)
                    triples[r2] = t2
                    nxt.append(t2)
                    if len(triples) > 10000:
                        raise ResourceCap("root closure exceeded cap")
            frontier = nxt
        all_roots = {}
        for root, (r, c, cls, refl) in triples.items():
            all_roots[root] = (r, c, cls, refl)
            neg = tuple(-x for x in r)
            if neg not in triples:
                all_roots[neg] = (neg, vec_neg(c), -cls, refl)
        self._root_data = all_roots
        A = mat_transpose(self.base_roots)
        pos = []
        for r in sorted(all_roots):
            sol = gauss_solve(A, r)
            if sol is not None and all(x >= 0 for x in sol):
                pos.append(r)
        self.positive_roots = tuple(pos)
        self._positive_set = set(pos)
        self._root_set = set(all_roots)

    def _build_pairing(self):
        # one row per root: pairing against the free basis of Lambda.  For a
        # Frobenius-restricted engine the entries may be fractional; the
        # pairing is integral on the fixed sublattice, checked on use.
        rows = {}
        f = self.coinv.free_rank
        basis = [self.coinv.element(tuple(1 if j == i else 0 for j in range(f)))
                 for i in range(f)]
        sections = [self.coinv.section_vector(b) for b in basis]
        for r in self.positive_roots + tuple(vec_neg(r) for r in self.positive_roots):
            row = []
            for s in sections:
                val = vec_dot(frac_vec(r), s)
                if self.restrict_endo is None and val.denominator != 1:
                    raise TheoremViolation(
                        "echelonnage pairing is not integral on the lattice")
                row.append(val)
            rows[r] = tuple(row)
        self._pairing_rows = rows

    def pairing(self, root, lam):
        """<root, lam>, an integer (the echelonnage integrality)."""
        val = vec_dot(self._pairing_rows[tuple(root)], lam.free)
        if val.denominator != 1:
            raise TheoremViolation("pairing is not integral at %r" % (lam,))
        return int(val)

    def _build_walls(self):
        from .rootdata import _components
        cart = []
        n = len(self.base_roots)
        for i in range(n):
            di = self._form(self.base_roots[i], self.base_roots[i])
            row = []
            for j in range(n):
                row.append(int(Fraction(2) * self._form(self.base_roots[i],
                                                        self.base_roots[j]) / di))
            cart.append(tuple(row))
        comps = _components(tuple(cart))
        self.components = comps
        walls = []
        for k in range(n):
            walls.append((("fin", k),
                          AffineElement(self.coinv.zero(), self.simple_matrices[k])))
        A = mat_transpose(self.base_roots)
        for ci, comp in enumerate(comps):
            best, best_h = None, None
            for r in self.positive_roots:
                sol = gauss_solve(A, r)
                if any(sol[i] != 0 for i in range(n) if i not in comp):
                    continue
                h = sum(sol)
                if best is None or h > best_h:
                    best, best_h = r, h
            _, _co, cls, refl = self._root_data[best]
            walls.append((("aff", ci), AffineElement(cls, refl)))
            if self.length(walls[-1][1]) != 1:
                raise TheoremViolation("affine wall reflection has length != 1")
        self.s_aff = tuple(walls)
        self._s_aff_map = dict(walls)

    def _form(self, u, v):
        return vec_dot(frac_vec(u), mat_vec(self.gram, frac_vec(v)))

    # -- matrix caches --------------------------------------------------------

    def endo(self, m):
        if m not in self._endos:
            self._endos[m] = self.coinv.endo_from_matrix(m)
        return self._endos[m]

    def inverse_matrix(self, m):
        if m not in self._inv:
            self._inv[m] = mat_integer_inverse(m)
        return self._inv[m]

    def char_action(self, m):
        """Action on the character side: inverse transpose."""
        if m not in self._char:
            self._char[m] = mat_transpose(self.inverse_matrix(m))
        return self._char[m]

    # -- group operations ------------------------------------------------------

    def translation(self, lam):
        if self.restrict_endo is not None and self.restrict_endo(lam) != lam:
            raise ValueError("translation class is not fixed by the Frobenius")
        return AffineElement(lam, self.e_mat)

    def multiply(self, x, y):
        return AffineElement(x.lam + self.endo(x.w)(y.lam), mat_mul(x.w, y.w))

    def inverse(self, x):
        winv = self.inverse_matrix(x.w)
        return AffineElement(self.endo(winv)(-x.lam), winv)

    def length(self, x):
        if x in self._len:
            return self._len[x]
        total = 0
        winv_char = self.char_action(self.inverse_matrix(x.w))
        for r in self.positive_roots:
            val = self.pairing(r, x.lam)
            pre = tuple(Fraction(q) for q in mat_vec(winv_char, r))
            if pre in self._positive_set:
                total += abs(val)
            else:
                total += abs(val - 1)
        self._len[x] = total
        return total

    def normal_form(self, x):
        """(reduced word of S_aff keys, omega element); the omega part has
        length zero and x = product(word) * omega."""
        if x in self._nf:
            return self._nf[x]
        word = []
        cur = x
        n = self.length(cur)
        while n > 0:
            for key, s in self.s_aff:
                sx = self.multiply(s, cur)
                ln = self.length(sx)
                if ln < n:
                    word.append(key)
                    cur = sx
                    n = ln
                    break
            else:
                raise TheoremViolation("positive length but no descent")
        res = (tuple(word), cur)
        self._nf[x] = res
        return res

    def from_normal_form(self, word, omega):
        out = omega
        for key in reversed(word):
            out = self.multiply(self._s_aff_map[key], out)
        return out

    def omega_part(self, x):
        return self.normal_form(x)[1]

    # -- Bruhat order -----------------------------------------------------------

    def bruhat_leq(self, x, y):
        """x <= y; elements in different Omega cosets are incomparable."""
        ox = self.omega_part(x)
        oy = self.omega_part(y)
        if ox != oy:
            return False
        oinv = self.inverse(ox)
        return self._leq_aff(self.multiply(x, oinv), self.multiply(y, oinv))

    def _leq_aff(self, u, v):
        if u == v:
            return True
        lu, lv = self.length(u), self.length(v)
        if lu > lv or lv == 0:
            return False
        key = (u, v)
        if key in self._bruhat:
            return self._bruhat[key]
        word, _ = self.normal_form(v)
        s = self._s_aff_map[word[0]]
        sv = self.multiply(s, v)
        su = self.multiply(s, u)
        if self.length(su) < lu:
            out = self._leq_aff(su, sv)
        else:
            out = self._leq_aff(u, sv)
        self._bruhat[key] = out
        return out

    def lower_interval(self, y):
        """All x <= y, via subword products of a reduced word of y."""
        word, omega = self.normal_form(y)
        key = (word, omega)
        if key in self._interval:
            return self._interval[key]
        elems = {self.identity}
        for k in word:
            s = self._s_aff_map[k]
            elems |= {self.multiply(x, s) for x in elems}
            if len(elems) > ADM_CAP:
                raise ResourceCap("Bruhat interval exceeded cap")
        out = frozenset(self.multiply(x, omega) for x in elems)
        self._interval[key] = out
        return out

    # -- finite Weyl helpers ------------------------------------------------------

    def weyl_orbit_class(self, lam):
        """Orbit of a lattice class under the finite Weyl group."""
        seen = {lam}
        frontier = [lam]
        while frontier:
            nxt = []
            for c in frontier:
                for m in self.simple_matrices:
                    c2 = self.endo(m)(c)
                    if c2 not in seen:
                        seen.add(c2)
                        nxt.append(c2)
            frontier = nxt
        return tuple(sorted(seen, key=lambda c: (c.free, c.tors)))

    def is_dominant_class(self, lam):
        return all(self.pairing(r, lam) >= 0 for r in self.base_roots)

    def dominant_class(self, lam):
        cur = lam
        while True:
            for k, r in enumerate(self.base_roots):
                if self.pairing(r, cur) < 0:
                    cur = self.endo(self.simple_matrices[k])(cur)
                    break
            else:
                return cur

    def enumerate_weyl(self, cap=DOUBLE_COSET_CAP):
        """All finite Weyl matrices (only call on small groups)."""
        seen = {self.e_mat}
        frontier = [self.e_mat]
        while frontier:
            nxt = []
            for h in frontier:
                for m in self.simple_matrices:
                    p = mat_mul(m, h)
                    if p not in seen:
                        seen.add(p)
                        nxt.append(p)
                        if len(seen) > cap:
                            raise ResourceCap("finite Weyl closure exceeded cap")
            frontier = nxt
        return tuple(seen)

    def max_double_coset(self, lam):
        """The unique longest element of W t_lambda W."""
        weyl = self.enumerate_weyl()
        orbit = self.weyl_orbit_class(lam)
        best = None
        best_len = -1
        ties = 0
        for lam2 in orbit:
            for w in weyl:
                x = AffineElement(lam2, w)
                lx = self.length(x)
                if lx > best_len:
                    best, best_len, ties = x, lx, 1
                elif lx == best_len:
                    ties += 1
        if ties != 1:
            raise TheoremViolation("longest double-coset element is not unique")
        return best

    def dominance_leq_sigma(self, lam, mu):
        """lam <= mu for the positive coroots of Sigma (integral cone
        membership inside the coinvariant lattice, torsion included)."""
        diff = mu - lam
        cols = tuple(frac_vec(c.free) for c in self.base_classes)
        if not cols:
            return diff.is_zero()
        A = mat_transpose(cols)
        sol = gauss_solve(A, frac_vec(diff.free))
        if sol is None:
            return False
        if any(c.denominator != 1 or c < 0 for c in sol):
            return False
        acc = self.coinv.zero()
        for c, cls in zip(sol, self.base_classes):
            acc = acc + cls.scale(int(c))
        return acc == diff


def datum_simple_reflection_cochar(datum, i):
    """s_i as an integer matrix on X_*: y - <alpha_i, y> alpha_i^vee."""
    n = datum.rank
    a = datum.simple_roots[i]
    av = datum.simple_coroots[i]
    return tuple(tuple((1 if k == j else 0) - av[k] * a[j] for j in range(n))
                 for k in range(n))


def _orbit_longest_matrix(orbit_indices, adjacency, matrices):
    """Longest element of the parabolic generated by an orbit of simple
    reflections.  The orbit splits into singletons and adjacent pairs; a
    diagram-automorphism orbit never contains a longer string."""
    parts = []
    pool = list(orbit_indices)
    while pool:
        i = pool.pop(0)
        cluster = [i]
        for j in list(pool):
            if adjacency(i, j):
                cluster.append(j)
                pool.remove(j)
        if len(cluster) == 1:
            parts.append(matrices[i])
        elif len(cluster) == 2:
            a, b = matrices[cluster[0]], matrices[cluster[1]]
            if adjacency(cluster[0], cluster[1]):
                parts.append(mat_mul(mat_mul(a, b), a))
            else:
                parts.append(mat_mul(a, b))
        else:
            raise TheoremViolation("orbit contains a string of length > 2")
    out = parts[0]
    for p in parts[1:]:
        out = mat_mul(out, p)
    return out


def build_affine(lgd):
    """The Iwahori-Weyl engine over F-breve: X_*(T)_I x| W(Sigma_breve)."""
    ech = lgd.echelonnage()
    datum = lgd.datum
    sig = ech.sigma_breve
    base_mats = [datum_simple_reflection_cochar(datum, i)
                 for i in range(len(datum.simple_roots))]

    def adj(i, j):
        return datum.cartan[i][j] != 0

    mats = []
    for orb, _orth in sig.rs_co.orbits:
        mats.append(_orbit_longest_matrix(orb, adj, base_mats))
    triples = list(zip(sig.base, sig.cobase, sig.base_classes))
    return ExtendedAffineWeyl(lgd.coinv, triples, mats, datum.gram(),
                              label="W(%s)" % lgd.label)


def build_tau_fixed(lgd, breve_engine=None):
    """The F-level engine W~^tau = (X_*(T)_I)^tau x| W_0 over Sigma_0."""
    ech = lgd.echelonnage()
    if breve_engine is None:
        breve_engine = build_affine(lgd)
    sig0 = ech.sigma0
    breve = ech.sigma_breve

    def adj(i, j):
        return breve_engine._form(breve.base[i], breve.base[j]) != 0

    mats = []
    for orb, _orth in sig0.rs_root.orbits:
        mats.append(_orbit_longest_matrix(orb, adj, breve_engine.simple_matrices))
    triples = list(zip(sig0.base, sig0.cobase, sig0.base_classes))
    return ExtendedAffineWeyl(lgd.coinv, triples, mats, lgd.datum.gram(),
                              label="W(%s)^tau" % lgd.label,
                              restrict_endo=lgd.tau_endo)


def admissible_set(lgd, mu, engine=None, use_relative_orbit=False):
    """Adm({mu}): everything Bruhat-below a translation of the orbit of mu.

    With use_relative_orbit the orbit runs over W-breve applied to the image
    of mu (definition (adm)); otherwise over the absolute Weyl orbit upstairs
    (definition (adm0)).  The two agree, which verify_extremal checks."""
    if engine is None:
        engine = build_affine(lgd)
    datum = lgd.datum
    if use_relative_orbit:
        classes = set(engine.weyl_orbit_class(lgd.coinv.project(mu)))
    else:
        classes = {lgd.coinv.project(m) for m in datum.weyl_orbit_cochar(mu)}
    out = set()
    for cls in sorted(classes, key=lambda c: (c.free, c.tors)):
        out |= engine.lower_interval(engine.translation(cls))
        if len(out) > ADM_CAP:
            raise ResourceCap("admissible set exceeded cap")
    return frozenset(out)


def extremal_elements(engine, elements):
    """Bruhat-maximal members of a finite set of elements."""
    elems = list(elements)
    out = []
    for x in elems:
        if any(x != y and engine.bruhat_leq(x, y) for y in elems):
            continue
        out.append(x)
    return frozenset(out)


def verify_extremal(lgd, mu, engine=None):
    """The extremal-elements theorem for one dominant mu.

    Checks (a) the dominance bridge: every lambda in Wt(mu) has image <= the
    image of mu in the Sigma-breve coroot order; (b) the Bruhat-maximal
    translations of the image of Wt(mu) are exactly the relative orbit of
    the image of mu; (c) the two definitions of the admissible set agree.
    Returns a report dict; "ok" is True when everything holds."""
    datum = lgd.datum
    if engine is None:
        engine = build_affine(lgd)
    if not datum.is_dominant_cochar(mu):
        raise ValueError("mu must be dominant")
    coinv = lgd.coinv
    mubar = coinv.project(mu)
    report = {"mu": list(mu), "mismatches": []}
    weights = datum.weight_set(mu)
    images = sorted({coinv.project(lam) for lam in weights},
                    key=lambda c: (c.free, c.tors))
    for lam in images:
        if not engine.dominance_leq_sigma(engine.dominant_class(lam), mubar):
            report["mismatches"].append("dominance bridge fails at %r" % (lam,))
    translations = {engine.translation(c) for c in images}
    maximal = extremal_elements(engine, translations)
    expected = {engine.translation(c) for c in engine.weyl_orbit_class(mubar)}
    if maximal != expected:
        report["mismatches"].append("maximal translations differ from the orbit")
    adm0 = admissible_set(lgd, mu, engine=engine, use_relative_orbit=False)
    adm1 = admissible_set(lgd, mu, engine=engine, use_relative_orbit=True)
    if adm0 != adm1:
        report["mismatches"].append("the two admissible-set definitions differ")
    report["ok"] = not report["mismatches"]
    report["adm_size"] = len(adm0)
    report["extremal"] = len(maximal)
    return report


def coroot_identity_check(lgd):
    """Image of Z Phi^vee in X_*(T)_I equals Z Sigma_breve^vee (torsion
    coordinates included)."""
    coinv = lgd.coinv
    ech = lgd.echelonnage()
    lhs = coinv.subgroup([coinv.project(cv) for cv in lgd.datum.simple_coroots])
    rhs = coinv.subgroup(list(ech.sigma_breve.base_classes))
    return lhs == rhs
