"""Extended affine Weyl groups W~ = X_*(T)_I x| W, Bruhat intervals,
admissible sets, and the extremal-elements theorem.

An engine is built from a coinvariant lattice, the Sigma system it lives
over (Sigma_breve or Sigma_0, as closed once by the echelonnage data), and
integer matrices for the simple reflections of the finite Weyl group.  The
positive roots, components and highest roots are read from the system's
coordinates; no roots are closed here.  Elements are named pairs
(translation class, Weyl matrix); lengths come from the inversion formula in
int arithmetic, normal forms from descent peeling, and the Bruhat order from
one walk, `coset_walk`: the cosets x W_J below y W_J, reached from e by the
letters of a reduced word of y; with J = () it is the lower interval [e, y],
cached per engine.  As 2rho^vee pairs > 0 with every positive root, w^-1
alpha > 0 exactly when <alpha, w 2rho^vee> > 0: one sign vector per Weyl
part (Casselman, "Machine calculations in Weyl groups", Invent. Math. 116,
1994).  Torsion classes are central and have length zero (they land in
Omega).  The finite Weyl group is never enumerated: w_0 is built by
right-multiplying simple reflections while the length grows, and the longest
element of W t_lambda W is w_0 t_mu, mu the dominant class of lambda, checked
to have length l(w_0) + l(t_mu) (Iwahori-Matsumoto).  The extremal-elements
check compares two definitions of Adm(mu) by their maximal translations and
builds neither set; `admissible_set` serves `rootfold adm` only.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul

from .echelonnage import TheoremViolation
from .lattice import ResourceCap, closure
from .linalg import identity_matrix, mat_integer_inverse, mat_mul, vec_dot

ADM_CAP = 10 ** 6


class AffineElement(namedtuple("AffineElement", "lam w")):
    """t_lambda * w, with lambda a coinvariant class and w a Weyl matrix;
    it equals, hashes and sorts as the pair (lam, w).  Elements combine
    only through `ExtendedAffineWeyl.multiply`, so the tuple `+` and `*`
    are switched off."""

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = None


class ExtendedAffineWeyl:
    """W~ = Lambda x| W for a folded system Sigma with coroot classes.

    `sigma` is the SigmaSystem the group is built over: `sigma.rs_root`
    gives the simple roots, the positive roots and the coordinates of every
    root, `sigma.rs_co` the positive coroots, and `sigma.base_classes` the
    coroot classes of the simple roots in Lambda.  `simple_matrices` gives
    the corresponding reflections as integer matrices on the ambient
    cocharacter lattice.  Each Weyl matrix is interned once per engine;
    products of Weyl parts, inverses, induced maps, sign vectors, lengths,
    normal forms and lower Bruhat intervals are per-instance tables filled
    on first use.  A Weyl part acts on the classes of Lambda through its
    compact int tables (`lattice.QuotientEndo`), and the product table keeps
    that action beside each product, so `multiply` is one lookup and one
    fused `shift` (x.lam + x.w(y.lam)).  The pairings of the positive roots
    with Lambda are int rows over one denominator, read from the system
    (`SigmaSystem.pairing`).  Confine an instance to one thread or guard
    access externally.
    """

    def __init__(self, coinv, sigma, simple_matrices, label="",
                 restrict_endo=None):
        self.coinv = coinv
        self.sigma = sigma
        self.label = label
        self._weyl = {}
        self.simple_matrices = tuple(map(self._intern, simple_matrices))
        self.restrict_endo = restrict_endo
        self._endos = {}
        self._inv = {}
        self._prod = {}
        self._signs = {}
        self._len = {}
        self._nf = {}
        self._interval = {}
        self._w0 = None
        self.e_mat = self._intern(identity_matrix(coinv.rank))
        self._build_pairing()
        self._build_walls()
        self.identity = AffineElement(coinv.zero(), self.e_mat)

    # -- root bookkeeping ---------------------------------------------------

    def _build_pairing(self):
        # the system's int rows den * <alpha, b_i> over the free basis b_i of
        # Lambda, the positive roots and 2rho^vee (the last two up to a
        # positive factor, which no sign sees).  For a Frobenius-restricted
        # engine den may exceed 1; the pairing is integral on the fixed
        # sublattice.
        rs, co = self.sigma.rs_root, self.sigma.rs_co
        self._roots_int = rs._positive_vectors
        self._den, self._rows = self.sigma.pairing
        if self.restrict_endo is None and self._den != 1:
            raise TheoremViolation(
                "echelonnage pairing is not integral on the lattice")
        # the sum of the positive coroots spans the sum of their coordinates
        (self._rho2,) = co._vectors([tuple(map(sum, zip(*co._positive_coords)))], co._den)
        if any(vec_dot(b, self._rho2) <= 0 for b in rs._base_int):
            raise TheoremViolation("2rho^vee is not regular dominant")

    def _pair(self, row, lam):
        """<alpha, lam> from the row of alpha: an integer (echelonnage)."""
        val, rem = divmod(sum(map(mul, row, lam.free)), self._den)
        if rem:
            raise TheoremViolation("pairing is not integral at %r" % (lam,))
        return val

    def _build_walls(self):
        rs = self.sigma.rs_root
        cart = rs.cartan()
        walls = []
        for k, m in enumerate(self.simple_matrices):
            walls.append((("fin", k), AffineElement(self.coinv.zero(), m)))
        for ci, theta in enumerate(rs.highest_roots):
            walls.append((("aff", ci), self._root_reflection(theta, cart)))
            if self.length(walls[-1][1]) != 1:
                raise TheoremViolation("affine wall reflection has length != 1")
        self.s_aff = tuple(walls)
        self._s_aff_map = dict(walls)

    def _root_reflection(self, c, cart):
        """t_{beta^vee-class} s_beta for the positive root beta with
        coordinates c.  Descend c to a simple root e_k by simple reflections
        s_i with <beta, alpha_i^vee> > 0 (one exists while beta is not
        simple, as (beta|beta) > 0), then conjugate the class and reflection
        of e_k back up along that word."""
        word = []
        while sum(c) != 1:
            pairings = [sum(cj * cij for cj, cij in zip(c, row)) for row in cart]
            i = next(i for i, p in enumerate(pairings) if p > 0)
            c = c[:i] + (c[i] - pairings[i],) + c[i + 1:]
            word.append(i)
        k = c.index(1)
        cls, refl = self.sigma.base_classes[k], self.simple_matrices[k]
        for i in reversed(word):
            m = self.simple_matrices[i]
            cls = self.endo(m)(cls)
            refl = mat_mul(mat_mul(m, refl), self.inverse_matrix(m))
        return AffineElement(cls, self._intern(refl))

    # -- per-engine tables of Weyl matrices -------------------------------------

    def _intern(self, m):
        return self._weyl.setdefault(m, m)

    def endo(self, m):
        out = self._endos.get(m)
        if out is None:
            out = self._endos[m] = self.coinv.endo_from_matrix(m)
        return out

    def inverse_matrix(self, m):
        out = self._inv.get(m)
        if out is None:
            out = self._inv[m] = self._intern(mat_integer_inverse(m))
        return out

    def _sign_vector(self, w):
        """chi(w^-1 alpha < 0) for the positive roots alpha."""
        out = self._signs.get(w)
        if out is None:
            u = [sum(map(mul, row, self._rho2)) for row in w]
            out = self._signs[w] = tuple(int(sum(map(mul, r, u)) < 0)
                                         for r in self._roots_int)
        return out

    # -- group operations ------------------------------------------------------

    def translation(self, lam):
        if self.restrict_endo is not None and self.restrict_endo(lam) != lam:
            raise ValueError("translation class is not fixed by the Frobenius")
        return AffineElement(lam, self.e_mat)

    def _weyl_product(self, a, b):
        """(the interned product a b, the action of a on Lambda), from the
        product table, filled on first use."""
        prod = self._prod.get((a, b))
        if prod is None:
            prod = self._prod[(a, b)] = (self._intern(mat_mul(a, b)), self.endo(a))
        return prod

    def multiply(self, x, y):
        w, act = self._weyl_product(x.w, y.w)
        return AffineElement(act.shift(x.lam, y.lam), w)

    def inverse(self, x):
        winv = self.inverse_matrix(x.w)
        return AffineElement(self.endo(winv)(self.coinv.neg(x.lam)), winv)

    def length(self, x):
        total = self._len.get(x)
        if total is None:
            total = self._len[x] = sum(
                abs(self._pair(row, x.lam) - sign)
                for row, sign in zip(self._rows, self._sign_vector(x.w)))
        return total

    def normal_form(self, x):
        """(reduced word of S_aff keys, omega element); the omega part has
        length zero and x = product(word) * omega."""
        res = self._nf.get(x)
        if res is not None:
            return res
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

    def omega_part(self, x):
        return self.normal_form(x)[1]

    # -- Bruhat order -----------------------------------------------------------

    def coset_fixer(self, J):
        """The function (sw, w) -> the wall t in J with sw = wt, or None: for
        w minimal in w W_J and a wall s, either sw is minimal or sw = wt with
        t in J, and then s fixes the coset (Deodhar's lemma).  sw t = w
        needs (sw.w)(t.w) = w.w, so the Weyl parts are compared through the
        product table before the elements are multiplied."""
        mult, prod = self.multiply, self._weyl_product
        right = [(t, self._s_aff_map[t]) for t in J]
        return lambda sw, w: next((t for t, r in right if prod(sw.w, r.w)[0] == w.w
                                   and mult(sw, r) == w), None)

    def coset_walk(self, y, J, cap):
        """The minimal representatives of the cosets x W_J below y' W_J, for
        y = y' omega with omega of length zero and y' minimal in y' W_J, as
        {x: (length, key, w)} in the order found: x = s_key w (key and w are
        None for e).  With J = () they are the elements of [e, y'].

        Starts from {e} and multiplies on the left by the letters of a
        reduced word of y', read from the right; a letter that fixes a coset
        adds nothing.  The cosets found after each letter are a lower
        interval of the quotient (Bjorner-Brenti, Combinatorics of Coxeter
        Groups, section 2.5), so a new coset s w lies above w and has length
        l(w) + 1.  Raises ResourceCap as soon as it holds more than `cap`
        cosets."""
        word, _omega = self.normal_form(y)
        mult = self.multiply
        fixer = self.coset_fixer(J)
        found = {self.identity: (0, None, None)}
        for key in reversed(word):
            s = self._s_aff_map[key]
            for w, (n, _key, _w) in list(found.items()):
                sw = mult(s, w)
                if sw not in found and fixer(sw, w) is None:
                    found[sw] = (n + 1, key, w)
            if len(found) > cap:
                msg = "Bruhat interval exceeded cap %d" % cap
                if J:
                    msg += " cosets x W_J, J = {%s}" % ",".join("%s%d" % t for t in J)
                raise ResourceCap(msg)
        return found

    def lower_interval(self, y):
        """All x <= y: the walk [e, y'] of `coset_walk` times the Omega part
        of y, cached per engine.  Raises ResourceCap as soon as the walk
        passes `ADM_CAP` elements."""
        key = self.normal_form(y)
        out = self._interval.get(key)
        if out is None:
            walk = self.coset_walk(y, (), ADM_CAP)
            out = self._interval[key] = frozenset(
                self.multiply(x, key[1]) for x in walk)
        return out

    # -- finite Weyl helpers ------------------------------------------------------

    def weyl_orbit_class(self, lam):
        """Orbit of a lattice class under the finite Weyl group."""
        endos = [self.endo(m) for m in self.simple_matrices]
        return tuple(sorted(closure([lam], lambda c: (e(c) for e in endos))))

    def dominant_class(self, lam):
        cur = lam
        while True:
            for k, row in enumerate(self.sigma.base_rows):
                if self._pair(row, cur) < 0:
                    cur = self.endo(self.simple_matrices[k])(cur)
                    break
            else:
                return cur

    def _longest_weyl(self):
        """w_0, built once: right-multiply by simple reflections while the
        length grows."""
        if self._w0 is None:
            w0 = self.identity
            grew = True
            while grew:
                grew = False
                for m in self.simple_matrices:
                    x = self.multiply(w0, AffineElement(self.coinv.zero(), m))
                    if self.length(x) > self.length(w0):
                        w0, grew = x, True
            self._w0 = w0
        return self._w0

    def max_double_coset(self, lam):
        """The longest element of W t_lambda W: w_0 t_mu for mu the dominant
        class of lambda, of length l(w_0) + l(t_mu) (Iwahori-Matsumoto)."""
        w0 = self._longest_weyl()
        t_mu = self.translation(self.dominant_class(lam))
        x = self.multiply(w0, t_mu)
        if self.length(x) != self.length(w0) + self.length(t_mu):
            raise TheoremViolation("w_0 t_mu is not longest in its double coset")
        return x


def _orbit_longest_matrix(orbit_indices, adjacency, matrices):
    """Longest element of the parabolic generated by an orbit of simple
    reflections.  The orbit splits into singletons s_i and adjacent pairs
    (longest element s_i s_j s_i); a diagram-automorphism orbit never
    contains a longer string."""
    out = None
    pool = list(orbit_indices)
    while pool:
        i = pool.pop(0)
        near = [j for j in pool if adjacency(i, j)]
        if len(near) > 1:
            raise TheoremViolation("orbit contains a string of length > 2")
        part = matrices[i]
        for j in near:
            pool.remove(j)
            part = mat_mul(mat_mul(part, matrices[j]), part)
        out = part if out is None else mat_mul(out, part)
    return out


def build_affine(lgd):
    """The Iwahori-Weyl engine over F-breve: X_*(T)_I x| W(Sigma_breve)."""
    ech = lgd.echelonnage()
    datum = lgd.datum
    sig = ech.sigma_breve

    def adj(i, j):
        return datum.cartan[i][j] != 0

    mats = [_orbit_longest_matrix(orb, adj, datum.simple_reflections_cochar)
            for orb, _orth in sig.rs_co.orbits]
    return ExtendedAffineWeyl(lgd.coinv, sig, mats, label="W(%s)" % lgd.label)


def build_tau_fixed(lgd, breve_engine):
    """The F-level engine W~^tau = (X_*(T)_I)^tau x| W_0 over Sigma_0, its
    simple reflections the orbit-longest elements of `breve_engine`, the
    engine of `build_affine(lgd)`."""
    ech = lgd.echelonnage()
    sig0 = ech.sigma0
    cart = ech.sigma_breve.rs_root.cartan()

    def adj(i, j):
        return cart[i][j] != 0

    mats = []
    for orb, _orth in sig0.rs_root.orbits:
        mats.append(_orbit_longest_matrix(orb, adj, breve_engine.simple_matrices))
    return ExtendedAffineWeyl(lgd.coinv, sig0, mats, label="W(%s)^tau" % lgd.label,
                              restrict_endo=lgd.tau_endo)


def admissible_set(lgd, mu, engine):
    """Adm({mu}) by the absolute Weyl orbit of mu (definition (adm0)), for
    `rootfold adm` only: all x <= t_lambda in `engine`, the engine of
    `build_affine(lgd)`, lambda in the image of the orbit."""
    classes = {lgd.coinv.project(m) for m in lgd.datum.weyl_orbit_cochar(mu)}
    out = set()
    for cls in sorted(classes):
        out |= engine.lower_interval(engine.translation(cls))
        if len(out) > ADM_CAP:
            raise ResourceCap("admissible set exceeded cap")
    return frozenset(out)


def extremal_elements(engine, elements):
    """Bruhat-maximal members of a finite set of elements.

    An element strictly below y is shorter than y, so in order of decreasing
    length x is maximal exactly when no maximal element kept before it has
    x in its lower interval; one interval per maximal element is read."""
    kept = []
    for x in sorted(elements, key=lambda x: (-engine.length(x), x.lam, x.w)):
        if not any(x in engine.lower_interval(y) for y in kept):
            kept.append(x)
    return frozenset(kept)


def verify_extremal(lgd, mu, engine):
    """The extremal-elements theorem for one dominant mu.

    Checks (a) the dominance bridge: every lambda in Wt(mu) has image <= the
    image of mu in the Sigma-breve coroot order; (b) the Bruhat-maximal
    translations of the image of Wt(mu) are exactly the relative orbit of
    the image of mu; (c) both definitions of Adm(mu) have the same maxima,
    in `engine`, the engine of `build_affine(lgd)`.  Returns the list of
    mismatches, empty when everything holds."""
    datum = lgd.datum
    if not datum.is_dominant_cochar(mu):
        raise ValueError("mu must be dominant")
    coinv = lgd.coinv
    mubar = coinv.project(mu)
    mismatches = []
    weights = datum.weight_set(mu)
    images = sorted({coinv.project(lam) for lam in weights})
    for lam in images:
        if not engine.sigma.class_leq(engine.dominant_class(lam), mubar):
            mismatches.append("dominance bridge fails at %r" % (lam,))
    translations = {engine.translation(c) for c in images}
    maximal = extremal_elements(engine, translations)
    expected = {engine.translation(c) for c in engine.weyl_orbit_class(mubar)}
    if maximal != expected:
        mismatches.append("maximal translations differ from the orbit")
    # (c) Either Adm(mu) is the downward closure D(S) of its translations S.
    # max D(S) = max S and D(S) = D(max S), so D(S) = D(S') iff max S = max S'.
    # The relative orbit is its own max: its translations all have one
    # length, and x < y strictly implies l(x) < l(y).
    absolute = {engine.translation(coinv.project(m))
                for m in datum.weyl_orbit_cochar(mu)}
    if extremal_elements(engine, absolute) != expected:
        mismatches.append("the two admissible-set definitions differ")
    return mismatches


def coroot_identity_check(lgd):
    """Image of Z Phi^vee in X_*(T)_I equals Z Sigma_breve^vee (torsion
    coordinates included)."""
    coinv = lgd.coinv
    return coinv.same_subgroup(
        [coinv.project(cv) for cv in lgd.datum.simple_coroots],
        lgd.echelonnage().sigma_breve.base_classes)
