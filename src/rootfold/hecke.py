"""Affine Hecke algebras with unequal parameters and their canonical bases.

The algebra H(W~^tau, S_aff^tau, L) is realized on the normalized basis
Ttilde_w = q^(-L(w)/2) T_w over Z[v, v^(-1)], v = q^(1/2):

    Ttilde_s^2 = (v_s - v_s^(-1)) Ttilde_s + 1,      v_s = v^L(s),

so that the standard-basis relation T_s^2 = (q^L(s)-1) T_s + q^L(s) T_e
holds after rescaling.  The Kazhdan-Lusztig element c_y = sum p_{x,y}
Ttilde_x satisfies c_y Ttilde_t = v_t c_y for every right descent t of y
(Lusztig, Hecke algebras with unequal parameters, section 6), so p_{x,y} is
determined by its values on the maximal representatives of the cosets x W_J,
J the right descents of y: c_y lies in the module M_J = H c_{w_J}, with
basis m_x = Ttilde_x c_{w_J} over the minimal representatives x.  The solve
numbers the cosets below y in length order and builds the bar involution of
M_J row by row from the R-polynomial recursion bar(m_x) = (Ttilde_s - (v_s -
v_s^(-1))) bar(m_{sx}) for a left descent s of x, where Ttilde_s m_w is
m_{sw} + (v_s - v_s^(-1)) m_w when sw < w, m_{sw} when sw > w is minimal,
and v_s m_w when s fixes the coset w W_J (Deodhar's parabolic
Kazhdan-Lusztig polynomials); then p_{x,y} comes by triangular solving down
the columns of that table.  With J = () the module is H itself, which is
how `bar_basis` reads bar(Ttilde_x).  The polynomials P_{x,y} =
v^(L(y)-L(x)) p_{x,y}, constant on each coset x W_J, specialize at v = 1 to
the coefficients of the geometric basis of the Hecke-algebra center (the
Knop/Lusztig character formula), which is also computed independently from
twining characters.
"""

from __future__ import annotations

from .echelonnage import TheoremViolation
from .lattice import ResourceCap
from .ring import LaurentPoly

# Largest number of cosets x W_J whose bar rows are built: for the KL solve
# J is the right descents of y, for `bar_basis` J = () and a coset is one
# element.  Measured `kl_table` on split-a2 lambda = (k, k) (one Xeon core):
# k = 8, 12, 16, 20, 23, with n = 217, 469, 817, 1261, 1657 cosets, took
# 0.73, 3.6, 11.4, 32.1, 60.4 s (313 MB peak at 1657), a fit of t ~ n^2.2 to
# n^2.4; so a solve at the cap takes about a minute.
KL_INTERVAL_CAP = 1700


class UndefinedPair(ValueError):
    """Kazhdan-Lusztig polynomial requested outside the Bruhat order."""


def _add_term(terms, x, c):
    """terms[x] += c, dropping the entry when the sum is zero."""
    s = terms[x] + c if x in terms else c
    if s.is_zero():
        terms.pop(x, None)
    else:
        terms[x] = s


class HeckeElement:
    """Finite Z[v,v^-1]-combination of normalized basis elements Ttilde_w."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        t = {}
        for x, c in (terms or {}).items():
            if not c.is_zero():
                t[x] = c
        self.terms = t

    def __eq__(self, other):
        return isinstance(other, HeckeElement) and self.terms == other.terms

    def __add__(self, other):
        t = dict(self.terms)
        for x, c in other.terms.items():
            _add_term(t, x, c)
        return HeckeElement(self.algebra, t)

    def __sub__(self, other):
        return self + other.scale(LaurentPoly({0: -1}))

    def scale(self, poly):
        return HeckeElement(self.algebra, {x: c * poly for x, c in self.terms.items()})

    def coefficient(self, x):
        return self.terms.get(x, LaurentPoly.zero())

    def __repr__(self):
        return "HeckeElement(%d terms)" % len(self.terms)


class HeckeAlgebra:
    """H(W~^tau, S_aff^tau, L) over an extended affine Weyl engine.

    Caches (bar-involution rows of element intervals, KL tables, checked
    weights) are per-instance dicts; confine an instance to one thread or guard
    access externally.  They hold index rows and plain dicts, never a
    HeckeElement, so no cache points back at the algebra and an instance is
    freed by reference counting alone."""

    def __init__(self, engine, weights):
        self.engine = engine
        self.weights = dict(weights)
        for key, _s in engine.s_aff:
            if key not in self.weights:
                raise ValueError("missing parameter for wall %r" % (key,))
            if self.weights[key] < 1:
                raise ValueError("parameters must be >= 1")
        self._bar_cache = {}
        self._kl_cache = {}
        self._weight_check = set()

    # -- weights --------------------------------------------------------------

    def weight(self, x):
        """L(x) = sum of L(s) over a reduced word (Omega contributes 0)."""
        word, _omega = self.engine.normal_form(x)
        return sum(self.weights[k] for k in word)

    def _eps(self, key):
        L = self.weights[key]
        return LaurentPoly({L: 1, -L: -1})

    # -- basis elements ---------------------------------------------------------

    def one(self):
        return HeckeElement(self, {self.engine.identity: LaurentPoly.one()})

    def t_normalized(self, x):
        return HeckeElement(self, {x: LaurentPoly.one()})

    def t_standard(self, x):
        """Standard basis T_x = v^L(x) Ttilde_x."""
        return HeckeElement(self, {x: LaurentPoly.v_power(self.weight(x))})

    # -- multiplication -----------------------------------------------------------

    def _mult_gen(self, elt, key):
        """Multiply by Ttilde_s on the right."""
        eng = self.engine
        s = eng._s_aff_map[key]
        out = {}
        for x, c in elt.terms.items():
            xs = eng.multiply(x, s)
            _add_term(out, xs, c)
            if eng.length(xs) < eng.length(x):
                _add_term(out, x, c * self._eps(key))
        return HeckeElement(self, out)

    def _mult_omega(self, elt, omega):
        eng = self.engine
        return HeckeElement(self, {eng.multiply(x, omega): c
                                   for x, c in elt.terms.items()})

    def multiply(self, a, b):
        """Product in H, expanding b through its normal form letters."""
        out = HeckeElement(self, {})
        eng = self.engine
        for y, c in b.terms.items():
            word, omega = eng.normal_form(y)
            self._check_weight_consistency(y, word)
            acc = a.scale(c)
            for key in word:
                acc = self._mult_gen(acc, key)
            acc = self._mult_omega(acc, omega)
            out = out + acc
        return out

    def _check_weight_consistency(self, y, word):
        """L must be constant across reduced words (checked against the
        descent-peeled word of y^-1 reversed, a different reduced word)."""
        if y in self._weight_check:
            return
        self._weight_check.add(y)
        alt, _ = self.engine.normal_form(self.engine.inverse(y))
        if sum(self.weights[k] for k in word) != sum(self.weights[k] for k in alt):
            raise TheoremViolation("weight function is not well-defined")

    # -- bar involution -----------------------------------------------------------

    def _interval_rows(self, y_min, J):
        """The cosets x W_J below y_min W_J, as minimal representatives
        numbered 0..n-1 in length order, and the rows of the bar involution
        on the module M_J = H c_{w_J} with basis m_x = Ttilde_x c_{w_J}:
        bar(m_{elems[j]}) = sum_i rows[j][i] m_{elems[i]}.

        J is a tuple of wall keys whose parabolic subgroup W_J is finite
        (the right descents of some element), y_min is minimal in y_min W_J,
        and c_{w_J} is the canonical basis element of the longest element of
        W_J, so that Ttilde_t c_{w_J} = v_t c_{w_J} for t in J.  With J = ()
        the cosets are the elements of [e, y_min] and m_x = Ttilde_x.

        The cosets come from {e W_J} by acting on the left with the letters
        of a reduced word of y_min, read from the right.  For minimal w and a
        wall s, either sw is minimal or sw = wt with t in J (Deodhar's lemma),
        and then s fixes the coset.  The enumeration raises ResourceCap as
        soon as it holds more than KL_INTERVAL_CAP cosets.

        Row j comes from the row of s x for the first wall s (in `s_aff`
        order, as in `normal_form`) that is a left descent of x = elems[j]:
        bar(m_x) = (Ttilde_s - eps_s) bar(m_{sx}), and (Ttilde_s - eps_s) m_w
        is m_{sw} when sw < w, m_{sw} - eps_s m_w when sw > w is minimal, and
        v_s^(-1) m_w when s fixes w W_J, where Ttilde_s acts by v_s (the
        R-polynomial recursion).  By the lifting property s w W_J stays below
        y_min W_J, so the products s w are looked up in a table indexed like
        the cosets."""
        eng = self.engine
        mult = eng.multiply
        right = [(t, eng._s_aff_map[t]) for t in J]

        def fixer(sw, w):
            """The wall t in J with sw = wt, or None."""
            return next((t for t, r in right if mult(sw, r) == w), None)

        word, _omega = eng.normal_form(y_min)
        cosets = {eng.identity}
        for key in reversed(word):
            s = eng._s_aff_map[key]
            for w in list(cosets):
                sw = mult(s, w)
                if sw not in cosets and fixer(sw, w) is None:
                    cosets.add(sw)
            if len(cosets) > KL_INTERVAL_CAP:
                raise ResourceCap(
                    "Bruhat interval exceeded cap %d cosets x W_J, J = {%s}"
                    % (KL_INTERVAL_CAP, ",".join("%s%d" % t for t in J)))
        elems = sorted(cosets, key=eng.length)
        index = {x: i for i, x in enumerate(elems)}
        lengths = [eng.length(x) for x in elems]
        walls = [(key, s, self._eps(key)) for key, s in eng.s_aff]
        left = [[None] * len(elems) for _ in walls]

        def times(k, j):
            """Index of s_k x_j W_J: j when s_k fixes the coset, -1 when it
            leaves the interval, which happens only when s_k x_j > x_j."""
            i = left[k][j]
            if i is None:
                key, s, _eps = walls[k]
                w = elems[j]
                sw = mult(s, w)
                i = index.get(sw)
                if i is None:
                    t = fixer(sw, w)
                    if t is not None and self.weights[t] != self.weights[key]:
                        raise TheoremViolation(
                            "weight function is not well-defined")
                    i = -1 if t is None else j
                left[k][j] = i
            return i

        rows = [{0: LaurentPoly.one()}]
        for j in range(1, len(elems)):
            for k in range(len(walls)):
                sx = times(k, j)
                if sx >= 0 and lengths[sx] < lengths[j]:
                    break
            key, _s, eps = walls[k]
            v_inv = LaurentPoly.v_power(-self.weights[key])
            row = {}
            for w, c in rows[sx].items():
                sw = times(k, w)
                if sw == w:
                    _add_term(row, w, c * v_inv)
                    continue
                _add_term(row, sw, c)
                if lengths[sw] > lengths[w]:
                    _add_term(row, w, -(c * eps))
            rows.append(row)
        return elems, rows

    def bar_basis(self, x):
        """bar(Ttilde_x) = Ttilde_{x^-1}^{-1}, expanded in the Ttilde basis.
        For x = x_aff omega the row of x_aff is read from the interval rows
        of the first interval that contained it, else of [e, x_aff]."""
        eng = self.engine
        _word, omega = eng.normal_form(x)
        x_aff = eng.multiply(x, eng.inverse(omega))
        if x_aff not in self._bar_cache:
            elems, rows = self._interval_rows(x_aff, ())
            for j, z in enumerate(elems):
                self._bar_cache.setdefault(z, (elems, rows, j))
        elems, rows, j = self._bar_cache[x_aff]
        return HeckeElement(self, {eng.multiply(elems[i], omega): r
                                   for i, r in rows[j].items()})

    def bar(self, elt):
        out = HeckeElement(self, {})
        for x, c in elt.terms.items():
            out = out + self.bar_basis(x).scale(c.bar())
        return out

    # -- Kazhdan-Lusztig ---------------------------------------------------------

    def _min_rep(self, x, J):
        """The minimal representative of x W_J, by stripping right descents."""
        eng = self.engine
        n = eng.length(x)
        while True:
            for t in J:
                xt = eng.multiply(x, eng._s_aff_map[t])
                if eng.length(xt) < n:
                    x, n = xt, n - 1
                    break
            else:
                return x

    def _right_descents(self, y):
        """(J, y_min, g) for y = y_aff omega: the walls J that are right
        descents of y_aff, the minimal representative y_min of y_aff W_J,
        and g = w_J omega, so that x_min g is the maximal representative
        of x_min W_J, moved by omega."""
        eng = self.engine
        _word, omega = eng.normal_form(y)
        y_aff = eng.multiply(y, eng.inverse(omega))
        n = eng.length(y_aff)
        J = tuple(key for key, s in eng.s_aff
                  if eng.length(eng.multiply(y_aff, s)) < n)
        y_min = self._min_rep(y_aff, J)
        return J, y_min, eng.multiply(eng.inverse(y_min), y)

    def kl_table(self, y):
        """{x_max: p_{x_max,y}} over the cosets x W_J below y, keyed by
        their maximal representatives (moved by the Omega part of y), where
        c_y = sum_x p_{x,y} Ttilde_x is bar-invariant, p_{y,y} = 1 and
        deg p_{x,y} < 0 for x < y.

        J is the set of right descents of y.  As c_y Ttilde_t = v_t c_y for
        t in J, c_y = sum_x p_{x w_J, y} m_x over minimal x in the module
        M_J of `_interval_rows`, so c_y is solved there, downwards over the
        numbered cosets: p_x - bar(p_x) = sum_{w > x} bar(p_w) r_{w,x}, read
        from the column of x."""
        if y in self._kl_cache:
            return self._kl_cache[y]
        eng = self.engine
        J, y_min, g = self._right_descents(y)
        elems, rows = self._interval_rows(y_min, J)
        top = len(elems) - 1
        cols = [[] for _ in elems]
        for w, row in enumerate(rows):
            for x, r in row.items():
                if x != w:
                    cols[x].append((w, r))
        p = {top: LaurentPoly.one()}
        pbar = {top: LaurentPoly.one()}
        for x in range(top - 1, -1, -1):
            f = LaurentPoly.zero()
            for w, r in cols[x]:
                if w in pbar:
                    f = f + pbar[w] * r
            if f.bar() != -f or f.constant_term() != 0:
                raise TheoremViolation("bar self-consistency failed in KL solve")
            px = f.negative_part()
            if not px.is_zero():
                p[x] = px
                pbar[x] = px.bar()
        # verify: c_y is bar-invariant, bar(c_y) = sum_w bar(p_w) bar(m_w)
        c = {}
        for w, pw in pbar.items():
            for x, r in rows[w].items():
                _add_term(c, x, pw * r)
        if c != p:
            raise TheoremViolation("canonical basis element is not bar-invariant")
        table = {eng.multiply(x, g): p.get(i, LaurentPoly.zero())
                 for i, x in enumerate(elems)}
        self._kl_cache[y] = table
        return table

    def kl_polynomial(self, x, y):
        """P_{x,y}(v) = v^(L(y) - L(x)) p_{x,y}; requires x <= y.  P is
        constant on the cosets x W_J of the right descents J of y, and equals
        v^(L(y_min) - L(x_min)) p_{x_max,y} there."""
        eng = self.engine
        if not eng.bruhat_leq(x, y):
            raise UndefinedPair("x is not Bruhat-below y")
        J, y_min, g = self._right_descents(y)
        x_aff = eng.multiply(x, eng.inverse(eng.omega_part(x)))
        x_min = self._min_rep(x_aff, J)
        p = self.kl_table(y)[eng.multiply(x_min, g)]
        P = p.shifted(self.weight(y_min) - self.weight(x_min))
        if not p.is_zero() and P.min_degree() < 0:
            raise TheoremViolation("KL polynomial has negative v-degrees")
        return P


class CenterCoefficient(int):
    """A centre coefficient tr(tau | V(nu)).  The traces are folded
    multiplicities, so they are rational integers; `to_tuple` serializes one
    as an element of Z = Z[zeta_1]: the order 1, then the value."""

    __slots__ = ()

    def to_tuple(self):
        return (1, int(self))


class BernsteinElement:
    """Element of the center in the Bernstein basis: a finitely supported
    map from dominant tau-fixed weight classes to integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {k: CenterCoefficient(v)
                       for k, v in (coeffs or {}).items() if v}

    def __add__(self, other):
        c = dict(self.coeffs)
        for k, v in other.coeffs.items():
            c[k] = c.get(k, 0) + v
        return BernsteinElement(c)

    def scale(self, val):
        return BernsteinElement({k: v * val for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        return isinstance(other, BernsteinElement) and self.coeffs == other.coeffs

    def items_sorted(self):
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0].free, kv[0].tors))

    def __repr__(self):
        return "BernsteinElement(%r)" % {
            (k.free, k.tors): v.to_tuple() for k, v in self.items_sorted()}


class CenterContext:
    """The center of the parahoric Hecke algebra of one local datum.

    Bundles the tau-fixed affine engine, the weighted Hecke algebra, and the
    character machinery; produces geometric basis elements by the twining
    route and the Kazhdan-Lusztig route."""

    def __init__(self, lgd, overrides=None):
        from .affine import build_affine, build_tau_fixed
        from .characters import CharacterContext
        self.lgd = lgd
        self.ech = lgd.echelonnage()
        self.breve_engine = build_affine(lgd)
        self.tau_engine = build_tau_fixed(lgd, self.breve_engine)
        self.parameters = self.ech.parameter_function(overrides)
        self.hecke = HeckeAlgebra(self.tau_engine, self.parameters)
        self.chars = CharacterContext(lgd)

    # -- enumeration ------------------------------------------------------------

    def dominant_tau_fixed_weights(self, lam):
        """Wt(lambda)^{+,tau} inside the coinvariant lattice."""
        h = self.chars.h
        out = [nu for nu in h.weight_set(lam)
               if h.is_tau_fixed(nu) and h.is_dominant(nu)]
        return sorted(out, key=lambda c: (c.free, c.tors))

    # -- geometric basis -----------------------------------------------------------

    def geometric_basis(self, lam):
        """C_lambda in the z-basis, coefficients tr(tau | V_{lambda,1}(nu))."""
        h = self.chars.h
        if not (h.is_dominant(lam) and h.is_tau_fixed(lam)):
            raise ValueError("lambda must be dominant and tau-fixed")
        tw = h.twisted_hw_character(lam)
        coeffs = {nu: tw.get(nu, 0)
                  for nu in self.dominant_tau_fixed_weights(lam)}
        if coeffs.get(lam) != 1:
            raise TheoremViolation("geometric basis element is not unitriangular")
        return BernsteinElement(coeffs)

    def geometric_basis_kl(self, lam):
        """The same element with coefficients P_{w_nu, w_lambda}(1)."""
        eng = self.tau_engine
        w_lam = eng.max_double_coset(lam)
        coeffs = {}
        for nu in self.dominant_tau_fixed_weights(lam):
            w_nu = eng.max_double_coset(nu)
            coeffs[nu] = self.hecke.kl_polynomial(w_nu, w_lam).at_one()
        return BernsteinElement(coeffs)

    def geometric_basis_checked(self, lam):
        """Both routes; raises if the Knop/Lusztig bridge fails."""
        a = self.geometric_basis(lam)
        b = self.geometric_basis_kl(lam)
        if a != b:
            raise TheoremViolation("twining and KL routes disagree for %r" % (lam,))
        return a


def evaluate_bernstein(center, elt, point):
    """The scalar by which `elt` acts on a J-fixed line with Satake-type
    parameter `point`: sum_nu c_nu sum_{nu' in W_0 nu} point(nu').

    `point` maps tau-fixed weight classes to scalars and must be defined on
    the whole W_0-orbit of every support weight."""
    eng = center.tau_engine
    total = 0
    for nu, c in elt.coeffs.items():
        orbit_total = 0
        for nu2 in eng.weyl_orbit_class(nu):
            try:
                orbit_total = orbit_total + point(nu2)
            except KeyError:
                raise ValueError("evaluation map is not defined on the "
                                 "W_0-orbit of %r" % (nu,))
        total = total + c * orbit_total
    return total
