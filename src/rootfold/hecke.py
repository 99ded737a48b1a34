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

Inside the solve a polynomial is one int (Kronecker substitution; see
Harvey, J. Symbolic Comput. 44, 2009): sum a_e v^e is held as sum a_e
2^(K (e + b)) with balanced base-2^K digits, K = `KL_DIGIT_BITS`, and a bias
b read off the weighted lengths of the cosets (from the engine's walk), so that
powers of v are shifts and the sums of products are int products
(`_PackedRows`).  The digits are the coefficients only while each
coefficient is below 2^(K-1) in size, and a carry would hide an overflow
from the decoded digits, so every row and every solved p carries a one-norm
bound and the solve checks its sums against 2^(K-2) before forming them,
raising ArithmeticError past it.  `kl_polynomial` reads P from the coset
table: for y maximal in y W_J, x <= y iff x_min <= y_min (Bjorner-Brenti,
Combinatorics of Coxeter Groups, Prop. 2.5.1), so a pair outside the Bruhat
order is exactly a missing key.
"""

from __future__ import annotations

from .echelonnage import TheoremViolation
from .ring import LaurentPoly

# Largest number of cosets x W_J whose bar rows are built: for the KL solve
# J is the right descents of y, for `bar_basis` J = () and a coset is one
# element.  Measured `kl_table` on split-a2 lambda = (k, k) with the packed
# solve, one fresh process per k (2-core Xeon, CPython 3.11): k = 8, 12, 16,
# 20, 23, 26, 29, 32, 35 with n = 217, 469, 817, 1261, 1657, 2107, 2611,
# 3169, 3781 cosets took 0.09, 0.45, 1.57, 3.14, 7.39, 11.2, 23.0, 33.5,
# 57.9 s, with peak RSS 241 MB at 1657 and 1.29 GB at 3781 (the dict solve
# it replaced took 7.45 s at 817 and 28.9 s at 1657 on the same host); so a
# solve at the cap takes about a minute.
KL_INTERVAL_CAP = 3800

# Bits K of one digit of a packed polynomial (see `_PackedRows`).
KL_DIGIT_BITS = 64


class UndefinedPair(ValueError):
    """Kazhdan-Lusztig polynomial requested outside the Bruhat order."""


def _digits(n, bits):
    """{i: d} for the nonzero balanced base-2^bits digits of n, so that
    n = sum d 2^(bits i) with -2^(bits-1) <= d < 2^(bits-1)."""
    out = {}
    if not n:
        return out
    i = ((n & -n).bit_length() - 1) // bits
    n >>= bits * i
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    while n:
        d = n & mask
        if d:
            if d >= half:
                d -= mask + 1
            out[i] = d
            n -= d
        n >>= bits
        i += 1
    return out


class _PackedRows:
    """The cosets of `HeckeAlgebra._interval_rows` and their bar rows, each
    entry one int.

    A Laurent polynomial sum a_e v^e is packed as the int sum a_e 2^(K (e +
    b)) for a bias b >= -(lowest exponent), K = `KL_DIGIT_BITS`.  The entry
    r_{j,i} has |e| <= L_j - L_i (L the weighted lengths of the cosets), and
    is packed with bias L_j - L_i.  The digits are balanced, so they are the
    coefficients as long as each |a_e| < 2^(K-1); `norms[j]` bounds the
    one-norm of every entry of row j, and `tighten` replaces that bound by
    the largest one-norm read from the digits (once per row: `exact`).

    elems: the minimal representatives in length order; weighted: their
    weighted lengths L; rows[j]: {i: packed r_{j,i}}."""

    __slots__ = ("elems", "weighted", "rows", "norms", "exact", "bits")

    def __init__(self, elems, weighted):
        self.elems = elems
        self.weighted = weighted
        self.rows = []
        self.norms = []
        self.exact = set()
        self.bits = KL_DIGIT_BITS

    def tighten(self, j):
        """The exact largest one-norm of the entries of row j, stored as its
        bound."""
        if j in self.exact:
            return self.norms[j]
        self.exact.add(j)
        self.norms[j] = max((sum(map(abs, _digits(r, self.bits).values()))
                             for r in self.rows[j].values()), default=0)
        return self.norms[j]

    def row(self, j):
        """Row j as {i: LaurentPoly}."""
        L = self.weighted
        return {i: LaurentPoly({e - L[j] + L[i]: d
                                for e, d in _digits(r, self.bits).items()})
                for i, r in self.rows[j].items()}


class HeckeAlgebra:
    """H(W~^tau, S_aff^tau, L) over an extended affine Weyl engine.

    Caches (packed bar-involution rows of element intervals, KL tables with
    their P values) are per-instance dicts; confine an instance to one thread
    or guard access externally.  They hold index rows, ints and plain dicts,
    so no cache points back at the algebra and an instance is freed by
    reference counting alone."""

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

    # -- bar involution -----------------------------------------------------------

    def _interval_rows(self, y_min, J):
        """The cosets x W_J below y_min W_J, as minimal representatives
        numbered 0..n-1 in length order, and the rows of the bar involution
        on the module M_J = H c_{w_J} with basis m_x = Ttilde_x c_{w_J}:
        bar(m_{elems[j]}) = sum_i rows[j][i] m_{elems[i]}, packed
        (`_PackedRows`).

        J is a tuple of wall keys whose parabolic subgroup W_J is finite
        (the right descents of some element), y_min is minimal in y_min W_J,
        and c_{w_J} is the canonical basis element of the longest element of
        W_J, so that Ttilde_t c_{w_J} = v_t c_{w_J} for t in J.  With J = ()
        the cosets are the elements of [e, y_min] and m_x = Ttilde_x.

        The cosets, their lengths and the letter each was found by come from
        the engine's `coset_walk`, which raises ResourceCap as soon as it
        holds more than KL_INTERVAL_CAP cosets.  A coset s w found from w
        lies above w, so its weighted length is L(w) + L(s).

        Row j comes from the row of s x for the first wall s (in `s_aff`
        order, as in `normal_form`) that is a left descent of x = elems[j]:
        bar(m_x) = (Ttilde_s - eps_s) bar(m_{sx}), and (Ttilde_s - eps_s) m_w
        is m_{sw} when sw < w, m_{sw} - eps_s m_w when sw > w is minimal, and
        v_s^(-1) m_w when s fixes w W_J, where Ttilde_s acts by v_s (the
        R-polynomial recursion).  By the lifting property s w W_J stays below
        y_min W_J, so the products s w are looked up in a table indexed like
        the cosets.  The biases of `_PackedRows` absorb the powers of v: with
        m = 2^(2 K L(s)), an entry c of the row of s x goes to the new row as
        c at s w and (1 - m) c at w when sw > w, as m c at s w when sw < w,
        and as c at w when s fixes w W_J.  So an entry of the new row is c +
        eps_s c' for entries c, c' of the old one, and its one-norm is at most
        3 times the old row's bound; a row whose bound passes 2^(K/2) has its
        exact bound read from its digits."""
        eng = self.engine
        mult = eng.multiply
        weights = self.weights
        fixer = eng.coset_fixer(J)
        found = eng.coset_walk(y_min, J, KL_INTERVAL_CAP)
        weighted_of = {}
        for x, (_n, key, w) in found.items():
            weighted_of[x] = 0 if w is None else weighted_of[w] + weights[key]
        elems = sorted(found, key=lambda x: found[x][0])
        index = {x: i for i, x in enumerate(elems)}
        lengths = [found[x][0] for x in elems]
        weighted = [weighted_of[x] for x in elems]
        packed = _PackedRows(elems, weighted)
        bits = packed.bits
        walls = [(key, s, 2 * bits * weights[key]) for key, s in eng.s_aff]
        left = [[None] * len(elems) for _ in walls]

        def times(k, j):
            """Index of s_k x_j W_J: j when s_k fixes the coset, -1 when it
            leaves the interval, which happens only when s_k x_j > x_j."""
            i = left[k][j]
            if i is None:
                key, s, _shift = walls[k]
                w = elems[j]
                sw = mult(s, w)
                i = index.get(sw)
                if i is None:
                    t = fixer(sw, w)
                    if t is not None and weights[t] != weights[key]:
                        raise TheoremViolation(
                            "weight function is not well-defined")
                    i = -1 if t is None else j
                elif weighted[i] - weighted[j] != (
                        weights[key] if lengths[i] > lengths[j] else -weights[key]):
                    raise TheoremViolation("weight function is not well-defined")
                left[k][j] = i
            return i

        rows, norms = packed.rows, packed.norms
        limit = 1 << (bits - 2)
        loose = 1 << (bits // 2)
        rows.append({0: 1})
        norms.append(1)
        for j in range(1, len(elems)):
            for k in range(len(walls)):
                sx = times(k, j)
                if sx >= 0 and lengths[sx] < lengths[j]:
                    break
            bound = 3 * norms[sx]
            if bound >= limit:
                bound = 3 * packed.tighten(sx)
            if bound >= limit:
                raise ArithmeticError(
                    "bar row coefficients may pass the %d-bit digits" % bits)
            shift = walls[k][2]
            row = {}
            for w, c in rows[sx].items():
                sw = times(k, w)
                if sw == w:
                    row[w] = row.get(w, 0) + c
                elif lengths[sw] > lengths[w]:
                    row[sw] = row.get(sw, 0) + c
                    row[w] = row.get(w, 0) + c - (c << shift)
                else:
                    row[sw] = row.get(sw, 0) + (c << shift)
            rows.append({i: r for i, r in row.items() if r})
            norms.append(bound)
            if bound > loose:
                packed.tighten(j)
        return packed

    def bar_basis(self, x):
        """bar(Ttilde_x) = Ttilde_{x^-1}^{-1} as {z: coefficient of Ttilde_z}.
        For x = x_aff omega the row of x_aff is read from the interval rows
        of the first interval that contained it, else of [e, x_aff].  No
        library path calls it; `benchmarks/tracer.py` wraps it by name, and
        the tests compare it with the whole-word reference."""
        eng = self.engine
        _word, omega = eng.normal_form(x)
        x_aff = eng.multiply(x, eng.inverse(omega))
        if x_aff not in self._bar_cache:
            packed = self._interval_rows(x_aff, ())
            for j, z in enumerate(packed.elems):
                self._bar_cache.setdefault(z, (packed, j))
        packed, j = self._bar_cache[x_aff]
        return {eng.multiply(packed.elems[i], omega): r
                for i, r in packed.row(j).items()}

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
        numbered cosets: p_x - bar(p_x) = sum_{w > x} bar(p_w) r_{w,x}, each
        solved row w scattered into the sums of the x it reaches.  With B =
        L(y_min) and bar(p_w) packed with bias 0, the product bar(p_w)
        r_{w,x} has bias L(w) - L(x); shifted by K (B - L(w)) digits' bits,
        every term of the sum has the bias B - L(x) of p_x - bar(p_x), and
        p_x is its balanced part below v^0.  Every sum the solve forms is
        bounded by G = sum ||p_w||_1 times the row bound of w over the
        solved w, which is kept below 2^(K-2) (the row bounds are made exact
        first if it is not) before row w is scattered, or ArithmeticError is
        raised.  The values P_{x,y} = v^(L(y_min) - L(x_min)) p_{x,y} are cached
        beside the table for `kl_polynomial`."""
        entry = self._kl_cache.get(y)
        if entry is not None:
            return entry[0]
        eng = self.engine
        J, y_min, g = self._right_descents(y)
        packed = self._interval_rows(y_min, J)
        elems, weighted, rows, norms = (packed.elems, packed.weighted,
                                        packed.rows, packed.norms)
        bits = packed.bits
        limit = 1 << (bits - 2)
        top = len(elems) - 1
        lift = [bits * (weighted[top] - L) for L in weighted]
        # sums[x]: the terms bar(p_w) r_{w,x} of the solved w > x
        sums = {}

        def scatter(w, pw):
            for x, r in rows[w].items():
                if x != w:
                    sums[x] = sums.get(x, 0) + ((pw * r) << lift[w])

        p = {top: 1}
        pbar = {top: 1}
        size = {top: 1}
        polys = {top: (LaurentPoly.one(), LaurentPoly.one())}
        G = norms[top]
        scatter(top, 1)
        for x in range(top - 1, -1, -1):
            f = sums.pop(x, 0)
            if not f:
                continue
            b = weighted[top] - weighted[x]
            shift = lift[x]
            one = 1 << shift
            px = f & (one - 1)
            if px >= one >> 1:
                px -= one
            digits = _digits(px, bits)
            pb = sum(d << bits * (b - i) for i, d in digits.items())
            if f != px - (pb << shift):
                raise TheoremViolation("bar self-consistency failed in KL solve")
            p[x] = px
            pbar[x] = pb
            size[x] = sum(map(abs, digits.values()))
            G += size[x] * norms[x]
            if G >= limit:
                G = sum(n * packed.tighten(w) for w, n in size.items())
                if G >= limit:
                    raise ArithmeticError(
                        "KL coefficients may pass the %d-bit digits" % bits)
            scatter(x, pb)
            px_poly = LaurentPoly({i - b: d for i, d in digits.items()})
            P = px_poly.shifted(b)
            if P.min_degree() < 0:
                raise TheoremViolation("KL polynomial has negative v-degrees")
            polys[x] = (px_poly, P)
        # verify: c_y is bar-invariant, bar(c_y) = sum_w bar(p_w) bar(m_w)
        c = {}
        for w, pw in pbar.items():
            for x, r in rows[w].items():
                c[x] = c.get(x, 0) + ((pw * r) << lift[w])
        if {x: cx for x, cx in c.items() if cx} != p:
            raise TheoremViolation("canonical basis element is not bar-invariant")
        table, values = {}, {}
        for i, x in enumerate(elems):
            key = eng.multiply(x, g)
            table[key], values[key] = polys.get(
                i, (LaurentPoly.zero(), LaurentPoly.zero()))
        omega_inv = eng.inverse(eng.omega_part(y))
        self._kl_cache[y] = (table, values, J, omega_inv, g)
        return table

    def kl_polynomial(self, x, y):
        """P_{x,y}(v) = v^(L(y) - L(x)) p_{x,y}; raises UndefinedPair unless
        x <= y.  P is constant on the cosets x W_J of the right descents J of
        y and is read from the values cached by `kl_table`, keyed like its
        table: x itself when it is a key (a maximal representative), else
        x_min g.  As y_aff is maximal in y_aff W_J, x <= y exactly when x has
        the Omega part of y and x_min <= y_min (Bjorner-Brenti, Prop.
        2.5.1), that is, exactly when the key exists; an element of another
        Omega coset keeps its Omega part through x_min g and is never a
        key."""
        self.kl_table(y)
        _table, values, J, omega_inv, g = self._kl_cache[y]
        P = values.get(x)
        if P is None:
            eng = self.engine
            x_min = self._min_rep(eng.multiply(x, omega_inv), J)
            P = values.get(eng.multiply(x_min, g))
            if P is None:
                raise UndefinedPair("x is not Bruhat-below y")
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

    def __eq__(self, other):
        return isinstance(other, BernsteinElement) and self.coeffs == other.coeffs

    def items_sorted(self):
        return sorted(self.coeffs.items())

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
        # read off the tau-orbits alone, so checked before the engines
        self.parameters = self.ech.parameter_function(overrides)
        self.breve_engine = build_affine(lgd)
        self.tau_engine = build_tau_fixed(lgd, self.breve_engine)
        self.hecke = HeckeAlgebra(self.tau_engine, self.parameters)
        self.chars = CharacterContext(lgd)

    # -- enumeration ------------------------------------------------------------

    def dominant_tau_fixed_weights(self, lam):
        """Wt(lambda)^{+,tau} inside the coinvariant lattice."""
        h = self.chars.h
        out = [nu for nu in h.weight_set(lam)
               if h.is_tau_fixed(nu) and h.is_dominant(nu)]
        return sorted(out)

    # -- geometric basis -----------------------------------------------------------

    def geometric_basis(self, lam):
        """C_lambda in the z-basis, coefficients tr(tau | V_{lambda,1}(nu)),
        for a dominant tau-fixed lambda (`twisted_hw_character` checks it)."""
        tw = self.chars.h.twisted_hw_character(lam)
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
