"""Dict-arithmetic Hecke algebra and Kazhdan-Lusztig solve: the reference
for `rootfold.hecke`.

The library holds the bar rows and the KL solve on packed ints
(`hecke._PackedRows`).  `dict_interval_rows` and `dict_kl_table` are the
same coset enumeration, R-polynomial recursion and downward solve with every
coefficient a `Poly`, as `HeckeAlgebra` computed them before; the tests
compare whole tables against them.  Their enumeration, `dict_cosets`,
is also the reference for the engine's `coset_walk` on a nonempty J.
`decoded_rows` is the one way the tests read the library's packed rows.
`HeckeElement` and `HeckeReference` are the element arithmetic of the
algebra (products through normal-form letters, the bar involution through
`HeckeAlgebra.bar_basis`), which the library does not need: it reads
P_{x,y} and the geometric basis from the KL tables alone.  `Poly` is the ring
arithmetic of Z[v, v^-1] that all of them use: the library's `LaurentPoly` is
only the value its KL tables return, and solves in packed ints.
"""

from rootfold.echelonnage import TheoremViolation
from rootfold.hecke import KL_INTERVAL_CAP
from rootfold.lattice import ResourceCap
from rootfold.ring import LaurentPoly


def _coeffs(x):
    """The coefficient dict of a polynomial or an int."""
    if isinstance(x, int):
        return {0: x} if x else {}
    return x.coeffs


def _poly(coeffs):
    """A Poly from an int dict with no zero coefficient: no checks."""
    p = object.__new__(Poly)
    p.coeffs = coeffs
    return p


class Poly(LaurentPoly):
    """A `LaurentPoly` with the ring operations.  The other operand of a sum,
    difference or product may be an int or any `LaurentPoly`, a library
    value included; results are `Poly`s built with `_poly`."""

    __slots__ = ()

    @classmethod
    def v_power(cls, e, coeff=1):
        return cls({e: coeff})

    def __add__(self, other):
        c = dict(self.coeffs)
        for e, a in _coeffs(other).items():
            s = c.get(e, 0) + a
            if s:
                c[e] = s
            else:
                del c[e]
        return _poly(c)

    __radd__ = __add__

    def __neg__(self):
        return _poly({e: -a for e, a in self.coeffs.items()})

    def __sub__(self, other):
        return self + _poly({e: -a for e, a in _coeffs(other).items()})

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        c = {}
        for e1, a1 in self.coeffs.items():
            for e2, a2 in _coeffs(other).items():
                e = e1 + e2
                c[e] = c.get(e, 0) + a1 * a2
        return _poly({e: a for e, a in c.items() if a})

    __rmul__ = __mul__

    def is_zero(self):
        return not self.coeffs

    def bar(self):
        """The involution v -> v^(-1)."""
        return _poly({-e: a for e, a in self.coeffs.items()})

    def negative_part(self):
        """Terms of strictly negative degree."""
        return _poly({e: a for e, a in self.coeffs.items() if e < 0})

    def constant_term(self):
        return self.coeffs.get(0, 0)


def as_poly(p):
    """The `Poly` of a `LaurentPoly`, such as a value the library returns."""
    return p if isinstance(p, Poly) else _poly(dict(p.coeffs))


def _add_term(terms, x, c):
    """terms[x] += c, dropping the entry when the sum is zero."""
    s = terms[x] + c if x in terms else c
    if s.is_zero():
        terms.pop(x, None)
    else:
        terms[x] = s


def eps(H, key):
    """v_s - v_s^(-1) for the wall `key` of H."""
    L = H.weights[key]
    return Poly({L: 1, -L: -1})


class HeckeElement:
    """Finite Z[v,v^-1]-combination of normalized basis elements Ttilde_w;
    the coefficients are held as `Poly`s."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        t = {}
        for x, c in (terms or {}).items():
            if c.coeffs:
                t[x] = as_poly(c)
        self.terms = t

    def __eq__(self, other):
        return isinstance(other, HeckeElement) and self.terms == other.terms

    def __add__(self, other):
        t = dict(self.terms)
        for x, c in other.terms.items():
            _add_term(t, x, c)
        return HeckeElement(self.algebra, t)

    def __sub__(self, other):
        return self + other.scale(Poly({0: -1}))

    def scale(self, poly):
        return HeckeElement(self.algebra, {x: c * poly for x, c in self.terms.items()})

    def coefficient(self, x):
        return self.terms.get(x, Poly.zero())

    def __repr__(self):
        return "HeckeElement(%d terms)" % len(self.terms)


class HeckeReference:
    """Element arithmetic in the algebra of a `HeckeAlgebra` H, on the
    normalized basis: Ttilde_s^2 = (v_s - v_s^(-1)) Ttilde_s + 1."""

    def __init__(self, H):
        self.hecke = H
        self.engine = H.engine
        self.weights = H.weights
        self._weight_check = set()

    def weight(self, x):
        """L(x) = sum of L(s) over a reduced word (Omega contributes 0)."""
        word, _omega = self.engine.normal_form(x)
        return sum(self.weights[k] for k in word)

    def one(self):
        return HeckeElement(self, {self.engine.identity: Poly.one()})

    def t_normalized(self, x):
        return HeckeElement(self, {x: Poly.one()})

    def t_standard(self, x):
        """Standard basis T_x = v^L(x) Ttilde_x."""
        return HeckeElement(self, {x: Poly.v_power(self.weight(x))})

    def _mult_gen(self, elt, key):
        """Multiply by Ttilde_s on the right."""
        eng = self.engine
        s = eng._s_aff_map[key]
        out = {}
        for x, c in elt.terms.items():
            xs = eng.multiply(x, s)
            _add_term(out, xs, c)
            if eng.length(xs) < eng.length(x):
                _add_term(out, x, c * eps(self, key))
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

    def bar_basis(self, x):
        """bar(Ttilde_x) as an element, from `HeckeAlgebra.bar_basis`."""
        return HeckeElement(self, self.hecke.bar_basis(x))

    def bar(self, elt):
        out = HeckeElement(self, {})
        for x, c in elt.terms.items():
            out = out + self.bar_basis(x).scale(c.bar())
        return out


def decoded_rows(H, y_min, J):
    """(elems, rows) of `H._interval_rows(y_min, J)`, each row decoded to
    {i: Poly}."""
    packed = H._interval_rows(y_min, J)
    return packed.elems, [{i: as_poly(r) for i, r in packed.row(j).items()}
                          for j in range(len(packed.elems))]


def _fixer(eng, J):
    """(sw, w) -> the wall t in J with sw = wt, or None."""
    right = [(t, eng._s_aff_map[t]) for t in J]
    return lambda sw, w: next((t for t, r in right if eng.multiply(sw, r) == w),
                              None)


def dict_cosets(eng, y_min, J):
    """The set of minimal representatives of the cosets x W_J below
    y_min W_J: from {e}, the products s w over the letters s of a reduced
    word of y_min read from the right, except where s fixes the coset w W_J
    (sw = wt for t in J)."""
    fixer = _fixer(eng, J)
    word, _omega = eng.normal_form(y_min)
    cosets = {eng.identity}
    for key in reversed(word):
        s = eng._s_aff_map[key]
        for w in list(cosets):
            sw = eng.multiply(s, w)
            if sw not in cosets and fixer(sw, w) is None:
                cosets.add(sw)
        if len(cosets) > KL_INTERVAL_CAP:
            raise ResourceCap("Bruhat interval exceeded cap")
    return cosets


def dict_interval_rows(H, y_min, J):
    """(elems, rows) of the cosets x W_J below y_min W_J and the bar rows of
    M_J, rows[j] = {i: Poly}, by `_add_term` on dicts."""
    eng = H.engine
    mult = eng.multiply
    fixer = _fixer(eng, J)
    elems = sorted(dict_cosets(eng, y_min, J), key=eng.length)
    index = {x: i for i, x in enumerate(elems)}
    lengths = [eng.length(x) for x in elems]
    walls = [(key, s, eps(H, key)) for key, s in eng.s_aff]
    left = [[None] * len(elems) for _ in walls]

    def times(k, j):
        i = left[k][j]
        if i is None:
            key, s, _eps_s = walls[k]
            w = elems[j]
            sw = mult(s, w)
            i = index.get(sw)
            if i is None:
                t = fixer(sw, w)
                if t is not None and H.weights[t] != H.weights[key]:
                    raise TheoremViolation("weight function is not well-defined")
                i = -1 if t is None else j
            left[k][j] = i
        return i

    rows = [{0: Poly.one()}]
    for j in range(1, len(elems)):
        for k in range(len(walls)):
            sx = times(k, j)
            if sx >= 0 and lengths[sx] < lengths[j]:
                break
        key, _s, eps_s = walls[k]
        v_inv = Poly.v_power(-H.weights[key])
        row = {}
        for w, c in rows[sx].items():
            sw = times(k, w)
            if sw == w:
                _add_term(row, w, c * v_inv)
                continue
            _add_term(row, sw, c)
            if lengths[sw] > lengths[w]:
                _add_term(row, w, -(c * eps_s))
        rows.append(row)
    return elems, rows


def dict_kl_table(H, y):
    """{x_max: p_{x_max,y}} over the cosets below y, solved downwards on the
    dict rows, with the bar self-consistency and bar-invariance checks."""
    eng = H.engine
    J, y_min, g = H._right_descents(y)
    elems, rows = dict_interval_rows(H, y_min, J)
    top = len(elems) - 1
    cols = [[] for _ in elems]
    for w, row in enumerate(rows):
        for x, r in row.items():
            if x != w:
                cols[x].append((w, r))
    p = {top: Poly.one()}
    pbar = {top: Poly.one()}
    for x in range(top - 1, -1, -1):
        f = Poly.zero()
        for w, r in cols[x]:
            if w in pbar:
                f = f + pbar[w] * r
        if f.bar() != -f or f.constant_term() != 0:
            raise TheoremViolation("bar self-consistency failed in KL solve")
        px = f.negative_part()
        if not px.is_zero():
            p[x] = px
            pbar[x] = px.bar()
    c = {}
    for w, pw in pbar.items():
        for x, r in rows[w].items():
            _add_term(c, x, pw * r)
    if c != p:
        raise TheoremViolation("canonical basis element is not bar-invariant")
    return {eng.multiply(x, g): p.get(i, Poly.zero())
            for i, x in enumerate(elems)}

