"""Exact scalars: Laurent polynomials in v (= q^(1/2)) over Z."""

from __future__ import annotations

from .linalg import exact_int


class LaurentPoly:
    """Laurent polynomial in v with integer coefficients, exponents in Z.

    The public constructor checks its input and drops zero coefficients;
    arithmetic builds its results with `_poly`, from int dicts that hold no
    zero.  A constant polynomial equals and hashes like its int."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        c = {}
        for e, a in (coeffs or {}).items():
            if a != 0:
                c[exact_int(e)] = exact_int(a)
        self.coeffs = c

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def v_power(cls, e, coeff=1):
        return cls({e: coeff})

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        c = self.coeffs
        if c.keys() <= {0}:
            return hash(c.get(0, 0))
        return hash(frozenset(c.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        c = dict(self.coeffs)
        for e, a in other.coeffs.items():
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
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        c = {}
        for e1, a1 in self.coeffs.items():
            for e2, a2 in other.coeffs.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + a1 * a2
        return _poly({e: a for e, a in c.items() if a})

    __rmul__ = __mul__

    def is_zero(self):
        return not self.coeffs

    def bar(self):
        """The involution v -> v^(-1)."""
        return _poly({-e: a for e, a in self.coeffs.items()})

    def min_degree(self):
        return min(self.coeffs) if self.coeffs else None

    def negative_part(self):
        """Terms of strictly negative degree."""
        return _poly({e: a for e, a in self.coeffs.items() if e < 0})

    def constant_term(self):
        return self.coeffs.get(0, 0)

    def at_one(self):
        return sum(self.coeffs.values())

    def shifted(self, k):
        return _poly({e + k: a for e, a in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            a = self.coeffs[e]
            if e == 0:
                parts.append(str(a))
            else:
                core = "v" if e == 1 else "v^%d" % e
                if a == 1:
                    parts.append(core)
                elif a == -1:
                    parts.append("-" + core)
                else:
                    parts.append("%d*%s" % (a, core))
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self):
        return {str(e): a for e, a in sorted(self.coeffs.items())}


def _poly(coeffs):
    """A LaurentPoly from an int dict with no zero coefficient: no checks."""
    p = object.__new__(LaurentPoly)
    p.coeffs = coeffs
    return p
