"""Exact scalars: Laurent polynomials in v (= q^(1/2)) over Z."""

from __future__ import annotations

from .linalg import exact_int


class LaurentPoly:
    """Laurent polynomial in v with integer coefficients, exponents in Z: the
    value that `HeckeAlgebra.kl_table` and `kl_polynomial` return.

    The public constructor checks its input and drops zero coefficients;
    `shifted` builds its result with `_poly`, from an int dict that holds no
    zero.  A constant polynomial equals and hashes like its int.  The ring
    arithmetic is not here: the library solves in packed ints, and only the
    dict references of the tests add and multiply polynomials."""

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

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        c = self.coeffs
        if c.keys() <= {0}:
            return hash(c.get(0, 0))
        return hash(frozenset(c.items()))

    def min_degree(self):
        return min(self.coeffs) if self.coeffs else None

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
