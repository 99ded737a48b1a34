"""Exact scalars: Laurent polynomials in v.

`LaurentPoly` is the value the library returns; the ring arithmetic of the
references, `kl_reference.Poly`, is tested here too."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootfold.ring import LaurentPoly

from kl_reference import Poly

v = Poly.v_power


def test_laurent_arithmetic():
    p = v(2) + v(-2) + 3
    q = v(1) - 1
    assert p * q == q * p
    assert (p - p).is_zero()
    assert (v(3) * v(-3)) == LaurentPoly.one()
    assert (v(1) - v(1)) + LaurentPoly({2: 1}) == v(2)
    assert p.at_one() == 5
    assert (v(5, 2)).coeffs == {5: 2}


def test_laurent_bar_and_parts():
    p = v(3) - v(-3) + v(1)
    assert p.bar() == v(-3) - v(3) + v(-1)
    assert p.negative_part() == -v(-3)
    assert p.constant_term() == 0
    assert (p + p.bar()).bar() == p + p.bar()
    assert p.shifted(2) == v(5) - v(-1) + v(3)
    assert p.min_degree() == -3



def test_constant_hashes_like_its_int():
    assert LaurentPoly.one() == 1 and hash(LaurentPoly.one()) == hash(1)
    assert {LaurentPoly.one(), 1} == {1}
    assert hash(LaurentPoly.zero()) == hash(0) and LaurentPoly.zero() == 0
    assert hash(LaurentPoly({0: -3})) == hash(-3)
    assert len({v(1), v(1) * v(0), 1, v(-1).bar()}) == 2


def test_non_integral_input_raises():
    for bad in ({0: Fraction(3, 2)}, {Fraction(1, 2): 1}, {0: 1.7}):
        with pytest.raises(ArithmeticError):
            LaurentPoly(bad)
    p = LaurentPoly({Fraction(4, 2): Fraction(6, 3), 1: 0})
    assert p.coeffs == {2: 2} and all(type(a) is int for a in p.coeffs.values())


def reference(coeffs):
    """The validating constructor on a plain dict: the reference result."""
    return LaurentPoly(coeffs)


def _sum(*dicts):
    out = {}
    for d in dicts:
        for e, a in d.items():
            out[e] = out.get(e, 0) + a
    return out


def _product(p, q):
    out = {}
    for e1, a1 in p.items():
        for e2, a2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + a1 * a2
    return out


polys = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=6)


@settings(max_examples=200, deadline=None)
@given(polys, polys, st.integers(-3, 3), st.integers(-3, 3))
def test_trusted_arithmetic_matches_validating_constructor(a, b, n, k):
    p, q = Poly(a), Poly(b)
    pc, qc = p.coeffs, q.coeffs
    cases = [
        (p + q, _sum(pc, qc)),
        (p - q, _sum(pc, {e: -x for e, x in qc.items()})),
        (p + n, _sum(pc, {0: n})),
        (n - p, _sum({0: n}, {e: -x for e, x in pc.items()})),
        (-p, {e: -x for e, x in pc.items()}),
        (p * q, _product(pc, qc)),
        (p * n, _product(pc, {0: n})),
        (n * p, _product(pc, {0: n})),
        (p.bar(), {-e: x for e, x in pc.items()}),
        (p.negative_part(), {e: x for e, x in pc.items() if e < 0}),
        (p.shifted(k), {e + k: x for e, x in pc.items()}),
    ]
    for got, want in cases:
        assert got == reference(want) and hash(got) == hash(reference(want))
        assert all(type(e) is int and type(x) is int and x != 0
                   for e, x in got.coeffs.items()), got.coeffs
