"""Exact scalars: Laurent polynomials in v."""

from fractions import Fraction

from rootfold.ring import LaurentPoly

v = LaurentPoly.v_power


def test_laurent_arithmetic():
    p = v(2) + v(-2) + 3
    q = v(1) - 1
    assert p * q == q * p
    assert (p - p).is_zero()
    assert (v(3) * v(-3)) == LaurentPoly.one()
    assert p.at_one() == 5
    assert p.evaluate(2) == Fraction(4) + Fraction(1, 4) + 3
    assert (v(5, 2)).coeffs == {5: 2}


def test_laurent_bar_and_parts():
    p = v(3) - v(-3) + v(1)
    assert p.bar() == v(-3) - v(3) + v(-1)
    assert p.negative_part() == -v(-3)
    assert p.constant_term() == 0
    assert (p + p.bar()).bar() == p + p.bar()
    assert p.shifted(2) == v(5) - v(-1) + v(3)
    assert p.max_degree() == 3 and p.min_degree() == -3

