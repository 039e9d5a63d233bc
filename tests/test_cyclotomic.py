"""Exact cyclotomic field arithmetic of the test oracle."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tubealg.phase import root

from cyclotomic_oracle import (CyclotomicField, cyclotomic_polynomial,
                               nullspace_dimension)


def test_small_cyclotomic_polynomials():
    F = Fraction
    assert cyclotomic_polynomial(1) == (F(-1), F(1))
    assert cyclotomic_polynomial(2) == (F(1), F(1))
    assert cyclotomic_polynomial(4) == (F(1), F(0), F(1))
    assert cyclotomic_polynomial(6) == (F(1), F(-1), F(1))
    assert len(cyclotomic_polynomial(12)) == 5  # degree phi(12) = 4


def test_field_degree_one():
    k = CyclotomicField(1)
    a = k.from_rational(Fraction(3, 2))
    assert k.mul(a, k.inv(a)) == k.one()


def test_zeta4_squares_to_minus_one():
    k = CyclotomicField(4)
    i = k.zeta_power(1)
    assert k.mul(i, i) == k.from_rational(Fraction(-1))


def test_inverse_of_one_plus_i():
    k = CyclotomicField(4)
    a = k.add(k.one(), k.zeta_power(1))
    inv = k.inv(a)
    assert k.mul(a, inv) == k.one()
    assert abs(k.as_complex(inv) - (0.5 - 0.5j)) < 1e-12


def test_zeta_power_matches_root():
    k = CyclotomicField(12)
    for num, den in [(1, 2), (1, 3), (5, 6), (1, 4), (7, 12)]:
        zeta = k.zeta_power(num * (12 // den))
        assert abs(k.as_complex(zeta) - root(num, den)) < 1e-12


def test_conjugation():
    k = CyclotomicField(3)
    z = k.zeta_power(1)
    assert k.conj(z) == k.zeta_power(2)
    a = k.add(k.one(), z)
    assert abs(k.as_complex(k.conj(a)) -
               k.as_complex(a).conjugate()) < 1e-12


@settings(max_examples=50, deadline=None)
@given(nums=st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_field_inverse_property(nums):
    k = CyclotomicField(12)
    a = tuple(Fraction(n) for n in nums)
    if k.is_zero(a):
        return
    assert k.mul(a, k.inv(a)) == k.one()


def test_nullspace_known_system():
    k = CyclotomicField(4)
    i = k.zeta_power(1)
    one = k.one()
    # x + i y = 0 has a one-dimensional kernel in two unknowns
    rows = [[one, i]]
    assert nullspace_dimension(k, rows, 2) == 1
    # adding an independent row kills it
    rows.append([one, k.neg(i)])
    assert nullspace_dimension(k, rows, 2) == 0


def test_nullspace_zero_matrix():
    k = CyclotomicField(1)
    assert nullspace_dimension(k, [], 3) == 3
