import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from binomsum.exact import binomial, factorial, int_valuation, \
    legendre_valuation, primes_upto, rat_valuation, smallest_prime_factors


def test_factorial_small_values():
    assert [factorial(n) for n in range(7)] == [1, 1, 2, 6, 24, 120, 720]


def test_factorial_matches_math_module():
    for n in (10, 25, 100):
        assert factorial(n) == math.factorial(n)


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_pascal_row():
    assert [binomial(5, k) for k in range(6)] == [1, 5, 10, 10, 5, 1]


def test_binomial_zero_outside_range():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(-1, 0) == 0
    assert binomial(-2, 1) == 0
    assert binomial(-3, -1) == 0
    assert binomial(0, 0) == 1


def test_binomial_central_values():
    assert binomial(4, 2) == 6
    assert binomial(8, 4) == 70
    assert binomial(200, 100) == math.comb(200, 100)


@given(st.integers(-5, 60), st.integers(-5, 65))
def test_binomial_agrees_with_math_comb(n, k):
    expected = math.comb(n, k) if 0 <= k <= n else 0
    assert binomial(n, k) == expected


def test_legendre_valuation_known_points():
    # v_2(10!) = 5 + 2 + 1 = 8, v_5(100!) = 20 + 4 = 24
    assert legendre_valuation(2, 10) == 8
    assert legendre_valuation(5, 100) == 24
    assert legendre_valuation(7, 0) == 0
    assert legendre_valuation(7, 6) == 0


@given(st.integers(0, 400), st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_legendre_valuation_matches_direct_count(n, p):
    direct = int_valuation(p, math.factorial(n)) if n > 1 else 0
    assert legendre_valuation(p, n) == direct


def test_int_valuation_basics():
    assert int_valuation(2, 40) == 3
    assert int_valuation(5, 40) == 1
    assert int_valuation(3, 40) == 0
    assert int_valuation(2, -24) == 3


def test_int_valuation_rejects_zero():
    with pytest.raises(ValueError):
        int_valuation(2, 0)


def test_rat_valuation_signs():
    assert rat_valuation(2, Fraction(8, 3)) == 3
    assert rat_valuation(2, Fraction(3, 8)) == -3
    assert rat_valuation(2, Fraction(-355, 256)) == -8
    assert rat_valuation(3, Fraction(9, 5)) == 2
    # An int is read through the numerator and denominator it has too.
    assert rat_valuation(2, 48) == rat_valuation(2, Fraction(-48, 5)) == 4
    assert rat_valuation(3, -54) == 3
    assert rat_valuation(5, 7) == 0


@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_rat_valuation_rejects_zero(zero):
    with pytest.raises(ValueError):
        rat_valuation(2, zero)


def test_primes_upto_inclusive():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(29)[-1] == 29


def test_primes_upto_count():
    assert len(primes_upto(1000)) == 168


def _smallest_factor_by_trial_division(m):
    return next(d for d in range(2, m + 1) if m % d == 0)


def test_smallest_prime_factors_match_trial_division():
    spf = smallest_prime_factors(2000)
    assert len(spf) == 2001 and spf[:2] == [0, 0]
    for m in range(2, 2001):
        assert spf[m] == _smallest_factor_by_trial_division(m), m


def test_smallest_prime_factors_agree_with_primes_upto():
    spf = smallest_prime_factors(2000)
    assert [m for m in range(2, 2001) if spf[m] == m] == primes_upto(2000)


@pytest.mark.parametrize("limit,expected", [
    (-3, []), (-1, []), (0, [0]), (1, [0, 0]), (2, [0, 0, 2])])
def test_smallest_prime_factors_small_limits(limit, expected):
    assert smallest_prime_factors(limit) == expected
