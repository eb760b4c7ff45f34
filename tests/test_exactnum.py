"""Valuations, canonical digits, and size helpers."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicapery.exactnum import (
    INFINITY,
    _int_valuation,
    is_prime,
    log_size,
    padic_digits,
    vp,
)

nonzero_rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4
).filter(lambda x: x != 0)

primes = st.sampled_from([2, 3, 5, 7, 13])


def test_is_prime_small_values():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-3)


def test_is_prime_matches_a_sieve():
    """Over 0..2**16, the cap on --p, trial division agrees with the sieve of
    Eratosthenes."""
    limit = 2**16
    sieve = [False, False] + [True] * (limit - 1)
    for f in range(2, math.isqrt(limit) + 1):
        if sieve[f]:
            sieve[f * f :: f] = [False] * len(sieve[f * f :: f])
    assert [is_prime(n) for n in range(limit + 1)] == sieve


def test_vp_basic():
    assert vp(12, 2) == 2
    assert vp(12, 3) == 1
    assert vp(Fraction(5, 8), 2) == -3
    assert vp(Fraction(9, 10), 3) == 2
    assert vp(0, 2) == INFINITY
    assert vp(Fraction(0), 7) == INFINITY


def test_vp_requires_prime():
    with pytest.raises(ValueError):
        vp(10, 4)
    with pytest.raises(ValueError):
        vp(10, 1)


def _naive_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_int_valuation_at_every_small_valuation():
    for p in (2, 3, 5, 7):
        for v in range(300):
            assert _int_valuation((p + 1) * p**v, p) == v
            assert _int_valuation(-(p**v), p) == v


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=-10**30, max_value=10**30).filter(lambda u: u != 0),
)
def test_int_valuation_matches_the_naive_loop(p, v, unit):
    """unit carries a valuation of its own, so the total is not always v."""
    n = unit * p**v
    assert _int_valuation(n, p) == _naive_valuation(n, p)


@given(nonzero_rationals, nonzero_rationals, primes)
def test_vp_is_additive(x, y, p):
    assert vp(x * y, p) == vp(x, p) + vp(y, p)


@given(nonzero_rationals, nonzero_rationals, primes)
def test_vp_ultrametric(x, y, p):
    """vp(x + y) >= min(vp x, vp y), with equality when the two differ."""
    if x + y == 0:
        return
    vx, vy = vp(x, p), vp(y, p)
    vs = vp(x + y, p)
    assert vs >= min(vx, vy)
    if vx != vy:
        assert vs == min(vx, vy)


def test_padic_digits_known_expansion():
    # 1/3 = 1 + 2 + 8 + 32 + ... 2-adically: exponents 0, 1, 3, 5, ...
    assert padic_digits(Fraction(1, 3), 2, 4) == [(0, 1), (1, 1), (3, 1), (5, 1)]
    assert padic_digits(Fraction(3, 4), 2, 3) == [(-2, 1), (-1, 1)]
    assert padic_digits(0, 5, 4) == []


def test_padic_digits_digit_range():
    digits = padic_digits(Fraction(-7, 55), 3, 6)
    for _, d in digits:
        assert 1 <= d <= 2


@given(nonzero_rationals, primes, st.integers(min_value=1, max_value=12))
def test_padic_digits_partial_sums_converge(x, p, count):
    """The partial digit sums approach x at one digit per term."""
    digits = padic_digits(x, p, count)
    partial = Fraction(0)
    for exponent, digit in digits:
        partial += digit * Fraction(p) ** exponent
    if partial == x:
        return
    floor = vp(x, p)
    assert vp(x - partial, p) >= floor + count


def reference_padic_digits(x, p, count):
    """The Fraction loop that padic_digits replaced: one vp call per digit."""
    x = Fraction(x)
    out = []
    while x != 0 and len(out) < count:
        v = vp(x, p)
        unit = x / Fraction(p) ** v
        d = unit.numerator * pow(unit.denominator, -1, p) % p
        out.append((v, d))
        x -= d * Fraction(p) ** v
    return out


@given(
    st.fractions(max_denominator=10**12),
    primes,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=80),
)
def test_padic_digits_match_reference_loop(x, p, shift, count):
    x *= Fraction(p) ** shift
    assert padic_digits(x, p, count) == reference_padic_digits(x, p, count)


def test_padic_digits_argument_checks():
    with pytest.raises(ValueError):
        padic_digits(Fraction(1, 3), 4, 3)
    with pytest.raises(ValueError):
        padic_digits(Fraction(1, 3), 2, 0)


def test_log_size_matches_math_log():
    assert log_size(1) == 0.0
    assert math.isclose(log_size(10**6), 6 * math.log(10), rel_tol=1e-12)
    huge = 7**900
    assert math.isclose(log_size(huge), 900 * math.log(7), rel_tol=1e-9)
