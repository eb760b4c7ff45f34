"""Bernoulli and Euler numbers, L-values, and Eisenstein-type series."""

import hashlib
from fractions import Fraction
from math import comb, gcd, isqrt, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicapery import eisenstein
from padicapery.eisenstein import (
    bernoulli,
    chi4,
    euler_number,
    l_chi4_neg,
    series_e,
    series_e_prime,
    series_e_star,
    series_evil,
    series_f,
    series_f_prime,
    zeta_neg,
    zeta_star,
)
from padicapery.exactnum import vp
from padicapery.qseries import QSeries


def euler_numbers_from_sech(count: int) -> list[Fraction]:
    """Taylor coefficients of 1/cosh, computed by direct series inversion.

    Independent of the recurrence used by euler_number: invert the cosh
    series term by term and read E_n = n! * [x^n] sech(x).
    """
    size = 2 * count + 2
    factorial = [1]
    for i in range(1, size):
        factorial.append(factorial[-1] * i)
    cosh = [
        Fraction(1, factorial[n]) if n % 2 == 0 else Fraction(0) for n in range(size)
    ]
    sech = [Fraction(0)] * size
    sech[0] = Fraction(1)
    for n in range(1, size):
        acc = Fraction(0)
        for i in range(1, n + 1):
            acc += cosh[i] * sech[n - i]
        sech[n] = -acc
    return [sech[2 * i] * factorial[2 * i] for i in range(count + 1)]


def reference_bernoulli_even(count: int) -> list[Fraction]:
    """B_0, B_2, ..., B_{2 count} from sum_{r=0}^{m} C(m+1, r) B_r = 0.

    The slow exact-rational recurrence that bernoulli replaced.
    """
    values = [Fraction(1)]
    while len(values) <= count:
        m = 2 * len(values)
        s = Fraction(m + 1, 1) * Fraction(-1, 2)
        for j, bj in enumerate(values):
            s += comb(m + 1, 2 * j) * bj
        values.append(-s / (m + 1))
    return values


def reference_euler_even(count: int) -> list[int]:
    """E_0, E_2, ..., E_{2 count} from sum_j C(2m, 2j) E_{2j} = 0."""
    values = [1]
    while len(values) <= count:
        m = len(values)
        values.append(-sum(comb(2 * m, 2 * j) * ej for j, ej in enumerate(values)))
    return values


def primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n) if sieve[i]]


def divisors(n: int) -> list[int]:
    """Divisors of n by trial division up to sqrt(n).

    This and the sigma functions below are the per-coefficient divisor sums
    that the series sieve replaced.
    """
    small, large = [], []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
    return small + large[::-1]


def sigma(n: int, w: int) -> Fraction:
    """sum of d**w over all divisors of n (w may be negative)."""
    return sum((Fraction(d) ** w for d in divisors(n)), Fraction(0))


def sigma_star(n: int, p: int, w: int) -> Fraction:
    """sum of d**w over divisors of n coprime to p."""
    return sum(
        (Fraction(d) ** w for d in divisors(n) if gcd(d, p) == 1), Fraction(0)
    )


def sigma_chi(n: int, w: int) -> Fraction:
    """sum of chi(d) d**w over divisors of n."""
    return sum((chi4(d) * Fraction(d) ** w for d in divisors(n)), Fraction(0))


def test_fast_numbers_match_reference_recurrence():
    want_b = reference_bernoulli_even(150)
    want_e = reference_euler_even(150)
    assert [bernoulli(2 * i) for i in range(151)] == want_b
    assert [euler_number(2 * i) for i in range(151)] == want_e


def test_von_staudt_clausen():
    """The denominator of B_{2k} is the product of the primes p, (p-1) | 2k."""
    primes = primes_below(1202)
    for n in range(2, 1202, 2):
        assert bernoulli(n).denominator == prod(p for p in primes if n % (p - 1) == 0)


def test_values_do_not_depend_on_call_order(monkeypatch):
    def fresh_values(order):
        # Restart the cached tangent and secant tables from their first column.
        monkeypatch.setattr(eisenstein, "_TANGENT", [0, 1])
        monkeypatch.setattr(eisenstein, "_TANGENT_COLUMN", [1])
        monkeypatch.setattr(eisenstein, "_SECANT", [1])
        monkeypatch.setattr(eisenstein, "_SECANT_COLUMN", [1])
        return {n: (bernoulli(n), euler_number(n)) for n in order}

    high_first = fresh_values((1000, 10))
    low_first = fresh_values((10, 1000))
    assert high_first == low_first
    assert high_first[10] == (Fraction(5, 66), -50521)
    assert high_first[1000][0].denominator == 2 * 3 * 5 * 11 * 41 * 101 * 251


# Recorded with the Fraction recurrence for B_n and the binomial recurrence
# for E_n.
BERNOULLI_EULER_SHA256 = "8712f5f5e4e78231b80c8dedbdac98b5063655e92bec069e1f10aa6ec2f215ff"


def test_bernoulli_euler_digest_through_1200():
    values = [(bernoulli(n), euler_number(n)) for n in range(0, 1202, 2)]
    assert hashlib.sha256(repr(values).encode()).hexdigest() == BERNOULLI_EULER_SHA256


def test_bernoulli_known_values():
    assert bernoulli(0) == 1
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-2)


@pytest.mark.parametrize("n", [1, 3, 13])
def test_bernoulli_rejects_odd_indices(n):
    """Only even indices are used; the oracle handles j = 1 with B_1 = -1/2."""
    with pytest.raises(ValueError):
        bernoulli(n)


def test_euler_numbers_match_sech_expansion():
    want = euler_numbers_from_sech(10)
    got = [euler_number(2 * i) for i in range(11)]
    assert [Fraction(g) for g in got] == want
    assert got[:5] == [1, -1, 5, -61, 1385]


def test_euler_number_odd_rejected():
    with pytest.raises(ValueError):
        euler_number(3)


def test_zeta_values():
    assert zeta_neg(2) == Fraction(-1, 12)
    assert zeta_neg(4) == Fraction(1, 120)
    assert zeta_neg(12) == Fraction(691, 32760)
    assert zeta_star(2, 2) == Fraction(1, 12)
    assert zeta_star(3, 2) == Fraction(1, 6)
    assert zeta_star(2, 4) == Fraction(-7, 120)
    assert zeta_star(2, 14) == Fraction(8191, 12)
    assert l_chi4_neg(0) == Fraction(1, 2)
    assert l_chi4_neg(2) == Fraction(-1, 2)
    assert l_chi4_neg(4) == Fraction(5, 2)


def test_chi4_character():
    assert [chi4(n) for n in range(8)] == [0, 1, 0, -1, 0, 1, 0, -1]


def test_divisor_sums():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert series_e(2, 7)[6] == 1 + 2 + 3 + 6
    assert series_e(4, 5)[4] == 1 + 8 + 64
    assert series_e_star(2, 2, 13)[12] == 1 + 3
    assert series_e_star(3, 2, 13)[12] == 1 + 2 + 4
    assert series_f(1, 6)[5] == chi4(1) + chi4(5)
    assert series_e_prime(3, 2, 5)[4] == 1 + Fraction(1, 8) + Fraction(1, 64)
    assert series_evil(3, 4, 10)[9] == (1 + 27 + 729) - (1 + 27)


PREC_STRIP = 301
E4 = series_e(4, PREC_STRIP)
E4_STAR_2 = series_e_star(2, 4, PREC_STRIP)


@given(st.integers(min_value=1, max_value=PREC_STRIP - 1))
def test_sigma_star_strips_p_part(n):
    """The E*_4 coefficient at n (p = 2) equals the one at the odd part of n,
    and there it is the full divisor sum of series_e."""
    m = n
    while m % 2 == 0:
        m //= 2
    assert E4_STAR_2[n] == E4_STAR_2[m]
    assert E4_STAR_2[m] == E4[m]


@pytest.mark.parametrize("p", (2, 3, 5))
def test_series_match_reference_divisor_sums(p):
    """All six sieved series equal the trial-division sums at precision 200."""
    prec = 200
    ns = range(1, prec)
    for two_k in (2, 4, 6):
        assert series_e(two_k, prec) == QSeries(
            [zeta_neg(two_k) / 2] + [sigma(n, two_k - 1) for n in ns]
        )
        assert series_e_star(p, two_k, prec) == QSeries(
            [zeta_star(p, two_k) / 2] + [sigma_star(n, p, two_k - 1) for n in ns]
        )
        assert series_e_prime(p, two_k, prec) == QSeries(
            [0] + [sigma_star(n, p, -(two_k + 1)) for n in ns]
        )
        if two_k >= 4:
            assert series_evil(p, two_k, prec) == QSeries(
                [0]
                + [
                    sigma(n, two_k - 1) - (sigma(n // p, two_k - 1) if n % p == 0 else 0)
                    for n in ns
                ]
            )
    for weight in (1, 3, 5):
        assert series_f(weight, prec) == QSeries(
            [l_chi4_neg(weight - 1) / 2] + [sigma_chi(n, weight - 1) for n in ns]
        )
    assert series_f_prime(prec) == QSeries([0] + [sigma_chi(n, -2) for n in ns])


def test_series_e_normalization():
    e4 = series_e(4, 6)
    assert e4[0] == Fraction(1, 240)
    assert e4[1] == 1
    assert e4[2] == 9
    assert e4[3] == 28


def minus_level_p(plain: QSeries, p: int, factor) -> QSeries:
    """plain(q) - factor * plain(q^p), at the precision of plain."""
    return QSeries(
        [c - (factor * plain[n // p] if n % p == 0 else 0) for n, c in enumerate(plain.coeffs)]
    )


def test_series_e_star_level_lowering():
    """E* is E with the p-stabilized coefficients: E - p^{2k-1} E(q^p)."""
    for p in (2, 3):
        for two_k in (2, 4):
            star = series_e_star(p, two_k, 20)
            plain = series_e(two_k, 20)
            assert star == minus_level_p(plain, p, p ** (two_k - 1))


def test_series_evil_is_difference_of_levels():
    for p, two_k in ((2, 4), (2, 6), (3, 4)):
        evil = series_evil(p, two_k, 18)
        plain = series_e(two_k, 18)
        assert evil == minus_level_p(plain, p, 1)
        assert evil[0] == 0


def test_series_evil_small_weight_rejected():
    with pytest.raises(ValueError):
        series_evil(2, 2, 8)


def test_evil_four_two_known_coefficients():
    evil = series_evil(2, 4, 6)
    assert [evil[n] for n in range(6)] == [0, 1, 8, 28, 64, 126]


def test_theta_power_of_e_prime_recovers_evil():
    for p, two_k in ((2, 2), (2, 4), (3, 2)):
        prime = series_e_prime(p, two_k, 24)
        evil = series_evil(p, two_k + 2, 24)
        powered = prime
        for _ in range(two_k + 1):
            powered = powered.theta()
        assert powered == evil


def test_e_prime_fractional_coefficient():
    prime = series_e_prime(2, 2, 5)
    assert prime[1] == 1
    assert prime[3] == Fraction(28, 27)


def test_series_f_constant_and_first_terms():
    f1 = series_f(1, 8)
    assert f1[0] == Fraction(1, 4)
    assert f1[1] == 1
    assert f1[2] == 1
    assert f1[5] == 2


def test_series_f_matches_lambert_form():
    """The sieved series equal the Lambert form sum_m chi(m) m^w q^m/(1-q^m),
    expanded by enumerating the divisors of each n.

    With w = 2k it is the cuspidal part of the weight 2k+1 member; with
    w = -2 it is series_f_prime.
    """
    prec = 30

    def lambert(w):
        return [
            sum(chi4(d) * Fraction(d) ** w for d in range(1, n + 1) if n % d == 0)
            for n in range(1, prec)
        ]

    for two_k in (0, 2, 4):
        assert list(series_f(two_k + 1, prec).coeffs[1:]) == lambert(two_k)
    f_prime = series_f_prime(prec)
    assert f_prime[0] == 0
    assert list(f_prime.coeffs[1:]) == lambert(-2)


def test_series_f_prime_coefficients():
    fp = series_f_prime(8)
    assert fp[0] == 0
    assert fp[1] == 1
    assert fp[3] == Fraction(chi4(1) + Fraction(chi4(3), 9), 1)
    assert fp[5] == 1 + Fraction(1, 25)


def test_kummer_congruence_between_interpolation_nodes():
    """Weights congruent mod (p-1)p^t give p-adically close zeta* values.

    At the smallest nodes of each congruence class the gain is exactly
    t - 3 digits for p = 2 and t - 1 for p = 3, one digit per extra power
    of p.  That linear gain is what makes the interpolation in the oracle
    converge; the textbook floor of t is not attained down here.
    """
    for t in (2, 3, 4, 5, 6):
        step = 2**t
        base = step - 2
        diff = zeta_star(2, base + step) - zeta_star(2, base)
        assert vp(diff, 2) == t - 3
    for t in (1, 2, 3, 4):
        step = 2 * 3**t
        base = step - 2
        diff = zeta_star(3, base + step) - zeta_star(3, base)
        assert vp(diff, 3) == t - 1
