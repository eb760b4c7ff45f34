"""p-adic limit evaluation by the Washington series, with certified agreement
and cross-checks against Newton interpolation."""

from fractions import Fraction

import pytest

from padicapery import eisenstein, oracle
from padicapery.curves import catalog
from padicapery.eisenstein import l_chi4_neg, zeta_star
from padicapery.exactnum import vp
from padicapery.expansion import sequences
from padicapery.oracle import (
    OracleInconsistency,
    PadicValue,
    catalan_2adic_oracle,
    zeta_p_oracle,
)

PUBLISHED_CATALAN_APPROXIMANT = Fraction(783269, 13060350)


def test_zeta_2_oracle_certifies_target():
    value = zeta_p_oracle(2, 1, 40)
    assert value.p == 2
    assert value.agreement_exponent >= 40
    assert vp(value.representative, 2) < value.agreement_exponent


def test_zeta_3_oracle_certifies_target():
    value = zeta_p_oracle(3, 1, 40)
    assert value.p == 3
    assert value.agreement_exponent >= 40


def test_oracle_rejects_bad_arguments():
    with pytest.raises(ValueError):
        zeta_p_oracle(4, 1)
    with pytest.raises(ValueError):
        zeta_p_oracle(2, 0)
    with pytest.raises(ValueError):
        zeta_p_oracle(2, 1, 0)


def test_catalan_oracle_against_published_approximant():
    value = catalan_2adic_oracle(40)
    assert value.agreement_exponent >= 35
    assert vp(value.representative - PUBLISHED_CATALAN_APPROXIMANT, 2) >= 34


def test_catalan_oracle_digit_expansion():
    """The ten leading nonzero digits sit at the published exponents."""
    value = catalan_2adic_oracle(40)
    exponents = [e for e, _ in value.digits(10)]
    assert exponents == [-1, 0, 2, 3, 5, 6, 7, 9, 13, 18]
    assert all(d == 1 for _, d in value.digits(10))


def test_oracle_agreement_is_monotone_in_target():
    small = zeta_p_oracle(2, 1, 20)
    large = zeta_p_oracle(2, 1, 40)
    assert 20 <= small.agreement_exponent <= large.agreement_exponent
    floor = min(small.agreement_exponent, large.agreement_exponent)
    assert vp(small.representative - large.representative, 2) >= floor


def test_oracle_tracks_sequence_limit():
    """Deep table rows agree with the oracle at every certified digit."""
    value = zeta_p_oracle(2, 1, 30)
    table = sequences(catalog("zeta-p2"), 10)
    deep = -table.ratio(9)
    assert vp(value.representative - deep, 2) >= value.agreement_exponent


def test_agreement_check_uses_the_weaker_exponent():
    a = PadicValue(Fraction(1, 3), 5, 2)
    oracle._require_agreement(a, PadicValue(Fraction(1, 3) + 32, 5, 2))
    oracle._require_agreement(a, PadicValue(Fraction(1, 3) + 32, 10, 2))
    c = PadicValue(Fraction(1, 3) + 8, 10, 2)
    with pytest.raises(OracleInconsistency):
        oracle._require_agreement(a, c)
    with pytest.raises(OracleInconsistency):
        oracle._require_agreement(c, a)


def test_nodes_use_correct_zeta_values():
    """Spot-check one interpolation node against a hand value."""
    assert zeta_star(2, 14) == Fraction(8191, 12)


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 1)])
def test_digits_stop_below_agreement_exponent(p, n):
    """A representative whose denominator has a factor prime to p has an
    endless expansion; only the digits below the agreement exponent are
    certified, so only those are listed."""
    value = zeta_p_oracle(p, n, 10)
    digits = value.digits(100)
    assert digits
    assert all(exponent < value.agreement_exponent for exponent, _ in digits)
    partial = sum(digit * Fraction(p) ** exponent for exponent, digit in digits)
    assert vp(value.representative - partial, p) >= value.agreement_exponent


@pytest.mark.parametrize(
    "p, n, t", [(2, 1, 4), (2, 16, 6), (3, 1, 2), (3, 16, 3), (5, 1, 1), (5, 10, 2)]
)
def test_stride_exponent(p, n, t):
    """The least t with (p - 1) * p**t >= 16 and > 2n."""
    assert oracle._stride_exponent(p, n) == t


@pytest.mark.parametrize("n", [1, 2, 9, 11])
def test_p5_newton_cross_check_reaches_40_digits(n):
    """The cross-check must not fall short silently: at p = 5 it reaches the
    40 digits it is asked for, at M = 20 (n <= 9) and at M = 100."""
    modulus = oracle._modulus(5, oracle._stride_exponent(5, n))
    newton = oracle._interpolated_limit(lambda k: zeta_star(5, k), 5, modulus, n, 40)
    assert newton.agreement_exponent >= 40
    series = zeta_p_oracle(5, n, 40)
    assert vp(series.representative - newton.representative, 5) >= 40


def test_digits_reproduce_representative_prefix():
    value = catalan_2adic_oracle(36)
    partial = Fraction(0)
    for exponent, digit in value.digits(8):
        partial += digit * Fraction(2) ** exponent
    assert vp(value.representative - partial, 2) > 9


# (p, oracle at `bits`) for each target.
ORACLES = {
    "zeta-p2": (2, lambda bits: zeta_p_oracle(2, 1, bits)),
    "zeta-p2 n=2": (2, lambda bits: zeta_p_oracle(2, 2, bits)),
    "zeta-p3": (3, lambda bits: zeta_p_oracle(3, 1, bits)),
    "zeta-p3 n=2": (3, lambda bits: zeta_p_oracle(3, 2, bits)),
    "zeta-p5": (5, lambda bits: zeta_p_oracle(5, 1, bits)),
    "zeta-p5 n=2": (5, lambda bits: zeta_p_oracle(5, 2, bits)),
    "catalan": (2, catalan_2adic_oracle),
}


@pytest.mark.parametrize(
    "target, g, newton_exponent",
    [
        ("zeta-p2", lambda k: zeta_star(2, k), 203),
        ("zeta-p3", lambda k: zeta_star(3, k), 151),
        ("zeta-p5", lambda k: zeta_star(5, k), 124),
        ("catalan", l_chi4_neg, 201),
    ],
)
def test_series_agrees_with_newton_at_200_bits(target, g, newton_exponent):
    """The slow reference path, run as deep as its node budget reaches."""
    p, evaluate = ORACLES[target]
    modulus = oracle._modulus(p, oracle._stride_exponent(p, 1))
    newton = oracle._interpolated_limit(g, p, modulus, 1, 200)
    assert newton.agreement_exponent == newton_exponent
    series = evaluate(200)
    assert vp(series.representative - newton.representative, p) >= newton_exponent


@pytest.mark.parametrize("target", sorted(ORACLES))
@pytest.mark.parametrize("bits", [1, 7, 40, 200])
def test_oracle_never_over_claims(target, bits):
    """The value at N digits agrees with the value at 2N to its exponent."""
    p, evaluate = ORACLES[target]
    shallow, deep = evaluate(bits), evaluate(2 * bits)
    assert shallow.agreement_exponent >= bits
    agreement = vp(shallow.representative - deep.representative, p)
    assert agreement >= shallow.agreement_exponent


@pytest.mark.parametrize("p", [2, 3, 5])
def test_wrong_bernoulli_number_is_an_inconsistency(p, monkeypatch):
    """A bad table entry moves the series at F = p**m and F = p**(m+1) apart."""
    real = eisenstein.bernoulli

    def wrong(index):
        return real(index) + (index == 20)

    monkeypatch.setattr(eisenstein, "bernoulli", wrong)
    with pytest.raises(OracleInconsistency):
        zeta_p_oracle(p, 1, 200)


@pytest.mark.parametrize("target", ["catalan", "zeta-p2", "zeta-p3", "zeta-p5"])
def test_oracle_meets_1500_digit_request(target):
    assert ORACLES[target][1](1500).agreement_exponent >= 1500
