"""Closed-form exponents, empirical slopes, and the witness criterion."""

import math
from fractions import Fraction

import pytest

from padicapery.curves import catalog
from padicapery.diophantine import (
    criterion_check,
    resolve_sign,
    slope_empirical,
    theta_closed,
)
from padicapery.exactnum import vp
from padicapery.expansion import sequences
from padicapery.oracle import PadicValue, catalan_2adic_oracle, zeta_p_oracle

PUBLISHED_THETAS = {
    "zeta-p2:k=1": 1.1618804316,
    "zeta-p2:k=2": 0.9081638111,
    "zeta-p3:k=1": 1.0469892839,
    "zeta-p5:k=1": 0.8917942081,
    "catalan-p2": 1.1618804316,
}


def test_theta_closed_matches_published_decimals():
    for family, k in (
        ("zeta-p2", 1),
        ("zeta-p2", 2),
        ("zeta-p3", 1),
        ("zeta-p5", 1),
        ("catalan-p2", 1),
    ):
        config = catalog(family, k)
        assert math.isclose(
            theta_closed(config),
            PUBLISHED_THETAS[config.case_id],
            abs_tol=5e-11,
        )


def test_slope_windows():
    table2 = sequences(catalog("zeta-p2"), 26)
    assert 11 <= slope_empirical(table2, 2, (5, 24)) <= 13
    table3 = sequences(catalog("zeta-p3"), 26)
    assert 5.4 <= slope_empirical(table3, 3, (5, 24)) <= 6.6
    tablec = sequences(catalog("catalan-p2"), 26)
    assert 7 <= slope_empirical(tablec, 2, (5, 24)) <= 9


def test_slope_requires_enough_points():
    table = sequences(catalog("zeta-p2"), 5)
    with pytest.raises(ValueError):
        slope_empirical(table, 2, (1, 2))


def test_resolve_sign_per_case():
    table2 = sequences(catalog("zeta-p2"), 8)
    assert resolve_sign(table2, zeta_p_oracle(2, 1, 30), (3, 7)) == -1
    tablec = sequences(catalog("catalan-p2"), 8)
    assert resolve_sign(tablec, catalan_2adic_oracle(30), (3, 7)) == 1


def test_criterion_passes_for_zeta_p2():
    config = catalog("zeta-p2")
    table = sequences(config, 12)
    eta = zeta_p_oracle(2, 1, 40)
    report = criterion_check(config, table, eta)
    assert report.verdict == "WITNESS_PASS"
    assert report.sign == -1
    assert report.certified_rows >= 2
    for cert in report.certificates:
        if cert.certified:
            assert cert.passed
            assert cert.valuation_gap < eta.agreement_exponent
            assert cert.implied_exponent > report.theta_required


def test_criterion_clamps_at_oracle_radius():
    """Rows deeper than the oracle see its error; they must not certify."""
    config = catalog("zeta-p2")
    table = sequences(config, 12)
    eta = zeta_p_oracle(2, 1, 20)
    report = criterion_check(config, table, eta, window=(3, 10))
    deep = [c for c in report.certificates if not c.certified]
    assert deep
    for cert in deep:
        assert cert.valuation_gap == eta.agreement_exponent


def test_criterion_exact_probe_is_uncertified():
    """Using a table row itself as the oracle value gives a zero difference,
    which can never be certified as a nonzero gap."""
    config = catalog("zeta-p2")
    table = sequences(config, 12)
    probe = PadicValue(-table.ratio(8), 25, 2)
    report = criterion_check(config, table, probe, window=(7, 8))
    assert report.sign == -1
    assert report.verdict == "UNCERTIFIED"
    for cert in report.certificates:
        assert not cert.certified
        assert cert.valuation_gap == 25


def test_criterion_without_oracle_reports_uncertified():
    config = catalog("zeta-p5")
    table = sequences(config, 12)
    report = criterion_check(config, table, None)
    assert report.sign is None
    assert report.verdict == "WITNESS_FAIL"
    assert all(not cert.certified for cert in report.certificates)
    assert all(cert.valuation_gap is None for cert in report.certificates)


def test_criterion_fail_verdict_for_heavier_weight():
    config = catalog("zeta-p2", 2)
    table = sequences(config, 12)
    eta = zeta_p_oracle(2, 2, 40)
    report = criterion_check(config, table, eta)
    assert report.verdict == "WITNESS_FAIL"
    assert report.theta_closed < report.theta_required


def test_criterion_rejects_mismatched_prime():
    config = catalog("zeta-p3")
    table = sequences(config, 8)
    with pytest.raises(ValueError):
        criterion_check(config, table, zeta_p_oracle(2, 1, 20))

