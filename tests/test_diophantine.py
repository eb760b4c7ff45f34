"""Closed-form exponents, empirical slopes, and the witness criterion."""

import math
from fractions import Fraction

import pytest

from padicapery.curves import catalog
from padicapery.diophantine import THETA_REQUIRED, criterion_check, slope_empirical, theta_closed
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

# theta_closed as certify prints it, format(theta, ".10f"), for every
# k = 1, 2, ... inside the -k cap.
THETA_PINS = {
    "zeta-p2": (
        "1.1618804316", "0.9081638111", "0.7453941496", "0.6321027487",
        "0.5487057405", "0.4847498597", "0.4341467157", "0.3931098884",
        "0.3591609378", "0.3306095163", "0.3062631899", "0.2852566795",
        "0.2669468653", "0.2508457883", "0.2365765189", "0.2238432772",
    ),
    "zeta-p3": (
        "1.0469892839", "0.7945761035", "0.6402270955", "0.5360898818",
        "0.4610904415", "0.4045004737", "0.3602827124", "0.3247795977",
        "0.2956459438", "0.2713087748", "0.2506736624", "0.2329556027",
        "0.2175768823", "0.2041028929", "0.1922004049", "0.1816096363",
    ),
    "zeta-p5": (
        "0.8917942081", "0.6512289695", "0.5128779778", "0.4230109848",
        "0.3599416486", "0.3132389127", "0.2772637098", "0.2487006657",
        "0.2254729788", "0.2062134359", "0.1899852024", "0.1761248307",
        "0.1641493162", "0.1536986575", "0.1444990444", "0.1363385201",
    ),
    "catalan-p2": ("1.1618804316",),
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


@pytest.mark.parametrize(
    "family,k,theta",
    [(family, k, theta) for family, thetas in THETA_PINS.items() for k, theta in enumerate(thetas, 1)],
)
def test_theta_closed_bytes(family, k, theta):
    assert format(theta_closed(catalog(family, k)), ".10f") == theta


def test_slope_windows():
    table2 = sequences(catalog("zeta-p2"), 26)
    assert 11 <= slope_empirical(table2, 2, (5, 24)) <= 13
    table3 = sequences(catalog("zeta-p3"), 26)
    assert 5.4 <= slope_empirical(table3, 3, (5, 24)) <= 6.6
    tablec = sequences(catalog("catalan-p2"), 26)
    assert 7 <= slope_empirical(tablec, 2, (5, 24)) <= 9


@pytest.mark.parametrize("family", ["zeta-p2", "zeta-p3", "zeta-p5", "catalan-p2"])
def test_slope_matches_valuation_exponent(family):
    """The cross-differences gain v p-adic digits per row, not v/2: at n = 26
    the default window reads 11.919, 6.034, 3.086 and 7.946."""
    config = catalog(family)
    table = sequences(config, 26)
    slope = slope_empirical(table, config.family.p)
    assert abs(slope - config.family.v) < 0.25


def test_slope_requires_enough_points():
    table = sequences(catalog("zeta-p2"), 5)
    with pytest.raises(ValueError):
        slope_empirical(table, 2, (1, 2))


def reference_resolve_sign(table, eta, window):
    """The sign s with vp(eta - s * p_n/q_n) growing along the window, read
    off the first two usable rows: the search the criterion used before the
    sign was taken from the construction."""
    probes = [
        n for n in range(window[0], min(window[1] + 1, table.count))
        if not table.rows[n].degenerate
    ][:2]
    assert len(probes) == 2
    scores = {}
    for sign in (1, -1):
        gaps = [vp(eta.representative - sign * table.ratio(n), eta.p) for n in probes]
        scores[sign] = tuple(min(g, eta.agreement_exponent) for g in reversed(gaps))
    assert scores[1] != scores[-1]
    return max(scores, key=scores.get)


@pytest.mark.parametrize(
    "family,k",
    [("zeta-p2", k) for k in (1, 2, 8, 16)]
    + [("zeta-p3", k) for k in (1, 2, 8, 16)]
    + [("catalan-p2", 1)],
)
def test_construction_sign_matches_search(family, k):
    """The rows approximate the limit by -sign_b * p_n/q_n: the old search
    agrees, and the criterion reports that sign."""
    config = catalog(family, k)
    table = sequences(config, 14)
    if family == "catalan-p2":
        eta = catalan_2adic_oracle(60)
    else:
        eta = zeta_p_oracle(config.family.p, k, 60)
    expected = -config.family.sign_b
    assert reference_resolve_sign(table, eta, (3, 13)) == expected
    assert criterion_check(config, table, eta, window=(3, 13)).sign == expected


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
            assert cert.implied_exponent > THETA_REQUIRED


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


def test_criterion_skips_a_degenerate_row():
    config = catalog("zeta-p2")
    table = sequences(config, 12)
    rows = list(table.rows)
    rows[5] = rows[5]._replace(b=Fraction(0), p_n=None, q_n=None)
    eta = zeta_p_oracle(2, 1, 40)
    full = criterion_check(config, table, eta, window=(3, 10))
    report = criterion_check(config, table._replace(rows=tuple(rows)), eta, window=(3, 10))
    assert [cert.n for cert in report.certificates] == [3, 4, 6, 7, 8, 9, 10]
    assert report.certificates == tuple(c for c in full.certificates if c.n != 5)


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


def test_zeta_p5_rows_certify_at_the_prototype_gaps():
    """The zeta-p5 rows converge to the series oracle with sign -1; the gaps
    at n = 5, 10, 20, 40, 59 are those an independent Fraction prototype of
    the p = 5 series gave.  Every row is certified and the verdict is an
    honest failure, since the closed-form exponent 0.89 is below 1."""
    config = catalog("zeta-p5")
    table = sequences(config, 60)
    eta = zeta_p_oracle(5, 1, 600)
    report = criterion_check(config, table, eta, window=(3, 59))
    assert report.sign == -1
    assert report.verdict == "WITNESS_FAIL"
    assert report.certified_rows == len(report.certificates) == 57
    gaps = {cert.n: cert.valuation_gap for cert in report.certificates}
    assert [gaps[n] for n in (5, 10, 20, 40, 59)] == [10, 24, 52, 110, 167]


def test_criterion_fail_verdict_for_heavier_weight():
    config = catalog("zeta-p2", 2)
    table = sequences(config, 12)
    eta = zeta_p_oracle(2, 2, 40)
    report = criterion_check(config, table, eta)
    assert report.verdict == "WITNESS_FAIL"
    assert report.theta_closed < THETA_REQUIRED


def test_criterion_rejects_mismatched_prime():
    config = catalog("zeta-p3")
    table = sequences(config, 8)
    with pytest.raises(ValueError):
        criterion_check(config, table, zeta_p_oracle(2, 1, 20))


def test_records_are_immutable_named_records():
    """The pipeline's records reject field assignment and print as
    Name(field=value, ...)."""
    config = catalog("zeta-p2")
    table = sequences(config, 8)
    eta = PadicValue(Fraction(0), 5, 2)
    report = criterion_check(config, table, eta, window=(3, 7))
    records = (
        (config.family, "p"),
        (config, "k"),
        (table.rows[0], "b"),
        (table, "count"),
        (report.certificates[0], "valuation_gap"),
        (report, "verdict"),
        (eta, "agreement_exponent"),
    )
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert table.count == 8
    assert repr(PadicValue(Fraction(1, 2), 3, 2)) == (
        "PadicValue(representative=Fraction(1, 2), agreement_exponent=3, p=2)"
    )
