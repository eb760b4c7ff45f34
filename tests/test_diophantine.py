"""Closed-form exponents, the exact growth of the cross differences, and the
witness criterion."""

import functools
import math
from fractions import Fraction

import pytest

from padicapery import diophantine
from padicapery.curves import CaseConfig, catalog, run_canaries
from padicapery.diophantine import (
    THETA_REQUIRED,
    Certificate,
    criterion_check,
    theta_closed,
)
from padicapery.exactnum import vp
from padicapery.expansion import SequenceTable, reexpanded_columns, sequences
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
    """On 26-row tables the cross differences' two-point valuation slope over
    rows (5, 24) lies in each family's window around v."""
    for family, lo, hi in (("zeta-p2", 11, 13), ("zeta-p3", 5.4, 6.6), ("catalan-p2", 7, 9)):
        p = catalog(family).family.p
        table = sequences(catalog(family), 26)
        a, b = table.a, table.b
        cross = [a[n] * b[n + 1] - a[n + 1] * b[n] for n in range(25)]
        slope = (vp(cross[24], p) - vp(cross[5], p)) / 19
        assert lo <= slope <= hi, (family, slope)


def growth_v(config):
    """v = 2e, e read off the curve Q that run_canaries returns, whose top
    coefficient is +-p^(e deg Q), as theta_closed reads it."""
    curve = run_canaries(config)[1]
    return Fraction(2 * vp(curve[-1], config.family.p), len(curve) - 1)


@functools.cache
def _cross_differences(family, k):
    """W_n = a_n b_(n+1) - a_(n+1) b_n for n = 0..62, from 64 rows of
    re-expansion alone, so no row is the relation's own output."""
    table = reexpanded_columns(catalog(family, k), 64)
    a, b = table.a, table.b
    return [a[n] * b[n + 1] - a[n + 1] * b[n] for n in range(63)]


@pytest.mark.parametrize(
    "family,k", [("zeta-p2", 1), ("zeta-p2", 2), ("zeta-p3", 1), ("catalan-p2", 1)]
)
def test_cross_differences_follow_the_casoratian(family, k):
    """An order-2 relation gives P_0(n) W_n = P_2(n) W_(n-1) (Zagier, CRM
    Proc. 47, 2009), so W gains exactly vp(P_2(n) / P_0(n)) digits at row n,
    and the leading coefficients' ratio has valuation v."""
    config = catalog(family, k)
    p = config.family.p
    spec = config.family.recurrence[k]
    cross = _cross_differences(family, k)
    assert all(cross)
    for n in range(2, len(cross)):
        first, last = spec.poly_value(0, n), spec.poly_value(2, n)
        assert first * cross[n] == last * cross[n - 1], n
        assert vp(cross[n], p) - vp(cross[n - 1], p) == vp(last, p) - vp(first, p), n
    leads = [poly[spec.degree] for poly in spec.coeff_polys]
    assert vp(Fraction(leads[2], leads[0]), p) == growth_v(config)


@pytest.mark.parametrize("window", [(5, 24), (2, 62)], ids=["5-24", "2-62"])
def test_zeta_p5_cross_differences_grow_by_v(window):
    """zeta-p5's relation has order 4, where the 2 x 2 cross difference has no
    closed recursion: its two-point slope is within 0.25 of v = 3 (3.053 on
    (5, 24), 2.900 on (2, 62))."""
    lo, hi = window
    cross = _cross_differences("zeta-p5", 1)
    assert all(cross)
    slope = (vp(cross[hi], 5) - vp(cross[lo], 5)) / (hi - lo)
    assert abs(slope - growth_v(catalog("zeta-p5"))) < 0.25


def reference_resolve_sign(table, eta, window):
    """The sign s with vp(eta - s * p_n/q_n) growing along the window, read
    off the first two usable rows: the search the criterion used before the
    sign was taken from the construction."""
    probes = [
        n for n in range(window[0], min(window[1] + 1, len(table.b)))
        if table.b[n] != 0
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
    assert criterion_check(table, eta, window=(3, 13)).sign == expected


def test_criterion_passes_for_zeta_p2():
    config = catalog("zeta-p2")
    table = sequences(config, 12)
    eta = zeta_p_oracle(2, 1, 40)
    report = criterion_check(table, eta)
    assert report.verdict == "WITNESS_PASS"
    assert report.sign == -1
    assert report.certified_rows >= 2
    for cert in report.certificates:
        if cert.certified:
            assert cert.valuation_gap < eta.agreement_exponent
            assert cert.implied_exponent > THETA_REQUIRED


def test_criterion_clamps_at_oracle_radius():
    """Rows deeper than the oracle see its error; they must not certify."""
    config = catalog("zeta-p2")
    table = sequences(config, 12)
    eta = zeta_p_oracle(2, 1, 20)
    report = criterion_check(table, eta, window=(3, 10))
    deep = [c for c in report.certificates if not c.certified]
    assert deep
    for cert in deep:
        assert cert.valuation_gap == eta.agreement_exponent


def test_criterion_skips_a_degenerate_row():
    config = catalog("zeta-p2")
    table = sequences(config, 12)
    b = list(table.b)
    b[5] = 0
    eta = zeta_p_oracle(2, 1, 40)
    full = criterion_check(table, eta, window=(3, 10))
    report = criterion_check(table._replace(b=tuple(b)), eta, window=(3, 10))
    assert [cert.n for cert in report.certificates] == [3, 4, 6, 7, 8, 9, 10]
    assert report.certificates == tuple(c for c in full.certificates if c.n != 5)


def test_criterion_exact_probe_is_uncertified():
    """Using a table row itself as the oracle value gives a zero difference,
    which can never be certified as a nonzero gap."""
    config = catalog("zeta-p2")
    table = sequences(config, 12)
    probe = PadicValue(-table.ratio(8), 25, 2)
    report = criterion_check(table, probe, window=(7, 8))
    assert report.sign == -1
    assert report.verdict == "UNCERTIFIED"
    for cert in report.certificates:
        assert not cert.certified
        assert cert.valuation_gap == 25


def test_a_row_of_height_one_never_passes():
    """A row p/q = 0/1, as zeta-p5 row 0 is, has height 1 and log size 0.0:
    at gap 0, 0 * log 2 >= 1.01 * 0 holds, yet the row bounds nothing, so a
    window of that certified row alone fails in a case whose closed-form
    exponent reaches THETA_REQUIRED.  Its implied exponent is 0.0 at gap 0
    and inf at any gap above, and the row fails at gap 1 too."""
    assert sequences(catalog("zeta-p5"), 4).ratio(0) == 0
    config = catalog("zeta-p2")
    assert theta_closed(config) >= THETA_REQUIRED
    table = SequenceTable(config, (Fraction(0),), (1,))
    report = criterion_check(table, PadicValue(Fraction(1), 40, 2), window=(0, 0))
    (row,) = report.certificates
    assert (row.p_n, row.q_n, row.valuation_gap, row.log_max_size) == (0, 1, 0, 0.0)
    assert row.certified
    assert row.implied_exponent == 0.0
    assert report.verdict == "WITNESS_FAIL"
    report = criterion_check(table, PadicValue(Fraction(2), 40, 2), window=(0, 0))
    (row,) = report.certificates
    assert (row.valuation_gap, row.certified, row.implied_exponent) == (1, True, math.inf)
    assert report.verdict == "WITNESS_FAIL"


def test_zeta_p5_rows_certify_at_the_prototype_gaps():
    """The zeta-p5 rows converge to the series oracle with sign -1; the gaps
    at n = 5, 10, 20, 40, 59 are those an independent Fraction prototype of
    the p = 5 series gave.  Every row is certified and the verdict is an
    honest failure, since the closed-form exponent 0.89 is below 1."""
    config = catalog("zeta-p5")
    table = sequences(config, 60)
    eta = zeta_p_oracle(5, 1, 600)
    report = criterion_check(table, eta, window=(3, 59))
    assert report.sign == -1
    assert report.verdict == "WITNESS_FAIL"
    assert report.certified_rows == len(report.certificates) == 57
    gaps = {cert.n: cert.valuation_gap for cert in report.certificates}
    assert [gaps[n] for n in (5, 10, 20, 40, 59)] == [10, 24, 52, 110, 167]


@pytest.mark.parametrize("offset, passes", [(-1e-7, False), (1e-7, True)], ids=["below", "above"])
def test_a_row_passes_exactly_at_the_required_exponent(offset, passes):
    """A certified row passes iff gap * log p >= THETA_REQUIRED * log H, with
    no allowance: one at implied exponent 1.01 - 1e-7 fails, one at
    1.01 + 1e-7 passes.  The row is 1/H against eta = 1/H + 2^gap."""
    gap = 100
    target = THETA_REQUIRED + offset
    height = round(2 ** (gap / target))
    config = catalog("zeta-p2")
    sign = -config.family.sign_b
    table = SequenceTable(config, (Fraction(sign, 2),), (height,))
    eta = PadicValue(Fraction(1, height) + 2**gap, gap + 1, 2)
    report = criterion_check(table, eta, window=(0, 0))
    (cert,) = report.certificates
    assert cert.certified and cert.valuation_gap == gap
    assert math.isclose(cert.implied_exponent, target, rel_tol=1e-9)
    assert report.verdict == ("WITNESS_PASS" if passes else "WITNESS_FAIL")


@pytest.mark.parametrize(
    "offset, verdict", [(-1e-12, "WITNESS_FAIL"), (0.0, "WITNESS_PASS")], ids=["below", "at"]
)
def test_a_case_fails_only_below_the_required_exponent(offset, verdict, monkeypatch):
    """A closed-form exponent of exactly THETA_REQUIRED does not fail the
    case; the zeta-p2 rows then decide, and they pass."""
    monkeypatch.setattr(diophantine, "theta_closed", lambda config: THETA_REQUIRED + offset)
    table = sequences(catalog("zeta-p2"), 12)
    assert criterion_check(table, zeta_p_oracle(2, 1, 40)).verdict == verdict


def test_criterion_fail_verdict_for_heavier_weight():
    config = catalog("zeta-p2", 2)
    table = sequences(config, 12)
    eta = zeta_p_oracle(2, 2, 40)
    report = criterion_check(table, eta)
    assert report.verdict == "WITNESS_FAIL"
    assert report.theta_closed < THETA_REQUIRED


def test_criterion_rejects_mismatched_prime():
    config = catalog("zeta-p3")
    table = sequences(config, 8)
    with pytest.raises(ValueError):
        criterion_check(table, zeta_p_oracle(2, 1, 20))


def test_criterion_rejects_an_oracle_of_another_limit():
    """An oracle value is compared only with its own limit's table: at p = 2
    neither the Catalan constant nor zeta_2(3) certifies another case."""
    zeta2 = sequences(catalog("zeta-p2"), 12)
    with pytest.raises(ValueError, match=r"\('catalan', 1\) given for zeta-p2:k=1"):
        criterion_check(zeta2, catalan_2adic_oracle(40))
    heavier = sequences(catalog("zeta-p2", 2), 12)
    with pytest.raises(ValueError, match=r"\('zeta-p2', 1\) given for zeta-p2:k=2"):
        criterion_check(heavier, zeta_p_oracle(2, 1, 40))


def test_criterion_rejects_a_window_outside_the_table():
    """A window that ends past the last row is an error, not a shorter
    window, and a negative LO does not index rows from the end."""
    config = catalog("zeta-p2")
    table = sequences(config, 8)
    eta = zeta_p_oracle(2, 1, 40)
    report = criterion_check(table, eta, window=(3, 7))
    assert [cert.n for cert in report.certificates] == [3, 4, 5, 6, 7]
    for window in ((3, 8), (3, 20), (-2, 4), (5, 3)):
        with pytest.raises(ValueError, match="not inside the table"):
            criterion_check(table, eta, window=window)


def test_rows_and_certificates_hold_no_derived_fields():
    """A case is (family, k), a table is (config, a, b) with integers in b,
    and a certificate leaves the case and the sign to its report."""
    assert CaseConfig._fields == ("family", "k")
    assert SequenceTable._fields == ("config", "a", "b")
    for family, k in (("zeta-p2", 1), ("zeta-p2", 3), ("zeta-p3", 1), ("catalan-p2", 1)):
        table = sequences(catalog(family, k), 40)
        assert all(type(b) is int for b in table.b)
    assert not {"case_id", "sign"} & set(Certificate._fields)


def test_records_are_immutable_named_records():
    """The pipeline's records reject field assignment and print as
    Name(field=value, ...)."""
    config = catalog("zeta-p2")
    table = sequences(config, 8)
    eta = PadicValue(Fraction(0), 5, 2)
    report = criterion_check(table, eta, window=(3, 7))
    records = (
        (config.family, "p"),
        (config, "k"),
        (table, "a"),
        (table, "b"),
        (report.certificates[0], "valuation_gap"),
        (report, "verdict"),
        (eta, "agreement_exponent"),
    )
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert len(table.b) == 8
    assert repr(PadicValue(Fraction(1, 2), 3, 2)) == (
        "PadicValue(representative=Fraction(1, 2), agreement_exponent=3, p=2, limit=None)"
    )
