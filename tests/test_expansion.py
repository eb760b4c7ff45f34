"""Reexpansion in the uniformizer and the published sequence tables."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicapery import expansion
from padicapery.cli import main
from padicapery.curves import FAMILY_TABLE, catalog, uniformizer_series
from padicapery.eisenstein import (
    series_e_prime,
    series_e_star,
    series_f,
    series_f_prime,
)
from padicapery.expansion import (
    reexpand,
    reexpanded_columns,
    sequences,
)
from padicapery.qseries import QSeries
from padicapery.recurrence import RecurrenceSpec

ZETA_P2_B = [1, 24, -552, 19392, -810024, 37210944, -1815620160]
ZETA_P2_A = [
    Fraction(0),
    Fraction(1),
    Fraction(1),
    Fraction(-8072, 27),
    Fraction(160841, 9),
    Fraction(-1088512616, 1125),
]
CATALAN_A = [
    Fraction(0),
    Fraction(1),
    Fraction(-3),
    Fraction(116, 9),
    Fraction(-331, 9),
    Fraction(-99116, 225),
    Fraction(3133076, 225),
]
CATALAN_B = [-1, -4, 28, -272, 3036, -36624, 464368]


def test_reexpand_identity_map():
    h = QSeries([Fraction(3), Fraction(5), Fraction(7), Fraction(11)])
    f = QSeries([0, 1], 4)
    assert reexpand(h, f, 4) == [(3,), (5,), (7,), (11,)]


def test_reexpand_count_stays_within_the_precision():
    h = QSeries.one(4)
    f = QSeries([0, 1], 5)
    for count in (0, 5):
        with pytest.raises(ValueError, match="count must be within the available precision"):
            reexpand(h, f, count)


def test_sequences_refuses_a_count_below_one():
    with pytest.raises(ValueError, match="count must be >= 1"):
        sequences(catalog("zeta-p2"), 0)


def test_reexpand_requires_normalized_uniformizer():
    h = QSeries.one(4)
    with pytest.raises(ValueError):
        reexpand(h, QSeries([0, 2, 0, 0]), 3)
    with pytest.raises(ValueError):
        reexpand(h, QSeries([1, 1, 0, 0]), 3)


def test_reexpand_requires_integral_uniformizer():
    h = QSeries.one(4)
    with pytest.raises(ValueError, match="integer"):
        reexpand(h, QSeries([0, 1, Fraction(1, 2), 0]), 3)
    with pytest.raises(ValueError, match="integer"):
        reexpand(h, QSeries([0, 1, 0, Fraction(-3, 7)]), 4)


def test_reexpand_inverts_composition():
    """Composing the result with f must reproduce h."""
    f = QSeries([0, 1, -3, 2, 5, -1, 0, 4])
    h = QSeries([2, 0, 1, 1, -4, 7, 3, -2])
    rebuilt = QSeries([], 8)
    fpow = QSeries.one(8)
    for (c,) in reexpand(h, f, 8):
        rebuilt = rebuilt + c * fpow
        fpow = fpow * f
    assert rebuilt == h


@given(st.sampled_from([Fraction(0), Fraction(1), Fraction(-3, 7)]))
def test_reexpand_is_linear_in_eta(eta):
    """Re-expanding w*(w' + eta) splits as A + eta * B coefficientwise."""
    config = catalog("zeta-p2")
    prec = 20
    f = uniformizer_series(config, prec)
    w = series_e_star(2, 2, prec)
    w = w[0].denominator * w
    wp = series_e_prime(2, 2, prec)
    rows = reexpand(w * wp + eta * w, f, 6, w * wp, w)
    assert all(combined == a + eta * b for combined, a, b in rows)


ALL_CASES = (
    ("zeta-p2", 1),
    ("zeta-p2", 2),
    ("zeta-p3", 1),
    ("zeta-p5", 1),
    ("catalan-p2", 1),
)


def _prefix(family, k):
    spec = FAMILY_TABLE[family].recurrence[k]
    return (spec.order + 1) * (spec.degree + 1) + spec.order + 1


def test_every_case_has_a_recurrence():
    """All five cases have one; zeta-p2 at k = 3 and above has none."""
    cases = {(name, k) for name, family in FAMILY_TABLE.items() for k in family.recurrence}
    assert cases == set(ALL_CASES)
    assert [_prefix(*case) for case in ALL_CASES] == [18, 36, 18, 35, 12]


@pytest.mark.parametrize("family,k", ALL_CASES)
def test_recurrence_rows_equal_reexpansion(family, k):
    """Around the prefix, and well past it, the rows the relation gives are
    the rows re-expansion gives."""
    config = catalog(family, k)
    reference = reexpanded_columns(config, 64)
    prefix = _prefix(family, k)
    for count in (prefix - 1, prefix, prefix + 1, 64):
        table = sequences(config, count)
        assert table.b == reference.b[:count]
        assert table.a == reference.a[:count]


@pytest.mark.parametrize("family,k", ALL_CASES + (("zeta-p2", 3),))
def test_sequences_reexpands_only_the_prefix(family, k, monkeypatch):
    counts = []

    def counting(h, f, count, *more):
        counts.append(count)
        return reexpand(h, f, count, *more)

    monkeypatch.setattr(expansion, "reexpand", counting)
    sequences(catalog(family, k), 40)
    assert counts == [40 if k == 3 else _prefix(family, k)]


@pytest.mark.parametrize("family,k", ALL_CASES)
def test_tables_recompose_to_weight_series(family, k):
    """sum_m c_m f^m, computed in plain series arithmetic, reproduces both
    H = lam*w (b-list) and H = lam*w*w' (a-list) to precision 64."""
    prec = 64
    config = catalog(family, k)
    if family == "catalan-p2":
        w, wp = series_f(1, prec), series_f_prime(prec)
    else:
        w = series_e_star(config.family.p, config.weight, prec)
        wp = series_e_prime(config.family.p, config.weight, prec)
    f = uniformizer_series(config, prec)
    table = sequences(config, prec)
    rebuilt_b = rebuilt_a = QSeries([], prec)
    fpow = QSeries.one(prec)
    for a, b in zip(table.a, table.b):
        rebuilt_b = rebuilt_b + config.family.sign_b * b * fpow
        rebuilt_a = rebuilt_a + a * fpow
        fpow = fpow * f
    scaled = w[0].denominator * w
    assert rebuilt_b == scaled
    assert rebuilt_a == scaled * wp


def test_zeta_p2_published_table():
    table = sequences(catalog("zeta-p2"), 7)
    assert list(table.b) == ZETA_P2_B
    assert list(table.a)[:6] == ZETA_P2_A


def test_zeta_p2_index_six_replacement():
    """The published a-table repeats entry five; the recomputed value differs
    from it and still satisfies every cross-check used elsewhere."""
    table = sequences(catalog("zeta-p2"), 7)
    assert table.a[6] == Fraction(175310024408, 3375)
    assert table.a[6] != ZETA_P2_A[5]


def test_catalan_published_table():
    table = sequences(catalog("catalan-p2"), 7)
    assert list(table.a) == CATALAN_A
    assert list(table.b) == CATALAN_B


def test_catalan_published_approximant():
    table = sequences(catalog("catalan-p2"), 7)
    assert table.ratio(6) == Fraction(783269, 13060350)


def test_ratio_uses_doubled_numerator():
    table = sequences(catalog("zeta-p2"), 3)
    assert table.ratio(1) == 2 * Fraction(1) / 24
    assert table.ratio(2) == 2 * Fraction(1) / -552


def test_tables_stable_under_extra_terms():
    """Computing more rows must not change earlier rows."""
    for family in ("zeta-p2", "catalan-p2"):
        long = sequences(catalog(family), 12)
        for count in (1, 6):
            short = sequences(catalog(family), count)
            assert short == long._replace(a=long.a[:count], b=long.b[:count])


def test_integrality_all_cases():
    for family, k in ALL_CASES:
        config = catalog(family, k)
        table = sequences(config, 14)
        for n, (a, b) in enumerate(zip(table.a, table.b)):
            assert b.denominator == 1
            scale = math.lcm(*range(1, n + 1)) ** config.D
            assert (scale * a).denominator == 1


def test_non_integral_row_fails_a_table_without_a_relation(capsys, monkeypatch):
    """zeta-p3 at k = 2 has no relation, so its whole table is re-expansion;
    a weight-4 series off by q^3 / 7 makes row 3 non-integral."""
    family = FAMILY_TABLE["zeta-p3"]

    def off_at_q3(p, weight, prec):
        series = family.series(p, weight, prec)
        if weight != 4 or prec <= 3:
            return series
        return QSeries([c + Fraction(1, 7) * (n == 3) for n, c in enumerate(series.coeffs)])

    monkeypatch.setitem(FAMILY_TABLE, "zeta-p3", family._replace(series=off_at_q3))
    code = main(["sequences", "--case", "zeta-p3", "-k", "2", "-n", "8"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "identity check failed: a re-expanded row of zeta-p3:k=2 is not integral\n"
    # Rows 0..2 do not see the q^3 term.
    assert main(["sequences", "--case", "zeta-p3", "-k", "2", "-n", "3"]) == 0


def test_relation_that_cannot_run_on_fails_the_table(capsys, monkeypatch):
    """zeta-p2's relation times (n - 40) still holds on every row, so it
    passes the 21-row prefix check, but it cannot solve for row 41."""
    family = FAMILY_TABLE["zeta-p2"]
    spec = family.recurrence[1]
    scaled = RecurrenceSpec(
        tuple(
            tuple(lower - 40 * coeff for lower, coeff in zip((0,) + poly, poly + (0,)))
            for poly in spec.coeff_polys
        )
    )
    recurrences = {**family.recurrence, 1: scaled}
    monkeypatch.setitem(FAMILY_TABLE, "zeta-p2", family._replace(recurrence=recurrences))
    assert _prefix("zeta-p2", 1) == 21
    assert main(["sequences", "--case", "zeta-p2", "-n", "41"]) == 0
    capsys.readouterr()
    code = main(["sequences", "--case", "zeta-p2", "-n", "42"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == (
        "identity check failed: recurrence fails for zeta-p2:k=1: "
        "leading polynomial vanishes at n = 40\n"
    )


def test_ratio_of_a_degenerate_row_raises():
    table = sequences(catalog("zeta-p2"), 3)
    degenerate = table._replace(a=table.a[:2], b=(table.b[0], 0))
    assert degenerate.b[1] == 0
    assert degenerate.ratio(0) == 0
    with pytest.raises(ZeroDivisionError):
        degenerate.ratio(1)
