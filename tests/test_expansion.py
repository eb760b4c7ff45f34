"""Reexpansion in the uniformizer and the published sequence tables."""

import hashlib
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
    w = config.lam * series_e_star(2, 2, prec)
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

# sha256 of `sequences --case FAMILY -k K -n 96 --format csv` stdout, recorded
# with the Fraction-based re-expansion at working precision 2n + 8.
SEQUENCES_N96_SHA256 = {
    ("zeta-p2", 1): "d296926ace1d919361b24850aa8b273b7a1eec64153823b3964b3dfd974f07db",
    ("zeta-p2", 2): "5234e757eb5807500ab2dfa5b0e3f84c55d1e45370a6fbf0066cb150c4c89ed8",
    ("zeta-p3", 1): "7ab1046fe015d8abb34d812e675adee41b748e57a2cd7da88113adb1a1171766",
    ("zeta-p5", 1): "2cfe50b900538941522401f79f3045966b59a154baa25ada00bf5f8070093085",
    ("catalan-p2", 1): "bae6977210ae4bc5fc5c92040465b2a449ffcd4a99b10d249d66011ee38c8a60",
}


@pytest.mark.parametrize("family,k", ALL_CASES)
def test_sequences_bytes_match_reference(family, k, capsys):
    argv = ["sequences", "--case", family, "-k", str(k), "-n", "96", "--format", "csv"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SEQUENCES_N96_SHA256[family, k]


# sha256 of `sequences --case FAMILY -k K -n 128 --format csv` stdout, recorded
# before the QSeries product moved to integers over a common denominator.
SEQUENCES_N128_SHA256 = {
    ("zeta-p2", 1): "027377a3b83b691ae1ea54b7b47d3e811514b121f08630702bd7376db04121fa",
    ("zeta-p2", 2): "298162d0e7a0c78a79ab63718b377ffa7bdd5db99e845967ac0d1f626c19e3ce",
    ("zeta-p3", 1): "1ea730a0444d6ae7009e7a5900af950a17a65de2991211f7534d3687d5aaa9b7",
    ("zeta-p5", 1): "64c4282ae950b166220035a951013b3db0bf066032fde2f9cb73af7ab24c106b",
    ("catalan-p2", 1): "5ae5761ea3248e22e1e53d05147d8196b018ba798846a92c93923e9a7641dcbe",
}


@pytest.mark.parametrize("family,k", ALL_CASES)
def test_sequences_n128_bytes_match_reference(family, k, capsys):
    argv = ["sequences", "--case", family, "-k", str(k), "-n", "128", "--format", "csv"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SEQUENCES_N128_SHA256[family, k]


# sha256 of `sequences --case FAMILY -k K -n 256 --format csv` stdout, recorded
# when every row still came from re-expansion.
SEQUENCES_N256_SHA256 = {
    ("zeta-p2", 1): "0e66b8347dac993f58baf8b6f5ac3d8c92f49c830b03ab4103a00abb22a218cd",
    ("zeta-p2", 2): "34da67fab70cdfd372fb523720e8d54a0fd4639ba51c883baf56c0020ec978a5",
    ("zeta-p3", 1): "0bf71f1f23c9e7c222a0c4309d318b6564d70b8fb713362b6b69929b44ade67c",
    ("zeta-p5", 1): "770bcd80ba03b4e09eba1dda886ab2afb95515eb07ebd8209350e39286a884f1",
    ("catalan-p2", 1): "666fa0cc979e902cb64f48496db98b70e3223bcea3323087590c2f15331b1e00",
}


@pytest.mark.parametrize("family,k", ALL_CASES)
def test_sequences_n256_bytes_match_reference(family, k, capsys):
    argv = ["sequences", "--case", family, "-k", str(k), "-n", "256", "--format", "csv"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SEQUENCES_N256_SHA256[family, k]


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
    b_ref, a_ref = reexpanded_columns(config, 64)
    prefix = _prefix(family, k)
    for count in (prefix - 1, prefix, prefix + 1, 64):
        table = sequences(config, count)
        assert table.b_list() == b_ref[:count]
        assert table.a_list() == a_ref[:count]


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
    for row in table.rows:
        rebuilt_b = rebuilt_b + config.family.sign_b * row.b * fpow
        rebuilt_a = rebuilt_a + row.a * fpow
        fpow = fpow * f
    assert rebuilt_b == config.lam * w
    assert rebuilt_a == config.lam * w * wp


def test_zeta_p2_published_table():
    table = sequences(catalog("zeta-p2"), 7)
    assert table.b_list() == ZETA_P2_B
    assert table.a_list()[:6] == ZETA_P2_A


def test_zeta_p2_index_six_replacement():
    """The published a-table repeats entry five; the recomputed value differs
    from it and still satisfies every cross-check used elsewhere."""
    table = sequences(catalog("zeta-p2"), 7)
    assert table.a_list()[6] == Fraction(175310024408, 3375)
    assert table.a_list()[6] != ZETA_P2_A[5]


def test_catalan_published_table():
    table = sequences(catalog("catalan-p2"), 7)
    assert table.a_list() == CATALAN_A
    assert table.b_list() == CATALAN_B


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
            assert sequences(catalog(family), count).rows == long.rows[:count]


def test_integrality_all_cases():
    for family, k in ALL_CASES:
        config = catalog(family, k)
        table = sequences(config, 14)
        for row in table.rows:
            assert row.b.denominator == 1
            scale = math.lcm(*range(1, row.n + 1)) ** config.D
            assert (scale * row.a).denominator == 1


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



def test_ratio_of_a_degenerate_row_raises():
    table = sequences(catalog("zeta-p2"), 3)
    rows = (table.rows[0], table.rows[1]._replace(b=Fraction(0), p_n=None, q_n=None))
    degenerate = table._replace(rows=rows)
    assert degenerate.rows[1].degenerate
    assert degenerate.ratio(0) == 0
    with pytest.raises(ZeroDivisionError):
        degenerate.ratio(1)
