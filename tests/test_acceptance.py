"""Acceptance gate: one test per top-level criterion, desk scale throughout.

Scale: 26 sequence terms, q-precision 64 for the identity checks, oracle
targets of at most 40 digits.  Each test prints a single PASS line once
its assertions hold, so a verbose run reads as a checklist.
"""

import json
import math
from fractions import Fraction

import pytest

from padicapery.cli import main
from padicapery.curves import FAMILIES, catalog, run_canaries
from padicapery.diophantine import theta_closed
from padicapery.eisenstein import chi4, series_e_prime, series_evil, series_f
from padicapery.exactnum import vp
from padicapery.expansion import sequences
from padicapery.oracle import catalan_2adic_oracle, zeta_p_oracle
from padicapery.qseries import QSeries, expand_product
from padicapery.recurrence import CATALAN_P2, fit_recurrence, verify_recurrence

ALL_CASES = (
    ("zeta-p2", 1),
    ("zeta-p2", 2),
    ("zeta-p3", 1),
    ("zeta-p5", 1),
    ("catalan-p2", 1),
)


@pytest.fixture(scope="module")
def tables():
    return {
        (family, k): sequences(catalog(family, k), 26) for family, k in ALL_CASES
    }


@pytest.fixture(scope="module")
def oracles():
    return {
        "zeta-p2": zeta_p_oracle(2, 1, 40),
        "zeta-p3": zeta_p_oracle(3, 1, 40),
        "catalan-p2": catalan_2adic_oracle(40),
    }


def test_acceptance_1_zeta2_sequence_reproduction(tables):
    table = tables[("zeta-p2", 1)]
    assert list(table.b[:7]) == [
        1, 24, -552, 19392, -810024, 37210944, -1815620160,
    ]
    assert list(table.a[:6]) == [
        Fraction(0),
        Fraction(1),
        Fraction(1),
        Fraction(-8072, 27),
        Fraction(160841, 9),
        Fraction(-1088512616, 1125),
    ]
    print("ACCEPTANCE 1: PASS (zeta-p2 published a, b reproduced exactly)")


def test_acceptance_2_catalan_sequence_reproduction(tables):
    table = tables[("catalan-p2", 1)]
    assert list(table.a[:7]) == [
        Fraction(0),
        Fraction(1),
        Fraction(-3),
        Fraction(116, 9),
        Fraction(-331, 9),
        Fraction(-99116, 225),
        Fraction(3133076, 225),
    ]
    assert list(table.b[:7]) == [-1, -4, 28, -272, 3036, -36624, 464368]
    assert table.ratio(6) == Fraction(783269, 13060350)
    print("ACCEPTANCE 2: PASS (catalan published a, b and 2a6/b6 reproduced)")


def test_acceptance_3_theta_constants():
    published = {
        "zeta-p2:k=1": 1.1618804316,
        "zeta-p2:k=2": 0.9081638111,
        "zeta-p3:k=1": 1.0469892839,
        "zeta-p5:k=1": 0.8917942081,
        "catalan-p2": 1.1618804316,
    }
    for family, k in ALL_CASES:
        config = catalog(family, k)
        assert math.isclose(
            theta_closed(config), published[config.case_id], abs_tol=5e-11
        ), config.case_id
    print("ACCEPTANCE 3: PASS (five theta constants within 5e-11)")


def test_acceptance_4_recurrence(tables):
    table = tables[("catalan-p2", 1)]
    spec = CATALAN_P2
    assert verify_recurrence(spec, list(table.b), 2) == []
    assert verify_recurrence(spec, list(table.a), 2) == []
    assert fit_recurrence(list(table.b), 2, 2) == spec
    print("ACCEPTANCE 4: PASS (order-2 recurrence verified on [2,24], refit)")


def test_acceptance_5_cauchy_slopes(tables):
    """The cross differences W_n = a_n b_(n+1) - a_(n+1) b_n obey the
    Casoratian P_0(n) W_n = P_2(n) W_(n-1) on rows 2..24, and their two-point
    valuation slope on (5, 24) lies in each window."""
    slopes = []
    for family in ("zeta-p2", "zeta-p3", "catalan-p2"):
        curve = catalog(family).family
        p, spec = curve.p, curve.recurrence[1]
        a, b = tables[(family, 1)].a, tables[(family, 1)].b
        cross = [a[n] * b[n + 1] - a[n + 1] * b[n] for n in range(25)]
        for n in range(2, 25):
            assert spec.poly_value(0, n) * cross[n] == spec.poly_value(2, n) * cross[n - 1]
        slopes.append((vp(cross[24], p) - vp(cross[5], p)) / 19)
    slope2, slope3, slopec = slopes
    assert 11 <= slope2 <= 13, slope2
    assert 5.4 <= slope3 <= 6.6, slope3
    assert 7 <= slopec <= 9, slopec
    print(
        "ACCEPTANCE 5: PASS (Casoratian on rows 2..24; Cauchy slopes "
        f"{slope2:.3f}, {slope3:.3f}, {slopec:.3f} in windows)"
    )


def test_acceptance_6_oracle_agreement(tables, oracles):
    catalan = oracles["catalan-p2"]
    assert catalan.agreement_exponent >= 35
    assert vp(catalan.representative - Fraction(783269, 13060350), 2) >= 34
    assert [e for e, _ in catalan.digits(10)] == [-1, 0, 2, 3, 5, 6, 7, 9, 13, 18]
    for family, sign, deep_row in (("zeta-p2", -1, 9), ("zeta-p3", -1, 12)):
        value = oracles[family]
        assert value.agreement_exponent >= 12
        deep = sign * tables[(family, 1)].ratio(deep_row)
        assert vp(value.representative - deep, value.p) >= value.agreement_exponent
    print("ACCEPTANCE 6: PASS (oracle certifies 35+ bits and tracks the limits)")


def test_acceptance_7_witness_verdicts(capsys):
    expected = {
        ("zeta-p2", 1): "WITNESS_PASS",
        ("zeta-p3", 1): "WITNESS_PASS",
        ("catalan-p2", 1): "WITNESS_PASS",
        ("zeta-p2", 2): "WITNESS_FAIL",
        ("zeta-p5", 1): "WITNESS_FAIL",
    }
    verdicts = {}
    for family, k in ALL_CASES:
        code = main(["certify", "--case", family, "-k", str(k)])
        out = capsys.readouterr().out
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        summary = rows[-1]
        verdicts[(family, k)] = summary["verdict"]
        # The verdict follows from the printed figures alone: a certified row
        # passes iff gap * log p >= theta_required * log max(|p_n|, q_n),
        # which is its printed implied exponent reaching theta_required.
        log_p = math.log(catalog(family, k).family.p)
        required = float(summary["theta_required"])
        passes = []
        for row in rows[:-1]:
            if row["certified"]:
                passed = row["valuation_gap"] * log_p >= required * float(row["log_max_size"])
                assert passed == (float(row["implied_exponent"]) >= required), row
                passes.append(passed)
        if float(summary["theta_closed"]) < required:
            derived = "WITNESS_FAIL"
        elif not passes:
            derived = "UNCERTIFIED"
        else:
            derived = "WITNESS_PASS" if all(passes) else "WITNESS_FAIL"
        assert derived == summary["verdict"], (family, k)
    assert verdicts == expected
    print(
        "ACCEPTANCE 7: PASS (PASS/PASS/PASS and FAIL/FAIL verdicts emitted, "
        "each re-derived from the printed rows)"
    )


def test_acceptance_8_structural_identities(tables):
    prec = 64
    one_plus_q_n = QSeries.one(prec)
    for n in range(1, prec):
        one_plus_q_n = one_plus_q_n * QSeries([1] + [0] * (n - 1) + [1], prec)
    # q prod (1+q^n)^24 = eta(2 tau)^24 / eta(tau)^24
    assert QSeries([0, 1], prec) * one_plus_q_n**24 == expand_product(((1, -24), (2, 24)), prec)
    mu = {"zeta-p2": 24, "zeta-p3": 12, "zeta-p5": 6, "catalan-p2": 4}
    for family in FAMILIES:
        assert run_canaries(catalog(family), prec)[0] == mu[family]
    for p in (2, 3):
        for k in (1, 2):
            prime = series_e_prime(p, 2 * k, prec)
            powered = prime
            for _ in range(2 * k + 1):
                powered = powered.theta()
            assert powered == series_evil(p, 2 * k + 2, prec)
    f1 = series_f(1, prec)
    assert [f1[n] for n in range(1, prec)] == [
        sum(chi4(d) for d in range(1, n + 1) if n % d == 0) for n in range(1, prec)
    ]
    for family, k in ALL_CASES:
        config = catalog(family, k)
        table = tables[(family, k)]
        for n, (a, b) in enumerate(zip(table.a, table.b)):
            assert b.denominator == 1
            scale = math.lcm(*range(1, n + 1)) ** config.D
            assert (scale * a).denominator == 1
    print("ACCEPTANCE 8: PASS (identities at precision 64 and integrality)")


def test_acceptance_9_nonvanishing_evidence(tables, oracles):
    for family, k in ALL_CASES:
        table = tables[(family, k)]
        assert table.b[2] != 0 and table.b[3] != 0
        assert table.a[2] / table.b[2] != table.a[3] / table.b[3], (family, k)
    for family in ("zeta-p2", "zeta-p3"):
        value = oracles[family]
        assert vp(value.representative, value.p) < value.agreement_exponent
    print("ACCEPTANCE 9: PASS (distinct consecutive ratios; limits nonzero)")
