"""Apéry's own numbers, published and independent of the package, as a
known answer for its q-series machinery.

Beukers' modular reading of Apéry's proof (Astérisque 147-148, 1987): with
the Hauptmodul t = (eta(tau) eta(6 tau) / (eta(2 tau) eta(3 tau)))^12 of
Gamma0(6) and the weight-two form w = eta(2 tau)^7 eta(3 tau)^7 /
(eta(tau)^5 eta(6 tau)^5), Apéry's b_n (OEIS A005259) are [t^n] w, and his
a_n are 6 [t^n] (w F) for the Eichler integral F = sum g_n q^n / n^3 of the
weight-four form with g_n = s(n) - 28 s(n/2) + 63 s(n/3) - 36 s(n/6),
s = sigma_3 (zero at a non-integer).  Both columns satisfy Apéry's relation
(n+1)^3 u_(n+1) - (34n^3 + 51n^2 + 27n + 5) u_n + n^3 u_(n-1) = 0, and t and
w satisfy the differential identity (theta t)^2 = t^2 w^2 (1 - 34t + t^2).

Only public functions are used: expand_product and reexpand build the
columns, fit_recurrence and verify_recurrence check the relation.
"""

from fractions import Fraction
from math import comb

import pytest

from padicapery.qseries import QSeries, expand_product, reexpand
from padicapery.recurrence import RecurrenceSpec, fit_recurrence, verify_recurrence

T_ETA = ((1, 12), (2, -12), (3, -12), (6, 12))
W_ETA = ((1, -5), (2, 7), (3, 7), (6, -5))
APERY = RecurrenceSpec(((1, 3, 3, 1), (-5, -27, -51, -34), (0, 0, 0, 1)))
ROWS = 256
# Apéry's closed form for a_n costs O(n^2) Fraction sums of growing size
# (about 46 s at n = 256); the first 40 rows pin the column, and the relation,
# checked through n = 254, carries it to the end.
CLOSED_A_ROWS = 40


def _sigma3(n: int) -> int:
    return sum(d**3 for d in range(1, n + 1) if n % d == 0)


def _eichler(prec: int) -> QSeries:
    """F = sum_(n >= 1) g_n q^n / n^3, g_n as in the module docstring."""
    weights = ((1, 1), (2, -28), (3, 63), (6, -36))
    return QSeries(
        [0]
        + [
            Fraction(sum(c * _sigma3(n // d) for d, c in weights if n % d == 0), n**3)
            for n in range(1, prec)
        ]
    )


def apery_b(n: int) -> int:
    return sum(comb(n, k) ** 2 * comb(n + k, k) ** 2 for k in range(n + 1))


def apery_a(n: int) -> Fraction:
    harmonic = sum(Fraction(1, m**3) for m in range(1, n + 1))
    return sum(
        comb(n, k) ** 2
        * comb(n + k, k) ** 2
        * (
            harmonic
            + sum(
                Fraction((-1) ** (m - 1), 2 * m**3 * comb(n, m) * comb(n + m, m))
                for m in range(1, k + 1)
            )
        )
        for k in range(n + 1)
    )


@pytest.fixture(scope="module")
def columns():
    """(a, b): 6 [t^n] (w F) and [t^n] w for n < ROWS, by one re-expansion."""
    t = expand_product(T_ETA, ROWS)
    w = expand_product(W_ETA, ROWS)
    rows = reexpand(w, t, ROWS, w * _eichler(ROWS))
    return [6 * a for _, a in rows], [b for b, _ in rows]


def test_b_column_is_aperys(columns):
    _, b = columns
    assert b[:5] == [1, 5, 73, 1445, 33001]
    assert b == [apery_b(n) for n in range(ROWS)]


def test_a_column_is_aperys(columns):
    a, _ = columns
    assert a[:3] == [0, 6, Fraction(351, 4)]
    assert a[:CLOSED_A_ROWS] == [apery_a(n) for n in range(CLOSED_A_ROWS)]


def test_both_columns_satisfy_aperys_relation(columns):
    for column in columns:
        assert verify_recurrence(APERY, column, APERY.order - 1) == []


def test_relation_is_refitted_from_the_b_column(columns):
    _, b = columns
    assert fit_recurrence(b[:40], 2, 3) == APERY


def test_beukers_differential_identity():
    """(theta t)^2 = t^2 w^2 (1 - 34t + t^2) through q^(ROWS - 1)."""
    t = expand_product(T_ETA, ROWS)
    w = expand_product(W_ETA, ROWS)
    quadratic = QSeries.one(ROWS) + -34 * t + t * t
    assert t.theta() * t.theta() == t * t * w * w * quadratic
