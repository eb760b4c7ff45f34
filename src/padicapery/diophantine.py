"""Finite-range irrationality certificates for the approximant tables.

If a p-adic number eta admits rational approximations p_n/q_n with

    vp(eta - p_n/q_n) * log(p) >= theta * log(max(|p_n|, q_n))

for some theta > 1 and infinitely many n, then eta is irrational, and
theta is an irrationality exponent witness.  Each table comes with a
closed-form asymptotic exponent ``theta_closed``; this module checks the
inequality row by row against an oracle value for eta, over a finite
window, at an explicit tolerance.

A row can only be *certified* when the observed agreement is strictly
inside the oracle's own trust radius: if the valuation of the difference
reaches the oracle's agreement exponent, the row sees the oracle's error,
not eta, and is reported as uncertified rather than passed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .curves import CaseConfig
from .exactnum import log_size, vp
from .expansion import SequenceTable
from .oracle import PadicValue

THETA_REQUIRED = 1.01
DEFAULT_WINDOW = (3, 10)
_GUARD = 1e-6


def theta_closed(config: CaseConfig) -> float:
    """Asymptotic irrationality exponent v*log(p) / (e*log(p) + D), with the
    growth exponents v and e read off the family's k = 1 recurrence."""
    family = config.family
    log_p = math.log(family.p)
    return family.v * log_p / (family.e * log_p + config.D)


def slope_empirical(
    table: SequenceTable, p: int, window: tuple[int, int] = (5, 24)
) -> float:
    """Least-squares slope of n -> vp(a_n b_{n+1} - a_{n+1} b_n).

    The cross-differences of a healthy table gain p-adic digits linearly;
    the slope is the per-step gain and should match the family's v.
    """
    # Imported here: no CLI path calls this, and every CLI run pays for
    # its imports.
    import statistics

    lo, hi = window
    xs: list[int] = []
    ys: list[float] = []
    for n in range(lo, hi + 1):
        if n + 1 >= table.count:
            break
        first, second = table.rows[n], table.rows[n + 1]
        cross = first.a * second.b - second.a * first.b
        if cross == 0:
            continue
        xs.append(n)
        ys.append(vp(cross, p))
    if len(xs) < 3:
        raise ValueError("window too small for a slope estimate")
    return statistics.linear_regression(xs, ys).slope


class Certificate(NamedTuple):
    """Outcome of the criterion at a single row.

    ``valuation_gap`` is vp(eta - sign * p_n/q_n) clamped at the oracle's
    agreement exponent; ``certified`` records whether the clamp was
    inactive.  ``passed`` is None for uncertified rows.
    """

    case_id: str
    n: int
    p_n: int
    q_n: int
    valuation_gap: int
    log_max_size: float
    implied_exponent: float
    sign: int
    oracle_exponent: int
    certified: bool
    passed: bool | None


class CertificationReport(NamedTuple):
    case_id: str
    theta_closed: float
    sign: int
    verdict: str
    certificates: tuple[Certificate, ...]

    @property
    def certified_rows(self) -> int:
        return sum(1 for cert in self.certificates if cert.certified)


def criterion_check(
    config: CaseConfig,
    table: SequenceTable,
    eta: PadicValue,
    window: tuple[int, int] = DEFAULT_WINDOW,
) -> CertificationReport:
    """Run the finite-range criterion over a window of rows.

    The sign of the limit is fixed by the construction: H = sum (A_n +
    eta B_n) f^n and the table's b-list is sign_b * B, so the rows
    approximate eta by -sign_b * p_n/q_n.
    """
    asymptotic = theta_closed(config)
    p = config.family.p
    if eta.p != p:
        raise ValueError("oracle prime does not match the case")
    sign = -config.family.sign_b
    exponent = eta.agreement_exponent
    certificates = []
    for n in range(window[0], min(window[1] + 1, table.count)):
        if table.rows[n].degenerate:
            continue
        ratio = table.ratio(n)
        log_max = log_size(max(abs(ratio.numerator), ratio.denominator, 1))
        gap = vp(eta.representative - sign * ratio, p)
        certified = gap < exponent
        clamped = int(min(gap, exponent))
        if log_max > 0:
            implied = clamped * math.log(p) / log_max
        else:
            implied = math.inf if clamped > 0 else 0.0
        passed = None
        if certified:
            passed = clamped * math.log(p) >= (THETA_REQUIRED - _GUARD) * log_max
        certificates.append(
            Certificate(
                case_id=table.case_id,
                n=n,
                p_n=ratio.numerator,
                q_n=ratio.denominator,
                valuation_gap=clamped,
                log_max_size=log_max,
                implied_exponent=implied,
                sign=sign,
                oracle_exponent=exponent,
                certified=certified,
                passed=passed,
            )
        )
    if asymptotic < THETA_REQUIRED - _GUARD:
        verdict = "WITNESS_FAIL"
    elif not any(cert.certified for cert in certificates):
        verdict = "UNCERTIFIED"
    elif all(cert.passed for cert in certificates if cert.certified):
        verdict = "WITNESS_PASS"
    else:
        verdict = "WITNESS_FAIL"
    return CertificationReport(
        case_id=table.case_id,
        theta_closed=asymptotic,
        sign=sign,
        verdict=verdict,
        certificates=tuple(certificates),
    )

