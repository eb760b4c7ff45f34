"""Finite-range irrationality certificates for the approximant tables.

If a p-adic number eta admits rational approximations p_n/q_n with

    vp(eta - p_n/q_n) * log(p) >= theta * log(max(|p_n|, q_n))

for some theta > 1 and infinitely many n, then eta is irrational, and
theta is an irrationality exponent witness.  Each table comes with a
closed-form exponent ``theta_closed``, which must reach THETA_REQUIRED;
this module checks the inequality at theta = THETA_REQUIRED, with no
allowance, row by row against an oracle value for eta over a finite window.

A row can only be *certified* when the observed agreement is strictly
inside the oracle's own trust radius: if the valuation of the difference
reaches the oracle's agreement exponent, the row sees the oracle's error,
not eta, and is reported as uncertified rather than passed.  A row of
height max(|p_n|, q_n) = 1 bounds nothing and never passes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import curves
from .exactnum import log_size, vp
from .expansion import SequenceTable
from .oracle import PadicValue

THETA_REQUIRED = 1.01
DEFAULT_WINDOW = (3, 10)


def theta_closed(config: curves.CaseConfig) -> float:
    """Asymptotic irrationality exponent v*log(p) / (e*log(p) + D), with e
    computed here from the curve Q that run_canaries returns, and v = 2e.

    Each relation's characteristic polynomial is a power of Q_p reversed (the
    tests check it), whose roots share one modulus p^e.  So do the roots of
    Q = Q_p^j, whose top coefficient is thus +-p^(e deg Q).  Order-2 relations
    give the cross differences W_n = a_n b_(n+1) - a_(n+1) b_n the exact
    identity P_0(n) W_n = P_2(n) W_(n-1), so W gains vp(P_2(n) / P_0(n))
    digits at row n, v = 2e on average; zeta-p5's order-4 growth v = 3 is
    measured only: 2.90 to 3.05.

    >>> round(theta_closed(curves.catalog("zeta-p5")), 10)
    0.8917942081
    """
    curve = curves.run_canaries(config)[1]
    e = Fraction(vp(curve[-1], config.family.p), len(curve) - 1)
    log_p = math.log(config.family.p)
    return 2 * e * log_p / (e * log_p + config.D)


class Certificate(NamedTuple):
    """Outcome of the criterion at one row; case and sign are the report's.

    ``valuation_gap`` is vp(eta - sign * p_n/q_n) clamped at the oracle's
    agreement exponent; ``certified`` records whether the clamp was
    inactive; the report's verdict reads only these and ``log_max_size``.
    """

    n: int
    p_n: int
    q_n: int
    valuation_gap: int
    log_max_size: float
    implied_exponent: float
    oracle_exponent: int
    certified: bool


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
    table: SequenceTable,
    eta: PadicValue,
    window: tuple[int, int] = DEFAULT_WINDOW,
) -> CertificationReport:
    """Run the finite-range criterion over a window of the table's rows.

    The case is the table's.  The sign of the limit is fixed by the
    construction: H = sum (A_n + eta B_n) f^n and the table's b-list is
    sign_b * B, so the rows approximate eta by -sign_b * p_n/q_n.  An oracle
    value at another prime or of another limit, or a window other than
    0 <= LO <= HI < len(table.b), raises ValueError.

    Any SequenceTable is accepted, and a table holds no derived fields (only
    config, a and b), so theta_closed derives the curve it reads e from
    itself, although the table's own canary pass derived it too.  Passing
    that curve along would widen the table for a warm run_canaries at
    prec 16, about 0.5-1 ms per call.
    """
    config = table.config
    asymptotic = theta_closed(config)
    p = config.family.p
    if eta.p != p:
        raise ValueError("oracle prime does not match the case")
    if eta.limit is not None and eta.limit != (config.family.oracle, config.k):
        raise ValueError(f"oracle value of {eta.limit} given for {config.case_id}")
    last = len(table.b) - 1
    if not 0 <= window[0] <= window[1] <= last:
        raise ValueError(f"window {window} is not inside the table's rows 0..{last}")
    sign = -config.family.sign_b
    exponent = eta.agreement_exponent
    certificates = []
    for n in range(window[0], window[1] + 1):
        if table.b[n] == 0:
            continue
        ratio = table.ratio(n)
        log_max = log_size(max(abs(ratio.numerator), ratio.denominator))
        gap = vp(eta.representative - sign * ratio, p)
        certified = gap < exponent
        clamped = int(min(gap, exponent))
        if log_max > 0:
            implied = clamped * math.log(p) / log_max
        else:
            implied = math.inf if clamped > 0 else 0.0
        certificates.append(
            Certificate(
                n=n,
                p_n=ratio.numerator,
                q_n=ratio.denominator,
                valuation_gap=clamped,
                log_max_size=log_max,
                implied_exponent=implied,
                oracle_exponent=exponent,
                certified=certified,
            )
        )
    passes = [
        c.log_max_size > 0 and c.valuation_gap * math.log(p) >= THETA_REQUIRED * c.log_max_size
        for c in certificates if c.certified
    ]
    if asymptotic < THETA_REQUIRED:
        verdict = "WITNESS_FAIL"
    elif not passes:
        verdict = "UNCERTIFIED"
    else:
        verdict = "WITNESS_PASS" if all(passes) else "WITNESS_FAIL"
    return CertificationReport(
        case_id=config.case_id,
        theta_closed=asymptotic,
        sign=sign,
        verdict=verdict,
        certificates=tuple(certificates),
    )

