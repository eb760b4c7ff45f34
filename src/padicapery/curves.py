"""Catalog of the genus-zero quotient cases and their uniformizers.

Each case family is one frozen record: the prime, the local uniformizer
f = q + O(q^2) as (delta, r) pairs of its eta quotient prod eta(delta tau)^r
(the Hauptmodul (eta(N tau)/eta(tau))^(24/(N-1)), with N = p for zeta_p and
N = 4 for Catalan), the builders of the weight series and its antiderivative
that get re-expanded in f, how the weight grows with the index k, the sign
that reconciles the re-expansion output with the published b-list (and so
fixes the sign of the limit), the recurrences and the oracle.  The curve is
not stored: run_canaries derives it from the eta pairs and returns it, and
diophantine.theta_closed computes the growth exponent e from that result.  A
case is a family at one index k.

Two exact q-expansion identities act as canaries for every family: the
logarithmic derivative G = theta(f)/f must equal a known power of a multiple
of the weight series, and G^6 (f/Delta) must be Q(f) for a polynomial Q with
Q(0) = 1, the curve's genus-zero relation (Q = Q_p^j, Q_p vanishing where G
does: (1 + 64f)^3 for zeta-p2).  run_canaries builds f and the weight series
once, checks both in one pass and derives Q; a failure of either aborts the
pipeline, since nothing downstream is trustworthy then.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Callable, Mapping, NamedTuple

from . import eisenstein
from .eisenstein import series_e_star, series_f
from .exactnum import is_prime
from .qseries import QSeries, expand_product, reexpand
from .recurrence import CATALAN_P2, ZETA_P2, ZETA_P2_K2, ZETA_P3, ZETA_P5, RecurrenceSpec

__all__ = [
    "FAMILIES",
    "FAMILY_TABLE",
    "CaseConfig",
    "Family",
    "IdentityError",
    "catalog",
    "uniformizer_series",
    "run_canaries",
]


class IdentityError(AssertionError):
    """An internal identity failed (a q-expansion canary or a recurrence):
    abort, the build is wrong."""


class Family(NamedTuple):
    """Everything one case family fixes.

    The defaults describe the zeta families: the p-deprived series E*_2k of
    weight 2k, its antiderivative, and theta(f)/f = mu E*_2.  The series
    builders take (p, weight, prec) and look their eisenstein function up when
    called; the member of weight `weight_step` (k = 1) is the canary's series.
    The curve Q, with G^6 (f/Delta) = Q(f) for G = theta(f)/f, is not a
    field: run_canaries derives it from `eta`, and theta_closed computes the
    growth exponent e from it.
    """

    name: str
    p: int
    eta: tuple[tuple[int, int], ...]  # (delta, r): f = prod eta(delta tau)^r
    oracle: str                 # the CLI's oracle target for the limit
    recurrence: Mapping[int, RecurrenceSpec]  # k -> relation; other k re-expand
    sign_b: int = 1             # published b-list = sign_b * [f^n](lam * w)
    weight_step: int = 2        # the weight series has weight weight_step * k
    fixed_k: bool = False       # the family has no weight parameter: k = 1
    series: Callable[[int, int, int], QSeries] = (
        lambda p, weight, prec: series_e_star(p, weight, prec)
    )
    antiderivative: Callable[[int, int, int], QSeries] = (
        lambda p, weight, prec: eisenstein.series_e_prime(p, weight, prec)
    )


_TABLE = (
    Family(
        "zeta-p2", 2, ((1, -24), (2, 24)),
        oracle="zeta-p2", recurrence={1: ZETA_P2, 2: ZETA_P2_K2},
    ),
    Family("zeta-p3", 3, ((1, -12), (3, 12)), oracle="zeta-p3", recurrence={1: ZETA_P3}),
    Family("zeta-p5", 5, ((1, -6), (5, 6)), oracle="zeta-p5", recurrence={1: ZETA_P5}),
    # The published table negates the b-list: its b_0 is -1 while the
    # normalized constant term is +1.
    Family(
        "catalan-p2", 2, ((1, -8), (4, 8)),
        oracle="catalan", recurrence={1: CATALAN_P2},
        sign_b=-1,
        weight_step=1,
        fixed_k=True,
        series=lambda p, weight, prec: series_f(weight, prec),
        antiderivative=lambda p, weight, prec: eisenstein.series_f_prime(prec),
    ),
)

FAMILY_TABLE = {family.name: family for family in _TABLE}
FAMILIES = tuple(FAMILY_TABLE)


class CaseConfig(NamedTuple):
    """A family at index k; the case id, the weight and D derive from the pair."""

    family: Family
    k: int

    @property
    def case_id(self) -> str:
        return self.family.name if self.family.fixed_k else f"{self.family.name}:k={self.k}"

    @property
    def weight(self) -> int:
        return self.family.weight_step * self.k

    @property
    def D(self) -> int:
        return self.weight + 1


def catalog(family: str, k: int = 1) -> CaseConfig:
    """Build the configuration for one case; k indexes the weight."""
    if family not in FAMILY_TABLE:
        raise ValueError(f"unknown case family {family!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    record = FAMILY_TABLE[family]
    if record.fixed_k and k != 1:
        raise ValueError("the Catalan case has no weight parameter")
    return CaseConfig(record, k)


def uniformizer_series(config: CaseConfig, prec: int) -> QSeries:
    """q-expansion of the case uniformizer, f = q + O(q^2) with integer
    coefficients."""
    return expand_product(config.family.eta, prec)


def run_canaries(config: CaseConfig, prec: int = 16) -> tuple[Fraction, tuple[int, ...]]:
    """Check both identities to prec terms, building f and the k = 1 weight
    series w once, and return mu and the curve Q's ascending integer
    coefficients, trimmed after the last nonzero one.

    G = theta(f)/f has weight 2, so G = (mu * w)^r with r = 2 / weight_step:
    r = 1 and w = E*_2 for the zeta families, with mu = 24, 12, 6 for
    p = 2, 3, 5, and r = 2 against the weight-one Catalan series, with mu = 4.
    Since f = q + O(q^2), G starts at 1, so mu = 1/|w_0|.  This check is
    multiplied through by f: theta(f) = f * G, with f and w to prec + 1 terms.
    Then h = G^6 (f/Delta), f/Delta the eta quotient of f times eta(tau)^-24,
    has at most B poles, B the index of Gamma0(N), N the lcm of the deltas
    (Delta/f has weight 12 and no zeros in the upper half-plane), so the curve
    Q, read off h re-expanded in f to B + 1 terms, must have Q(0) = 1 and
    h = Q(f) to prec terms; prec <= B + 1 would leave no term to check.

    >>> run_canaries(catalog("zeta-p3"))
    (Fraction(12, 1), (1, 108, 4374, 78732, 531441))
    """
    record = config.family
    level = lcm(*(delta for delta, _ in record.eta))
    primes = [q for q in range(2, level + 1) if level % q == 0 and is_prime(q)]
    bound = level * prod(q + 1 for q in primes) // prod(primes)
    if prec <= bound + 1:
        raise ValueError(f"the canaries of {config.case_id} need prec > {bound + 1}")
    f = uniformizer_series(config, prec + 1)
    w = record.series(record.p, record.weight_step, prec + 1)
    r = 2 // record.weight_step
    mu = 1 / abs(w[0]) if w[0] else Fraction(0)
    g = (mu * w) ** r
    if not mu or f * g != f.theta():
        raise IdentityError(
            f"theta(f)/f is not the power {r} of a multiple of the weight-"
            f"{record.weight_step} series for {config.case_id}"
        )
    h = g**6 * expand_product(record.eta + ((1, -24),), prec)
    coeffs = [c.numerator for (c,) in reexpand(h, f, bound + 1)]
    q_of_f = QSeries([0], prec)
    for c in reversed(coeffs):
        q_of_f = f * q_of_f + QSeries([c], prec)
    if coeffs[0] != 1 or h != q_of_f:
        raise IdentityError(f"G^6 f/Delta is not Q(f), Q(0) = 1 on the curve of {config.case_id}")
    return mu, tuple(coeffs[: max(i for i, c in enumerate(coeffs) if c) + 1])
