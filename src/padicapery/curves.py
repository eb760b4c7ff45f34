"""Catalog of the genus-zero quotient cases and their uniformizers.

Each case family is one frozen record: the prime, the local uniformizer
f = q + O(q^2) as (delta, r) pairs of its eta quotient prod eta(delta tau)^r
(the Hauptmodul (eta(N tau)/eta(tau))^(24/(N-1)), with N = p for zeta_p and
N = 4 for Catalan), its curve (the polynomial Q_p that vanishes where
theta(f)/f does, and its exponent j), the builders of the weight series and
its antiderivative that get re-expanded in f, how the weight grows with the
index k, the sign that reconciles the re-expansion output with the published
b-list (and so fixes the sign of the limit), the recurrences and the oracle.
The (v, e) exponents that feed the closed-form witness exponent are read off
the curve, not stored.  A case is a family at one index k.

Two exact q-expansion identities act as canaries for every family: the
logarithmic derivative G = theta(f)/f must equal a known power of a multiple
of the weight series, and G^6 (f/Delta) must equal Q_p(f)^j, the genus-zero
relation of the curve.  run_canaries builds f and the weight series once and
checks both in one pass; a failure of either aborts the pipeline, since
nothing downstream is trustworthy then.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

from . import eisenstein
from .eisenstein import series_e_star, series_f
from .exactnum import vp
from .qseries import QSeries, expand_product
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
    `curve` is (Q_p's coefficients in ascending powers, j): G^6 (f/Delta) =
    Q_p(f)^j for G = theta(f)/f.  The growth exponents `v` and `e` are read
    off Q_p.
    """

    name: str
    p: int
    eta: tuple[tuple[int, int], ...]  # (delta, r): f = prod eta(delta tau)^r
    oracle: str                 # the CLI's oracle target for the limit
    recurrence: Mapping[int, RecurrenceSpec]  # k -> relation; other k re-expand
    curve: tuple[tuple[int, ...], int]        # (Q_p ascending, j)
    sign_b: int = 1             # published b-list = sign_b * [f^n](lam * w)
    weight_step: int = 2        # the weight series has weight weight_step * k
    fixed_k: bool = False       # the family has no weight parameter: k = 1
    series: Callable[[int, int, int], QSeries] = (
        lambda p, weight, prec: series_e_star(p, weight, prec)
    )
    antiderivative: Callable[[int, int, int], QSeries] = (
        lambda p, weight, prec: eisenstein.series_e_prime(p, weight, prec)
    )

    @property
    def e(self) -> Fraction:
        """Archimedean growth exponent: each relation's characteristic
        polynomial is a power of Q_p reversed (the tests check it), whose roots
        share one modulus p^e and multiply to Q_p's top coefficient, +-p^(e deg).

        >>> FAMILY_TABLE["zeta-p5"].e
        Fraction(3, 2)
        """
        coeffs, _ = self.curve
        return Fraction(vp(coeffs[-1], self.p), len(coeffs) - 1)

    @property
    def v(self) -> Fraction:
        """Valuation growth exponent v = 2e.  Order-2 relations give the cross
        differences W_n = a_n b_(n+1) - a_(n+1) b_n the exact identity P_0(n) W_n =
        P_2(n) W_(n-1), so W gains vp(P_2(n) / P_0(n)) digits at row n, v on
        average; zeta-p5's order-4 growth v = 3 is measured only: 2.90 to 3.05."""
        return 2 * self.e


_TABLE = (
    Family(
        "zeta-p2", 2, ((1, -24), (2, 24)),
        oracle="zeta-p2", recurrence={1: ZETA_P2, 2: ZETA_P2_K2},
        curve=((1, 64), 3),
    ),
    Family(
        "zeta-p3", 3, ((1, -12), (3, 12)),
        oracle="zeta-p3", recurrence={1: ZETA_P3}, curve=((1, 27), 4),
    ),
    Family(
        "zeta-p5", 5, ((1, -6), (5, 6)),
        oracle="zeta-p5", recurrence={1: ZETA_P5}, curve=((1, 22, 125), 3),
    ),
    # The published table negates the b-list: its b_0 is -1 while the
    # normalized constant term is +1.
    Family(
        "catalan-p2", 2, ((1, -8), (4, 8)),
        oracle="catalan",
        recurrence={1: CATALAN_P2},
        curve=((1, 16), 5),
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


def run_canaries(config: CaseConfig, prec: int = 16) -> Fraction:
    """Check both identities to prec terms, building f and the k = 1 weight
    series w once, and return mu.

    G = theta(f)/f has weight 2, so G = (mu * w)^r with r = 2 / weight_step:
    r = 1 and w = E*_2 for the zeta families, with mu = 24, 12, 6 for
    p = 2, 3, 5, and r = 2 against the weight-one Catalan series, with mu = 4.
    Since f = q + O(q^2), G starts at 1, so mu = 1/|w_0|.  Both checks are
    multiplied through by f: theta(f) = f * G, with f and w to prec + 1
    terms, then G^6 (f/Delta) = Q_p(f)^j, where f/Delta is the eta quotient
    of f times eta(tau)^-24.

    >>> run_canaries(catalog("zeta-p3"))
    Fraction(12, 1)
    """
    record = config.family
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
    coeffs, j = record.curve
    ratio = expand_product(record.eta + ((1, -24),), prec)
    q_of_f = sum((c * f**i for i, c in enumerate(coeffs)), QSeries([0], prec))
    if g**6 * ratio != q_of_f**j:
        raise IdentityError(f"G^6 f/Delta is not Q(f)^{j} on the curve of {config.case_id}")
    return mu
