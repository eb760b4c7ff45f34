"""Catalog of the genus-zero quotient cases and their uniformizers.

Each case family is one frozen record: the prime, the eta-like product
expansion of the local uniformizer f = q + O(q^2), the builders of the weight
series and its antiderivative that get re-expanded in f, how the weight grows
with the index k, the sign that reconciles the re-expansion output with the
published b-list (and so fixes the sign of the limit), the canaries, the
recurrences and the oracle.  The (v, e) exponents that feed the closed-form
witness exponent are read off the family's k = 1 recurrence, not stored.  A
case is a family at one index k.

Two exact q-expansion identities act as canaries for the whole catalog: the
logarithmic derivative theta(f)/f must equal a known power of a multiple of
the weight series, and for the 2-adic zeta case the sixth power of that
multiple's series must satisfy the classical genus-zero relation against
(1 + 2^6 f)^3 / f.  A failure of either aborts the pipeline; nothing
downstream is trustworthy then.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

from . import eisenstein
from .eisenstein import series_e_star, series_f
from .qseries import ProductRecipe, QSeries, expand_product
from .recurrence import CATALAN_P2, ZETA_P2, ZETA_P2_K2, ZETA_P3, ZETA_P5, RecurrenceSpec

__all__ = [
    "FAMILIES",
    "FAMILY_TABLE",
    "CaseConfig",
    "Family",
    "IdentityError",
    "catalog",
    "uniformizer_series",
    "check_log_derivative",
    "check_elliptic_identity",
    "run_canaries",
]


class IdentityError(AssertionError):
    """An internal identity failed (a q-expansion canary, a recurrence or its
    growth ratio): abort, the build is wrong."""


class Family(NamedTuple):
    """Everything one case family fixes.

    The defaults describe the zeta families: the p-deprived series E*_2k of
    weight 2k, its antiderivative, and theta(f)/f = mu E*_2.  The series
    builders take (p, weight, prec) and look their eisenstein function up when
    called; the member of weight `weight_step` (k = 1) is the canary's series.
    The growth exponents `v` and `e` are derived from the k = 1 relation.
    """

    name: str
    p: int
    recipe: ProductRecipe       # the uniformizer f = q + O(q^2)
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
    elliptic_canary: bool = False

    @property
    def e(self) -> Fraction:
        """Archimedean growth exponent: the k = 1 relation's characteristic
        roots all have modulus p^e, so its solutions grow like p^(e n)."""
        try:
            return self.recurrence[1].root_exponent(self.p)
        except ArithmeticError as exc:
            raise IdentityError(f"no growth exponent for {self.name}: {exc}") from None

    @property
    def v(self) -> Fraction:
        """Valuation growth exponent: the cross differences
        a_n b_(n+1) - a_(n+1) b_n gain v = 2e p-adic digits per row."""
        return 2 * self.e


_TABLE = (
    # Delta(2 tau)/Delta(tau) = q prod (1+q^n)^24
    Family(
        "zeta-p2", 2, ProductRecipe(1, ((1, 1, 24),)),
        oracle="zeta-p2", recurrence={1: ZETA_P2, 2: ZETA_P2_K2},
        elliptic_canary=True,
    ),
    # (Delta(3 tau)/Delta(tau))^(1/2) = q prod ((1-q^{3n})/(1-q^n))^12
    Family(
        "zeta-p3", 3, ProductRecipe(1, ((-1, 3, 12), (-1, 1, -12))),
        oracle="zeta-p3", recurrence={1: ZETA_P3},
    ),
    # (Delta(5 tau)/Delta(tau))^(1/4) = q prod ((1-q^{5n})/(1-q^n))^6
    Family(
        "zeta-p5", 5, ProductRecipe(1, ((-1, 5, 6), (-1, 1, -6))),
        oracle="zeta-p5", recurrence={1: ZETA_P5},
    ),
    # (Delta(4 tau)/Delta(tau))^(1/3) = q prod (1+q^n)^8 (1+q^{2n})^8.  The
    # published table negates the b-list: its b_0 is -1 while the normalized
    # constant term is +1.
    Family(
        "catalan-p2", 2, ProductRecipe(1, ((1, 1, 8), (1, 2, 8))),
        oracle="catalan",
        recurrence={1: CATALAN_P2},
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
    case_id: str
    family: Family
    k: int
    weight: int                 # weight of the series that produces the b-list
    lam: Fraction               # normalization multiplier for the series pair
    D: int                      # denominator-clearing power


def catalog(family: str, k: int = 1) -> CaseConfig:
    """Build the configuration for one case; k indexes the weight."""
    if family not in FAMILY_TABLE:
        raise ValueError(f"unknown case family {family!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    record = FAMILY_TABLE[family]
    if record.fixed_k and k != 1:
        raise ValueError("the Catalan case has no weight parameter")
    weight = record.weight_step * k
    # The multiplier clears the denominator of the weight series' constant
    # term, which both reproduces the published tables (their constants are
    # 1/24, 1/12, 1/4 with numerator +-1) and keeps every b_n integral at
    # higher weights, where 2/const would not be an integer.
    const = record.series(record.p, weight, 1)[0]
    return CaseConfig(
        case_id=family if record.fixed_k else f"{family}:k={k}",
        family=record,
        k=k,
        weight=weight,
        lam=Fraction(const.denominator),
        D=weight + 1,
    )


def uniformizer_series(config: CaseConfig, prec: int) -> QSeries:
    """q-expansion of the case uniformizer, f = q + O(q^2) with integer
    coefficients."""
    return expand_product(config.family.recipe, prec)


def check_log_derivative(config: CaseConfig, prec: int = 16) -> Fraction:
    """Verify theta(f)/f = (mu * w)^r for the family's k = 1 weight series w
    and return mu.

    theta(f)/f has weight 2, so r = 2 / weight_step: r = 1 and w = E*_2 for
    the zeta families, with mu = 24, 12, 6 for p = 2, 3, 5, and r = 2 against
    the weight-one Catalan series, with mu = 4.  Since f = q + O(q^2),
    theta(f)/f starts at 1, so mu = 1/|w_0|.  Like check_elliptic_identity,
    the comparison is multiplied through by f: theta(f) = f * (mu * w)^r, with
    f and w to prec + 1 terms, checks the quotient to prec terms.
    """
    record = config.family
    f = uniformizer_series(config, prec + 1)
    w = record.series(record.p, record.weight_step, prec + 1)
    r = 2 // record.weight_step
    mu = 1 / abs(w[0]) if w[0] else None
    if mu is None or f * (mu * w) ** r != f.theta():
        raise IdentityError(
            f"theta(f)/f is not the power {r} of a multiple of the weight-"
            f"{record.weight_step} series for {config.case_id}"
        )
    return mu


def check_elliptic_identity(prec: int = 16) -> Fraction:
    """Genus-zero relation for the 2-adic zeta case.

    With f = q prod (1+q^n)^24 and the normalized weight-2 series
    Etilde = mu E*_2, mu = 1/|E*_2(0)|, the curve satisfies
    Etilde^6 / Delta = (1+2^6 f)^3 / f.  Both sides are multiplied by f, so
    the comparison happens between honest power series:
    Etilde^6 * (f/Delta) = (1 + 64 f)^3.  Returns mu (= 24).
    """
    f = uniformizer_series(catalog("zeta-p2"), prec)
    # f/Delta = prod ((1+q^n)/(1-q^n))^24, constant term 1
    ratio = expand_product(ProductRecipe(0, ((1, 1, 24), (-1, 1, -24))), prec)
    estar = series_e_star(2, 2, prec)
    rhs = (QSeries.one(prec) + 64 * f) ** 3
    mu = 1 / abs(estar[0]) if estar[0] else None
    if mu is None or (mu * estar) ** 6 * ratio != rhs:
        raise IdentityError("elliptic identity fails for zeta-p2")
    return mu


def run_canaries(config: CaseConfig, prec: int = 16) -> None:
    """The fast identity checks every pipeline run performs before trusting
    its own series plumbing."""
    check_log_derivative(config, prec)
    if config.family.elliptic_canary:
        check_elliptic_identity(prec)
