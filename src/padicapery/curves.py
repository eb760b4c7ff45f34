"""Catalog of the genus-zero quotient cases and their uniformizers.

Each case pins down: the prime, the eta-like product expansion of the local
uniformizer f = q + O(q^2), the weight data of the series pair that gets
re-expanded in f, the normalization multiplier, the (v, e, D) exponents that
feed the closed-form witness exponent, and the sign flags that reconcile the
re-expansion output with the published sequence tables.

Two exact q-expansion identities act as canaries for the whole catalog: the
logarithmic derivative theta(f)/f must equal a known multiple of the weight-2
series, and for the 2-adic zeta case the sixth power of that multiple's series
must satisfy the classical genus-zero relation against (1 + 2^6 f)^3 / f.  A
failure of either aborts the pipeline; nothing downstream is trustworthy then.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .eisenstein import l_chi4_neg, series_e_star, series_f, zeta_star
from .qseries import ProductRecipe, QSeries, expand_product

__all__ = [
    "FAMILIES",
    "CaseConfig",
    "IdentityError",
    "catalog",
    "uniformizer_series",
    "check_log_derivative",
    "check_elliptic_identity",
    "run_canaries",
]

FAMILIES = ("zeta-p2", "zeta-p3", "zeta-p5", "catalan-p2")


class IdentityError(AssertionError):
    """An internal q-expansion identity failed: abort, the build is wrong."""


@dataclass(frozen=True)
class CaseConfig:
    case_id: str
    family: str
    p: int
    k: int
    weight: int                 # weight of the series that produces the b-list
    recipe: ProductRecipe
    lam: Fraction               # normalization multiplier for the series pair
    v: Fraction                 # valuation growth exponent
    e: Fraction                 # Archimedean growth exponent
    D: int                      # denominator-clearing power
    sign_a: int
    sign_b: int


_RECIPES = {
    # Delta(2 tau)/Delta(tau) = q prod (1+q^n)^24
    "zeta-p2": ProductRecipe(1, ((1, 1, 24),)),
    # (Delta(3 tau)/Delta(tau))^(1/2) = q prod ((1-q^{3n})/(1-q^n))^12
    "zeta-p3": ProductRecipe(1, ((-1, 3, 12), (-1, 1, -12))),
    # (Delta(5 tau)/Delta(tau))^(1/4) = q prod ((1-q^{5n})/(1-q^n))^6
    "zeta-p5": ProductRecipe(1, ((-1, 5, 6), (-1, 1, -6))),
    # (Delta(4 tau)/Delta(tau))^(1/3) = q prod (1+q^n)^8 (1+q^{2n})^8
    "catalan-p2": ProductRecipe(1, ((1, 1, 8), (1, 2, 8))),
}

_PRIMES = {"zeta-p2": 2, "zeta-p3": 3, "zeta-p5": 5, "catalan-p2": 2}

# (v, e): valuation and size growth exponents; D comes per weight below.
_GROWTH = {
    "zeta-p2": (Fraction(12), Fraction(6)),
    "zeta-p3": (Fraction(6), Fraction(3)),
    "zeta-p5": (Fraction(3), Fraction(3, 2)),
    "catalan-p2": (Fraction(8), Fraction(4)),
}

# Sign flags fixed once against the published n = 1, 2 rows: the zeta tables
# list the re-expansion coefficients as-is, the Catalan table negates the
# b-list (its published b_0 is -1 while the normalized constant term is +1).
_SIGNS = {
    "zeta-p2": (1, 1),
    "zeta-p3": (1, 1),
    "zeta-p5": (1, 1),
    "catalan-p2": (1, -1),
}


def catalog(family: str, k: int = 1) -> CaseConfig:
    """Build the configuration for one case; k indexes the zeta weight 2k."""
    if family not in FAMILIES:
        raise ValueError(f"unknown case family {family!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    p = _PRIMES[family]
    v, e = _GROWTH[family]
    sign_a, sign_b = _SIGNS[family]
    if family == "catalan-p2":
        if k != 1:
            raise ValueError("the Catalan case has no weight parameter")
        weight, D = 1, 2
        const = l_chi4_neg(0) / 2
        case_id = family
    else:
        weight, D = 2 * k, 2 * k + 1
        const = zeta_star(p, 2 * k) / 2
        case_id = f"{family}:k={k}"
    # The multiplier clears the constant term's denominator, which both
    # reproduces the published tables (their constants are 1/24, 1/12, 1/4
    # with numerator +-1) and keeps every b_n integral at higher weights,
    # where 2/const would not be an integer.
    lam = Fraction(const.denominator)
    return CaseConfig(
        case_id=case_id,
        family=family,
        p=p,
        k=k,
        weight=weight,
        recipe=_RECIPES[family],
        lam=lam,
        v=v,
        e=e,
        D=D,
        sign_a=sign_a,
        sign_b=sign_b,
    )


def uniformizer_series(config: CaseConfig, prec: int) -> QSeries:
    """q-expansion of the case uniformizer, f = q + O(q^2) with integer
    coefficients."""
    return expand_product(config.recipe, prec)


def _weight_two_series(config: CaseConfig, prec: int) -> QSeries:
    if config.family == "catalan-p2":
        return series_f(1, prec)
    return series_e_star(config.p, 2, prec)


def check_log_derivative(config: CaseConfig, prec: int = 16) -> Fraction:
    """Verify the logarithmic-derivative identity for f and return its
    constant.

    For the zeta families theta(f)/f equals mu * E*_2 with mu = 24, 12, 6 for
    p = 2, 3, 5.  The Catalan weight series has weight one, so the identity
    there is against its square: theta(z)/z = (mu F_1)^2 with mu = 4.
    """
    f = uniformizer_series(config, prec + 1)
    lhs = f.theta().shift_down(1) * f.shift_down(1).invert()
    w = _weight_two_series(config, prec)
    if config.family == "catalan-p2":
        mu_sq = lhs[0] / w[0] ** 2
        root = _integer_nth_root(mu_sq.numerator, 2)
        if root is None or mu_sq.denominator != 1 or (root * w) ** 2 != lhs:
            raise IdentityError(
                "theta(z)/z is not the square of a multiple of the weight-1 "
                "series for catalan-p2"
            )
        return Fraction(root)
    mu = lhs[0] / w[0]
    if mu * w != lhs:
        raise IdentityError(
            f"theta(f)/f is not proportional to the weight-2 series for "
            f"{config.case_id}"
        )
    return mu


def _integer_nth_root(n: int, k: int) -> int | None:
    """Exact k-th root of a nonnegative integer, or None."""
    if n < 0:
        return None
    if n in (0, 1):
        return n
    r = int(round(n ** (1.0 / k)))
    for cand in (r - 1, r, r + 1):
        if cand >= 0 and cand**k == n:
            return cand
    return None


def check_elliptic_identity(prec: int = 16) -> Fraction:
    """Genus-zero relation for the 2-adic zeta case.

    With f = q prod (1+q^n)^24 and the normalized weight-2 series
    Etilde = mu E*_2, the curve satisfies Etilde^6 / Delta = (1+2^6 f)^3 / f.
    Both sides are multiplied by f, so the comparison happens between honest
    power series: Etilde^6 * (f/Delta) = (1 + 64 f)^3.  Returns mu (= 24).
    """
    cfg = catalog("zeta-p2")
    f = uniformizer_series(cfg, prec)
    # f/Delta = prod ((1+q^n)/(1-q^n))^24, constant term 1
    ratio = expand_product(ProductRecipe(0, ((1, 1, 24), (-1, 1, -24))), prec)
    estar6 = series_e_star(2, 2, prec) ** 6
    lhs = estar6 * ratio
    rhs = (QSeries.one(prec) + 64 * f) ** 3
    scale = rhs[0] / lhs[0]
    if lhs * scale != rhs:
        raise IdentityError("elliptic identity fails for zeta-p2")
    num = _integer_nth_root(scale.numerator, 6)
    den = _integer_nth_root(scale.denominator, 6)
    if num is None or den is None:
        raise IdentityError("elliptic identity scale is not a sixth power")
    return Fraction(num, den)


def run_canaries(config: CaseConfig, prec: int = 16) -> None:
    """The fast identity checks every pipeline run performs before trusting
    its own series plumbing."""
    check_log_derivative(config, prec)
    if config.family == "zeta-p2":
        check_elliptic_identity(prec)
