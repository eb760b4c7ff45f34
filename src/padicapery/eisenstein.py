"""Special values and q-expansions of the Eisenstein-type series in play.

Conventions, fixed once and used everywhere:

* zeta_star(p, 2k) = (1 - p^{2k-1}) * zeta(1-2k): the zeta value with its
  Euler factor at p removed, the constant of the weight-2k p-deprived series.
* Euler numbers are the secant numbers, sech x = sum E_n x^n / n! with
  E_0 = 1, E_2 = -1, E_4 = 5, pinned by L(-2k, chi) = E_{2k}/2 for the odd
  character chi mod 4 (chi(1 mod 4) = 1, chi(3 mod 4) = -1, chi(even) = 0).
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import _require_prime
from .qseries import QSeries

__all__ = [
    "bernoulli",
    "euler_number",
    "zeta_neg",
    "zeta_star",
    "l_chi4_neg",
    "chi4",
    "series_e",
    "series_e_star",
    "series_evil",
    "series_e_prime",
    "series_f",
    "series_f_prime",
]

# ---------------------------------------------------------------------------
# special values

# Brent-Harvey tangent and secant numbers (arXiv:1108.0286), computed column
# by column so that every call extends a table in place, whatever order the
# indices are asked for in.  Both triangles follow one rule: with the newest
# column c of length L, the next number N_j comes from
#   c[0] <- L c[0],  c[i] <- (L - i) c[i] + (j - i + 1) c[i-1]  (i = 1..L-1,
#   in order, so c[i-1] is already the new value),  N_j = (j - L + 1) c[L-1],
# and N_j is appended to c.
# The tangent column for T_j has length j - 1 (so T_j = 2 c[L-1]); the secant
# column for S_j has length j (so S_j = c[L-1]).  Only the newest column of
# each triangle is kept.
_TANGENT: list[int] = [0, 1]  # T_0 (unused), T_1, T_2, ...
_TANGENT_COLUMN: list[int] = [1]
_SECANT: list[int] = [1]  # S_0, S_1, ...: |E_0|, |E_2|, ...
_SECANT_COLUMN: list[int] = [1]


def _extend(numbers: list[int], column: list[int], k: int) -> int:
    """numbers[k], extending numbers and its triangle column as needed."""
    while len(numbers) <= k:
        j, size = len(numbers), len(column)
        prev = column[0] = size * column[0]
        for i in range(1, size):
            prev = column[i] = (size - i) * column[i] + (j - i + 1) * prev
        column.append((j - size + 1) * prev)
        numbers.append(column[-1])
    return numbers[k]


def bernoulli(n: int) -> Fraction:
    """B_n for even n."""
    if n < 0 or n % 2 == 1:
        raise ValueError("Bernoulli numbers are only used at even indices >= 0")
    if n == 0:
        return Fraction(1)
    # B_{2k} = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).
    k = n // 2
    four_k = 4**k
    value = Fraction(n * _extend(_TANGENT, _TANGENT_COLUMN, k), four_k * (four_k - 1))
    return value if k % 2 else -value


def euler_number(n: int) -> int:
    """E_n for even n (secant numbers, signed)."""
    if n < 0 or n % 2 == 1:
        raise ValueError("Euler numbers are only used at even indices >= 0")
    k = n // 2
    secant = _extend(_SECANT, _SECANT_COLUMN, k)
    return -secant if k % 2 else secant


def _require_even_weight(two_k: int, minimum: int) -> None:
    if two_k % 2 or two_k < minimum:
        raise ValueError(f"weight must be even and >= {minimum}, got {two_k}")


def zeta_neg(two_k: int) -> Fraction:
    """zeta(1 - 2k) = -B_{2k}/2k."""
    _require_even_weight(two_k, 2)
    return -bernoulli(two_k) / two_k


def zeta_star(p: int, two_k: int) -> Fraction:
    """(1 - p^{2k-1}) zeta(1-2k): the p-Euler-factor-free value."""
    return (1 - Fraction(p) ** (two_k - 1)) * zeta_neg(two_k)


def l_chi4_neg(two_k: int) -> Fraction:
    """L(-2k, chi) = E_{2k}/2 for the odd character mod 4."""
    _require_even_weight(two_k, 0)
    return Fraction(euler_number(two_k), 2)


def chi4(n: int) -> int:
    """The odd Dirichlet character of conductor 4."""
    if n % 2 == 0:
        return 0
    return 1 if n % 4 == 1 else -1


# ---------------------------------------------------------------------------
# q-expansions

def _lambert(constant, term, prec: int) -> QSeries:
    """constant + sum over d e = n < prec of term(d, e) q^n, by one sieve."""
    coeffs = [constant] + [0] * (prec - 1)
    for d in range(1, prec):
        for n in range(d, prec, d):
            coeffs[n] += term(d, n // d)
    return QSeries(coeffs)


def series_e(two_k: int, prec: int) -> QSeries:
    """Level-one Eisenstein series of weight 2k, constant zeta(1-2k)/2."""
    _require_even_weight(two_k, 2)
    return _lambert(zeta_neg(two_k) / 2, lambda d, e: d ** (two_k - 1), prec)


def series_e_star(p: int, two_k: int, prec: int) -> QSeries:
    """Weight-2k series with p-divisor terms and the p-Euler factor removed.

    Equals series_e(2k) - p^{2k-1} series_e(2k)(q -> q^p); the level-lowering
    identity is exercised in the tests rather than assumed here.
    """
    _require_even_weight(two_k, 2)
    _require_prime(p)
    return _lambert(
        zeta_star(p, two_k) / 2, lambda d, e: d ** (two_k - 1) if d % p else 0, prec
    )


def series_evil(p: int, two_k: int, prec: int) -> QSeries:
    """The cuspidal-at-infinity twin E_{2k}(tau) - E_{2k}(p tau).

    Its q^n coefficient is sigma_{2k-1}(n) - sigma_{2k-1}(n/p) (when p | n),
    the sum of d^{2k-1} over d | n with p not dividing n/d; no constant.
    """
    _require_even_weight(two_k, 4)
    _require_prime(p)
    return _lambert(0, lambda d, e: d ** (two_k - 1) if e % p else 0, prec)


def series_e_prime(p: int, two_k: int, prec: int) -> QSeries:
    """Weight -2k antiderivative: theta^{2k+1} of it gives the evil twin of
    weight 2k+2.  Coefficient of q^n is the sum of d^{-(2k+1)} over the
    divisors d of n prime to p; zero constant term by construction."""
    _require_even_weight(two_k, 2)
    _require_prime(p)
    return _lambert(
        0, lambda d, e: Fraction(1, d ** (two_k + 1)) if d % p else 0, prec
    )


def series_f(weight: int, prec: int) -> QSeries:
    """Odd-weight Eisenstein family for chi mod 4: weight 2k+1 has constant
    L(-2k, chi)/2 and q^n coefficient sum_{d|n} chi(d) d^{2k}, the Lambert
    form sum_{m odd} chi(m) m^{2k} q^m/(1-q^m) plus the constant."""
    if weight % 2 == 0 or weight < 1:
        raise ValueError(f"weight must be odd and >= 1, got {weight}")
    two_k = weight - 1
    return _lambert(l_chi4_neg(two_k) / 2, lambda d, e: chi4(d) * d**two_k, prec)


def series_f_prime(prec: int) -> QSeries:
    """Weight -1 antiderivative of the weight-3 member: coefficient of q^n is
    sum_{d|n} chi(d) d^{-2}, zero constant term."""
    return _lambert(0, lambda d, e: Fraction(chi4(d), d * d), prec)
