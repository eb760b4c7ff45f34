"""Independent p-adic evaluation of the limits the sequence tables approach.

The special values targeted by the approximant tables are values of
Kubota-Leopoldt p-adic L-functions:

* ``zeta_p_oracle(p, n)`` evaluates ``zeta_p(2n + 1) = L_p(2n + 1,
  omega^(-2n))``, the p-adic limit of ``(1 - p**(2k-1)) * zeta(1 - 2k)`` as
  the even weight ``2k`` tends to ``-2n`` in Z_p along ``2k = -2n`` mod
  ``p - 1``.
* ``catalan_2adic_oracle()`` evaluates ``L_2(2)``, the 2-adic Catalan
  constant: the 2-adic limit of ``L(-2k, chi4) = E_{2k} / 2`` as ``2k``
  tends to ``-2``.

The main strategy is the series of Washington, *Cyclotomic Fields*
(GTM 83), Thm 5.11: with ``F = p**m`` (``4 | F`` when ``p = 2``),

    L_p(s, chi) = 1/((s-1) F) * sum_{1 <= a <= F, p !| a} w(a)
                 * sum_j binom(1-s, j) (F/a)^j B_j        (B_1 = -1/2),

with ``w(a) = chi(a) <a>^(1-s) = chi(a) omega(a)^(s-1) a^(1-s)`` and omega
the Teichmuller character.  For zeta ``chi = omega^(-2n)`` cancels omega's
factor, so ``w(a) = a^(-2n)`` at every p; ``omega^(-2n)`` is trivial for
p = 2 and 3 but is ``(a/5)^n`` for p = 5.  The Catalan value has trivial
chi, and omega is chi4 for p = 2, so ``w(a) = chi4(a)/a``.  By von
Staudt-Clausen ``p * B_j`` is p-integral, so the sum times ``p`` is a
p-adic integer, summed here in Python ``int``s modulo ``p**K``; term ``j``
has valuation at least ``j*m``.  Truncating at ``j <= J`` therefore leaves
an error of valuation at least ``min(K, (J+1)*m) - 1 - m - vp(s-1)`` in
the value: a proven agreement exponent, not a stabilisation heuristic.

Two independent evaluations must agree with it to the weaker exponent, or
the oracle raises ``OracleInconsistency``: the same series at ``F =
p**(m+1)``, where every term carries other powers of p, and, at low
precision, Newton extrapolation of exact L-values at the nodes ``2k_j =
M * (j + 1) - 2n`` (``M`` a multiple of ``(p - 1) * p**t``), whose partial
sums stabilise p-adically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

# eisenstein.bernoulli is looked up per call, so a wrapper installed on the
# module (such as perfbench's tracer) sees the series' indices too.
from . import eisenstein
from .eisenstein import chi4, l_chi4_neg, zeta_star
from .exactnum import INFINITY, _require_prime, padic_digits, vp

# Digits certified beyond the request.  A row is certified only while its
# valuation gap is below the oracle's exponent, and at 40 digits some rows of
# the default windows already have gaps of 43.
_SLACK = 16
# Precision of the Newton cross-check; its node weights grow with the digits.
_NEWTON_BITS = 40
_MIN_POINTS = 4
_MAX_POINTS = 64
_EXACT_HIT_MARGIN = 64


class OracleInconsistency(AssertionError):
    """Two evaluations that must agree p-adically disagree."""


class PadicValue(NamedTuple):
    """A rational representative of a p-adic number with a trust radius.

    ``representative`` agrees with the underlying p-adic number at least
    up to (but excluding) ``p ** agreement_exponent``.
    """

    representative: Fraction
    agreement_exponent: int
    p: int

    def digits(self, count: int = 10) -> list[tuple[int, int]]:
        """Leading canonical digits of the representative that lie below
        the agreement exponent: the ones past it are not certified."""
        pairs = padic_digits(self.representative, self.p, count)
        return [pair for pair in pairs if pair[0] < self.agreement_exponent]


def _require_agreement(value: PadicValue, other: PadicValue) -> None:
    """Raise OracleInconsistency unless two approximations of one p-adic
    number agree to the weaker of their exponents."""
    floor = min(value.agreement_exponent, other.agreement_exponent)
    if vp(value.representative - other.representative, value.p) < floor:
        raise OracleInconsistency(
            "representatives disagree below the shared agreement exponent"
        )


def _modulus(p: int, t: int) -> int:
    """The period (p - 1) * p**t of the weight classes used for nodes."""
    return (p - 1) * p**t


def _stride_exponent(p: int, n: int) -> int:
    """Least t with M = (p - 1) * p**t >= 16, the spacing the cross-check is
    sized for, and M > 2n: the first node M - 2n must be a positive weight,
    and -2n not 0 mod M, the class of the pole of zeta_p, where differences
    do not shrink (at p = 2, n = 8, M = 16, nodes 16, 32, ... keep
    valuations -11 to -5 for 64 nodes)."""
    t = 0
    while _modulus(p, t) <= max(15, 2 * n):
        t += 1
    return t


def _clamp(exponent, target: int) -> int:
    if exponent == INFINITY:
        return target + _EXACT_HIT_MARGIN
    return int(exponent)


def _interpolated_limit(
    g: Callable[[int], Fraction], p: int, modulus: int, n: int, target: int
) -> PadicValue:
    """Newton-extrapolate g(M*(j+1) - 2n) to j = -1, tracking stabilization.

    The running partial sum adds ``(-1)**j * delta^j g(0)`` at step j; the
    agreement exponent is the minimum valuation of the last two increments.
    Stops once that reaches ``target`` (or the point budget runs out) and
    returns the best stabilized value seen.
    """
    diagonal: list[Fraction] = []
    total = Fraction(0)
    sign = 1
    increments: list = []
    best_total = None
    best_exponent = None
    for j in range(_MAX_POINTS):
        value = g(modulus * (j + 1) - 2 * n)
        new_diagonal = [value]
        for previous in diagonal:
            new_diagonal.append(new_diagonal[-1] - previous)
        diagonal = new_diagonal
        term = sign * diagonal[-1]
        if j > 0:
            increments.append(vp(term, p))
        total += term
        sign = -sign
        if j + 1 < _MIN_POINTS or len(increments) < 2:
            continue
        stabilized = _clamp(min(increments[-2], increments[-1]), target)
        if best_exponent is None or stabilized > best_exponent:
            best_exponent = stabilized
            best_total = total
        if best_exponent >= target:
            break
    if best_exponent is None:
        raise OracleInconsistency("not enough interpolation nodes to stabilize")
    return PadicValue(best_total, best_exponent, p)


def _residue(x: Fraction, modulus: int) -> int:
    """x modulo a power of p, for x with denominator prime to p."""
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def _series_limit(
    twist: Callable[[int], int], p: int, s_minus_1: int, m: int, exponent: int
) -> PadicValue:
    """L_p(s) by the Washington series at F = p**m, certified to `exponent`.

    ``twist(a)`` is chi(a) * omega(a)**(s - 1), so that w(a) = twist(a) *
    a**(1 - s).  The inner sum times p is summed modulo p**K with terms
    j <= J, where K and (J + 1) * m both reach ``exponent`` plus the
    valuation lost to 1 / (p (s - 1) F).
    """
    f = p**m
    precision = exponent + 1 + m + vp(s_minus_1, p)
    modulus = p**precision
    top = -(-precision // m) - 1
    # (binom(1-s, j) p B_j, p**(precision - j m)) for even j (odd j > 1 have
    # B_j = 0); term j has valuation j m, so Horner needs the sum from term j
    # on only modulo the second entry.
    coefficients = []
    linear = 0
    binomial = 1
    for j in range(top + 1):
        if j:
            binomial = binomial * (-s_minus_1 - j + 1) // j
        if j == 1:
            linear = _residue(Fraction(-p * binomial, 2), modulus)
        elif j % 2 == 0:
            residue = _residue(p * binomial * eisenstein.bernoulli(j), modulus)
            coefficients.append((residue, p ** (precision - j * m)))
    total = 0
    for a in range(1, f + 1):
        if a % p == 0:
            continue
        x = f * pow(a, -1, modulus) % modulus
        y = x * x % modulus
        inner = 0
        for coefficient, reduced in reversed(coefficients):
            inner = (inner * y + coefficient) % reduced
        total += twist(a) * pow(a, -s_minus_1, modulus) * (inner + linear * x)
    return PadicValue(Fraction(total % modulus, p * s_minus_1 * f), exponent, p)


def _oracle(
    twist: Callable[[int], int],
    s_minus_1: int,
    g: Callable[[int], Fraction],
    p: int,
    n: int,
    target_bits: int,
) -> PadicValue:
    """The series value at target_bits + _SLACK digits, once the series at
    the next m and the Newton limit of g have agreed with it."""
    if target_bits < 1:
        raise ValueError("target_bits must be positive")
    # The least m with F = p**m >= 8, which makes 4 | F at p = 2.
    m = next(k for k in range(1, 4) if p**k >= 8)
    exponent = target_bits + _SLACK
    value = _series_limit(twist, p, s_minus_1, m, exponent)
    _require_agreement(value, _series_limit(twist, p, s_minus_1, m + 1, exponent))
    modulus = _modulus(p, _stride_exponent(p, n))
    _require_agreement(
        value, _interpolated_limit(g, p, modulus, n, min(target_bits, _NEWTON_BITS))
    )
    return value


def zeta_p_oracle(p: int, n: int = 1, target_bits: int = 40) -> PadicValue:
    """The p-adic zeta value zeta_p(2n + 1) = L_p(2n + 1, omega^(-2n)).

    Returns a rational representative of the limit of
    ``(1 - p**(2k-1)) * zeta(1 - 2k)`` as ``2k -> -2n`` in Z_p with
    ``2k = -2n`` mod ``p - 1``, together with a proven agreement exponent of
    ``target_bits + _SLACK``.
    """
    _require_prime(p)
    if n < 1:
        raise ValueError("n must be a positive integer")
    return _oracle(
        lambda a: 1, 2 * n, lambda two_k: zeta_star(p, two_k), p, n, target_bits
    )


def catalan_2adic_oracle(target_bits: int = 40) -> PadicValue:
    """The 2-adic Catalan constant L_2(2): the limit of E_{2k}/2 as 2k -> -2."""
    return _oracle(chi4, 1, l_chi4_neg, 2, 1, target_bits)
