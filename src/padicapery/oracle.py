"""Independent p-adic evaluation of the limits the sequence tables approach.

The special values targeted by the approximant tables are limits, along a
p-adic path, of classical L-values at negative integers:

* ``zeta_p_oracle(p, n)`` evaluates the p-adic limit of
  ``(1 - p**(2k-1)) * zeta(1 - 2k)`` as the even weight ``2k`` tends to
  ``-2n`` in Z_p, which is the p-adic zeta value attached to ``2n + 1``.
* ``catalan_2adic_oracle()`` evaluates the 2-adic limit of
  ``L(-2k, chi4) = E_{2k} / 2`` as ``2k`` tends to ``-2``, the 2-adic
  Catalan constant.

Both follow the same scheme.  Pick a modulus ``M`` that is a multiple of
``(p - 1) * p**t``; the map ``2k -> L-value`` is continuous on the residue
class of ``-2n`` modulo ``M``, so the nodes ``2k_j = M * (j + 1) - 2n``
march toward ``-2n`` p-adically while growing in the archimedean sense.
Newton forward differences extrapolate the node values to ``j = -1``
(the value ``-2n`` itself).  The partial sums of the extrapolation series
stabilize p-adically; the valuation of the last two increments is a
certified agreement exponent for the returned representative.

A second, slower strategy (a single node of weight ``M_t - 2n`` for
growing ``t``) certifies only a few digits under the same node budget,
but is computed independently and must agree with the interpolated value
to the weaker of the two exponents.  The oracle raises
``OracleInconsistency`` if it does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .eisenstein import l_chi4_neg, zeta_star
from .exactnum import INFINITY, padic_digits, vp

_STRIDE_EXPONENT = {2: 4, 3: 2}
_MIN_POINTS = 4
_MAX_POINTS = 64
_DIRECT_NODE_CAP = 512
_EXACT_HIT_MARGIN = 64


class OracleInconsistency(AssertionError):
    """Two evaluations that must agree p-adically disagree."""


@dataclass(frozen=True)
class PadicValue:
    """A rational representative of a p-adic number with a trust radius.

    ``representative`` agrees with the underlying p-adic number at least
    up to (but excluding) ``p ** agreement_exponent``.
    """

    representative: Fraction
    agreement_exponent: int
    p: int

    def digits(self, count: int = 10) -> list[tuple[int, int]]:
        """Leading canonical digits of the representative."""
        return padic_digits(self.representative, self.p, count)

    def combine(self, other: "PadicValue") -> "PadicValue":
        """Merge two approximations of the same number.

        Their representatives must agree to the weaker of the two
        exponents; the tighter approximation is returned.
        """
        if self.p != other.p:
            raise ValueError("cannot combine values over different primes")
        floor = min(self.agreement_exponent, other.agreement_exponent)
        if vp(self.representative - other.representative, self.p) < floor:
            raise OracleInconsistency(
                "representatives disagree below the shared agreement exponent"
            )
        if self.agreement_exponent >= other.agreement_exponent:
            return self
        return other


def _modulus(p: int, t: int) -> int:
    """The period (p - 1) * p**t of the weight classes used for nodes."""
    return (p - 1) * p**t


def _stride_exponent(p: int, n: int) -> int:
    """Smallest usable t: the default per prime, raised until M > 2n."""
    t = _STRIDE_EXPONENT[p]
    while _modulus(p, t) <= 2 * n:
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


def _direct_limit(
    g: Callable[[int], Fraction], p: int, n: int, t0: int
) -> PadicValue | None:
    """Evaluate g at single nodes M_t - 2n for growing t.

    Certifies few digits under the node cap but is independent of the
    interpolation order, so it anchors the cross-check.  Returns None when
    the cap leaves fewer than three usable nodes.
    """
    values = []
    t = t0
    while True:
        node = _modulus(p, t) - 2 * n
        if node > _DIRECT_NODE_CAP:
            break
        if node >= 2:
            values.append(g(node))
        t += 1
    if len(values) < 3:
        return None
    increments = [vp(values[i + 1] - values[i], p) for i in range(len(values) - 1)]
    exponent = _clamp(min(increments[-2], increments[-1]), _DIRECT_NODE_CAP)
    return PadicValue(values[-1], exponent, p)


def _oracle(
    g: Callable[[int], Fraction], p: int, n: int, target_bits: int
) -> PadicValue:
    if target_bits < 1:
        raise ValueError("target_bits must be positive")
    t = _stride_exponent(p, n)
    newton = _interpolated_limit(g, p, _modulus(p, t), n, target_bits)
    direct = _direct_limit(g, p, n, t)
    if direct is not None:
        newton = newton.combine(direct)
    return newton


def zeta_p_oracle(p: int, n: int = 1, target_bits: int = 40) -> PadicValue:
    """The p-adic zeta limit at -2n, for p in {2, 3}.

    Returns a rational representative of the limit of
    ``(1 - p**(2k-1)) * zeta(1 - 2k)`` as ``2k -> -2n`` in Z_p, together
    with a certified agreement exponent of at least ``target_bits`` when
    the node budget allows (it does for the defaults).
    """
    if p not in _STRIDE_EXPONENT:
        raise ValueError("oracle is implemented for p = 2 and p = 3 only")
    if n < 1:
        raise ValueError("n must be a positive integer")
    return _oracle(lambda two_k: zeta_star(p, two_k), p, n, target_bits)


def catalan_2adic_oracle(target_bits: int = 40) -> PadicValue:
    """The 2-adic Catalan constant: the limit of E_{2k}/2 as 2k -> -2."""
    return _oracle(l_chi4_neg, 2, 1, target_bits)

