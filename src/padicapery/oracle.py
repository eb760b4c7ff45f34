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
precision, Newton extrapolation of exact L-values at the weights ``m_j =
M * (j + 1) - 2n`` (``M = (p - 1) * p**t``), whose partial sums stabilise
p-adically.  The pole of zeta_p at s = 1 is simple (Thm 5.11), so the zeta
nodes are values of the analytic ``(s - 1) zeta_p(s)`` at s = 1 - m_j,
divided by its ``s - 1 = 2n`` at the target: ``-m * zeta*(p, m) / (2n) =
(1 - p**(m-1)) * B_m / (2n)``, whose limit at m = -2n is zeta_p(2n + 1)
itself.  The Catalan nodes are the L-values, chi4 having no pole.  The
extrapolation must stabilise to ``min(target_bits, 40)`` digits, or the
oracle raises ``OracleInconsistency`` too.
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
# Digits the Newton cross-check must reach, or fewer if fewer are requested;
# its node weights grow with them.
_NEWTON_BITS = 40
_MIN_POINTS = 4
_MAX_POINTS = 64
_EXACT_HIT_MARGIN = 64


class OracleInconsistency(AssertionError):
    """Two evaluations that must agree p-adically disagree."""


class PadicValue(NamedTuple):
    """A rational representative of a p-adic number with a trust radius.

    ``representative`` agrees with the underlying p-adic number at least
    up to (but excluding) ``p ** agreement_exponent``.  ``limit`` names that
    number as (oracle target, n), such as ("zeta-p2", 1), where it is known.
    """

    representative: Fraction
    agreement_exponent: int
    p: int
    limit: tuple[str, int] | None = None

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


def _node_spacing(p: int, n: int) -> int:
    """The spacing M = (p - 1) * p**t of the Newton nodes, a period of the
    weight classes, at the least t with M > 2n, so that the first node M - 2n
    is a positive weight (and M >= 4, as n >= 1).  The zeta nodes are values
    of (s - 1) zeta_p(s), which has no pole, so no class of weights needs to
    be kept away from s = 1."""
    spacing = p - 1
    while spacing <= 2 * n:
        spacing *= p
    return spacing


def _interpolated_limit(
    g: Callable[[int], Fraction], p: int, spacing: int, n: int, target: int
) -> PadicValue:
    """Newton-extrapolate g(spacing*(j+1) - 2n) to j = -1, to ``target`` digits.

    The running partial sum adds ``(-1)**j * delta^j g(0)`` at step j and has
    stabilised to the lesser valuation of the last two increments.  Returns
    the first sum, from node _MIN_POINTS on, stabilised to ``target``, with its
    exponent; if _MAX_POINTS nodes do not get there, raises OracleInconsistency
    naming the most digits any node reached.
    """
    diagonal: list[Fraction] = []
    total = Fraction(0)
    last = INFINITY
    reached = -INFINITY
    for j in range(_MAX_POINTS):
        # delta^k g(j - k) for k = 0..j, from the previous diagonal.
        new_diagonal = [g(spacing * (j + 1) - 2 * n)]
        for previous in diagonal:
            new_diagonal.append(new_diagonal[-1] - previous)
        diagonal = new_diagonal
        term = (-1) ** j * diagonal[-1]
        total += term
        increment = vp(term, p)
        if j + 1 >= _MIN_POINTS:
            stabilized = min(last, increment)
            if stabilized == INFINITY:
                stabilized = target + _EXACT_HIT_MARGIN
            if stabilized >= target:
                return PadicValue(total, stabilized, p)
            reached = max(reached, stabilized)
        last = increment
    raise OracleInconsistency(f"Newton cross-check reached {reached} of {target} digits")


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
    target: str,
    twist: Callable[[int], int],
    s_minus_1: int,
    g: Callable[[int], Fraction],
    p: int,
    n: int,
    target_bits: int,
) -> PadicValue:
    """The series value at target_bits + _SLACK digits, with limit (target,
    n), once the series at the next m has agreed with it, and so has the
    Newton limit of g, which reaches min(target_bits, _NEWTON_BITS) digits or
    raises."""
    if target_bits < 1:
        raise ValueError("target_bits must be positive")
    # The least m with F = p**m >= 8, which makes 4 | F at p = 2.
    m = next(k for k in range(1, 4) if p**k >= 8)
    exponent = target_bits + _SLACK
    value = _series_limit(twist, p, s_minus_1, m, exponent)
    _require_agreement(value, _series_limit(twist, p, s_minus_1, m + 1, exponent))
    depth = min(target_bits, _NEWTON_BITS)
    _require_agreement(value, _interpolated_limit(g, p, _node_spacing(p, n), n, depth))
    return value._replace(limit=(target, n))


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
        f"zeta-p{p}", lambda a: 1, 2 * n, lambda m: -m * zeta_star(p, m) / (2 * n), p, n,
        target_bits,
    )


def catalan_2adic_oracle(target_bits: int = 40) -> PadicValue:
    """The 2-adic Catalan constant L_2(2), the limit of E_{2k}/2 as 2k -> -2,
    as a rational representative with a proven agreement exponent of
    ``target_bits + _SLACK``."""
    return _oracle("catalan", chi4, 1, l_chi4_neg, 2, 1, target_bits)
