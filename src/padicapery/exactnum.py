"""Exact number helpers: primality, p-adic valuations and digits, log sizes.

Valuations and digits take a rational as an int or a `fractions.Fraction` and
work in integers on its reduced numerator and denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "INFINITY",
    "is_prime",
    "vp",
    "padic_digits",
    "log_size",
]

#: Valuation of zero.  Compares correctly against every integer valuation.
INFINITY = math.inf


def is_prime(p: int) -> bool:
    """Trial-division primality check; the moduli used here are tiny."""
    return p >= 2 and all(p % f for f in range(2, math.isqrt(p) + 1))


def _require_prime(p: int) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be a prime integer, got {p!r}")


def _int_valuation(n: int, p: int) -> int:
    # n must be nonzero.  O(log v) big divisions: strip p, p^2, p^4, ...
    # while they divide, then the remaining valuation, below the next power
    # tried, bit by bit from the largest of those powers down.
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    powers = []
    power = p
    while n % power == 0:
        n //= power
        v += 1 << len(powers)
        powers.append(power)
        power *= power
    for j in reversed(range(len(powers))):
        if n % powers[j] == 0:
            n //= powers[j]
            v += 1 << j
    return v


def vp(x: Fraction | int, p: int):
    """p-adic valuation of a rational.

    Returns the integer v with x = p**v * (unit), and INFINITY iff x == 0,
    so that vp(x*y) = vp(x) + vp(y) holds without special cases.
    """
    _require_prime(p)
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


def padic_digits(x: Fraction | int, p: int, count: int) -> list[tuple[int, int]]:
    """First `count` nonzero p-adic digits of x as (exponent, digit) pairs.

    Exponents are strictly increasing and digits lie in 1..p-1; summing
    digit * p**exponent over the list reproduces x to p-adic order beyond the
    last listed exponent.  A terminating expansion may return fewer pairs.

    >>> padic_digits(Fraction(1, 3), 2, 3)
    [(0, 1), (1, 1), (3, 1)]
    """
    _require_prime(p)
    if count < 1:
        raise ValueError("count must be positive")
    # x = num/den * p**v with den a unit: peel num/den mod p, divide num by p.
    num, den = Fraction(x).as_integer_ratio()
    v = -_int_valuation(den, p)
    den //= p**-v
    inv = pow(den, -1, p)
    out: list[tuple[int, int]] = []
    while num and len(out) < count:
        d = num * inv % p
        if d:
            out.append((v, d))
            num -= d * den
        num //= p
        v += 1
    return out


def log_size(n: int) -> float:
    """Natural log of a positive integer, such as a height max(|p_n|, q_n).

    Good to well over 12 significant digits even for operands that overflow
    float conversion.  Past 512 bits it is not math.log: the two differ in the
    tenth decimal that certify prints on 16 of the 12,544 rows 0..255 over all
    49 cases (zeta-p2 row 88 reads 594.8495147840, math.log ...841), and the
    pinned certify digests hold these bytes.
    """
    if n.bit_length() <= 512:
        return math.log(n)
    shift = n.bit_length() - 64
    return math.log(n >> shift) + shift * math.log(2)
