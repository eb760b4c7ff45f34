"""Truncated formal power series in q with exact rational coefficients.

A series of precision N is the jet c_0 + c_1 q + ... + c_{N-1} q^{N-1}, held as
integer numerators over one positive denominator in lowest terms (1 for an
integral series), so the ring operations run in integers and are exact; binary
operations narrow to the smaller precision of the two operands rather than
padding with fabricated zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable

__all__ = ["QSeries", "ProductRecipe", "expand_product"]


class QSeries:
    """Dense truncated power series; immutable once constructed.  Coefficient
    n is nums[n] / den; QSeries(cs, den=d), d a positive int, has cs[n] / d.

    >>> s = QSeries([Fraction(1, 2), 3])
    >>> s.nums, s.den
    ((1, 6), 2)
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Fraction | int], prec: int | None = None, *, den=1):
        cs = list(coeffs)
        if prec is not None:
            if prec < 1:
                raise ValueError("precision must be >= 1")
            cs = cs[:prec] + [0] * (prec - len(cs))
        if not cs:
            raise ValueError("a series needs at least its constant term")
        d = lcm(*(c.denominator for c in cs))
        nums = [c.numerator * (d // c.denominator) for c in cs]
        g = gcd(den * d, *nums)
        self.nums: tuple[int, ...] = tuple(nums) if g == 1 else tuple(c // g for c in nums)
        self.den: int = den * d // g

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, prec: int) -> "QSeries":
        return cls([1], prec)

    # -- basic protocol ----------------------------------------------------

    @property
    def prec(self) -> int:
        return len(self.nums)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    def __getitem__(self, n: int) -> Fraction:
        return Fraction(self.nums[n], self.den)

    def __eq__(self, other) -> bool:
        # Jets agree when they agree on every index both sides can see.  That
        # is not transitive across precisions, so jets define no __hash__.
        if not isinstance(other, QSeries):
            return NotImplemented
        return all(a * other.den == b * self.den for a, b in zip(self.nums, other.nums))

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*q^{i}" for i, c in enumerate(self.coeffs[:6]) if c)
        return f"QSeries({body or 0} + O(q^{self.prec}))"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return QSeries([a * sa + b * sb for a, b in zip(self.nums, other.nums)], den=den)

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            c = other.numerator
            return QSeries([a * c for a in self.nums], den=self.den * other.denominator)
        # Integer convolution over the product of the two denominators.
        n = min(self.prec, other.prec)
        out = [0] * n
        for i, a in enumerate(self.nums[:n]):
            if a:
                for j, b in enumerate(other.nums[: n - i], i):
                    if b:
                        out[j] += a * b
        return QSeries(out, den=self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QSeries":
        if e < 0:
            raise ValueError("negative powers are not supported")
        out = QSeries.one(self.prec)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # -- operators specific to q-expansions ---------------------------------

    def theta(self) -> "QSeries":
        """q d/dq: multiplies the n-th coefficient by n."""
        return QSeries([n * c for n, c in enumerate(self.nums)], den=self.den)


@dataclass(frozen=True)
class ProductRecipe:
    """q**leading_power * prod over factors (sign, stride, exponent) of
    prod_{n>=1} (1 + sign * q**(stride*n)) ** exponent.

    Signs are +-1, strides positive, exponents any integer.  Every factor is a
    power of 1 + O(q) with integer coefficients (for a negative exponent, the
    generalized binomial series), so the product is integral.
    """

    leading_power: int
    factors: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.leading_power < 0:
            raise ValueError("leading power must be >= 0")
        for sign, stride, exponent in self.factors:
            if sign not in (1, -1):
                raise ValueError("factor sign must be +1 or -1")
            if stride < 1:
                raise ValueError("factor stride must be >= 1")
            if not isinstance(exponent, int):
                raise ValueError("factor exponent must be an integer")


def expand_product(recipe: ProductRecipe, prec: int) -> QSeries:
    """Expand an eta-like infinite product to the requested precision.

    The product P (without its leading power of q) is built from its
    logarithmic derivative theta(P)/P = sum c_N q^N.  A factor
    (1 + sign * q^d)^e adds -e * d * (-sign)^r to c_{d*r}, so c is one divisor
    sieve over the factors; then N P_N = sum_{j=1..N} c_j P_{N-j}, P_0 = 1.
    """
    if prec < 1:
        raise ValueError("precision must be >= 1")
    size = prec - recipe.leading_power
    c = [0] * size
    for sign, stride, exponent in recipe.factors:
        for d in range(stride, size, stride):
            for n in range(d, size, d):
                c[n] -= exponent * d * (-sign) ** (n // d)
    coeffs = [1]
    for n in range(1, size):
        # P has integer coefficients (see ProductRecipe), so the sum is n
        # times one of them and // is exact.
        coeffs.append(sum(map(mul, c[1 : n + 1], reversed(coeffs))) // n)
    return QSeries([0] * recipe.leading_power + coeffs, prec)
