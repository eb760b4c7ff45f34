"""Truncated formal power series in q with exact rational coefficients.

A series of precision N is the jet c_0 + c_1 q + ... + c_{N-1} q^{N-1}; all
arithmetic is exact, and binary operations narrow to the smaller precision of
the two operands rather than padding with fabricated zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable

__all__ = ["DEFAULT_PREC", "QSeries", "ProductRecipe", "expand_product"]

#: Working precision used by callers that do not have a better-informed choice.
DEFAULT_PREC = 64

_Scalar = (int, Fraction)


class QSeries:
    """Dense truncated power series; immutable once constructed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int], prec: int | None = None):
        cs = [Fraction(c) for c in coeffs]
        if prec is not None:
            if prec < 1:
                raise ValueError("precision must be >= 1")
            cs = cs[:prec] + [Fraction(0)] * (prec - len(cs))
        if not cs:
            raise ValueError("a series needs at least its constant term")
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, prec: int) -> "QSeries":
        return cls([], prec)

    @classmethod
    def one(cls, prec: int) -> "QSeries":
        return cls([1], prec)

    @classmethod
    def gen(cls, prec: int) -> "QSeries":
        """The series q."""
        return cls([0, 1], prec)

    # -- basic protocol ----------------------------------------------------

    @property
    def prec(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def numerators(self, n: int) -> tuple[list[int], int]:
        """The first n coefficients as integers over the lcm d of their
        denominators, and d."""
        cs = self.coeffs[:n]
        d = lcm(*(c.denominator for c in cs))
        return [c.numerator * (d // c.denominator) for c in cs], d

    def __eq__(self, other) -> bool:
        # Jets agree when they agree on every index both sides can see.  That
        # is not transitive across precisions, so jets define no __hash__.
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.prec, other.prec)
        return self.coeffs[:n] == other.coeffs[:n]

    def __repr__(self) -> str:
        body = " + ".join(
            f"{c}*q^{i}" for i, c in enumerate(self.coeffs[:6]) if c
        ) or "0"
        return f"QSeries({body} + O(q^{self.prec}))"

    # -- ring operations ---------------------------------------------------

    def __neg__(self) -> "QSeries":
        return QSeries([-c for c in self.coeffs])

    def __add__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.prec, other.prec)
        return QSeries([self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __sub__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + -other

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, _Scalar):
            c = Fraction(other)
            return QSeries([a * c for a in self.coeffs])
        # Integer convolution: one gcd per output coefficient, not per term.
        n = min(self.prec, other.prec)
        a, da = self.numerators(n)
        b, db = other.numerators(n)
        out = [0] * n
        for i in range(n):
            ai = a[i]
            if ai:
                for j in range(n - i):
                    bj = b[j]
                    if bj:
                        out[i + j] += ai * bj
        den = da * db
        return QSeries([Fraction(c, den) for c in out])

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
        return QSeries([n * c for n, c in enumerate(self.coeffs)])

    def substitute_q_power(self, k: int) -> "QSeries":
        """q -> q**k at unchanged precision (used for level raising)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        out = [Fraction(0)] * self.prec
        for i, c in enumerate(self.coeffs):
            if i * k >= self.prec:
                break
            out[i * k] = c
        return QSeries(out)


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
