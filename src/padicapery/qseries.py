"""Exact truncated power series in q and their re-expansion in a uniformizer.

A series of precision N is the jet c_0 + c_1 q + ... + c_{N-1} q^{N-1}, held as
integer numerators over one positive denominator in lowest terms (1 for an
integral series), so the ring operations run in integers and are exact; binary
operations narrow to the smaller precision of the two operands rather than
padding with fabricated zeros.  N >= 1: the constructor refuses a smaller
precision, and the builders here and in eisenstein pass theirs to it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable

__all__ = ["QSeries", "expand_product", "reexpand"]


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
        if not isinstance(other, QSeries):
            return NotImplemented
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


def expand_product(eta: tuple[tuple[int, int], ...], prec: int) -> QSeries:
    """Expand the eta quotient prod eta(delta tau)^r over the (delta, r) pairs
    of eta to exactly prec terms.

    Since eta(tau) = q^(1/24) prod_{n>=1} (1 - q^n), the quotient is q^s P with
    s = sum delta r / 24, which must be a whole number >= 0, and
    P = prod (1 - q^(delta n))^r integral.  P is built from its logarithmic
    derivative theta(P)/P = sum c_n q^n: a pair takes r d off c_n for every
    multiple d of delta that divides n, so c is one divisor sieve over the
    pairs; then n P_n = sum_{j=1..n} c_j P_{n-j}, P_0 = 1.

    eta(24 tau) = sum_k (-1)^k q^((6k+1)^2), Euler's pentagonal theorem:

    >>> s = expand_product(((24, 1),), 170)
    >>> [(n, c) for n, c in enumerate(s.nums) if c]
    [(1, 1), (25, -1), (49, -1), (121, 1), (169, 1)]
    """
    if any(delta < 1 or not isinstance(r, int) for delta, r in eta):
        raise ValueError("an eta factor needs delta >= 1 and an integer exponent")
    power, rest = divmod(sum(delta * r for delta, r in eta), 24)
    if power < 0 or rest:
        raise ValueError("the q-power sum(delta * r) / 24 must be a whole number >= 0")
    size = prec - power
    c = [0] * size
    for delta, r in eta:
        for d in range(delta, size, delta):
            for n in range(d, size, d):
                c[n] -= r * d
    coeffs = [1]
    for n in range(1, size):
        # P has integer coefficients, so the sum is n times one of them and
        # // is exact.
        coeffs.append(sum(map(mul, c[1 : n + 1], reversed(coeffs))) // n)
    return QSeries([0] * power + coeffs, prec)


def reexpand(
    h: QSeries, f: QSeries, count: int, *more: QSeries
) -> list[tuple[Fraction, ...]]:
    """Rewrite h, and each series in `more`, as power series in f: row m of
    the result holds [f^m] of h, then of each series in `more`, for m < count.

    Contract: f is integral and f = q + O(q^2), so f^m starts at q^m with
    coefficient 1 and [f^m]H needs only q^0..q^m of H and f.  One pass over
    the powers f^m peels every series in integers, keeping f^m only.
    """
    hs = (h, *more)
    if count < 1 or count > min(s.prec for s in (*hs, f)):
        raise ValueError("count must be within the available precision")
    if f[0] != 0 or f[1] != 1:
        raise ValueError("re-expansion needs a uniformizer f = q + O(q^2)")
    if f.den != 1:
        raise ValueError("re-expansion needs a uniformizer with integer coefficients")
    # f = q + sum_j c_j q^j over the nonzero c_j with j >= 2.
    tail = [(j, c) for j, c in enumerate(f.nums[2:count], 2) if c]
    rems = [list(s.nums[:count]) for s in hs]
    fpow = [1] + [0] * (count - 1)  # f^m; entries below q^m are stale
    out = []
    for m in range(count):
        row = []
        for rem, s in zip(rems, hs):
            c = rem[m]
            row.append(Fraction(c, s.den))
            if c:
                for i in range(m + 1, count):
                    rem[i] -= c * fpow[i]
        out.append(tuple(row))
        # f^(m+1) = f^m * f in place, top down so f^m is read before it is
        # overwritten.
        for i in range(count - 1, m, -1):
            acc = fpow[i - 1]
            for j, c in tail:
                if i - j < m:
                    break
                acc += c * fpow[i - j]
            fpow[i] = acc
    return out
