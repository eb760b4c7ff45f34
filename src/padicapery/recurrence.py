"""Polynomial-coefficient recurrences satisfied by the sequence tables.

A recurrence of order r and degree d is a relation

    P_0(n) u_{n+1} + P_1(n) u_n + ... + P_r(n) u_{n+1-r} = 0

with integer polynomial coefficients, holding for all n past some start.
Every built-in relation below is shared by the a- and b-columns of its
case; ``column_violations`` is the one place that says from which n on
each column satisfies it.  Each has zero residuals against re-expanded
tables through n = 254.  ``expansion.sequences`` checks it with
``column_violations`` on a re-expanded prefix and then runs it past the
prefix in integers with ``extend_integers``; ``recurrence verify`` makes
the same call on tables built by re-expansion alone.

``fit_recurrence`` recovers such a relation from raw values, integers (b)
or Fractions (a), by cutting its solution space down one equation at a
time in integers, and refuses when it is not unique up to scale.  A fitted
spec proves nothing by itself, but verifying it on rows not used in the fit
is a strong structural check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

CoeffPoly = tuple[int, ...]


@dataclass(frozen=True)
class RecurrenceSpec:
    """Coefficient polynomials, ascending powers of n, index i = 0..order."""

    coeff_polys: tuple[CoeffPoly, ...]

    def __post_init__(self):
        if not self.coeff_polys:
            raise ValueError("a recurrence needs at least one coefficient")
        if any(len(poly) == 0 for poly in self.coeff_polys):
            raise ValueError("empty coefficient polynomial")
        if all(c == 0 for c in self.coeff_polys[0]):
            raise ValueError("leading coefficient polynomial is identically zero")

    @property
    def order(self) -> int:
        return len(self.coeff_polys) - 1

    @property
    def degree(self) -> int:
        return max(len(poly) - 1 for poly in self.coeff_polys)

    def poly_value(self, i: int, n: int) -> int:
        value = 0
        for coeff in reversed(self.coeff_polys[i]):
            value = value * n + coeff
        return value


# (n+1)^2 u_{n+1} + (32n^2 - 4) u_n + 256 (n-1)^2 u_{n-1} = 0
CATALAN_P2 = RecurrenceSpec(((1, 2, 1), (-4, 0, 32), (256, -512, 256)))
# (n+1)^3 (2n-1) u_{n+1} + 8 (32n^4 - 12n^2 + 3) u_n
#     + 2^12 (n-1)^3 (2n+1) u_{n-1} = 0
ZETA_P2 = RecurrenceSpec(
    ((-1, -1, 3, 5, 2), (24, 0, -96, 0, 256), (-4096, 4096, 12288, -20480, 8192))
)
# (n+1)^3 (2n-1) u_{n+1} + 12 (9n^4 - 4n^2 + 1) u_n
#     + 3^6 (n-1)^3 (2n+1) u_{n-1} = 0
ZETA_P3 = RecurrenceSpec(
    ((-1, -1, 3, 5, 2), (12, 0, -48, 0, 108), (-729, 729, 2187, -3645, 1458))
)
# fit_recurrence(b[:47], 2, 10) on the zeta-p2 k = 2 table.  Factored:
#   P_0 = (n+1)^5 (108n^5 - 420n^4 + 770n^3 - 735n^2 + 357n - 70),
#   P_2 = 2^12 (n-1)^5 (108n^5 + 120n^4 + 170n^3 + 135n^2 + 57n + 10).
ZETA_P2_K2 = RecurrenceSpec(
    (
        (-70, 7, 350, -35, -700, 73, 722, -5, -250, 120, 108),
        (-2400, -1440, 12168, 7200, -24840, -13920, 24288, 12000, -320, -19200, 13824),
        (
            -40960, -28672, 204800, 143360, -409600, -544768,
            1728512, -2437120, 2662400, -1720320, 442368,
        ),
    )
)
# fit_recurrence(b[:46], 4, 5) on the zeta-p5 table.  Factored:
#   P_0 = (n+1)^3 (n^2 - 3n + 17),  P_4 = 5^6 (n-3)^3 (n^2 - n + 15).
ZETA_P5 = RecurrenceSpec(
    (
        (17, 48, 43, 11, 0, 1),
        (-102, -186, 30, 684, -110, 44),
        (-6908, 29992, -37562, 17414, -3670, 734),
        (-595750, 1017750, -626750, 195500, -41250, 5500),
        (-6328125, 6750000, -2953125, 796875, -156250, 15625),
    )
)


def verify_recurrence(
    spec: RecurrenceSpec, seq: Sequence, start: int
) -> list[tuple[int, Fraction | int]]:
    """The residuals, the left-hand side of the relation at n, that fail to
    vanish for n = start .. len(seq) - 2, exact for int and Fraction values."""
    if start < spec.order - 1:
        raise ValueError("start must be at least order - 1")
    violations = []
    for n in range(start, len(seq) - 1):
        value = sum(spec.poly_value(i, n) * seq[n + 1 - i] for i in range(spec.order + 1))
        if value:
            violations.append((n, value))
    return violations


def column_violations(
    spec: RecurrenceSpec, b_list: Sequence, a_list: Sequence
) -> dict[str, tuple[int, list[tuple[int, Fraction | int]]]]:
    """Check a case's relation on both columns of its table, through
    n = len - 2: {"b": (start, violations), "a": (start, violations)}.

    The b-column satisfies the relation from n = order - 1 on, the a-column
    only from n = order, because its seed breaks the relation that first
    touches it.  The a-column is checked in integers, over its common denominator.
    """
    den = lcm(*(a.denominator for a in a_list))
    a_nums = [a.numerator * (den // a.denominator) for a in a_list]
    return {
        column: (start, verify_recurrence(spec, seq, start))
        for column, seq, start in (("b", b_list, spec.order - 1), ("a", a_nums, spec.order))
    }


def extend_integers(
    spec: RecurrenceSpec,
    values: list[int],
    end: int,
    scales: Sequence[int] | None = None,
) -> list[int]:
    """Run the relation forward from the end of the given values to end terms.

    values[n] is u_n * scales[n], an integer, where each scale divides the
    next (all 1 when scales is None).  The relation is not checked on the
    given values; each later term is solved for in integers.  A vanishing
    leading polynomial or a division that is not exact raises ArithmeticError.
    """
    if len(values) < spec.order:
        raise ValueError("values must hold at least order terms")
    out = list(values)
    for n in range(len(values) - 1, end - 1):
        acc = 0
        for i in range(1, spec.order + 1):
            term = spec.poly_value(i, n) * out[n + 1 - i]
            acc += term if scales is None else term * (scales[n + 1] // scales[n + 1 - i])
        lead = spec.poly_value(0, n)
        if lead == 0:
            raise ZeroDivisionError(f"leading polynomial vanishes at n = {n}")
        quotient, remainder = divmod(-acc, lead)
        if remainder:
            raise ArithmeticError(f"term {n + 1} is not an integer")
        out.append(quotient)
    return out


def _kernel(rows: Iterable[Sequence[int]], width: int) -> list[list[int]]:
    """Primitive integer basis of the solutions of rows * x = 0.

    Fraction-free, one row at a time, from the unit vectors: a row that some
    basis vector fails removes the first such vector, and every other vector
    that fails it is replaced by its cross-multiplied combination with the
    removed one that satisfies the row, divided by its content (the gcd of
    its entries), so every entry stays a small integer.  Rows are read only
    while the basis is not empty.
    """
    basis = [[int(i == j) for j in range(width)] for i in range(width)]
    for row in rows:
        values = [sum(map(mul, row, vector)) for vector in basis]
        pivot = next((i for i, value in enumerate(values) if value), None)
        if pivot is None:
            continue
        removed, lead = basis.pop(pivot), values.pop(pivot)
        for i, value in enumerate(values):
            if value:
                g = gcd(lead, value)
                vector = [lead // g * x - value // g * y for x, y in zip(basis[i], removed)]
                content = gcd(*vector)
                basis[i] = [entry // content for entry in vector]
        if not basis:
            break
    return basis


def fit_length(order: int, degree: int) -> int:
    """How many values give fit_recurrence one equation per unknown; seq[0] is
    counted only so that seq[n] is u_n, since no equation reads it.  The one
    relation that would, at n = order - 1, is left out: an a-column's seed
    breaks it, and every built-in P_order vanishes there, so a b-column fit that
    kept it returns the same relation even with b[0] shifted by 12345."""
    return (order + 1) * (degree + 1) + order + 1


def fit_recurrence(seq: Sequence, order: int, degree: int) -> RecurrenceSpec:
    """Recover the order/degree recurrence annihilating the sequence.

    Every relation index n = order .. len(seq) - 2 gives an equation, in integers
    once scaled by the lcm of its denominators; the first, at n = order, reaches
    back to seq[1], never seq[0].  _kernel reads them one at a time and stops
    once no solution is left.  Raises ValueError on fewer than
    fit_length(order, degree) values, when no nonzero relation exists, when it
    is not unique up to scale (it times a factor of lower degree fits too; lower
    the degree), or when its leading polynomial vanishes identically (the true
    order is smaller; refit with it).
    """
    if order < 1 or degree < 0:
        raise ValueError("order must be >= 1 and degree >= 0")
    width = (order + 1) * (degree + 1)
    known = fit_length(order, degree)
    if len(seq) < known:
        raise ValueError(f"not enough sequence values for this order and degree (need {known})")

    def equations():
        for n in range(order, len(seq) - 1):
            terms = [seq[n + 1 - i] for i in range(order + 1)]
            den = lcm(*(u.denominator for u in terms))
            scaled = [u.numerator * (den // u.denominator) for u in terms]
            yield [c * n**power for c in scaled for power in range(degree + 1)]

    basis = _kernel(equations(), width)
    if not basis:
        raise ValueError("no recurrence of this order and degree fits")
    if len(basis) > 1:
        raise ValueError("the relation is not unique at this order and degree; lower the degree")
    polys = [tuple(basis[0][i : i + degree + 1]) for i in range(0, width, degree + 1)]
    if not any(polys[0]):
        raise ValueError("leading polynomial vanishes; reduce the order")
    if next(c for c in reversed(polys[0]) if c) < 0:
        polys = [tuple(-c for c in poly) for poly in polys]
    return RecurrenceSpec(tuple(polys))
