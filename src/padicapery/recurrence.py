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

``fit_recurrence`` recovers such a relation from raw sequence values by
exact linear algebra over the rationals, so a fitted spec is a proof of
nothing by itself, but verifying it on rows not used in the fit is a
strong structural check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from .exactnum import vp

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

    def root_exponent(self, p: int) -> Fraction:
        """The e with p^e the modulus of the characteristic roots.

        The characteristic polynomial is sum_i lead_i x^(order - i), with
        lead_i the coefficient of n^degree in P_i.  Its roots, which share one
        modulus (the tests check this for every built-in relation), multiply
        to a number of modulus |lead_order / lead_0| = p^(e * order).  A ratio
        that is not a power of p up to sign raises ArithmeticError.

        >>> ZETA_P5.root_exponent(5)
        Fraction(3, 2)
        """
        first, last = (
            poly[self.degree] if len(poly) > self.degree else 0
            for poly in (self.coeff_polys[0], self.coeff_polys[-1])
        )
        if first and last:
            ratio = abs(Fraction(last, first))
            power = vp(ratio, p)
            if ratio == Fraction(p) ** power:
                return Fraction(power, self.order)
        raise ArithmeticError(
            f"leading ratio {last}/{first} is not a power of {p} up to sign"
        )

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
    spec: RecurrenceSpec, seq: Sequence, start: int, end: int
) -> list[tuple[int, Fraction]]:
    """The residuals, the left-hand side of the relation at n, that fail to
    vanish for n in [start, end].  Each is summed in integers over the common
    denominator of its terms, which are integers or Fractions."""
    if start < spec.order - 1:
        raise ValueError("start must be at least order - 1")
    if end + 1 >= len(seq):
        raise ValueError("end + 1 must be inside the sequence")
    violations = []
    for n in range(start, end + 1):
        terms = [(spec.poly_value(i, n), seq[n + 1 - i]) for i in range(spec.order + 1)]
        den = lcm(*(u.denominator for _, u in terms))
        value = sum(c * u.numerator * (den // u.denominator) for c, u in terms)
        if value:
            violations.append((n, Fraction(value, den)))
    return violations


def column_violations(
    spec: RecurrenceSpec, b_list: Sequence, a_list: Sequence
) -> dict[str, tuple[int, list[tuple[int, Fraction]]]]:
    """Check a case's relation on both columns of its table, through
    n = len - 2: {"b": (start, violations), "a": (start, violations)}.

    The b-column satisfies the relation from n = order - 1 on, the a-column
    only from n = order, because its seed breaks the relation that first
    touches it.
    """
    return {
        column: (start, verify_recurrence(spec, seq, start, len(seq) - 2))
        for column, seq, start in (("b", b_list, spec.order - 1), ("a", a_list, spec.order))
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


def _nullspace(rows: list[list[Fraction]], width: int) -> list[list[Fraction]]:
    """Basis of the solution space of rows * x = 0, by exact elimination."""
    matrix = [row[:] for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(width):
        pivot_row = None
        for r in range(rank, len(matrix)):
            if matrix[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        matrix[rank], matrix[pivot_row] = matrix[pivot_row], matrix[rank]
        lead = matrix[rank][col]
        matrix[rank] = [entry / lead for entry in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [
                    entry - factor * matrix[rank][j]
                    for j, entry in enumerate(matrix[r])
                ]
        pivots.append(col)
        rank += 1
        if rank == len(matrix):
            break
    free = [col for col in range(width) if col not in pivots]
    basis = []
    for free_col in free:
        vector = [Fraction(0)] * width
        vector[free_col] = Fraction(1)
        for row_index, pivot_col in enumerate(pivots):
            vector[pivot_col] = -matrix[row_index][free_col]
        basis.append(vector)
    return basis


def _normalize(vector: list[Fraction], order: int, degree: int) -> RecurrenceSpec:
    denom = 1
    for entry in vector:
        denom = denom * entry.denominator // gcd(denom, entry.denominator)
    ints = [int(entry * denom) for entry in vector]
    content = 0
    for value in ints:
        content = gcd(content, value)
    if content:
        ints = [value // content for value in ints]
    polys = [
        tuple(ints[i * (degree + 1) : (i + 1) * (degree + 1)])
        for i in range(order + 1)
    ]
    leading = next((c for c in reversed(polys[0]) if c != 0), 0)
    if leading < 0:
        polys = [tuple(-c for c in poly) for poly in polys]
    return RecurrenceSpec(tuple(polys))


def fit_recurrence(seq: Sequence, order: int, degree: int) -> RecurrenceSpec:
    """Recover an order/degree recurrence annihilating the sequence.

    Every relation index n = order .. len(seq) - 2 gives an equation.  The
    first width + order + 1 of them, width = (order + 1) * (degree + 1), are
    eliminated; a solution space of dimension at most 1 there is kept only
    where it vanishes on the rest, and a larger one is recomputed over every
    equation, so the result is that of eliminating over all of them.
    Raises ValueError when no nonzero relation exists or when the leading
    polynomial of every candidate vanishes identically (which would mean
    the true order is smaller; refit with it).
    """
    if order < 1 or degree < 0:
        raise ValueError("order must be >= 1 and degree >= 0")
    width = (order + 1) * (degree + 1)
    equations = []
    for n in range(order, len(seq) - 1):
        row = []
        for i in range(order + 1):
            u = Fraction(seq[n + 1 - i])
            for power in range(degree + 1):
                row.append(u * n**power)
        equations.append(row)
    if len(equations) < width:
        raise ValueError("not enough sequence values for this order and degree")
    known = width + order + 1
    basis = _nullspace(equations[:known], width)
    if len(basis) > 1:
        basis = _nullspace(equations, width)
    else:
        basis = [
            vector
            for vector in basis
            if not any(sum(map(mul, row, vector)) for row in equations[known:])
        ]
    candidates = []
    for vector in basis:
        head = vector[: degree + 1]
        if all(entry == 0 for entry in head):
            continue
        profile = tuple(
            max((p for p, c in enumerate(vector[i * (degree + 1) : (i + 1) * (degree + 1)]) if c != 0), default=-1)
            for i in range(order + 1)
        )
        candidates.append((profile, vector))
    if not candidates:
        if basis:
            raise ValueError("leading polynomial vanishes; reduce the order")
        raise ValueError("no recurrence of this order and degree fits")
    candidates.sort(key=lambda item: item[0])
    return _normalize(candidates[0][1], order, degree)
