"""Re-expansion of H = (weight series) * (antiderivative + eta) in powers of
the uniformizer, and the approximant sequence tables it produces.

Writing H = sum (A_n + eta B_n) f^n, the B-list is the re-expansion of the
normalized weight series alone and the A-list that of its product with the
antiderivative; the published tables are these lists up to the per-family
sign of the b-list.  A table is its case and these two columns, a_n as
Fractions and b_n as integers; the quantity approximated is
``SequenceTable.ratio``, the reduced p_n / q_n = 2 a_n / b_n.

Re-expansion costs about O(n^3).  For a case with a recurrence, ``sequences``
re-expands a short prefix only, checks the relation on both columns of it and
runs the relation past it in integers; ``reexpanded_columns`` stays the
reference path that every relation is checked against.  Every re-expanded row
is checked to be integral: b_n and lcm(1..n)^D * a_n are integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import curves
from .qseries import reexpand
from .recurrence import RecurrenceSpec, column_violations, extend_integers, fit_length

__all__ = [
    "reexpanded_columns",
    "SequenceTable",
    "sequences",
]


class SequenceTable(NamedTuple):
    config: curves.CaseConfig
    a: tuple[Fraction, ...]
    b: tuple[int, ...]

    def ratio(self, n: int) -> Fraction:
        """p_n / q_n = 2 a_n / b_n, reduced; ZeroDivisionError where b_n = 0."""
        return 2 * self.a[n] / self.b[n]


def _scales(D: int, count: int) -> list[int]:
    """lcm(1..n)^D for n < count (1 at n = 0): what clears the a-column."""
    scales = [1]
    lcm = 1
    for n in range(1, count):
        lcm = math.lcm(lcm, n)
        scales.append(lcm**D)
    return scales


def reexpanded_columns(config: curves.CaseConfig, count: int) -> SequenceTable:
    """The first `count` rows by re-expansion alone, after the catalog's
    identity canaries: the reference path that every recurrence is checked
    against.  A row with b_n or lcm(1..n)^D * a_n not an integer raises
    curves.IdentityError."""
    curves.run_canaries(config)
    # [f^m]H needs q^0..q^m only; f's q^1 term is read to check f = q + O(q^2).
    prec = max(count, 2)
    family = config.family
    w = family.series(family.p, config.weight, prec)
    wp = family.antiderivative(family.p, config.weight, prec)
    f = curves.uniformizer_series(config, prec)
    # Clearing the denominator of w's constant term (1/24, 1/12, 1/4 in the
    # published tables) keeps b_n integral at higher weights, unlike 2/const.
    scaled = w[0].denominator * w
    rows = reexpand(scaled, f, count, scaled * wp)
    for (b, a), scale in zip(rows, _scales(config.D, count)):
        if b.denominator != 1 or scale % a.denominator:
            raise curves.IdentityError(f"a re-expanded row of {config.case_id} is not integral")
    b, a = zip(*rows)
    return SequenceTable(config, a, tuple(family.sign_b * x.numerator for x in b))


def _extend(spec: RecurrenceSpec, table: SequenceTable, count: int) -> SequenceTable:
    """Check the case's relation on both re-expanded columns and run it out
    to `count` rows in integers: b_n, and lcm(1..n)^D * a_n."""
    case_id = table.config.case_id
    for _, violations in column_violations(spec, table.b, table.a).values():
        if violations:
            raise curves.IdentityError(
                f"recurrence fails for {case_id}: "
                f"nonzero residual at n = {violations[0][0]}"
            )
    scales = _scales(table.config.D, count)
    try:
        b = extend_integers(spec, table.b, count)
        nums = extend_integers(spec, [int(a * s) for a, s in zip(table.a, scales)], count, scales)
    except ArithmeticError as exc:
        raise curves.IdentityError(f"recurrence fails for {case_id}: {exc}") from None
    return table._replace(a=tuple(map(Fraction, nums, scales)), b=tuple(b))


def sequences(config: curves.CaseConfig, count: int) -> SequenceTable:
    """Compute the first `count` rows (n = 0 .. count-1) of the approximant
    table for one case.

    Runs the catalog's identity canaries first; a canary failure is raised as
    curves.IdentityError and means no output can be trusted.  A case with a
    recurrence re-expands only a prefix of rows, the shortest on which the
    b-column check has more equations than the relation has coefficients;
    past that prefix the relation, checked on both columns of the prefix,
    gives the rest.  A check that fails raises curves.IdentityError too.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    spec = config.family.recurrence.get(config.k)
    prefix = count if spec is None else min(count, fit_length(spec.order, spec.degree))
    table = reexpanded_columns(config, prefix)
    return table if prefix == count else _extend(spec, table, count)
