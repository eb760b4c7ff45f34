"""The built-in recurrences: verification, regeneration, and exact fitting."""

import functools
import math
from fractions import Fraction
from math import comb
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicapery import expansion, recurrence
from padicapery.cli import main
from padicapery.curves import FAMILY_TABLE, catalog
from padicapery.expansion import reexpanded_columns, sequences
from padicapery.recurrence import (
    CATALAN_P2,
    RecurrenceSpec,
    column_violations,
    extend_integers,
    fit_recurrence,
    verify_recurrence,
)


@pytest.fixture(scope="module")
def catalan_table():
    return sequences(catalog("catalan-p2"), 26)


def test_spec_shape():
    spec = CATALAN_P2
    assert spec.order == 2
    assert spec.degree == 2
    assert spec.poly_value(0, 3) == 16
    assert spec.poly_value(1, 1) == 28
    assert spec.poly_value(2, 1) == 0


def test_spec_validation():
    with pytest.raises(ValueError):
        RecurrenceSpec(((0, 0), (1,)))
    with pytest.raises(ValueError):
        RecurrenceSpec(())
    with pytest.raises(ValueError, match="empty coefficient polynomial"):
        RecurrenceSpec(((1,), ()))


def test_verify_rejects_rows_outside_the_sequence(catalan_table):
    b = catalan_table.b
    with pytest.raises(ValueError, match="start must be at least order - 1"):
        verify_recurrence(CATALAN_P2, b, 0)
    assert verify_recurrence(CATALAN_P2, b, 1) == []
    assert verify_recurrence(CATALAN_P2, b[:2], 1) == []


def test_b_sequence_satisfies_recurrence(catalan_table):
    violations = verify_recurrence(CATALAN_P2, list(catalan_table.b), 1)
    assert violations == []


def test_a_sequence_satisfies_recurrence_from_two(catalan_table):
    violations = verify_recurrence(CATALAN_P2, list(catalan_table.a), 2)
    assert violations == []


def test_a_sequence_breaks_at_one(catalan_table):
    """The a-seed fails the single relation involving n = 1 while the b-seed
    satisfies it, exactly as the seed conditions predict."""
    spec = CATALAN_P2
    assert verify_recurrence(spec, catalan_table.b[:3], 1) == []
    assert verify_recurrence(spec, catalan_table.a[:3], 1) == [(1, 16)]


def test_extend_integers_reproduces_tables(catalan_table):
    spec = CATALAN_P2
    b = [int(value) for value in list(catalan_table.b)]
    assert extend_integers(spec, b[:3], 26) == b
    assert extend_integers(spec, b[: spec.order], 26) == b
    scales = [math.lcm(*range(1, n + 1)) ** 2 for n in range(26)]
    cleared = [int(a * s) for a, s in zip(list(catalan_table.a), scales)]
    assert extend_integers(spec, cleared[:4], 26, scales) == cleared


# u_{n+1} = u_{n-7}: order 8, the order predicted for p = 13.
PERIOD_8 = RecurrenceSpec(((1,),) + ((0,),) * 7 + ((-1,),))


@pytest.mark.parametrize(
    "spec",
    [*(spec for family in FAMILY_TABLE.values() for spec in family.recurrence.values()), PERIOD_8],
)
def test_column_violations_need_order_plus_two_rows(spec):
    """The a-column is checked from n = order, so each column needs order + 2
    rows for a residual.  At that length both are checked through n = order,
    where a last row of 1 breaks the relation; a column a row short, either
    one, raises ValueError instead of reporting no violations."""
    rows = spec.order + 2
    column = [0] * (rows - 1) + [1]
    lead = spec.poly_value(0, spec.order)
    assert column_violations(spec, column, list(map(Fraction, column))) == {
        "b": (spec.order - 1, [(spec.order, lead)]),
        "a": (spec.order, [(spec.order, lead)]),
    }
    for b_rows, a_rows in ((rows - 1, rows), (rows, rows - 1)):
        with pytest.raises(ValueError, match=rf"need {rows}\)"):
            column_violations(spec, column[:b_rows], list(map(Fraction, column[:a_rows])))


def test_extend_integers_validates_seed():
    with pytest.raises(ValueError):
        extend_integers(CATALAN_P2, [1], 5)


def test_prefix_residual_names_its_row(capsys, monkeypatch):
    """A b-column that breaks the relation at prefix row n = 4 alone: b_5
    moves by d, and each later row of the 12-row prefix by what keeps the
    relation from n = 5 on (d makes those divisions exact)."""
    spec = CATALAN_P2
    d = math.prod(spec.poly_value(0, n) for n in range(5, 11))
    bump = extend_integers(spec, [0] * 5 + [d], 12)
    assert verify_recurrence(spec, bump, 1) == [(4, spec.poly_value(0, 4) * d)]

    def bumped(config, count):
        table = reexpanded_columns(config, count)
        return table._replace(b=tuple(b + db for b, db in zip(table.b, bump)))

    monkeypatch.setattr(expansion, "reexpanded_columns", bumped)
    code = main(["sequences", "--case", "catalan-p2", "-n", "26"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == (
        "identity check failed: recurrence fails for catalan-p2: "
        "nonzero residual at n = 4\n"
    )


def test_extend_integers_refuses_an_inexact_division():
    halving = RecurrenceSpec(((2,), (-1,)))
    assert extend_integers(halving, [8, 4], 4) == [8, 4, 2, 1]
    with pytest.raises(ArithmeticError, match="term 4 is not an integer"):
        extend_integers(halving, [8, 4], 5)


def test_extend_integers_refuses_a_vanishing_leading_polynomial():
    # (n - 2) u_{n+1} = u_n vanishes at n = 2.
    spec = RecurrenceSpec(((-2, 1), (-1,)))
    with pytest.raises(ZeroDivisionError, match="n = 2"):
        extend_integers(spec, [2, -1], 5)


BUILTIN_CASES = [(name, k) for name, record in FAMILY_TABLE.items() for k in record.recurrence]


@pytest.mark.parametrize("family,k", BUILTIN_CASES)
def test_leading_polynomial_is_nonzero_below_the_cap(family, k):
    spec = FAMILY_TABLE[family].recurrence[k]
    assert all(spec.poly_value(0, n) != 0 for n in range(256))


# W_1 = a_1 b_2 - a_2 b_1 for each order-2 relation.
CASORATI_AT_ONE = {
    ("zeta-p2", 1): -576,
    ("zeta-p2", 2): -57600,
    ("zeta-p3", 1): Fraction(-243, 2),
    ("catalan-p2", 1): 16,
}


def _integer_roots(spec, i):
    """The integer roots of P_i: by the rational root theorem, 0 or divisors
    of its lowest nonzero coefficient."""
    low = abs(next(c for c in spec.coeff_polys[i] if c))
    divisors = [d for d in range(1, low + 1) if low % d == 0]
    return {n for n in [0, *divisors, *(-d for d in divisors)] if spec.poly_value(i, n) == 0}


@pytest.mark.parametrize(
    "family,k", [(f, k) for f, k in BUILTIN_CASES if FAMILY_TABLE[f].recurrence[k].order == 2]
)
def test_consecutive_rows_stay_independent(family, k):
    """W_n = a_n b_(n+1) - a_(n+1) b_n is nonzero for every n >= 1.  Both
    columns obey the relation from n = 2 on, so P_0(n) W_n = P_2(n) W_(n-1)
    there; P_0 has no integer root but -1 and P_2 none but 1, so W_n != 0
    follows from W_1 != 0 by induction."""
    spec = FAMILY_TABLE[family].recurrence[k]
    assert (_integer_roots(spec, 0), _integer_roots(spec, 2)) == ({-1}, {1})
    table = sequences(catalog(family, k), 256)
    a, b = table.a, table.b
    w = [a[n] * b[n + 1] - a[n + 1] * b[n] for n in range(255)]
    assert w[1] == CASORATI_AT_ONE[family, k]
    for n in range(2, 255):
        assert spec.poly_value(0, n) * w[n] == spec.poly_value(2, n) * w[n - 1]
    assert all(w)


def test_fit_recovers_catalan_recurrence(catalan_table):
    fitted = fit_recurrence(list(catalan_table.b), 2, 2)
    assert fitted == CATALAN_P2


def _rank(rows, width):
    """The rank of rows, by Gaussian elimination over the rationals."""
    matrix = [[Fraction(entry) for entry in row] for row in rows]
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for r in range(rank + 1, len(matrix)):
            factor = matrix[r][col] / matrix[rank][col]
            matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


@given(
    st.integers(1, 9).flatmap(
        lambda width: st.tuples(
            st.just(width),
            st.lists(st.lists(st.integers(-50, 50), min_size=width, max_size=width), max_size=14),
        )
    )
)
def test_kernel_is_a_primitive_basis(case):
    width, rows = case
    basis = recurrence._kernel(rows, width)
    assert len(basis) == width - _rank(rows, width)
    assert _rank(basis, width) == len(basis)
    for vector in basis:
        assert math.gcd(*vector) == 1
        assert all(sum(map(mul, row, vector)) == 0 for row in rows)


def test_kernel_reads_rows_only_while_the_basis_is_not_empty():
    def rows():
        yield from ([0, 2, 0], [0, 0, 0], [0, 4, 6], [1, 1, 1])
        raise AssertionError("a row was read after the basis emptied")

    assert recurrence._kernel(rows(), 3) == []


def _integer_rows(seq, order, degree, stop):
    """The equations of relation indices order .. stop - 1, each times the
    lcm of its denominators."""
    rows = []
    for n in range(order, stop):
        terms = [Fraction(seq[n + 1 - i]) for i in range(order + 1)]
        den = math.lcm(*(u.denominator for u in terms))
        rows.append([int(u * den) * n**power for u in terms for power in range(degree + 1)])
    return rows


def _spans_the_solutions(spec, seq):
    """Whether spec's coefficients solve every equation of seq, and every
    solution is a multiple of them: the equations have rank width - 1."""
    width = (spec.order + 1) * (spec.degree + 1)
    rows = _integer_rows(seq, spec.order, spec.degree, len(seq) - 1)
    vector = [c for poly in spec.coeff_polys for c in poly]
    return _rank(rows, width) == width - 1 and not any(sum(map(mul, row, vector)) for row in rows)


@functools.cache
def _b_column(family, k):
    return reexpanded_columns(catalog(family, k), 64).b


@pytest.mark.parametrize("family,k", BUILTIN_CASES)
def test_fit_equals_elimination_over_every_row(family, k):
    spec = FAMILY_TABLE[family].recurrence[k]
    b_list = _b_column(family, k)
    assert fit_recurrence(b_list, spec.order, spec.degree) == spec
    assert _spans_the_solutions(spec, b_list)


@pytest.mark.parametrize("family,k", BUILTIN_CASES)
def test_fit_from_the_least_length(family, k):
    """width + order + 1 values, one equation per unknown, give each relation,
    whatever b_0 is: the first equation, at n = order, reaches back to b_1.
    One value fewer is refused, and the error names the count."""
    spec = FAMILY_TABLE[family].recurrence[k]
    least = (spec.order + 1) * (spec.degree + 1) + spec.order + 1
    b_list = _b_column(family, k)
    assert fit_recurrence(b_list[:least], spec.order, spec.degree) == spec
    moved = [b_list[0] + 12345, *b_list[1:least]]
    assert fit_recurrence(moved, spec.order, spec.degree) == spec
    with pytest.raises(ValueError, match=rf"not enough sequence values .*\(need {least}\)"):
        fit_recurrence(b_list[: least - 1], spec.order, spec.degree)


def test_fit_reproduces_the_recorded_fits():
    """The fits named where ZETA_P2_K2 and ZETA_P5 are defined."""
    assert fit_recurrence(_b_column("zeta-p2", 2)[:47], 2, 10) == recurrence.ZETA_P2_K2
    assert fit_recurrence(_b_column("zeta-p5", 1)[:46], 4, 5) == recurrence.ZETA_P5


@pytest.mark.parametrize(
    "seq,order,degree",
    [
        # The relation times (n + c) for every c: a plane of solutions, which
        # both refuse.
        ([(-4) ** n * math.comb(2 * n, n) for n in range(20)], 1, 2),
        # The first equations are all zero; the later ones cut the space down,
        # to nothing, and to (n - 7) u_(n+1) = 2 u_n.
        ([0] * 8 + [3**n for n in range(8)], 1, 0),
        ([0] * 8 + [Fraction(2**m, math.factorial(m)) for m in range(10)], 1, 1),
    ],
)
def test_fit_equals_elimination_over_every_row_past_a_plane(seq, order, degree):
    width = (order + 1) * (degree + 1)
    equations = _integer_rows(seq, order, degree, width + 2 * order + 1)
    assert _rank(equations, width) <= width - 2
    if _rank(_integer_rows(seq, order, degree, len(seq) - 1), width) != width - 1:
        with pytest.raises(ValueError):
            fit_recurrence(seq, order, degree)
    else:
        assert _spans_the_solutions(fit_recurrence(seq, order, degree), seq)


def test_fit_refuses_a_plane_of_relations():
    """(n + 1) u_(n+1) + 8 (2n + 1) u_n = 0 times (n + c) fits at degree 2 for
    every c, so no single relation is returned; degree 1 gives the relation."""
    seq = [(-4) ** n * math.comb(2 * n, n) for n in range(20)]
    with pytest.raises(ValueError, match="not unique"):
        fit_recurrence(seq, 1, 2)
    assert fit_recurrence(seq, 1, 1).coeff_polys == ((1, 1), (8, 16))


def _shift_polys(spec: RecurrenceSpec, offset: int) -> RecurrenceSpec:
    """The same relation written for the reindexed sequence w_m = u_{m+offset}."""
    shifted = []
    for poly in spec.coeff_polys:
        out = []
        for low in range(len(poly)):
            out.append(
                sum(
                    c * comb(power, low) * offset ** (power - low)
                    for power, c in enumerate(poly)
                    if power >= low
                )
            )
        shifted.append(tuple(out))
    return RecurrenceSpec(tuple(shifted))


def test_fit_from_a_column_recovers_same_relation(catalan_table):
    """Dropping the two seed entries reindexes the relation by n -> n + 2."""
    fitted = fit_recurrence(list(catalan_table.a)[2:], 2, 2)
    assert fitted == _shift_polys(CATALAN_P2, 2)


def test_fit_is_scale_invariant(catalan_table):
    b = list(catalan_table.b)
    scaled = [Fraction(value, 7) for value in b]
    assert fit_recurrence(scaled, 2, 2) == CATALAN_P2


def test_fit_geometric_sequence():
    fitted = fit_recurrence([2**n for n in range(12)], 1, 0)
    assert fitted.coeff_polys == ((1,), (-2,))


def test_fit_rejects_impossible_relation():
    import random

    rng = random.Random(7)
    noise = [Fraction(rng.randrange(1, 10**9)) for _ in range(20)]
    with pytest.raises(ValueError):
        fit_recurrence(noise, 1, 1)


def test_fit_needs_enough_data():
    with pytest.raises(ValueError):
        fit_recurrence([1, 2, 3], 2, 2)


@pytest.mark.parametrize("order, degree", [(0, 0), (1, -1)])
def test_fit_rejects_order_below_one_or_negative_degree(order, degree):
    with pytest.raises(ValueError, match="order must be >= 1 and degree >= 0"):
        fit_recurrence([2**n for n in range(12)], order, degree)


def test_fit_refuses_a_vanishing_leading_polynomial():
    """The one order-2 relation that fits 1, 2, 4, ..., 1024, 12345 is
    u_n - 2 u_(n-1) = 0, whose coefficient of u_(n+1) is zero."""
    with pytest.raises(ValueError, match="leading polynomial vanishes; reduce the order"):
        fit_recurrence([2**n for n in range(11)] + [12345], 2, 0)
