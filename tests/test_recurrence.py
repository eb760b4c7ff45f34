"""The built-in recurrences: verification, regeneration, and exact fitting."""

import math
from fractions import Fraction
from math import comb

import pytest

from padicapery import expansion, recurrence
from padicapery.cli import main
from padicapery.curves import FAMILY_TABLE, catalog
from padicapery.expansion import reexpanded_columns, sequences
from padicapery.recurrence import (
    CATALAN_P2,
    RecurrenceSpec,
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


def test_b_sequence_satisfies_recurrence(catalan_table):
    violations = verify_recurrence(CATALAN_P2, catalan_table.b_list(), 1, 24)
    assert violations == []


def test_a_sequence_satisfies_recurrence_from_two(catalan_table):
    violations = verify_recurrence(CATALAN_P2, catalan_table.a_list(), 2, 24)
    assert violations == []


def test_a_sequence_breaks_at_one(catalan_table):
    """The a-seed fails the single relation involving n = 1 while the b-seed
    satisfies it, exactly as the seed conditions predict."""
    spec = CATALAN_P2
    assert verify_recurrence(spec, catalan_table.b_list(), 1, 1) == []
    assert verify_recurrence(spec, catalan_table.a_list(), 1, 1) == [(1, 16)]


def test_extend_integers_reproduces_tables(catalan_table):
    spec = CATALAN_P2
    b = [int(value) for value in catalan_table.b_list()]
    assert extend_integers(spec, b[:3], 26) == b
    scales = [math.lcm(*range(1, n + 1)) ** 2 for n in range(26)]
    cleared = [int(a * s) for a, s in zip(catalan_table.a_list(), scales)]
    assert extend_integers(spec, cleared[:4], 26, scales) == cleared


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
    assert verify_recurrence(spec, bump, 1, 10) == [(4, spec.poly_value(0, 4) * d)]

    def bumped(config, count):
        b_list, a_list = reexpanded_columns(config, count)
        return [b + db for b, db in zip(b_list, bump)], a_list

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


@pytest.mark.parametrize(
    "family,k", [(name, k) for name, record in FAMILY_TABLE.items() for k in record.recurrence]
)
def test_leading_polynomial_is_nonzero_below_the_cap(family, k):
    spec = FAMILY_TABLE[family].recurrence[k]
    assert all(spec.poly_value(0, n) != 0 for n in range(256))


def test_fit_recovers_catalan_recurrence(catalan_table):
    fitted = fit_recurrence(catalan_table.b_list(), 2, 2)
    assert fitted == CATALAN_P2


def _fit_over_every_row(seq, order, degree):
    """fit_recurrence by elimination over every equation at once."""
    width = (order + 1) * (degree + 1)
    equations = [
        [Fraction(seq[n + 1 - i]) * n**power for i in range(order + 1) for power in range(degree + 1)]
        for n in range(order, len(seq) - 1)
    ]
    candidates = [
        vector for vector in recurrence._nullspace(equations, width) if any(vector[: degree + 1])
    ]
    if not candidates:
        raise ValueError("no candidate")

    def profile(vector):
        return tuple(
            max((p for p, c in enumerate(vector[i * (degree + 1) : (i + 1) * (degree + 1)]) if c), default=-1)
            for i in range(order + 1)
        )

    return recurrence._normalize(min(candidates, key=profile), order, degree)


@pytest.mark.parametrize(
    "family,k", [(name, k) for name, record in FAMILY_TABLE.items() for k in record.recurrence]
)
def test_fit_equals_elimination_over_every_row(family, k):
    spec = FAMILY_TABLE[family].recurrence[k]
    b_list, _ = reexpanded_columns(catalog(family, k), 64)
    assert fit_recurrence(b_list, spec.order, spec.degree) == spec
    assert _fit_over_every_row(b_list, spec.order, spec.degree) == spec


@pytest.mark.parametrize(
    "seq,order,degree",
    [
        # The relation times (n + c) for every c: a plane of solutions.
        ([(-4) ** n * math.comb(2 * n, n) for n in range(20)], 1, 2),
        # The first equations are all zero; the later ones cut the space down,
        # to nothing, and to (n - 7) u_(n+1) = 2 u_n.
        ([0] * 8 + [3**n for n in range(8)], 1, 0),
        ([0] * 8 + [Fraction(2**m, math.factorial(m)) for m in range(10)], 1, 1),
    ],
)
def test_fit_equals_elimination_over_every_row_past_a_plane(seq, order, degree):
    width = (order + 1) * (degree + 1)
    equations = [
        [Fraction(seq[n + 1 - i]) * n**power for i in range(order + 1) for power in range(degree + 1)]
        for n in range(order, width + 2 * order + 1)
    ]
    assert len(recurrence._nullspace(equations, width)) >= 2
    try:
        expected = _fit_over_every_row(seq, order, degree)
    except ValueError:
        with pytest.raises(ValueError):
            fit_recurrence(seq, order, degree)
    else:
        assert fit_recurrence(seq, order, degree) == expected


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
    fitted = fit_recurrence(catalan_table.a_list()[2:], 2, 2)
    assert fitted == _shift_polys(CATALAN_P2, 2)


def test_fit_is_scale_invariant(catalan_table):
    b = catalan_table.b_list()
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
