"""The built-in recurrences: verification, regeneration, and exact fitting."""

from fractions import Fraction
from math import comb

import pytest

from padicapery.curves import FAMILY_TABLE, catalog
from padicapery.exactnum import lcm_upto
from padicapery.expansion import sequences
from padicapery.recurrence import (
    RecurrenceSpec,
    catalan_recurrence,
    extend_integers,
    fit_recurrence,
    residual,
    verify_recurrence,
)


@pytest.fixture(scope="module")
def catalan_table():
    return sequences(catalog("catalan-p2"), 26)


def test_spec_shape():
    spec = catalan_recurrence()
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
    violations = verify_recurrence(catalan_recurrence(), catalan_table.b_list(), 1, 24)
    assert violations == []


def test_a_sequence_satisfies_recurrence_from_two(catalan_table):
    violations = verify_recurrence(catalan_recurrence(), catalan_table.a_list(), 2, 24)
    assert violations == []


def test_a_sequence_breaks_at_one(catalan_table):
    """The a-seed fails the single relation involving n = 1 while the b-seed
    satisfies it, exactly as the seed conditions predict."""
    spec = catalan_recurrence()
    assert residual(spec, catalan_table.b_list(), 1) == 0
    assert residual(spec, catalan_table.a_list(), 1) == 16


def test_extend_integers_reproduces_tables(catalan_table):
    spec = catalan_recurrence()
    b = [int(value) for value in catalan_table.b_list()]
    assert extend_integers(spec, b[:3], 26, 1) == b
    scales = [lcm_upto(max(n, 1)) ** 2 for n in range(26)]
    cleared = [int(a * s) for a, s in zip(catalan_table.a_list(), scales)]
    assert extend_integers(spec, cleared[:4], 26, 2, scales) == cleared


def test_extend_integers_validates_seed():
    spec = catalan_recurrence()
    with pytest.raises(ValueError):
        extend_integers(spec, [1, 4, 28], 5, 0)
    with pytest.raises(ValueError):
        extend_integers(spec, [1, 4], 5, 1)


def test_extend_integers_checks_the_given_terms(catalan_table):
    b = [int(value) for value in catalan_table.b_list()]
    b[5] += 1
    with pytest.raises(ArithmeticError, match="nonzero residual at n = 4"):
        extend_integers(catalan_recurrence(), b[:8], 26, 1)


def test_extend_integers_refuses_an_inexact_division():
    halving = RecurrenceSpec(((2,), (-1,)))
    assert extend_integers(halving, [8, 4], 4, 0) == [8, 4, 2, 1]
    with pytest.raises(ArithmeticError, match="term 4 is not an integer"):
        extend_integers(halving, [8, 4], 5, 0)


def test_extend_integers_refuses_a_vanishing_leading_polynomial():
    # (n - 2) u_{n+1} = u_n vanishes at n = 2.
    spec = RecurrenceSpec(((-2, 1), (-1,)))
    with pytest.raises(ZeroDivisionError, match="n = 2"):
        extend_integers(spec, [2, -1], 5, 0)


@pytest.mark.parametrize(
    "family,k", [(name, k) for name, record in FAMILY_TABLE.items() for k in record.recurrence]
)
def test_leading_polynomial_is_nonzero_below_the_cap(family, k):
    spec = FAMILY_TABLE[family].recurrence[k]
    assert all(spec.poly_value(0, n) != 0 for n in range(256))


def test_fit_recovers_catalan_recurrence(catalan_table):
    fitted = fit_recurrence(catalan_table.b_list(), 2, 2)
    assert fitted == catalan_recurrence()


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
    assert fitted == _shift_polys(catalan_recurrence(), 2)


def test_fit_is_scale_invariant(catalan_table):
    b = catalan_table.b_list()
    scaled = [Fraction(value, 7) for value in b]
    assert fit_recurrence(scaled, 2, 2) == catalan_recurrence()


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
