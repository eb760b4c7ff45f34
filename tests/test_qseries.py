"""Truncated q-series ring and infinite-product expansion."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicapery.qseries import ProductRecipe, QSeries, expand_product

coeffs = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=30
)


def short_series(min_prec: int = 1, max_prec: int = 7):
    return st.lists(coeffs, min_size=min_prec, max_size=max_prec).map(QSeries)


def test_constructors_and_indexing():
    one = QSeries.one(5)
    assert one[0] == 1 and one[4] == 0
    padded = QSeries([0, 1], 5)
    assert [padded[i] for i in range(5)] == [0, 1, 0, 0, 0]
    assert QSeries([], 3).prec == 3


def test_jets_are_unhashable():
    """Equality ignores precision beyond the shorter jet, so no hash can agree."""
    assert QSeries([1, 2]) == QSeries([1, 2, 3])
    with pytest.raises(TypeError):
        hash(QSeries.one(3))


def test_add_takes_series_only():
    """A scalar is lifted with QSeries.one(prec) first; a bare one is refused."""
    one = QSeries.one(3)
    assert (one + one)[0] == 2
    for scalar in (1, Fraction(1, 2)):
        for op in (lambda: one + scalar, lambda: scalar + one):
            with pytest.raises(TypeError):
                op()


def test_mul_truncates_to_min_precision():
    a = QSeries([1, 1, 1, 1, 1])
    b = QSeries([1, -1])
    product = a * b
    assert product.prec == 2
    assert [product[i] for i in range(2)] == [1, 0]


@given(short_series(), short_series(), short_series())
def test_ring_laws(a, b, c):
    assert a + b == b + a and (a + b).prec == min(a.prec, b.prec)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(short_series(min_prec=2), st.integers(min_value=0, max_value=5))
def test_pow_matches_repeated_product(a, e):
    expected = QSeries.one(a.prec)
    for _ in range(e):
        expected = expected * a
    assert a**e == expected


def test_theta_multiplies_by_n():
    s = QSeries([5, 1, 2, 3])
    t = s.theta()
    assert [t[i] for i in range(4)] == [0, 1, 4, 9]


def _binomial_factor_oracle(sign: int, stride: int, exponent: int, prec: int) -> QSeries:
    """(1 + sign*q**stride)**exponent expanded by the binomial series."""
    out = [Fraction(0)] * prec
    j = 0
    while j * stride < prec:
        if exponent >= 0 and j > exponent:
            break
        c = Fraction(1)
        for i in range(j):
            c = c * Fraction(exponent - i, i + 1)
        out[j * stride] = c * sign**j
        j += 1
    return QSeries(out)


@given(
    st.integers(min_value=-6, max_value=6).filter(lambda e: e != 0),
    st.sampled_from([1, -1]),
    st.integers(min_value=1, max_value=3),
)
def test_expand_product_single_factor_matches_binomial(exponent, sign, stride):
    recipe = ProductRecipe(0, ((sign, stride, exponent),))
    got = expand_product(recipe, 12)
    want = _binomial_factor_oracle(sign, stride, exponent, 12)
    # the recipe multiplies factors for every stride multiple; rebuild that
    expected = QSeries.one(12)
    m = stride
    while m < 12:
        expected = expected * _binomial_factor_oracle(sign, m, exponent, 12)
        m += stride
    assert got == expected
    assert want == _binomial_factor_oracle(sign, stride, exponent, 12)


def test_expand_product_euler_function_pentagonal():
    """prod (1 - q^n) has the pentagonal-number expansion."""
    recipe = ProductRecipe(0, ((-1, 1, 1),))
    series = expand_product(recipe, 16)
    expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
    for n in range(16):
        assert series[n] == expected.get(n, 0)


def test_expand_product_leading_power_and_validation():
    recipe = ProductRecipe(2, ((1, 1, 2),))
    series = expand_product(recipe, 6)
    assert series[0] == 0 and series[1] == 0 and series[2] == 1
    assert series[3] == 2
    assert expand_product(ProductRecipe(7, ((1, 1, 2),)), 6) == QSeries([], 6)
    with pytest.raises(ValueError):
        ProductRecipe(0, ((2, 1, 1),))
    with pytest.raises(ValueError):
        ProductRecipe(0, ((1, 0, 1),))


def test_partition_generating_function():
    recipe = ProductRecipe(0, ((-1, 1, -1),))
    series = expand_product(recipe, 10)
    partitions = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert [series[n] for n in range(10)] == partitions


@given(short_series(min_prec=4), st.integers(min_value=1, max_value=3))
def test_truncation_commutes_with_square(a, k):
    small = QSeries(a.coeffs[:k])
    assert QSeries((a * a).coeffs[:k]) == small * small


def reference_product(a, b):
    """The truncated product as a plain Fraction convolution."""
    n = min(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += Fraction(a[i]) * Fraction(b[j])
    return out


# Zeros, negatives, coprime prime denominators and numerators and
# denominators far past a machine word.
product_coeffs = st.one_of(
    st.just(0),
    st.integers(min_value=-(10**20), max_value=10**20),
    coeffs,
    st.builds(
        Fraction,
        st.integers(min_value=-50, max_value=50),
        st.sampled_from([2, 3, 5, 7, 11, 13, 2**61 - 1, 10**30 + 57]),
    ),
    st.builds(
        Fraction,
        st.integers(min_value=-(10**40), max_value=10**40),
        st.integers(min_value=1, max_value=10**40),
    ),
)


@given(
    st.lists(product_coeffs, min_size=1, max_size=12),
    st.lists(product_coeffs, min_size=1, max_size=12),
)
def test_mul_matches_fraction_convolution(a, b):
    product = QSeries(a) * QSeries(b)
    assert product.prec == min(len(a), len(b))
    assert list(product.coeffs) == reference_product(a, b)
    assert all(type(c) is Fraction for c in product.coeffs)


def test_binomial_coefficients_in_negative_power():
    # (1+q^7)^-3 contributes comb(4,2) at q^14, (1+q^14)^-3 contributes -3
    series = expand_product(ProductRecipe(0, ((1, 7, -3),)), 15)
    assert series[0] == 1
    assert series[7] == -3
    assert series[14] == comb(4, 2) - 3
