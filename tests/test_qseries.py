"""Truncated q-series ring and infinite-product expansion."""

from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padicapery.qseries import QSeries, expand_product

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


def test_constructor_refuses_no_terms():
    with pytest.raises(ValueError, match="at least its constant term"):
        QSeries([])
    for prec in (0, -1):
        with pytest.raises(ValueError, match="precision must be >= 1"):
            QSeries([1], prec)


def test_negative_power_is_refused():
    with pytest.raises(ValueError, match="negative powers"):
        QSeries([1, 1]) ** -1


def test_equality_with_a_non_series_is_false():
    """__eq__ returns NotImplemented, so Python falls back to identity."""
    assert QSeries([1, 2]).__eq__(3) is NotImplemented
    assert (QSeries([1, 2]) == 3) is False
    assert QSeries([3]) != 3


def test_repr_lists_the_nonzero_terms():
    assert repr(QSeries([Fraction(1, 2), 0, 3])) == "QSeries(1/2*q^0 + 3*q^2 + O(q^3))"
    assert repr(QSeries([0, 0])) == "QSeries(0 + O(q^2))"


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


def test_mul_takes_series_and_exact_scalars_only():
    """An int or a Fraction scales every coefficient; any other operand, on
    either side, is refused with TypeError rather than read as a series."""
    s = QSeries([1, 2])
    assert (s * Fraction(1, 2)).coeffs == (Fraction(1, 2), 1) == (Fraction(1, 2) * s).coeffs
    for op in (lambda: s * 1.5, lambda: 1.5 * s, lambda: s * "x", lambda: "x" * s):
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


def _binomial_factor_oracle(stride: int, exponent: int, prec: int) -> QSeries:
    """(1 - q**stride)**exponent expanded by the binomial series."""
    out = [Fraction(0)] * prec
    j = 0
    while j * stride < prec:
        if exponent >= 0 and j > exponent:
            break
        c = Fraction(1)
        for i in range(j):
            c = c * Fraction(exponent - i, i + 1)
        out[j * stride] = c * (-1) ** j
        j += 1
    return QSeries(out)


@given(
    st.integers(min_value=-6, max_value=6).filter(lambda e: e != 0),
    st.integers(min_value=1, max_value=3),
)
def test_expand_product_single_factor_matches_binomial(exponent, stride):
    """eta(stride tau)^e / eta(tau)^(stride e) has q-power 0 and is the product
    of the binomial series of (1 - q^(stride n))^e and (1 - q^n)^(-stride e)."""
    got = expand_product(((stride, exponent), (1, -stride * exponent)), 12)
    expected = QSeries.one(12)
    for m in range(1, 12):
        expected = expected * _binomial_factor_oracle(m, -stride * exponent, 12)
        if m % stride == 0:
            expected = expected * _binomial_factor_oracle(m, exponent, 12)
    assert got == expected


def test_expand_product_euler_function_pentagonal():
    """eta(24 tau) = q prod (1 - q^(24 n)): its coefficient at 1 + 24 m is that
    of q^m in prod (1 - q^n), which has the pentagonal-number expansion."""
    series = expand_product(((24, 1),), 24 * 16)
    expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1}
    for n in range(24 * 16):
        m, rest = divmod(n - 1, 24)
        assert series[n] == (expected.get(m, 0) if rest == 0 else 0)


def test_expand_product_leading_power_and_validation():
    """The q-power is sum(delta * r) / 24; a quotient whose q-power is not a
    whole number >= 0, a delta < 1 or a non-int exponent is refused."""
    series = expand_product(((1, 48),), 6)  # Delta^2 = q^2 (1 - 24 q + ...)^2
    assert series[0] == 0 and series[1] == 0 and series[2] == 1
    assert series[3] == -48
    assert expand_product(((8, 24),), 6) == QSeries([], 6)
    for eta in (((0, 24),), ((24, Fraction(1)),), ((24, 1.0),), ((1, 1),), ((1, -24),)):
        with pytest.raises(ValueError):
            expand_product(eta, 6)


def test_partition_generating_function():
    """eta(25 tau)/eta(tau) = q prod (1 - q^(25 n)) / prod (1 - q^n), which is
    q sum p(n) q^n below q^26."""
    series = expand_product(((1, -1), (25, 1)), 26)
    partitions = [1] + [0] * 24
    for part in range(1, 25):
        for n in range(part, 25):
            partitions[n] += partitions[n - part]
    assert partitions[:10] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert [series[n] for n in range(26)] == [0] + partitions


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
    """eta(7 tau)^-3 eta(21 tau) is prod (1-q^(7n))^-3 below q^21: (1-q^7)^-3
    contributes comb(4,2) at q^14, (1-q^14)^-3 contributes 3."""
    series = expand_product(((7, -3), (21, 1)), 15)
    assert series[0] == 1
    assert series[7] == 3
    assert series[14] == comb(4, 2) + 3


@given(st.lists(product_coeffs, min_size=1, max_size=12))
def test_numerators_over_one_denominator_in_lowest_terms(cs):
    series = QSeries(cs)
    assert series.coeffs == tuple(map(Fraction, cs))
    assert series.den > 0 and gcd(series.den, *series.nums) == 1
    assert all(type(c) is int for c in series.nums)


@given(
    st.lists(product_coeffs, min_size=1, max_size=8),
    st.lists(product_coeffs, min_size=1, max_size=8),
    st.lists(product_coeffs, max_size=4),
)
def test_equality_agrees_with_fraction_comparison(a, b, extra):
    """Jets compare their common prefix as Fractions, whatever each one's
    denominator; a longer tail may change the denominator but not equality."""
    n = min(len(a), len(b))
    expected = list(map(Fraction, a[:n])) == list(map(Fraction, b[:n]))
    assert (QSeries(a) == QSeries(b)) == expected
    assert QSeries(a) == QSeries(a + extra)
    bumped = [Fraction(a[0]) + Fraction(1, 3), *a[1:]]
    assert QSeries(a) != QSeries(bumped + extra)


def test_ring_operations_reduce_to_lowest_terms():
    s = QSeries([Fraction(1, 2), Fraction(1, 4)])
    assert (s.nums, s.den) == ((2, 1), 4)
    assert ((s + s).nums, (s + s).den) == ((2, 1), 2)
    assert ((4 * s).nums, (4 * s).den) == ((2, 1), 1)
    assert ((s * s).nums, (s * s).den) == ((1, 1), 4)
    assert (s.theta().nums, s.theta().den) == ((0, 1), 4)
    assert ((s * Fraction(2, 3)).nums, (s * Fraction(2, 3)).den) == ((2, 1), 6)
