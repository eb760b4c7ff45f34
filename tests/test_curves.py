"""Case catalog, uniformizer expansions, and identity canaries."""

import math
from fractions import Fraction

import pytest

from padicapery.curves import (
    FAMILIES,
    FAMILY_TABLE,
    IdentityError,
    catalog,
    run_canaries,
    uniformizer_series,
)
from padicapery.exactnum import vp
from padicapery.qseries import QSeries, expand_product

CASES = [("zeta-p2", 1), ("zeta-p2", 2), ("zeta-p3", 1), ("zeta-p5", 1), ("catalan-p2", 1)]


def test_catalog_families_and_ids():
    assert set(FAMILIES) == {"zeta-p2", "zeta-p3", "zeta-p5", "catalan-p2"}
    assert catalog("zeta-p2").case_id == "zeta-p2:k=1"
    assert catalog("zeta-p2", 2).case_id == "zeta-p2:k=2"
    assert catalog("catalan-p2").case_id == "catalan-p2"


def test_catalog_rejects_unknown():
    with pytest.raises(ValueError):
        catalog("zeta-p7")
    with pytest.raises(ValueError):
        catalog("catalan-p2", 2)
    with pytest.raises(ValueError):
        catalog("zeta-p2", 0)


def test_catalog_constants():
    cases = {
        "zeta-p2:k=1": (2, 24),
        "zeta-p2:k=2": (2, 240),
        "zeta-p3:k=1": (3, 12),
        "zeta-p5:k=1": (5, 6),
        "catalan-p2": (2, 4),
    }
    for family in FAMILIES:
        for k in (1, 2) if family == "zeta-p2" else (1,):
            config = catalog(family, k)
            p, lam = cases[config.case_id]
            assert config.family.p == p
            assert config.family.series(p, config.weight, 1)[0].denominator == lam


def test_uniformizer_leading_coefficients():
    for family in FAMILIES:
        series = uniformizer_series(catalog(family), 12)
        assert series[0] == 0
        assert series[1] == 1
        for n in range(12):
            assert series[n].denominator == 1


def test_uniformizer_zeta_p2_expansion():
    f = uniformizer_series(catalog("zeta-p2"), 5)
    assert [f[n] for n in range(5)] == [0, 1, 24, 300, 2624]


def test_log_derivative_constants():
    assert run_canaries(catalog("zeta-p2"))[0] == 24
    assert run_canaries(catalog("zeta-p3"))[0] == 12
    assert run_canaries(catalog("zeta-p5"))[0] == 6
    assert run_canaries(catalog("zeta-p2", 2))[0] == 24
    assert run_canaries(catalog("catalan-p2"))[0] == 4


# Each family's curve typed in by hand as (Q_p ascending, j), with
# G^6 (f/Delta) = Q_p(f)^j: the reference for the polynomial that the
# canaries derive from the family's eta pairs.
HAND_CURVES = {
    "zeta-p2": ((1, 64), 3),
    "zeta-p3": ((1, 27), 4),
    "zeta-p5": ((1, 22, 125), 3),
    "catalan-p2": ((1, 16), 5),
}
# B, the index of Gamma0(N), N the lcm of the deltas: the degree bound.
INDEX_BOUNDS = {"zeta-p2": 3, "zeta-p3": 4, "zeta-p5": 6, "catalan-p2": 6}


def _polymul(first, second):
    product = [0] * (len(first) + len(second) - 1)
    for i, x in enumerate(first):
        for j, y in enumerate(second):
            product[i + j] += x * y
    return product


@pytest.mark.parametrize("family", FAMILIES)
def test_curve_identity(family):
    """G^6 (f/Delta) re-expands in f to Q_p^j, the hand-typed curve, at the
    default precision and at the term cap."""
    coeffs, j = HAND_CURVES[family]
    expected = [1]
    for _ in range(j):
        expected = _polymul(expected, coeffs)
    assert len(expected) - 1 <= INDEX_BOUNDS[family]
    for prec in (16, 256):
        assert run_canaries(catalog(family), prec)[1] == tuple(expected)


@pytest.mark.parametrize("family", FAMILIES)
def test_wrong_eta_exponent_fails_the_canaries(family):
    """Each eta exponent in turn moved by the least step that keeps
    sum(delta * r) a multiple of 24: the canaries refuse every one."""
    config = catalog(family)
    eta = config.family.eta
    for i, (delta, r) in enumerate(eta):
        wrong = (*eta[:i], (delta, r + 24 // math.gcd(delta, 24)), *eta[i + 1 :])
        assert sum(d * e for d, e in wrong) % 24 == 0
        record = config.family._replace(eta=wrong)
        with pytest.raises(IdentityError):
            run_canaries(config._replace(family=record))


@pytest.mark.parametrize("family", FAMILIES)
def test_canaries_refuse_a_vacuous_tail(family):
    """prec <= B + 1 leaves no term past the re-expanded ones to check."""
    bound = INDEX_BOUNDS[family]
    with pytest.raises(ValueError, match=rf"need prec > {bound + 1}$"):
        run_canaries(catalog(family), bound + 1)
    run_canaries(catalog(family), bound + 2)


@pytest.mark.parametrize("family", FAMILIES)
def test_canaries_see_the_last_term(monkeypatch, family):
    """The log-derivative check reads f through q^prec and the curve check
    reads f/Delta through q^(prec - 1): a change at either last term fails."""
    import padicapery.curves as curves_module

    prec = 16
    config = catalog(family)

    def bumped(series, index):
        nums = list(series.nums)
        nums[index] += 1
        return QSeries(nums, den=series.den)

    build_f, build_eta = curves_module.uniformizer_series, curves_module.expand_product
    with monkeypatch.context() as patch:
        patch.setattr(
            curves_module, "uniformizer_series", lambda *args: bumped(build_f(*args), prec)
        )
        with pytest.raises(IdentityError, match=r"theta\(f\)/f"):
            run_canaries(config, prec)
    with monkeypatch.context() as patch:
        patch.setattr(
            curves_module,
            "expand_product",
            lambda eta, n: bumped(build_eta(eta, n), prec - 1)
            if sum(delta * r for delta, r in eta) == 0
            else build_eta(eta, n),
        )
        with pytest.raises(IdentityError, match=r"^G\^6 f/Delta"):
            run_canaries(config, prec)
    run_canaries(config, prec)


def test_run_canaries_all_cases():
    for family in FAMILIES:
        run_canaries(catalog(family))


@pytest.mark.parametrize("family,k", CASES)
def test_canaries_build_each_series_once(monkeypatch, family, k):
    """One canary pass builds the uniformizer once and the family's weight
    series once, and checks both identities on them."""
    import padicapery.curves as curves_module

    weight_series = "series_f" if family == "catalan-p2" else "series_e_star"
    calls = []

    def counted(name):
        build = getattr(curves_module, name)

        def wrapper(*args):
            calls.append(name)
            return build(*args)

        return wrapper

    for name in ("uniformizer_series", "series_e_star", "series_f"):
        monkeypatch.setattr(curves_module, name, counted(name))
    run_canaries(catalog(family, k))
    assert sorted(calls) == sorted(["uniformizer_series", weight_series])


@pytest.mark.parametrize("family,k", CASES)
def test_canary_detects_corruption(monkeypatch, family, k):
    """A wrong uniformizer or a wrong weight series must trip the
    log-derivative canary, on the squared (Catalan) path as well as the
    linear (zeta) one: the product form theta(f) = f * (mu * w)^r sees both
    sides."""
    import padicapery.curves as curves_module

    config = catalog(family, k)
    weight_series = "series_f" if family == "catalan-p2" else "series_e_star"

    def corrupted(good):
        def bad(*args):
            coeffs = list(good(*args).coeffs)
            if len(coeffs) > 3:
                coeffs[3] += 1
            return QSeries(coeffs)

        return bad

    for side in ("uniformizer_series", weight_series):
        with monkeypatch.context() as patch:
            patch.setattr(curves_module, side, corrupted(getattr(curves_module, side)))
            with pytest.raises(IdentityError, match=r"theta\(f\)/f"):
                run_canaries(config)
        run_canaries(config)


@pytest.mark.parametrize("family", FAMILIES)
def test_integral_series_carry_denominator_one(family):
    """The uniformizer and the canary's weight-two G = (mu * w)^r are
    integral, so they are held as ints over the denominator 1."""
    config = catalog(family)
    record = config.family
    w = record.series(record.p, record.weight_step, 17)
    g = (run_canaries(config)[0] * w) ** (2 // record.weight_step)
    for series in (uniformizer_series(config, 256), g):
        assert series.den == 1
        assert all(type(c) is int for c in series.nums)


def test_eta_quotient_two_recipes_agree():
    """Delta(2 tau)/Delta(tau) two ways: as the eta quotient
    eta(2 tau)^24 / eta(tau)^24 and as q * prod (1+q^n)^24, multiplied out."""
    one_plus_q_n = QSeries.one(24)
    for n in range(1, 24):
        one_plus_q_n = one_plus_q_n * QSeries([1] + [0] * (n - 1) + [1], 24)
    assert expand_product(((1, -24), (2, 24)), 24) == QSeries([0, 1], 24) * one_plus_q_n**24


def test_catalan_uniformizer_cube_is_eta_quotient():
    """z^3 = Delta(4 tau)/Delta(tau) as a product identity."""
    z = uniformizer_series(catalog("catalan-p2"), 20)
    cube = expand_product(((1, -24), (4, 24)), 20)
    assert z**3 == cube


@pytest.mark.parametrize("family", FAMILIES)
def test_uniformizer_eta_quotient_is_weight_zero_and_starts_at_q(family):
    """sum r = 0 makes f a modular function; sum delta r = 24 makes its q-power
    1, so f = q + O(q^2)."""
    eta = FAMILY_TABLE[family].eta
    assert sum(r for _, r in eta) == 0
    assert sum(delta * r for delta, r in eta) == 24


@pytest.mark.parametrize("family", FAMILIES)
def test_canaries_hold_at_the_term_cap(family):
    """Both identities, f/Delta included, hold out to 256 terms."""
    run_canaries(catalog(family), 256)


def curve_exponent(family):
    """e read off the curve Q that run_canaries returns, whose top coefficient
    is +-p^(e deg Q), as theta_closed reads it."""
    curve = run_canaries(catalog(family))[1]
    return Fraction(vp(curve[-1], FAMILY_TABLE[family].p), len(curve) - 1)


def test_growth_parameters():
    e = curve_exponent("zeta-p2")
    assert (2 * e, e, catalog("zeta-p2").D) == (12, 6, 3)
    assert catalog("zeta-p2", 2).D == 5
    assert catalog("catalan-p2").D == 2
    assert curve_exponent("zeta-p5") == Fraction(3, 2)


RELATIONS = [(name, k) for name, family in FAMILY_TABLE.items() for k in family.recurrence]


def characteristic_quadratic(family, k):
    """(c, p^(2e)) with x^2 + c x + p^(2e) = rev(Q_p)^(2 / deg Q_p), after
    checking chi = lead_0 * rev(Q_p)^(r / deg Q_p) in integer polynomial
    arithmetic.  chi = sum_i lead_i x^(r - i), lead_i the coefficient of
    n^degree in P_i, is listed in descending powers of x, so rev(Q_p) =
    x^deg Q_p(1/x) is listed as Q_p's own ascending coefficients."""
    record = FAMILY_TABLE[family]
    spec = record.recurrence[k]
    chi = [poly[spec.degree] if len(poly) > spec.degree else 0 for poly in spec.coeff_polys]
    coeffs, _ = HAND_CURVES[family]
    power, odd = divmod(spec.order, len(coeffs) - 1)
    assert not odd
    expected = [chi[0]]
    for _ in range(power):
        expected = _polymul(expected, coeffs)
    assert expected == chi
    quadratic = [1]
    for _ in range(2 // (len(coeffs) - 1)):
        quadratic = _polymul(quadratic, coeffs)
    one, c, norm = quadratic
    assert (one, norm) == (1, record.p ** int(2 * curve_exponent(family)))
    return c, norm


@pytest.mark.parametrize("family,k", RELATIONS)
def test_characteristic_roots_share_one_modulus(family, k):
    """theta_closed reads the roots' modulus off the product of Q_p's, which is
    sound because chi is a power of one real quadratic with c^2 <= 4 p^(2e):
    its roots are a conjugate pair, or a double root, all of modulus p^e."""
    c, norm = characteristic_quadratic(family, k)
    assert c * c <= 4 * norm


def test_characteristic_factorizations():
    assert {case: characteristic_quadratic(*case) for case in RELATIONS} == {
        ("zeta-p2", 1): (128, 4096),    # (x + 64)^2
        ("zeta-p2", 2): (128, 4096),    # (x + 64)^2
        ("zeta-p3", 1): (54, 729),      # (x + 27)^2
        ("zeta-p5", 1): (22, 125),      # (x^2 + 22x + 125)^2
        ("catalan-p2", 1): (32, 256),   # (x + 16)^2
    }
    assert {name: curve_exponent(name) for name in FAMILY_TABLE} == {
        "zeta-p2": 6,
        "zeta-p3": 3,
        "zeta-p5": Fraction(3, 2),
        "catalan-p2": 4,
    }
