"""Filter symbol, inversion, and approximation-quality tests."""

import math

import mpmath
import numpy as np
import pytest

from admles import filters, solvers
from admles.filters import (
    Gaussian,
    GaussianApprox,
    Helmholtz,
    HelmholtzPower,
    NonInvertibleFilterError,
    apply_filter,
    complement_power,
    energy_weight,
    filter_symbol,
    gaussian_approx_error,
    helmholtz_power_sandwich,
    inverse_symbol,
)
from admles.spectral import WaveLattice, random_solenoidal, sobolev_norm

ALL_SPECS = [
    Helmholtz(alpha=1.0, p=1.0),
    Helmholtz(alpha=0.3, p=0.75),
    Helmholtz(alpha=2.0, p=4.0),
    Gaussian(alpha=1.0),
    GaussianApprox(alpha=1.0, m=3),
    HelmholtzPower(mu=0.2, m=5),
]


def test_spec_validation():
    with pytest.raises(ValueError):
        Helmholtz(alpha=-1.0)
    with pytest.raises(ValueError):
        Helmholtz(alpha=1.0, p=0.5)
    with pytest.raises(ValueError):
        Gaussian(alpha=0.0)
    with pytest.raises(ValueError):
        GaussianApprox(alpha=1.0, m=0)
    with pytest.raises(ValueError):
        HelmholtzPower(mu=0.0, m=1)
    with pytest.raises(ValueError):
        HelmholtzPower(mu=1.0, m=0)
    with pytest.raises(TypeError):
        filter_symbol("not a spec", 1.0)


def test_symbol_pinned_values():
    assert filter_symbol(Helmholtz(alpha=1.0, p=1.0), 1.0) == pytest.approx(0.5, rel=1e-15)
    assert filter_symbol(Gaussian(alpha=1.0), 24.0) == pytest.approx(np.exp(-1.0), rel=1e-15)
    assert filter_symbol(HelmholtzPower(mu=1.0, m=2), 1.0) == pytest.approx(0.25, rel=1e-15)
    # alpha = 0 degenerates to the identity filter
    assert filter_symbol(Helmholtz(alpha=0.0, p=1.0), 123.0) == 1.0


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_symbol_one_at_zero(spec):
    assert filter_symbol(spec, 0.0) == 1.0


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_symbol_strictly_decreasing_and_in_range(spec):
    k2 = np.logspace(-3.0, 6.0, 400)
    g = filter_symbol(spec, k2)
    assert np.all(g >= 0.0)
    assert np.all(g <= 1.0)
    # strict monotonicity holds wherever the value is representable; the
    # Gaussian tail underflows to exactly 0 on this grid
    live = g > 1e-300
    assert np.all(g[live] > 0.0)
    assert np.all(np.diff(g[live]) < 0.0)
    assert np.count_nonzero(live) > 200


def test_apply_filter_halves_single_mode():
    from test_spectral import single_mode

    lat = WaveLattice(8)
    f = single_mode(lat, (1, 0, 0), (0.0, 1.0, 0.0))
    out = apply_filter(Helmholtz(alpha=1.0, p=1.0), f)
    assert out.coeffs[1, 1, 0, 0] == pytest.approx(0.5, rel=1e-15)
    assert out.divergence_free == f.divergence_free


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_apply_filter_never_amplifies(spec):
    f = random_solenoidal(WaveLattice(16), decay=1.0, seed=8)
    out = apply_filter(spec, f)
    for s in (0.0, 1.0, 2.0):
        assert sobolev_norm(out, s) <= sobolev_norm(f, s) * (1 + 1e-14)


def test_inverse_symbol_doubles_single_mode():
    from test_spectral import single_mode

    lat = WaveLattice(8)
    f = single_mode(lat, (0, 1, 0), (1.0, 0.0, 0.0))
    out = f.coeffs * inverse_symbol(Helmholtz(alpha=1.0, p=1.0),
                                    lat.k_squared)
    assert out[0, 0, 1, 0] == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize(
    "spec",
    [Helmholtz(alpha=0.5, p=1.0), Helmholtz(alpha=1.0, p=2.0),
     HelmholtzPower(mu=0.3, m=4)],
)
def test_filter_inverse_roundtrip(spec):
    f = random_solenoidal(WaveLattice(16), decay=1.0, seed=14)
    k2 = f.lattice.k_squared
    back = f.coeffs * (inverse_symbol(spec, k2) * filter_symbol(spec, k2))
    scale = float(np.max(np.abs(f.coeffs)))
    assert float(np.max(np.abs(back - f.coeffs))) <= 1e-12 * scale


@pytest.mark.parametrize(
    "spec", [Gaussian(alpha=1.0), GaussianApprox(alpha=1.0, m=2)]
)
def test_gaussian_family_not_invertible(spec):
    with pytest.raises(NonInvertibleFilterError, match="non-invertible filter"):
        inverse_symbol(spec, 1.0)
    with pytest.raises(NonInvertibleFilterError):
        inverse_symbol(spec, WaveLattice(8).k_squared)


def test_inverse_symbol_values():
    assert inverse_symbol(Helmholtz(alpha=1.0, p=1.0), 1.0) == pytest.approx(2.0)
    assert inverse_symbol(HelmholtzPower(mu=1.0, m=3), 1.0) == pytest.approx(8.0)
    k2 = np.logspace(-2, 4, 50)
    for spec in (Helmholtz(alpha=0.7, p=1.5), HelmholtzPower(mu=0.7, m=2)):
        prod = filter_symbol(spec, k2) * inverse_symbol(spec, k2)
        assert np.allclose(prod, 1.0, rtol=1e-14)


# ---------------------------------------------------------------------------
# GaussianApprox <-> HelmholtzPower equivalence
# ---------------------------------------------------------------------------


def test_equivalence_exact_when_floats_match():
    # alpha = mu sqrt(24 m) with 24 m a perfect square makes
    # alpha^2/(24 m) == mu^2 exactly in binary floating point
    cases = [(0.5, 6, 6.0), (0.25, 6, 3.0), (1.0, 6, 12.0), (0.5, 24, 12.0)]
    k2 = np.concatenate([[0.0], np.logspace(-3, 8, 200)])
    for mu, m, alpha in cases:
        ga = GaussianApprox(alpha=alpha, m=m)
        hp = HelmholtzPower(mu=mu, m=m)
        assert ga.mu == pytest.approx(mu, rel=1e-15)
        assert np.array_equal(filter_symbol(ga, k2), filter_symbol(hp, k2))


def test_equivalence_generic():
    ga = GaussianApprox(alpha=1.7, m=5)
    hp = HelmholtzPower(mu=ga.mu, m=ga.m)
    assert hp.m == 5
    k2 = np.logspace(-3, 6, 200)
    np.testing.assert_allclose(
        filter_symbol(ga, k2), filter_symbol(hp, k2), rtol=1e-13
    )


# ---------------------------------------------------------------------------
# approximation error and sandwich
# ---------------------------------------------------------------------------


def test_gaussian_approx_error_values():
    assert gaussian_approx_error(1.0, 1, 0.0) == 0.0
    # at alpha^2 k2 / 24 = 1, m = 1: |1/2 - exp(-1)|
    assert gaussian_approx_error(1.0, 1, 24.0) == pytest.approx(0.132121, abs=1e-6)
    with pytest.raises(ValueError):
        gaussian_approx_error(1.0, 0, 1.0)


@pytest.mark.parametrize("m", [1, 2, 4, 16])
@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_gaussian_approx_error_uniform_bound(m, alpha):
    k2 = np.concatenate([[0.0], np.logspace(-4, 10, 500)])
    err = gaussian_approx_error(alpha, m, k2)
    assert np.all(err >= -1e-15)  # approximant always sits above the Gaussian
    assert float(np.max(err)) <= 2.0 / m


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_gaussian_approx_error_column_matches_per_m(alpha):
    k2 = np.concatenate([[0.0], np.logspace(-4, 10, 500)])
    ms = np.arange(1, 41)
    table = gaussian_approx_error(alpha, ms[:, None], k2)
    assert table.shape == (len(ms), len(k2))
    for m, row in zip(ms.tolist(), table):
        assert row.tobytes() == gaussian_approx_error(alpha, m, k2).tobytes()


@pytest.mark.parametrize("ms", [[[3], [0], [2]], [[1], [-4]], [[2.0], [np.nan]]])
def test_gaussian_approx_error_column_refuses_index_below_one(ms):
    with pytest.raises(ValueError, match="approximant index must be >= 1"):
        gaussian_approx_error(1.0, np.array(ms), np.array([0.0, 1.0]))


def test_sandwich_at_zero():
    for m in (1, 2, 3, 8):
        lo, mid, hi = helmholtz_power_sandwich(0.7, m, 0.0)
        assert (lo, mid, hi) == (2.0 ** (1 - m), 1.0, 1.0)


def test_sandwich_m1_collapses():
    k2 = np.logspace(-3, 6, 100)
    lo, mid, hi = helmholtz_power_sandwich(0.9, 1, k2)
    assert np.array_equal(lo, mid) and np.array_equal(mid, hi)


def test_sandwich_pinned_m2():
    # mu |k| = 1: mid = 2^-2, hi = 1/(1+1), lo = hi/2
    lo, mid, hi = helmholtz_power_sandwich(0.5, 2, 4.0)
    assert lo == pytest.approx(0.25, rel=1e-13)
    assert mid == pytest.approx(0.25, rel=1e-13)
    assert hi == pytest.approx(0.5, rel=1e-13)


@pytest.mark.parametrize("mu", [0.5, 1.0])
@pytest.mark.parametrize("m", list(range(1, 9)))
def test_sandwich_orders(mu, m):
    k2 = np.concatenate([[0.0], np.logspace(-6, 12, 400)])
    lo, mid, hi = helmholtz_power_sandwich(mu, m, k2)
    assert np.all(lo <= mid * (1 + 1e-13) + 1e-300)
    assert np.all(mid <= hi * (1 + 1e-13) + 1e-300)
    # the sandwich brackets the actual symbol as well
    g = filter_symbol(HelmholtzPower(mu=mu, m=m), k2)
    assert np.all(np.abs(g - mid) <= 1e-13 * np.maximum(mid, 1e-300))
    with pytest.raises(ValueError):
        helmholtz_power_sandwich(mu, 0, k2)


# ---------------------------------------------------------------------------
# the family table: spec fields, coverage and the complement power
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make,field", [
    (lambda: Helmholtz(alpha=math.nan), "alpha"),
    (lambda: Helmholtz(alpha=math.inf), "alpha"),
    (lambda: Helmholtz(alpha=1.0, p=math.nan), "p"),
    (lambda: Helmholtz(alpha=1.0, p=math.inf), "p"),
    (lambda: Helmholtz(alpha="1"), "alpha"),
    (lambda: Gaussian(alpha=math.inf), "alpha"),
    (lambda: Gaussian(alpha=math.nan), "alpha"),
    (lambda: GaussianApprox(alpha=math.nan, m=2), "alpha"),
    (lambda: GaussianApprox(alpha=1.0, m=2.5), "m"),
    (lambda: GaussianApprox(alpha=1.0, m=math.inf), "m"),
    (lambda: HelmholtzPower(mu=math.inf, m=1), "mu"),
    (lambda: HelmholtzPower(mu=1.0, m=1.5), "m"),
    (lambda: HelmholtzPower(mu=1.0, m=math.nan), "m"),
    (lambda: Helmholtz(alpha=True), "alpha"),
    (lambda: HelmholtzPower(mu=1.0, m=True), "m"),
    (lambda: Helmholtz(alpha=10 ** 400), "alpha"),
    (lambda: HelmholtzPower(mu=1.0, m=10 ** 400), "m"),
], ids=["h_alpha_nan", "h_alpha_inf", "h_p_nan", "h_p_inf", "h_alpha_str",
        "g_alpha_inf", "g_alpha_nan", "ga_alpha_nan", "ga_m_half",
        "ga_m_inf", "hp_mu_inf", "hp_m_half", "hp_m_nan", "h_alpha_bool",
        "hp_m_bool", "h_alpha_huge_int", "hp_m_huge_int"])
def test_spec_refuses_non_finite_and_non_integral_fields(make, field):
    # each of these once gave a nan symbol or a symbol of 0 everywhere, or
    # (a boolean) ran as 0 or 1, or (an integer beyond the float range)
    # raised an OverflowError that named no field
    with pytest.raises(ValueError, match=f"^'{field}' must be "):
        make()


def test_spec_accepts_integral_values_of_any_type():
    assert filter_symbol(HelmholtzPower(mu=1.0, m=np.int64(2)), 1.0) == \
        filter_symbol(HelmholtzPower(mu=1.0, m=2), 1.0)
    assert GaussianApprox(alpha=np.float64(1.0), m=3).mu == \
        GaussianApprox(alpha=1.0, m=3).mu


def test_every_filter_kind_has_a_table_row():
    # the config's kinds and the family table name the same classes, and
    # every entry of every row evaluates
    assert set(solvers._FILTER_KINDS.values()) == set(filters._FAMILIES)
    assert solvers.energy_weight is energy_weight
    k2 = np.array([0.0, 0.5, 40.0])
    for spec in ALL_SPECS:
        g = filter_symbol(spec, k2)
        assert g[0] == 1.0 and np.all((g > 0.0) & (g < 1.0) | (k2 == 0.0))
        c = complement_power(spec, k2, 3.0)
        assert c[0] == 0.0
        assert np.allclose(c, (1.0 - g) ** 3, rtol=1e-13, atol=0.0)
        weight, s = energy_weight(spec)
        assert weight > 0.0 and s >= 0.75
    for entry in (filter_symbol, inverse_symbol):
        with pytest.raises(TypeError, match="not a filter spec"):
            entry("not a spec", 1.0)
    with pytest.raises(TypeError, match="not a filter spec"):
        complement_power("not a spec", 1.0, 2.0)
    with pytest.raises(TypeError, match="not a filter spec"):
        energy_weight("not a spec")


def test_complement_power_scalar_and_array_agree():
    k2 = np.array([0.0, 1e-9, 0.3, 7.0, 1e5])
    for spec in ALL_SPECS:
        arr = complement_power(spec, k2, 5.0)
        for ki, ai in zip(k2.tolist(), arr.tolist()):
            got = complement_power(spec, ki, 5.0)
            assert type(got) is float and got == ai


# Per family: the spec, its exact symbol at k2 in mpmath, and the k2 at
# which the family's argument takes the value v (alpha^2 k2 for
# Helmholtz, phi with G = exp(-phi) for the others).
ORACLE_FAMILIES = {
    "helmholtz": (Helmholtz(alpha=0.7),
                  lambda k2: 1 / (1 + mpmath.mpf(0.7) ** 2 * k2),
                  lambda v: v / 0.49),
    "gaussian": (Gaussian(alpha=1.0), lambda k2: mpmath.exp(-k2 / 24),
                 lambda v: 24.0 * v),
    "gaussian_approx": (GaussianApprox(alpha=1.0, m=3),
                        lambda k2: (1 + k2 / 72) ** -3,
                        lambda v: 72.0 * math.expm1(v / 3.0)),
    "helmholtz_power": (HelmholtzPower(mu=1.0, m=2),
                        lambda k2: (1 + k2) ** -2,
                        lambda v: math.expm1(v / 2.0)),
}
EPS = np.finfo(np.float64).eps


@pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES))
def test_complement_power_matches_mpmath(family):
    # (1 - G)^e at 50 digits, with the family's argument from 1e-12 to
    # 1e3 and e up to 2e6.  Bound: relative error <= 2 eps (1 + |y| (1 +
    # phi)), where y = e log(1 - G) and phi = -log G at the exact k2.  The
    # last exp turns a relative error r of y into |y| r, so the bound
    # grows with e; the factor 1 + phi covers the rounding of the family's
    # argument, which a relative change of phi carries into y.  log1mexp
    # keeps this bound; log(-expm1(-phi)) misses it by 3e5 at e = 2e6
    # (7.5e-11 relative), where 1 - G is a hair below 1.
    spec, exact, k2_at = ORACLE_FAMILIES[family]
    args = np.concatenate([np.logspace(-12, 3, 61),
                           [0.5, math.log(2.0), 0.7, 5.0, 30.0, 700.0]])
    k2 = np.concatenate([[0.0], [k2_at(v) for v in args.tolist()]])
    for e in (1.0, 2.0, 3.0, 17.0, 1e3, 1e5, 2e6):
        got = complement_power(spec, k2, e)
        assert got[0] == 0.0
        for ki, gi in zip(k2[1:].tolist(), got[1:].tolist()):
            with mpmath.workdps(50):
                g = exact(mpmath.mpf(ki))
                want = (1 - g) ** e
                if want < 1e-290:  # underflow to zero is correct
                    assert gi <= 1e-290, (ki, e)
                    continue
                y = e * mpmath.log(1 - g)
                bound = 2.0 * EPS * (1.0 + abs(y) * (1.0 - mpmath.log(g)))
                assert abs(mpmath.mpf(gi) - want) <= bound * want, \
                    (ki, e, gi)


# Below the normal range a float keeps fewer digits; there a result within
# one subnormal step (x) or flushed toward 0 (G) is correctly rounded.
TINY = np.finfo(np.float64).tiny


@pytest.mark.parametrize("p", [0.75, 1.5, 2.0, 4.0, 8.0])
@pytest.mark.parametrize("alpha", [1.0, 0.7])
def test_helmholtz_argument_and_symbol_match_mpmath(alpha, p):
    # x = (alpha^2 k2)^p and G = 1/(1 + x) at 50 digits, with alpha^2 k2
    # (taken as the float the filter forms) from the smallest subnormal to
    # 1e40, within 4e-16 relative; where x overflows it is inf and G is 0
    spec = Helmholtz(alpha=alpha, p=p)
    k2 = np.concatenate([[5e-324, 1e-320, 3e-310, 1e-300],
                         np.logspace(-300.0, 40.0, 137)]) / alpha ** 2
    y = alpha ** 2 * k2
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        x = filters._helmholtz_x(spec, k2)
        g = np.asarray(filter_symbol(spec, k2))
    for yi, xi, gi in zip(y.tolist(), x.tolist(), g.tolist()):
        with mpmath.workdps(50):
            x_ref = mpmath.mpf(yi) ** p
            g_ref = 1 / (1 + x_ref)
            if x_ref > np.finfo(np.float64).max:
                assert xi == math.inf, (yi, xi)
            elif x_ref < TINY:
                assert abs(mpmath.mpf(xi) - x_ref) <= 5e-324, (yi, xi)
            else:
                assert abs(mpmath.mpf(xi) - x_ref) <= 4e-16 * x_ref, (yi, xi)
            if g_ref < TINY:
                assert gi <= TINY, (yi, gi)
            else:
                assert abs(mpmath.mpf(gi) - g_ref) <= 4e-16 * g_ref, (yi, gi)
