"""Residual-stress, defect-norm, bound, and report-assembly tests."""

import math

import numpy as np
import pytest

import oracles
from admles.diagnostics import (
    LogValue,
    bound_main,
    bound_main_helmholtz_power,
    bound_residual,
    calibrate_sobolev_constant,
    defect_bound,
    error_report,
    fit_rate,
    gronwall_log10,
    half_norm_defect,
    residual_stress_norm,
)
from admles.filters import (
    Gaussian,
    GaussianApprox,
    Helmholtz,
    HelmholtzPower,
    apply_filter,
)
from admles.solvers import (
    RandomSpectrumInit,
    SimConfig,
    initial_field,
    run_experiment,
)
from admles.spectral import (
    WaveLattice,
    divergence_ratio,
    random_solenoidal,
    sobolev_norm,
    taylor_green,
    to_physical,
    zero_field,
)
from test_spectral import single_mode

H11 = Helmholtz(alpha=1.0, p=1.0)


# ---------------------------------------------------------------------------
# residual stress
# ---------------------------------------------------------------------------


def test_residual_stress_zero_cases():
    lat = WaveLattice(8)
    assert residual_stress_norm(zero_field(lat), H11, 2) == 0.0
    # identity filter: recovered field equals the field, tensor vanishes
    ident = Helmholtz(alpha=0.0, p=1.0)
    u = random_solenoidal(lat, decay=1.0, seed=3)
    assert residual_stress_norm(u, ident, 0) == 0.0


def test_residual_stress_matches_grid_quadrature():
    # Taylor-Green occupies |m| <= 1, so all tensor products stay inside
    # both the 16^3 grid's alias-free range and the 2/3-rule keep set;
    # Parseval then equates the coefficient norm with plain quadrature.
    lat = WaveLattice(16)
    spec = Helmholtz(alpha=0.5, p=1.0)
    u = taylor_green(lat)
    for order in (0, 1, 4):
        got = residual_stress_norm(u, spec, order)
        from admles.deconvolution import DeconvOp, deconv_symbol
        from admles.filters import filter_symbol

        rho = np.asarray(deconv_symbol(DeconvOp(spec, order),
                                       lat.k_squared)) \
            * np.asarray(filter_symbol(spec, lat.k_squared))
        u_grid = to_physical(u).samples
        from admles.spectral import SpectralField

        d_grid = to_physical(
            SpectralField(lat, rho * u.coeffs)).samples
        want = oracles.grid_tensor_norm(u_grid, d_grid)
        assert got == pytest.approx(want, abs=1e-10, rel=1e-10)


def test_residual_stress_decreases_with_order():
    lat = WaveLattice(16)
    u = random_solenoidal(lat, decay=2.0, seed=1)
    spec = Helmholtz(alpha=1.0, p=1.0)
    values = [residual_stress_norm(u, spec, N) for N in (0, 1, 4, 16, 64)]
    assert all(b < a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# defect half-norm and its bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,seed", [(1.0, 3), (1.5, 4)])
def test_run_series_match_snapshot_diagnostics(p, seed):
    # the per-sample series and the snapshot-level diagnostics share one
    # defect weight, one residual-stress norm and one divergence ratio, so
    # they agree to the last bit; on these inputs computing x as 1/G - 1
    # instead of (alpha^2 k2)^p would move one half norm by an ulp
    cfg = SimConfig(n=16, nu=0.05, spec=Helmholtz(alpha=0.3, p=p), T=0.02,
                    dt=0.01, N_list=(1, 4, 8, 16), sample_every=2,
                    init=RandomSpectrumInit(decay=1.0, seed=seed))
    out = run_experiment(cfg, progress=False)
    ubar0 = apply_filter(cfg.spec, initial_field(cfg, out.lattice))
    for run in out.runs:
        assert list(run.times) == [0.0, 0.02]
        assert run.half_norm[-1] == half_norm_defect(out.u_final, cfg.spec,
                                                     run.N)
        assert run.tau_l2[-1] == residual_stress_norm(out.u_final, cfg.spec,
                                                      run.N)
        assert run.div_ratio_max == max(divergence_ratio(ubar0),
                                        divergence_ratio(run.final_field))


def test_half_norm_single_mode_value():
    # x = 1 at |k| = 1: weight (1/2)^2 * 1, two conjugate modes of unit
    # magnitude -> norm sqrt(2) * (1/2)
    lat = WaveLattice(8)
    u = single_mode(lat, (1, 0, 0), (0.0, 1.0, 0.0))
    got = half_norm_defect(u, H11, 0)
    assert got == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-14)


def test_half_norm_rejects_non_helmholtz():
    u = zero_field(WaveLattice(8))
    for spec in (Gaussian(alpha=1.0), GaussianApprox(alpha=1.0, m=2),
                 HelmholtzPower(mu=1.0, m=2)):
        with pytest.raises(TypeError):
            half_norm_defect(u, spec, 0)


@pytest.mark.parametrize("p", [0.75, 1.0, 2.0, 4.0])
def test_defect_bound_dominates_half_norm(p):
    # sampled form of the pointwise symbol inequality behind defect_bound
    lat = WaveLattice(16)
    spec = Helmholtz(alpha=1.3, p=p)
    for seed in range(5):
        u = random_solenoidal(lat, decay=1.5, seed=seed)
        u_h1 = sobolev_norm(u, 1.0)
        for order in (0, 1, 2, 8, 64, 256):
            half = half_norm_defect(u, spec, order)
            assert half ** 2 <= defect_bound(u_h1, spec.alpha, p, order) \
                * (1 + 1e-12)


def test_defect_bound_values():
    # alpha (2 p (order+1))^(-1/(2p)) u^2
    assert defect_bound(1.0, 1.0, 1.0, 0) == pytest.approx(1.0 / math.sqrt(2.0))
    assert defect_bound(2.0, 0.5, 1.0, 1) == pytest.approx(0.5 / 2.0 * 4.0)


# ---------------------------------------------------------------------------
# scalar bounds
# ---------------------------------------------------------------------------


def test_bound_residual_pinned():
    # 2 C alpha (2p(N+1))^(-1/(2p)) u^4 = 2/sqrt(4) = 1 at these inputs
    assert bound_residual(1.0, 1.0, 1.0, 1.0, 1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        bound_residual(1.0, 0.0, 1.0, 1.0, 1)
    values = [bound_residual(1.0, 2.0, 1.0, 1.0, N) for N in (0, 1, 4, 16)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_bound_main_pinned():
    # 16/(2*2)^(1/2) = 8 times e^1 at unit inputs with order 1
    b = bound_main(1.0, 1.0, 1.0, 1.0, 1.0, 1)
    assert b.value() == pytest.approx(8.0 * math.e, rel=1e-12)
    assert bound_main(0.0, 1.0, 1.0, 1.0, 1.0, 1).value() == 0.0
    with pytest.raises(ValueError):
        bound_main(1.0, 0.0, 1.0, 1.0, 1.0, 1)
    # decreasing in the deconvolution order, increasing in the radius
    logs = [bound_main(1.0, 1.0, 2.0, 0.7, 1.0, N).log10 for N in (0, 1, 4, 16)]
    assert all(b < a for a, b in zip(logs, logs[1:]))
    assert bound_main(1.0, 1.0, 2.0, 0.9, 1.0, 0).log10 \
        > bound_main(1.0, 1.0, 2.0, 0.7, 1.0, 0).log10


def test_bound_main_power_pinned():
    # 14/(4(0+1))^(1/2) = 7 times e^1 at unit inputs
    b = bound_main_helmholtz_power(1.0, 1.0, 1.0, 1.0, 1, 0)
    assert b.main.value() == pytest.approx(7.0 * math.e, rel=1e-12)
    # the m-uniform companion swaps 14 mu sqrt(m) for 70 alpha with
    # alpha = mu sqrt(24 m): a fixed log-space offset of 5 sqrt(24)
    for m in (1, 2, 8, 32):
        bb = bound_main_helmholtz_power(1.0, 1.0, 1.0, 1.0, m, 3)
        assert bb.limit.log10 - bb.main.log10 == pytest.approx(
            math.log10(5.0 * math.sqrt(24.0)), rel=1e-12)
    assert bound_main_helmholtz_power(0.0, 1.0, 1.0, 1.0, 1, 0).main.value() == 0.0
    with pytest.raises(ValueError):
        bound_main_helmholtz_power(1.0, -1.0, 1.0, 1.0, 1, 0)
    with pytest.raises(ValueError):
        bound_main_helmholtz_power(1.0, 1.0, 1.0, 1.0, 0, 0)


def test_bound_main_power_limit_converges():
    # with alpha held fixed the companion approaches 70 C alpha / nu times
    # the Gronwall tail as m grows
    alpha, C, nu, order = 1.5, 2.0, 1.0, 3
    tail = 4.0 * math.log10(1.0) + 1.0 / math.log(10.0)
    target = math.log10(70.0 * C * alpha / nu) + tail
    gaps = []
    for m in (1, 4, 16, 64):
        mu = alpha / math.sqrt(24.0 * m)
        b = bound_main_helmholtz_power(1.0, nu, C, mu, m, order)
        gaps.append(abs(b.limit.log10 - target))
    assert all(b <= a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.01


def test_gronwall_log10_values():
    assert gronwall_log10(1.0, 1.0) == pytest.approx(1.0 / math.log(10.0),
                                                     rel=1e-12)
    assert gronwall_log10(0.0, 1.0) == -math.inf
    with pytest.raises(ValueError):
        gronwall_log10(1.0, 0.0)
    # strictly increasing in the velocity scale
    vals = [gronwall_log10(u, 0.1) for u in (0.5, 1.0, 2.0, 4.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_log_value_edges():
    assert LogValue(-math.inf).value() == 0.0
    assert LogValue(500.0).value() == math.inf
    assert float(LogValue(2.0)) == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# rate fitting and calibration
# ---------------------------------------------------------------------------


def test_fit_rate_exact_power_laws():
    for beta_true in (0.5, 0.25):
        series = [(N, (N + 1.0) ** (-beta_true)) for N in (0, 1, 3, 7, 15)]
        beta, r2 = fit_rate(series)
        assert beta == pytest.approx(beta_true, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_rejects_bad_series():
    with pytest.raises(ValueError, match="at least 4"):
        fit_rate([(0, 1.0), (1, 0.5), (2, 0.3)])
    with pytest.raises(ValueError, match="positive"):
        fit_rate([(0, 1.0), (1, 0.5), (2, 0.0), (3, 0.1)])


def test_fit_rate_flat_series():
    beta, r2 = fit_rate([(N, 1.0) for N in (0, 1, 2, 3)])
    assert beta == pytest.approx(0.0, abs=1e-12)
    assert r2 == 1.0


def test_broadband_defect_rate_bracket():
    # the defect-squared series of a broadband field follows the
    # interpolation-level prediction ~ (N+1)^(-1/(2p)) only up to spectral
    # shape; these seeds sit comfortably inside the half-rate bracket
    lat = WaveLattice(16)
    spec = Helmholtz(alpha=2.0, p=1.0)
    for seed in (0, 1, 2):
        u = random_solenoidal(lat, decay=2.0, seed=seed)
        series = [(N, half_norm_defect(u, spec, N) ** 2)
                  for N in (0, 1, 2, 4, 8, 16, 32)]
        beta, r2 = fit_rate(series)
        assert 0.35 <= beta <= 0.65
        assert r2 > 0.9


def test_calibrated_constant_below_default():
    # the configurable product constant defaults to 2.0 in reports; the
    # measured best constant should sit clearly below it
    for spec in (Helmholtz(alpha=0.5, p=1.0), Helmholtz(alpha=2.0, p=1.0)):
        c = calibrate_sobolev_constant(spec, n=16, n_fields=4)
        assert 0.0 < c < 2.0


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_output():
    cfg = SimConfig(n=16, nu=0.05, spec=Helmholtz(alpha=0.5, p=1.0),
                    T=0.1, dt=0.005, N_list=(0, 1, 2, 4))
    return run_experiment(cfg, progress=False)


def test_error_report_invariants(small_output):
    report = error_report(small_output, constant=2.0)
    assert report.nu == 0.05
    assert report.constant == 2.0
    assert report.u_l4h1 > 0.0
    assert math.isfinite(report.gronwall_log10)

    by_order = {}
    for row in report.rows:
        by_order.setdefault(row.order, []).append(row)
        # defect bound dominates the squared half-norm at every sample
        assert row.half_norm ** 2 <= row.bound_fin * (1 + 1e-12)
        # residual stress stays below its defect-product bound at C = 2
        assert row.tau_l2 <= row.bound_tau * (1 + 1e-12)
        assert row.energy_lhs >= 0.0
    assert set(by_order) == {0, 1, 2, 4}
    for rows in by_order.values():
        ts = [r.t for r in rows]
        assert ts == sorted(ts)
        # the viscous integral is cumulative, hence nondecreasing
        gi = [r.grad_integral for r in rows]
        assert all(a <= b + 1e-15 for a, b in zip(gi, gi[1:]))

    assert len(report.summaries) == 4
    for s in report.summaries:
        assert s.passed is True
        assert math.log10(max(s.energy_lhs_max, 1e-300)) <= s.bound_main_log10
        assert math.isfinite(s.rhs_log10)
        assert math.isfinite(s.rhs_alt_log10)
    assert report.passed()
    # four orders with positive errors: the decay fit is populated
    assert math.isfinite(report.beta)
    assert report.beta > 0.0
    # error decreases with order
    finals = [s.eps_l2_final for s in report.summaries]
    assert finals[-1] < finals[0]


def test_error_report_rejects_bad_constant(small_output):
    with pytest.raises(ValueError, match="positive"):
        error_report(small_output, constant=0.0)


def test_error_report_non_helmholtz_rows_are_nan():
    cfg = SimConfig(n=16, nu=0.05, spec=Gaussian(alpha=0.5),
                    T=0.02, dt=0.01, N_list=(0,))
    report = error_report(run_experiment(cfg, progress=False))
    assert all(math.isnan(r.bound_fin) for r in report.rows)
    assert all(s.passed is None for s in report.summaries)
    assert report.passed()  # vacuously: no decidable summary rows


def test_error_report_power_family_has_verdict():
    cfg = SimConfig(n=16, nu=0.05, spec=HelmholtzPower(mu=0.25, m=2),
                    T=0.02, dt=0.01, N_list=(0, 1))
    report = error_report(run_experiment(cfg, progress=False))
    for s in report.summaries:
        assert s.passed is True
        assert math.isfinite(s.bound_main_log10)
