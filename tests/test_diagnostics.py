"""Residual-stress, defect-norm, bound, and report-assembly tests."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from admles import diagnostics, solvers
from admles.deconvolution import _defect_weight
from admles.diagnostics import (
    LogValue,
    ReportRow,
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
    DnsSeries,
    ExperimentOutput,
    RandomSpectrumInit,
    RunSeries,
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
    truncate_field,
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


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("order", [0, 4])
def test_half_norm_adds_modes_outside_keep_set(monkeypatch, n, p, order):
    # the modes of an untruncated field outside the keep set add nothing:
    # the norm is the full-layout sum over its truncation, and no
    # full-layout array is squared, for that field or a truncated one
    lat = WaveLattice(n)
    spec = Helmholtz(alpha=0.5, p=p)
    shapes = []

    def recording(c):
        shapes.append(c.shape)
        return mode_sq(c)

    mode_sq = diagnostics._mode_sq
    monkeypatch.setattr(diagnostics, "_mode_sq", recording)
    u = random_solenoidal(lat, decay=0.5, seed=n, truncate=False)
    assert np.any(u.coeffs[:, ~lat.dealias_mask])
    weight = _defect_weight(spec, order, lat.k_squared)
    want = math.sqrt(np.sum(weight * np.abs(truncate_field(u).coeffs) ** 2))
    assert half_norm_defect(u, spec, order) == pytest.approx(want, rel=1e-13)
    half_norm_defect(random_solenoidal(lat, decay=0.5, seed=n), spec, order)
    assert shapes and (3, n, n, n) not in shapes


@pytest.mark.parametrize("n", [8, 16])
def test_snapshot_norms_evaluate_symbols_on_keep_set(monkeypatch, n):
    # both norms evaluate their symbols on the lattice's keep set alone,
    # for a field with modes outside it too
    lat = WaveLattice(n)
    shapes = []

    def spy(name):
        original = getattr(diagnostics, name)

        def recording(*args):
            shapes.append(np.shape(args[-1]))
            return original(*args)
        monkeypatch.setattr(diagnostics, name, recording)

    for name in ("recovery_symbol", "_defect_weight"):
        spy(name)
    spec = Helmholtz(alpha=0.5, p=1.0)
    for truncate in (True, False):
        shapes.clear()
        u = random_solenoidal(lat, decay=0.5, seed=n, truncate=truncate)
        residual_stress_norm(u, spec, 2)
        half_norm_defect(u, spec, 2)
        assert shapes == [lat.keep.ksq.shape] * 2


def test_half_norm_finite_for_every_family():
    lat = WaveLattice(8)
    u = random_solenoidal(lat, decay=1.0, seed=3)
    for spec in (Gaussian(alpha=1.0), GaussianApprox(alpha=1.0, m=2),
                 HelmholtzPower(mu=1.0, m=2)):
        values = [half_norm_defect(u, spec, N) for N in (0, 1, 8)]
        assert all(math.isfinite(v) and v > 0.0 for v in values)
        assert values == sorted(values, reverse=True)
        assert half_norm_defect(zero_field(lat), spec, 0) == 0.0


def test_gaussian_approx_defect_rises_to_the_gaussian():
    # the paper's route to the Gaussian filter: the m-th approximant's
    # symbol (1 + phi/m)^(-m) falls toward exp(-phi) as m grows, so its
    # defect rises monotonically in m and stays below the Gaussian's
    u = random_solenoidal(WaveLattice(32), decay=2.5, seed=1)
    gauss = half_norm_defect(u, Gaussian(alpha=1.0), 100) ** 2
    approx = [half_norm_defect(u, GaussianApprox(alpha=1.0, m=m), 100) ** 2
              for m in (1, 4, 16, 64)]
    assert 0.0 < approx[0] < approx[1] < approx[2] < approx[3] < gauss
    # the values at this field: 3.7e-15, 2.8e-7, 3.7e-6, 5.9e-6 and 6.8e-6
    assert approx[0] < 1e-14 and 5e-6 < approx[3] < gauss < 8e-6


def test_gaussian_defect_decays_slowly_in_the_order():
    # from N = 1 to N = 1000 the Helmholtz defect^2 falls by more than
    # 1e5 on this field, the Gaussian's by less than 1e2 (46.5 here): the
    # Gaussian decay that the paper's bounds leave open
    u = random_solenoidal(WaveLattice(32), decay=2.5, seed=1)
    for spec, lo, hi in ((Gaussian(alpha=1.0), 1.0, 1e2),
                         (Helmholtz(alpha=1.0, p=1.0), 1e5, math.inf)):
        first, last = (half_norm_defect(u, spec, N) ** 2 for N in (1, 1000))
        assert last > 0.0 and lo < first / last < hi, spec


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


@pytest.mark.parametrize("constant", [math.nan, math.inf, -math.inf])
def test_non_finite_constant_is_refused(small_output, constant):
    # NaN compares false with 0, so a plain `constant <= 0` check lets it
    # through and every verdict reads ok
    with pytest.raises(ValueError, match=f"finite and positive: {constant}"):
        error_report(small_output, constant=constant)
    with pytest.raises(ValueError, match=f"finite and positive: {constant}"):
        bound_residual(1.0, constant, 1.0, 1.0, 1)


def test_error_report_refuses_runs_sampled_off_the_reference(small_output):
    # a run missing one sample would pair its later samples with the
    # reference's u_h1 at earlier times
    run = small_output.runs[2]
    keep = np.arange(len(run.times)) != 2
    short = dataclasses.replace(
        run, **{name: getattr(run, name)[keep]
                for name in ("times", *solvers._SERIES)})
    output = dataclasses.replace(
        small_output, runs=[*small_output.runs[:2], short,
                            *small_output.runs[3:]])
    with pytest.raises(ValueError, match=f"N={run.N} is sampled"):
        error_report(output)


def test_error_report_non_helmholtz_bound_tau_is_finite():
    # defect_bound is a Helmholtz formula; the defect series, and so
    # bound_tau, exist for every family
    cfg = SimConfig(n=16, nu=0.05, spec=Gaussian(alpha=0.5),
                    T=0.02, dt=0.01, N_list=(0,))
    report = error_report(run_experiment(cfg, progress=False))
    assert all(math.isnan(r.bound_fin) for r in report.rows)
    assert all(math.isfinite(r.bound_tau) and r.bound_tau > 0.0
               for r in report.rows)
    assert all(s.passed is None for s in report.summaries)
    assert report.passed()  # vacuously: no decidable summary rows


@pytest.mark.parametrize("spec", [Helmholtz(alpha=0.5, p=1.0),
                                  Gaussian(alpha=0.5),
                                  GaussianApprox(alpha=0.5, m=3),
                                  HelmholtzPower(mu=0.25, m=2)],
                         ids=["helmholtz", "gaussian", "gaussian_approx",
                              "helmholtz_power"])
def test_every_family_has_defect_series_and_bound_tau(spec):
    cfg = SimConfig(n=8, nu=0.05, spec=spec, T=0.02, dt=0.01, N_list=(0, 2))
    output = run_experiment(cfg, progress=False)
    for run in output.runs:
        assert np.all(np.isfinite(run.half_norm) & (run.half_norm > 0.0))
    report = error_report(output)
    assert np.all(np.isfinite(report.columns["bound_tau"]))


def test_error_report_power_family_has_verdict():
    cfg = SimConfig(n=16, nu=0.05, spec=HelmholtzPower(mu=0.25, m=2),
                    T=0.02, dt=0.01, N_list=(0, 1))
    report = error_report(run_experiment(cfg, progress=False))
    for s in report.summaries:
        assert s.passed is True
        assert math.isfinite(s.bound_main_log10)


# ---------------------------------------------------------------------------
# the ledger's columns against the scalar formulas
# ---------------------------------------------------------------------------


def scalar_ledger_rows(output, constant):
    """The ledger built one row at a time, each bound from the scalar
    formulas: the reference for the column form of error_report."""
    spec = output.config.spec
    nu = output.config.nu
    weight, _ = solvers.energy_weight(spec)
    u_h1 = output.dns.u_h1
    rows = []
    for run in output.runs:
        grad_sq = run.eps_grad_l2 ** 2 + weight * run.eps_grad_hs ** 2
        grad_int = np.zeros_like(grad_sq)
        grad_int[1:] = np.cumsum(
            0.5 * (grad_sq[1:] + grad_sq[:-1]) * np.diff(run.times))
        energy_lhs = run.eps_l2 ** 2 + weight * run.eps_hs ** 2 \
            + nu * grad_int
        for i, t in enumerate(run.times):
            if isinstance(spec, Helmholtz):
                b_fin = defect_bound(u_h1[i], spec.alpha, spec.p, run.N)
                assert struct_bits(b_fin) == struct_bits(
                    spec.alpha * (2.0 * spec.p * (run.N + 1))
                    ** (-0.5 / spec.p) * u_h1[i] ** 2)
            else:
                b_fin = math.nan
            b_tau = math.sqrt(2.0 * constant) * u_h1[i] * run.half_norm[i]
            rows.append(ReportRow(
                order=run.N, t=float(t), eps_l2=float(run.eps_l2[i]),
                eps_hs=float(run.eps_hs[i]),
                grad_integral=float(grad_int[i]),
                energy_lhs=float(energy_lhs[i]),
                tau_l2=float(run.tau_l2[i]),
                half_norm=float(run.half_norm[i]),
                bound_fin=b_fin, bound_tau=b_tau))
    return rows


def struct_bits(value) -> bytes:
    return np.float64(value).tobytes()


def assert_rows_match_scalar_build(output, constant):
    got = error_report(output, constant=constant).rows
    want = scalar_ledger_rows(output, constant)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g.order) is int and g.order == w.order
        for field in dataclasses.fields(ReportRow)[1:]:
            assert struct_bits(getattr(g, field.name)) == \
                struct_bits(getattr(w, field.name)), (w, field.name)


def test_error_report_rows_match_scalar_build_tg16(tg16_output):
    assert_rows_match_scalar_build(tg16_output, 2.0)
    assert_rows_match_scalar_build(tg16_output, 0.37)


@pytest.mark.parametrize("spec", [Gaussian(alpha=0.5),
                                  HelmholtzPower(mu=0.25, m=2)],
                         ids=["gaussian", "helmholtz_power"])
def test_error_report_rows_match_scalar_build_nan_bounds(spec):
    cfg = SimConfig(n=8, nu=0.05, spec=spec, T=0.05, dt=0.01,
                    N_list=(0, 1, 3))
    output = run_experiment(cfg, progress=False)
    assert_rows_match_scalar_build(output, 2.0)
    report = error_report(output)
    assert np.all(np.isnan(report.columns["bound_fin"]))
    assert np.all(np.isfinite(report.columns["bound_tau"]))


def test_error_report_bound_fin_keeps_the_scalar_square():
    # numpy's array square is a multiply, which differs from the scalar
    # power (the C library's pow) by an ulp on some values; this many
    # random u_h1 samples hold such values
    rng = np.random.default_rng(5)
    n_t = 4001
    times = np.linspace(0.0, 1.0, n_t)
    u_h1 = rng.uniform(0.1, 10.0, n_t)
    assert np.any(u_h1 * u_h1 != np.array([v ** 2 for v in u_h1.tolist()]))
    cfg = SimConfig(n=8, nu=0.05, spec=Helmholtz(alpha=0.7, p=1.5), T=1.0,
                    dt=0.00025, N_list=(0, 3, 8))
    series = lambda: rng.uniform(0.0, 1.0, n_t)  # noqa: E731
    output = ExperimentOutput(
        config=cfg, lattice=WaveLattice(8),
        dns=DnsSeries(times=times, u_l2=series(), u_h1=u_h1,
                      energy=series()),
        runs=[RunSeries(N=N, times=times.copy(),
                        **{name: series() for name in solvers._SERIES},
                        div_ratio_max=math.nan)
              for N in cfg.N_list])
    assert_rows_match_scalar_build(output, 2.0)


def test_error_report_columns_are_read_only(small_output):
    # rows are built from the columns when first read
    report = error_report(small_output)
    assert list(report.columns) == [f.name for f in
                                    dataclasses.fields(ReportRow)]
    for col in report.columns.values():
        assert len(col) == len(report.rows)
        with pytest.raises(ValueError, match="read-only"):
            col[0] = 0


# ---------------------------------------------------------------------------
# the bounds refuse a viscosity or constant that is not finite and > 0
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_bounds_refuse_bad_viscosity_and_constant(bad):
    nu_msg = f"viscosity nu must be finite and positive: {bad}"
    c_msg = f"product constant must be finite and positive: {bad}"
    for u in (1.0, 0.0):
        with pytest.raises(ValueError, match=nu_msg):
            bound_main(u, bad, 2.0, 0.5, 1.0, 0)
        with pytest.raises(ValueError, match=c_msg):
            bound_main(u, 0.05, bad, 0.5, 1.0, 0)
        with pytest.raises(ValueError, match=nu_msg):
            bound_main_helmholtz_power(u, bad, 2.0, 0.25, 2, 0)
        with pytest.raises(ValueError, match=c_msg):
            bound_main_helmholtz_power(u, 0.05, bad, 0.25, 2, 0)
        with pytest.raises(ValueError, match=nu_msg):
            gronwall_log10(u, bad)
