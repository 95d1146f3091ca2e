"""Time stepper and experiment-driver tests.

The one-step oracle in tests/oracles.py restates the integrating-factor
SSP-RK3 update with its own FFTs and masks; agreement there pins the whole
pipeline (transform conventions, dealiasing, projection, symbol placement).
"""

import numpy as np
import pytest

import oracles
from admles import io as admio
from admles.deconvolution import DeconvOp, deconv_symbol
from admles.filters import (
    Gaussian,
    GaussianApprox,
    Helmholtz,
    HelmholtzPower,
    filter_symbol,
    inverse_symbol,
)
from admles.solvers import (
    BlowUpError,
    CflError,
    RandomSpectrumInit,
    SimConfig,
    SnapshotForcing,
    SnapshotInit,
    SolverState,
    TaylorGreenInit,
    adm_step,
    check_cfl,
    config_hash,
    dns_step,
    energy_weight,
    initial_field,
    read_outputs,
    run_experiment,
    write_outputs,
)
from admles.spectral import (
    SpectralField,
    WaveLattice,
    random_solenoidal,
    sobolev_norm,
    taylor_green,
    zero_field,
)
from test_spectral import single_mode

H = Helmholtz(alpha=0.5, p=1.0)


def small_cfg(**kw):
    base = dict(n=16, nu=0.05, spec=H, T=0.02, dt=0.01, N_list=(0, 1))
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="viscosity"):
        small_cfg(nu=0.0)
    with pytest.raises(ValueError, match="horizon"):
        small_cfg(T=-1.0)
    with pytest.raises(ValueError):
        small_cfg(dt=0.0)
    with pytest.raises(ValueError):
        small_cfg(dt=0.5)  # dt > T
    with pytest.raises(ValueError, match="N_list"):
        small_cfg(N_list=())
    with pytest.raises(ValueError, match="N_list"):
        small_cfg(N_list=(0, -1))
    with pytest.raises(ValueError, match="sample_every"):
        small_cfg(sample_every=0)
    with pytest.raises(ValueError, match="grid size"):
        small_cfg(n=9)


@pytest.mark.parametrize(
    "spec",
    [Helmholtz(alpha=0.5, p=1.5), Gaussian(alpha=1.0),
     GaussianApprox(alpha=1.0, m=4), HelmholtzPower(mu=0.25, m=2)],
)
@pytest.mark.parametrize(
    "init",
    [TaylorGreenInit(amplitude=0.7), RandomSpectrumInit(decay=2.0, seed=5),
     SnapshotInit(path="/tmp/x.admf")],
)
def test_config_json_roundtrip(spec, init):
    cfg = small_cfg(spec=spec, init=init,
                    forcing=SnapshotForcing(path="/tmp/f.admf"),
                    output_dir="out", sample_every=3)
    back = SimConfig.from_json(cfg.to_json())
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)


def test_config_defaults_and_hash_sensitivity():
    minimal = {"n": 16, "nu": 0.1, "T": 0.1, "dt": 0.05,
               "filter": {"kind": "helmholtz", "alpha": 1.0}}
    cfg = SimConfig.from_dict(minimal)
    assert cfg.N_list == (0,)
    assert cfg.init == TaylorGreenInit()
    assert cfg.sample_every == 1
    assert cfg.L == pytest.approx(2.0 * np.pi)
    other = SimConfig.from_dict({**minimal, "nu": 0.2})
    assert config_hash(other) != config_hash(cfg)
    # integer-valued JSON numbers are coerced to the field types
    for typed, loose in [
        ({"filter": {"kind": "helmholtz", "alpha": 1.0}},
         {"filter": {"kind": "helmholtz", "alpha": 1}}),
        ({"filter": {"kind": "gaussian_approx", "alpha": 1.0, "m": 4}},
         {"filter": {"kind": "gaussian_approx", "alpha": 1, "m": 4.0}}),
        ({"init": {"kind": "random_spectrum", "decay": 2.0, "seed": 5}},
         {"init": {"kind": "random_spectrum", "decay": 2, "seed": 5.0}}),
    ]:
        assert config_hash(SimConfig.from_dict({**minimal, **loose})) \
            == config_hash(SimConfig.from_dict({**minimal, **typed}))


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        SimConfig.from_dict({"n": 16, "nu": 0.1, "T": 1.0, "dt": 0.5,
                             "filter": {"kind": "helmholtz", "alpha": 1.0},
                             "bogus": 1})
    with pytest.raises(ValueError, match="missing required key"):
        SimConfig.from_dict({"n": 16, "nu": 0.1, "T": 1.0, "dt": 0.5})
    with pytest.raises(ValueError, match="unknown filter kind"):
        SimConfig.from_dict({"n": 16, "nu": 0.1, "T": 1.0, "dt": 0.5,
                             "filter": {"kind": "boxcar", "alpha": 1.0}})
    with pytest.raises(ValueError, match="unknown initial condition"):
        SimConfig.from_dict({"n": 16, "nu": 0.1, "T": 1.0, "dt": 0.5,
                             "filter": {"kind": "helmholtz", "alpha": 1.0},
                             "init": {"kind": "vortex"}})


def test_energy_weight():
    assert energy_weight(Helmholtz(alpha=0.5, p=2.0)) == (0.5 ** 4, 2.0)
    assert energy_weight(HelmholtzPower(mu=0.5, m=3)) == (0.5 ** 6, 3.0)
    w, s = energy_weight(GaussianApprox(alpha=6.0, m=6))
    assert (w, s) == pytest.approx((0.5 ** 12, 6.0))
    assert energy_weight(Gaussian(alpha=2.0)) == (4.0 / 24.0, 1.0)


def test_steps_must_divide_horizon():
    with pytest.raises(ValueError, match="integer number of steps"):
        run_experiment(small_cfg(T=0.05, dt=0.02), progress=False)


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------


def test_zero_state_is_fixed_point():
    lat = WaveLattice(8)
    cfg = small_cfg(n=8)
    st = SolverState(field=zero_field(lat))
    for _ in range(3):
        st = dns_step(st, cfg)
    assert float(np.max(np.abs(st.field.coeffs))) == 0.0
    st = SolverState(field=zero_field(lat))
    st = adm_step(st, cfg, 2)
    assert float(np.max(np.abs(st.field.coeffs))) == 0.0


def test_stokes_single_mode_decay():
    # at amplitude 1e-8 the quadratic term cannot reach the excited mode
    # above roundoff, so the integrating factor must reproduce the exact
    # heat decay of that coefficient
    lat = WaveLattice(8)
    nu, dt, steps = 0.1, 0.01, 5
    cfg = small_cfg(n=8, nu=nu, dt=dt, T=dt * steps)
    f = single_mode(lat, (1, 0, 0), (0.0, 1e-8, 0.0))
    st = SolverState(field=f)
    for _ in range(steps):
        st = dns_step(st, cfg)
    got = st.field.coeffs[1, 1, 0, 0]
    want = 1e-8 * np.exp(-nu * 1.0 * dt * steps)
    assert abs(got - want) <= 1e-9 * abs(want)


def test_taylor_green_energy_decays():
    lat = WaveLattice(16)
    cfg = small_cfg(nu=0.1, dt=0.01, T=0.1)
    st = SolverState(field=taylor_green(lat))
    prev = sobolev_norm(st.field, 0.0)
    for _ in range(10):
        st = dns_step(st, cfg)
        cur = sobolev_norm(st.field, 0.0)
        assert cur <= prev
        prev = cur


def test_adm_step_matches_textbook_oracle():
    lat = WaveLattice(16)
    nu, dt = 0.05, 0.01
    cfg = small_cfg(nu=nu, dt=dt, T=dt)
    ksq = lat.k_squared
    post = np.asarray(filter_symbol(H, ksq))
    pre = np.asarray(deconv_symbol(DeconvOp(H, 3), ksq))
    w0 = SpectralField(lat, post * taylor_green(lat).coeffs,
                       divergence_free=True)
    got = adm_step(SolverState(field=w0), cfg, 3).field.coeffs
    want = oracles.one_step(w0.coeffs, lat, nu, dt, pre=pre, post=post)
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= 1e-12 * scale


def test_dns_step_matches_textbook_oracle():
    lat = WaveLattice(16)
    nu, dt = 0.08, 0.005
    cfg = small_cfg(nu=nu, dt=dt, T=dt)
    u0 = random_solenoidal(lat, decay=2.0, seed=3)
    got = dns_step(SolverState(field=u0), cfg).field.coeffs
    want = oracles.one_step(u0.coeffs, lat, nu, dt)
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= 1e-12 * scale


def test_identity_filter_reduces_adm_to_dns():
    # alpha = 0 makes both symbols exactly 1, so the two steppers must
    # agree bit for bit
    lat = WaveLattice(16)
    cfg = small_cfg(spec=Helmholtz(alpha=0.0, p=1.0))
    u0 = taylor_green(lat)
    a = dns_step(SolverState(field=u0), cfg).field.coeffs
    b = adm_step(SolverState(field=u0), cfg, 0).field.coeffs
    assert np.array_equal(a, b)


def test_step_bookkeeping():
    lat = WaveLattice(8)
    cfg = small_cfg(n=8)
    st = SolverState(field=taylor_green(lat))
    st = dns_step(st, cfg)
    st = dns_step(st, cfg)
    assert st.step_index == 2
    assert st.t == pytest.approx(2 * cfg.dt)


def test_blowup_detected():
    lat = WaveLattice(16)
    cfg = SimConfig(n=16, nu=1e-6, spec=H, T=1000.0, dt=5.0)
    st = SolverState(field=taylor_green(lat, amplitude=50.0))
    with np.errstate(all="ignore"):
        with pytest.raises(BlowUpError) as err:
            for _ in range(200):
                st = dns_step(st, cfg)
    assert err.value.step_index >= 1
    assert err.value.t > 0.0


def test_cfl_guard():
    lat = WaveLattice(16)
    u0 = taylor_green(lat)  # peak speed ~1, dx ~ 0.39, limit ~ 0.2
    check_cfl(small_cfg(dt=0.01, T=0.02), u0)
    with pytest.raises(CflError, match="CFL"):
        check_cfl(SimConfig(n=16, nu=0.05, spec=H, T=1.0, dt=0.5), u0)
    with pytest.raises(CflError):
        run_experiment(SimConfig(n=16, nu=0.05, spec=H, T=1.0, dt=0.5),
                       progress=False)
    # zero field has no speed limit
    check_cfl(SimConfig(n=16, nu=0.05, spec=H, T=1.0, dt=1.0),
              zero_field(lat))


def test_adm_energy_budget_non_increasing():
    # the deconvolution-weighted energy of the model state may grow only
    # through time-discretization error, which is O(dt^3) per step
    lat = WaveLattice(16)
    ksq = lat.k_squared
    a = np.asarray(inverse_symbol(H, ksq))
    g = np.asarray(filter_symbol(H, ksq))
    d = np.asarray(deconv_symbol(DeconvOp(H, 2), ksq))
    dt = 0.01
    cfg = small_cfg(nu=0.05, dt=dt, T=20 * dt)
    w = SpectralField(lat, g * taylor_green(lat).coeffs, divergence_free=True)
    st = SolverState(field=w)

    def budget(c):
        return float(np.sum(a * d * np.abs(c) ** 2))

    prev = budget(st.field.coeffs)
    e0 = prev
    for _ in range(20):
        st = adm_step(st, cfg, 2)
        cur = budget(st.field.coeffs)
        assert cur - prev <= max(1e-13 * e0, 1.0 * dt ** 3)
        prev = cur


# ---------------------------------------------------------------------------
# initial conditions and forcing
# ---------------------------------------------------------------------------


def test_initial_field_variants(tmp_path):
    lat = WaveLattice(16)
    f = initial_field(small_cfg(init=RandomSpectrumInit(decay=2.0, seed=1)),
                      lat)
    assert sobolev_norm(f, 0.0) > 0.0

    snap = tmp_path / "ic.admf"
    admio.save_field(random_solenoidal(lat, decay=1.0, seed=2), snap)
    g = initial_field(small_cfg(init=SnapshotInit(path=str(snap))), lat)
    assert sobolev_norm(g, 0.0) > 0.0
    with pytest.raises(ValueError, match="lattice"):
        initial_field(small_cfg(n=8, init=SnapshotInit(path=str(snap))),
                      WaveLattice(8))


def test_forcing_enters_dynamics(tmp_path):
    lat = WaveLattice(8)
    force = random_solenoidal(lat, decay=1.0, seed=9)
    path = tmp_path / "force.admf"
    admio.save_field(force, path)
    cfg = small_cfg(n=8, init=TaylorGreenInit(amplitude=0.0),
                    forcing=SnapshotForcing(path=str(path)),
                    N_list=(0,), T=0.05, dt=0.01)
    out = run_experiment(cfg, progress=False)
    # forcing lifts the zero state off the fixed point
    assert out.dns.u_l2[-1] > 0.0
    assert out.runs[0].w_l2[-1] > 0.0

    bad = small_cfg(forcing=SnapshotForcing(path=str(path)))  # n=16 grid
    with pytest.raises(ValueError, match="lattice"):
        run_experiment(bad, progress=False)


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------


def test_single_step_horizon_has_two_samples():
    cfg = small_cfg(T=0.01, dt=0.01, N_list=(0,))
    out = run_experiment(cfg, progress=False)
    assert list(out.dns.times) == pytest.approx([0.0, 0.01])
    assert len(out.runs[0].eps_l2) == 2


def test_sampling_cadence_includes_endpoint():
    cfg = small_cfg(T=0.05, dt=0.01, sample_every=2, N_list=(0,))
    out = run_experiment(cfg, progress=False)
    # steps 0,2,4 plus the final step 5
    assert list(out.dns.times) == pytest.approx([0.0, 0.02, 0.04, 0.05])


def test_experiment_is_deterministic_and_thread_safe():
    cfg = small_cfg(T=0.03, dt=0.01, N_list=(0, 2))
    a = run_experiment(cfg, progress=False)
    b = run_experiment(cfg, progress=False)
    c = run_experiment(cfg, threads=2, progress=False)
    for x, y in ((a, b), (a, c)):
        assert np.array_equal(x.dns.u_l2, y.dns.u_l2)
        for rx, ry in zip(x.runs, y.runs):
            assert rx.N == ry.N
            assert np.array_equal(rx.eps_l2, ry.eps_l2)
            assert np.array_equal(rx.tau_l2, ry.tau_l2)
            assert np.array_equal(rx.final_field.coeffs, ry.final_field.coeffs)


def test_experiment_solution_quality():
    cfg = small_cfg(T=0.1, dt=0.005, N_list=(0, 4))
    out = run_experiment(cfg, progress=False)
    for run in out.runs:
        # model stays divergence-free to solver drift tolerance
        assert run.div_ratio_max <= 1e-11
        # error starts at zero (model starts from the filtered reference)
        assert run.eps_l2[0] == 0.0
        assert run.eps_l2[-1] > 0.0
        # defect norms are finite, positive, and half_norm is populated
        # for a Helmholtz filter
        assert np.all(run.tau_l2 >= 0.0)
        assert np.all(np.isfinite(run.half_norm))
    # higher deconvolution order tracks the reference more closely
    assert out.runs[1].eps_l2[-1] < out.runs[0].eps_l2[-1]


def test_half_norm_nan_for_non_helmholtz():
    cfg = small_cfg(spec=Gaussian(alpha=1.0), T=0.02, dt=0.01, N_list=(1,))
    out = run_experiment(cfg, progress=False)
    assert np.all(np.isnan(out.runs[0].half_norm))
    assert np.all(np.isfinite(out.runs[0].eps_l2))


def test_divergence_drift_over_thousand_steps():
    cfg = small_cfg(T=1.0, dt=0.001, N_list=(1,), sample_every=100)
    out = run_experiment(cfg, progress=False)
    assert out.runs[0].div_ratio_max <= 1e-11


# ---------------------------------------------------------------------------
# outputs on disk
# ---------------------------------------------------------------------------


def test_write_read_outputs_roundtrip(tmp_path):
    cfg = small_cfg(T=0.03, dt=0.01, N_list=(0, 2))
    out = run_experiment(cfg, progress=False)
    paths = write_outputs(out, tmp_path)
    assert (tmp_path / "config.json").exists()
    assert (tmp_path / "dns.csv").exists()
    assert (tmp_path / "series.csv").exists()
    for name in ("u_final.admf", "ubar_final.admf", "w0_final.admf",
                 "w2_final.admf"):
        assert (tmp_path / "snapshots" / name).exists(), name
    assert set(paths) >= {"config", "dns", "series"}

    back = read_outputs(tmp_path)
    assert back.config == cfg
    assert np.array_equal(back.dns.times, out.dns.times)
    assert np.array_equal(back.dns.u_l2, out.dns.u_l2)  # repr round-trip
    assert [r.N for r in back.runs] == [0, 2]
    for rb, ro in zip(back.runs, out.runs):
        assert np.array_equal(rb.eps_l2, ro.eps_l2)
        assert np.array_equal(rb.tau_l2, ro.tau_l2)
        assert np.array_equal(rb.half_norm, ro.half_norm)

    # the stored model snapshot really is the final state
    w2 = admio.load_field(tmp_path / "snapshots" / "w2_final.admf")
    assert np.array_equal(w2.coeffs, out.runs[1].final_field.coeffs)


def test_written_csvs_carry_config_stamp(tmp_path):
    cfg = small_cfg(T=0.02, dt=0.01, N_list=(0,))
    out = run_experiment(cfg, progress=False)
    write_outputs(out, tmp_path)
    stamp = f"# config={config_hash(cfg)}"
    for name in ("dns.csv", "series.csv"):
        first = (tmp_path / name).read_text().splitlines()[0]
        assert first == stamp


def test_config_rejects_duplicate_orders():
    # a repeated order would be read back as one doubled series
    with pytest.raises(ValueError, match="N_list"):
        small_cfg(N_list=(1, 1))
    with pytest.raises(ValueError, match="N_list"):
        SimConfig.from_dict({"n": 16, "nu": 0.1, "T": 1.0, "dt": 0.5,
                             "filter": {"kind": "helmholtz", "alpha": 1.0},
                             "N_list": [0, 2, 0]})


def test_forcing_snapshot_is_validated(tmp_path):
    from admles.spectral import FieldInvariantError

    lat = WaveLattice(8)
    c = np.array(random_solenoidal(lat, decay=1.0, seed=9).coeffs)
    # not divergence-free: accepted, the forcing is projected
    c[0, 1, 0, 0] += 0.5
    c[0, -1, 0, 0] += 0.5
    path = tmp_path / "force.admf"
    admio.save_field(SpectralField(lat, c.copy()), path)
    cfg = small_cfg(n=8, forcing=SnapshotForcing(path=str(path)),
                    N_list=(0,))
    dns_step(SolverState(field=taylor_green(lat)), cfg)

    # a coefficient without its conjugate partner is not a real field
    c[1, 1, 2, 1] += 0.3j
    admio.save_field(SpectralField(lat, c.copy()), path)
    with pytest.raises(FieldInvariantError, match="Hermitian"):
        dns_step(SolverState(field=taylor_green(lat)), cfg)
    with pytest.raises(FieldInvariantError, match="Hermitian"):
        run_experiment(cfg, progress=False)
