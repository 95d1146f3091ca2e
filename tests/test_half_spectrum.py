"""Keep-set products and stepping against full-spectrum references.

The stepper transforms the 5 components of the trace-free stress, the
residual-stress norm the 6 distinct products of a symmetric tensor.  Both
run on the 2/3-rule keep set through the keep-set transform pair (DFT
matrix products); the norm adds the part of an untruncated field outside
the keep set through the full-layout inverse.  These tests pin both to the
full-spectrum, 9-product restatements in tests/oracles.py (the stepper on
truncated spectra, the norm on truncated spectra and on spectra that are
not truncated, so the 2/3-rule mask is active), pin the keep-set pair to
the full-layout pair _inverse / _forward within 1e-13 of the largest
value, check that the full layout has that one pair (no real-input FFT
is called), pin the transforms of one step, check that stepping and
sampling make no FFT call, and that results depend neither on the BLAS
thread count nor on the number of processes stepping the orders.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import admles
from admles import diagnostics, solvers, spectral
from admles.deconvolution import DeconvOp, deconv_symbol
from admles.diagnostics import residual_stress_norm
from admles.filters import (
    Gaussian,
    GaussianApprox,
    Helmholtz,
    HelmholtzPower,
    filter_symbol,
)
from admles.solvers import _Stepper
from admles.spectral import (
    WaveLattice,
    random_solenoidal,
    _forward,
    _full,
    _inverse,
    _kept,
    _kforward,
    _kinverse,
    _Workspace,
)

H = Helmholtz(alpha=0.5, p=1.0)


def _symbols(lat, spec, order):
    ksq = lat.k_squared
    return (np.asarray(deconv_symbol(DeconvOp(spec, order), ksq)),
            np.asarray(filter_symbol(spec, ksq)))


def _stepper(lat, nu, dt, pre=None, post=None):
    """A _Stepper with full-layout symbols pre/post (None for identity)
    gathered onto the keep set."""
    kept = (None if a is None else _kept(a, lat.n) for a in (pre, post))
    return _Stepper(_Workspace(lat), nu, dt, *kept)


def test_hermitian_fill_restores_full_layout():
    # the m3 < 0 planes of an fftn-built field are Hermitian to rounding
    # only, so the conjugate fill restores them within 1e-15, not exactly
    for n in (6, 8, 16):
        lat = WaveLattice(n)
        c = random_solenoidal(lat, decay=0.5, seed=n).coeffs
        kc = _kept(c, n)
        back = _full(kc, n)
        assert back.shape == c.shape
        assert float(np.max(np.abs(back - c))) <= 1e-15 * float(
            np.max(np.abs(c)))
        assert np.array_equal(_kept(back, n), kc)


def _pair_inputs(n, seed):
    """Full-layout coefficients of a truncated field and random samples of
    the 6 products."""
    lat = WaveLattice(n)
    c = random_solenoidal(lat, decay=0.5, seed=seed).coeffs
    samples = np.random.default_rng(seed).standard_normal((6, n, n, n))
    return lat, c, samples


def _close(got, want):
    """max|got - want| <= 1e-13 max|want|: the bound for a deliberate
    change of transform arithmetic."""
    return float(np.max(np.abs(got - want))) <= 1e-13 * float(
        np.max(np.abs(want)))


@pytest.mark.parametrize("n", [4, 6, 8, 16, 32, 48])
def test_pruned_pair_matches_full_transforms(n):
    lat, c, samples = _pair_inputs(n, seed=40 + n)
    ws = _Workspace(lat)
    assert _close(_kinverse(_kept(c, n), ws), _inverse(c, n))
    assert _close(_kforward(samples, ws), _kept(_forward(samples, n), n))
    # _full is the inverse of _kept on truncated data; exact on the planes
    # m3 >= 0 that the keep set stores
    half = slice(None, n // 2 + 1)
    assert np.array_equal(_full(_kept(c, n), n)[..., half], c[..., half])


@pytest.mark.parametrize("n", [6, 16])
def test_pruned_pair_second_call_matches_fresh_workspace(n):
    # the passes overwrite the workspace buffers; a reused workspace must
    # give what a fresh one gives
    lat, c1, s1 = _pair_inputs(n, seed=50 + n)
    _, c2, s2 = _pair_inputs(n, seed=60 + n)
    used = _Workspace(lat)
    _kinverse(_kept(c1, n), used)
    _kforward(s1, used)
    fresh = _Workspace(lat)
    assert np.array_equal(_kinverse(_kept(c2, n), used),
                          _kinverse(_kept(c2, n), fresh))
    assert np.array_equal(_kforward(s2, used), _kforward(s2, fresh))


@pytest.mark.parametrize("n", [6, 8, 16])
@pytest.mark.parametrize("order", [None, 0, 3])
def test_advance_matches_full_spectrum_oracle(n, order):
    lat = WaveLattice(n)
    nu, dt = 0.05, 0.01
    u = random_solenoidal(lat, decay=0.5, seed=20 + n)
    pre, post = (None, None) if order is None else _symbols(lat, H, order)
    stepper = _stepper(lat, nu, dt, pre=pre, post=post)
    got = _full(stepper.advance(_kept(u.coeffs, n)), n)
    want = oracles.one_step(u.coeffs, lat, nu, dt, pre=pre, post=post)
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= 1e-13 * scale


@pytest.mark.parametrize("n", [6, 8, 16, 32])
@pytest.mark.parametrize("spec", [H, Gaussian(alpha=1.0),
                                  GaussianApprox(alpha=1.0, m=4),
                                  HelmholtzPower(mu=0.3, m=3)])
def test_build_steppers_share_keep_set_workspace_and_symbols(n, spec):
    # the symbols are evaluated on the workspace's keep set, bit for bit
    # the keep-set part of the full-layout ones, and one workspace serves
    # every stepper
    lat = WaveLattice(n)
    cfg = solvers.SimConfig(n=n, nu=0.05, spec=spec, T=0.01, dt=0.01)
    steppers, g, pres = solvers._build_steppers(cfg, lat, (None, 0, 4))
    ws = steppers[0].ws
    assert all(s.ws is ws for s in steppers)
    assert np.array_equal(g, _kept(_symbols(lat, spec, 0)[1], n))
    assert pres[0] is None
    for d, order in zip(pres[1:], (0, 4)):
        assert np.array_equal(d, _kept(_symbols(lat, spec, order)[0], n))
    assert np.array_equal(ws.ksq, _kept(lat.k_squared, n))


def test_experiment_gathers_only_fields(monkeypatch):
    # symbols and weights come from the workspace's keep set, so the only
    # full-layout array run_experiment gathers is the initial field
    shapes = []
    gather = solvers._kept

    def recording(a, n):
        shapes.append(a.shape)
        return gather(a, n)

    monkeypatch.setattr(solvers, "_kept", recording)
    cfg = solvers.SimConfig(n=8, nu=0.05, spec=H, T=0.02, dt=0.01,
                            N_list=(0, 2))
    solvers.run_experiment(cfg, progress=False)
    assert shapes == [(3, 8, 8, 8)]


def test_advance_makes_six_transforms(monkeypatch):
    lat = WaveLattice(16)
    pre, post = _symbols(lat, H, 2)
    stepper = _stepper(lat, 0.05, 0.01, pre=pre, post=post)
    c = _kept(random_solenoidal(lat, decay=1.0, seed=4).coeffs, lat.n)
    calls = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
                 "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name,
                            counting(name, getattr(np.fft, name)))
    for name in ("_kinverse", "_kforward"):
        monkeypatch.setattr(spectral, name,
                            counting(name, getattr(spectral, name)))
    # _Stepper.rhs calls the name solvers imported
    monkeypatch.setattr(solvers, "_kinverse", spectral._kinverse)
    stepper.advance(c)
    # three keep-set pairs of DFT matrix products, no FFT
    assert calls == {"_kinverse": 3, "_kforward": 3}


_FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft",
              "fft2", "ifft2", "rfft2", "irfft2",
              "fftn", "ifftn", "rfftn", "irfftn")


def _record_calls(monkeypatch, module, names, calls):
    """Wrap module.<name> for each name so that every call appends the
    leading length of its first argument to calls[name]."""
    def recording(name, fn):
        def wrapped(*args, **kwargs):
            calls.setdefault(name, []).append(len(args[0]))
            return fn(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(module, name,
                            recording(name, getattr(module, name)))


def test_advance_transforms_trace_free_stress(monkeypatch):
    # each stage sends 3 velocity components to the grid and 5 trace-free
    # stress components back
    lat = WaveLattice(16)
    pre, post = _symbols(lat, H, 2)
    stepper = _stepper(lat, 0.05, 0.01, pre=pre, post=post)
    c = _kept(random_solenoidal(lat, decay=1.0, seed=4).coeffs, lat.n)
    calls = {}
    _record_calls(monkeypatch, np.fft, _FFT_NAMES, calls)
    _record_calls(monkeypatch, spectral, ("_kinverse", "_kforward"), calls)
    monkeypatch.setattr(solvers, "_kinverse", spectral._kinverse)
    stepper.advance(c)
    assert calls == {"_kinverse": [3, 3, 3], "_kforward": [5, 5, 5]}


def test_experiment_loop_makes_no_fft_call(monkeypatch):
    # after the initial field is built, stepping and sampling every step
    # (residual stress and Courant number included) run on the keep-set
    # pair alone
    cfg = solvers.SimConfig(n=8, nu=0.05, spec=H, T=0.03, dt=0.01,
                            N_list=(0, 1, 3), sample_every=1,
                            init=solvers.RandomSpectrumInit(decay=1.0,
                                                            seed=5))
    calls = {}
    build = solvers.initial_field

    def initial_then_count(*args):
        u0 = build(*args)
        _record_calls(monkeypatch, np.fft, _FFT_NAMES, calls)
        _record_calls(monkeypatch, solvers, ("_kinverse",), calls)
        return u0

    monkeypatch.setattr(solvers, "initial_field", initial_then_count)
    out = solvers.run_experiment(cfg, progress=False)
    assert np.all(np.isfinite(out.runs[-1].tau_l2))
    assert set(calls) == {"_kinverse"}
    # 4 samples: u and the 3 deconvolved states each; 3 steps of 4 systems
    assert len(calls["_kinverse"]) == 4 * (1 + 3) + 3 * 4 * 3


def test_full_layout_has_one_transform_pair(monkeypatch):
    # every full-layout operator goes through _inverse / _forward (fftn
    # and ifftn); no real-input FFT is called, on an untruncated field too
    def refuse(*args, **kwargs):
        raise AssertionError("real-input FFT called")

    for name in _FFT_NAMES:
        if name.startswith(("rfft", "irfft")):
            monkeypatch.setattr(np.fft, name, refuse)
    lat = WaveLattice(8)
    u = random_solenoidal(lat, decay=0.5, seed=9, truncate=False)
    assert _close(spectral.from_physical(spectral.to_physical(u)).coeffs,
                  u.coeffs)
    spectral.nonlinear_term(u, u)
    solvers.check_cfl(solvers.SimConfig(n=8, nu=0.05, spec=H, T=0.01,
                                        dt=0.01), u)
    assert residual_stress_norm(u, H, 2) > 0.0


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("spec,order",
                         [(H, 0), (H, 2), (Gaussian(alpha=1.0), 1)])
def test_residual_stress_matches_full_spectrum_oracle(n, spec, order):
    lat = WaveLattice(n)
    u = random_solenoidal(lat, decay=0.5, seed=30 + n, truncate=False)
    # both the m3 = 0 plane and the planes between carry energy
    assert float(np.max(np.abs(u.coeffs[..., 0]))) > 0.0
    assert float(np.max(np.abs(u.coeffs[..., 1]))) > 0.0
    d, g = _symbols(lat, spec, order)
    got = residual_stress_norm(u, spec, order)
    want = oracles.residual_stress_norm_full(lat, u.coeffs, d * g * u.coeffs)
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("spec,order",
                         [(H, 0), (H, 2), (Gaussian(alpha=1.0), 1)])
def test_residual_stress_keep_set_matches_full_spectrum_oracle(
        monkeypatch, n, spec, order):
    # a truncated field has no modes outside the keep set, so the norm
    # runs on the keep-set pair alone, without the _inverse remainder
    lat = WaveLattice(n)
    u = random_solenoidal(lat, decay=0.5, seed=70 + n)
    assert float(np.max(np.abs(u.coeffs[..., 1]))) > 0.0
    d, g = _symbols(lat, spec, order)
    want = oracles.residual_stress_norm_full(lat, u.coeffs, d * g * u.coeffs)

    def refuse(*args, **kwargs):
        raise AssertionError("remainder transformed for a truncated field")

    monkeypatch.setattr(diagnostics, "_inverse", refuse)
    assert residual_stress_norm(u, spec, order) == pytest.approx(
        want, rel=1e-13)


def _simulate_files(tmp_path, blas_threads):
    """Every output file of `admles simulate` run in a fresh interpreter
    with the BLAS thread count and --threads both set to blas_threads, by
    relative path: with 2, the orders' worker is forked from a process
    whose BLAS pool is running."""
    out = tmp_path / f"out{blas_threads}"
    cfg = solvers.SimConfig(n=32, nu=0.05, spec=H, T=0.03, dt=0.01,
                            N_list=(0, 2),
                            init=solvers.RandomSpectrumInit(decay=1.5,
                                                            seed=3))
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(cfg.to_json())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               OMP_NUM_THREADS=str(blas_threads),
               PYTHONPATH=str(Path(admles.__file__).parents[1]))
    subprocess.run(
        [sys.executable, "-c", "from admles.cli import main; main()",
         "simulate", "--config", str(cfg_path), "--out", str(out),
         "--threads", str(blas_threads)],
        env=env, check=True, capture_output=True, timeout=300)
    return {p.relative_to(out): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    one = _simulate_files(tmp_path, 1)
    two = _simulate_files(tmp_path, 2)
    assert {p.name for p in one} >= {"dns.csv", "series.csv", "u_final.admf",
                                     "w0_final.admf", "w2_final.admf"}
    assert one == two
