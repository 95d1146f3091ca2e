"""Keep-set products and stepping against full-spectrum references.

The stepper transforms the 5 components of the trace-free stress, the
residual-stress norm the 6 distinct products of a symmetric tensor.
Both run on the 2/3-rule keep set through the keep-set transform pair
(DFT matrix products), and both act on the keep-set part of their input:
an untruncated field gives the norm of its truncation, as it gives the
nonlinear term and the snapshot defect norm of its truncation, bit for
bit.  These tests pin both to the full-spectrum, 9-product restatements
in tests/oracles.py (the stepper on truncated spectra, the norm on
truncated spectra and on the truncations of spectra that are not, so the
2/3-rule mask is active), pin the keep-set pair to the full-layout pair
_inverse / _forward within 1e-13 of the largest value, pin the keep-set
layout (m3, m1, m2) and the pair's structure (3 matmul calls per
transform, none stacking more products than there are components), check
that the full layout has that one pair (no real-input FFT is called),
pin the transforms of one step, check that stepping and sampling make no
FFT call, and that results depend neither on the BLAS thread count nor
on the number of processes stepping the orders.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import admles
from admles import solvers, spectral
from admles.deconvolution import DeconvOp, deconv_symbol
from admles.diagnostics import half_norm_defect, residual_stress_norm
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
    truncate_field,
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


@pytest.mark.parametrize("n", [4, 6, 8, 12, 16, 24, 32, 48])
def test_pruned_pair_matches_full_transforms(n):
    lat, c, samples = _pair_inputs(n, seed=40 + n)
    ws = _Workspace(lat)
    assert _close(_kinverse(_kept(c, n), ws), _inverse(c, n))
    # 3 velocity components, the 5 of the trace-free stress and the 6 of
    # the residual stress
    for comps in (3, 5, 6):
        assert _close(_kforward(samples[:comps], ws),
                      _kept(_forward(samples[:comps], n), n))
    # _full is the inverse of _kept on truncated data; exact on the planes
    # m3 >= 0 that the keep set stores
    half = slice(None, n // 2 + 1)
    assert np.array_equal(_full(_kept(c, n), n)[..., half], c[..., half])


class _CountingNumpy:
    """numpy as admles.spectral sees it, with every np.matmul call's `out`
    shape recorded; a call without `out=` fails."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, *, out):
        self.shapes.append(out.shape)
        return np.matmul(a, b, out=out)


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("comps", [3, 5, 6])
def test_pruned_pair_makes_one_product_per_component_per_pass(
        monkeypatch, n, comps):
    # each transform is 3 matmul calls, one per pass, and no call stacks
    # more products than there are components: no pass loops over a mode
    # axis
    lat, c, samples = _pair_inputs(n, seed=n)
    ws = _Workspace(lat)
    counting = _CountingNumpy()
    monkeypatch.setattr(spectral, "np", counting)
    for transform, arg, batch in ((_kinverse, _kept(c, n), 3),
                                  (_kforward, samples[:comps], comps)):
        counting.shapes.clear()
        transform(arg, ws)
        assert len(counting.shapes) == 3
        assert all(int(np.prod(shape[:-2])) <= batch
                   for shape in counting.shapes), counting.shapes


@pytest.mark.parametrize("n", [6, 8, 16])
def test_keep_set_layout_is_m3_m1_m2(n):
    # _kept moves m3 to the front: kept[..., j3, i1, i2] is the full-layout
    # mode (rows[i1], rows[i2], j3)
    m = n // 3
    rows = np.r_[0: m + 1, n - m: n]
    full = np.random.default_rng(n).standard_normal((2, 3, n, n, n))
    kept = _kept(full, n)
    assert kept.shape == (2, 3, m + 1, 2 * m + 1, 2 * m + 1)
    assert kept.flags.c_contiguous
    assert np.array_equal(
        kept, full[..., rows[:, None], rows, : m + 1].transpose(0, 1, 4, 2, 3))
    lat = WaveLattice(n)
    ws = _Workspace(lat)
    shapes = [(1, 2 * m + 1, 1), (1, 1, 2 * m + 1), (m + 1, 1, 1)]
    assert [_kept(k, n).shape for k in lat.wavevectors] == shapes
    assert [k.shape for k in ws.keep.k] == shapes
    w = lat.keep.w
    assert w.shape == ws.keep.w.shape == (m + 1, 1, 1)
    assert w[0, 0, 0] == 1.0 and np.all(w[1:] == 2.0)


def test_lattice_builds_its_keep_set_once():
    lat = WaveLattice(8)
    assert lat.keep is lat.keep
    # an equal lattice is a different instance with its own cache
    other = WaveLattice(8)
    assert other == lat and other.keep is not lat.keep
    assert np.array_equal(other.keep.ksq, lat.keep.ksq)


@pytest.mark.parametrize("n", [6, 16])
def test_workspaces_share_keep_set_not_buffers(n):
    # the read-only keep set is the lattice's; each workspace allocates
    # its own scratch buffers, so two never alias each other's results
    lat = WaveLattice(n)
    a, b = _Workspace(lat), _Workspace(lat)
    assert a.keep is b.keep is lat.keep
    for name in ("grid", "prod", "lines", "planes", "kspec"):
        assert not np.shares_memory(getattr(a, name), getattr(b, name)), name
    _, c, _ = _pair_inputs(n, seed=90 + n)
    got = _kinverse(_kept(c, n), a)
    want = got.copy()
    _kinverse(_kept(2.0 * c, n), b)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [6, 16])
def test_keep_set_arrays_are_read_only(n):
    keep = WaveLattice(n).keep
    arrays = [*keep.k, *keep.kov, keep.ksq, keep.kmag, keep.w, keep.Ff,
              keep.Fi, keep.Wr, keep.R]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 1.0


@pytest.mark.parametrize("n", [6, 8, 16, 32])
def test_energy_sums_m3_planes_with_hermitian_weights(n):
    # plane 0 of the keep set is m3 = 0; the weighted keep-set sum is half
    # the full-layout sum of a truncated field
    c = random_solenoidal(WaveLattice(n), decay=0.5, seed=80 + n).coeffs
    want = 0.5 * float(np.sum(np.abs(c) ** 2))
    assert solvers._energy(_kept(c, n)) == pytest.approx(want, rel=1e-15)


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
    assert np.array_equal(ws.keep.ksq, _kept(lat.k_squared, n))


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
    # an untruncated field gives the oracle's norm of its truncation: the
    # 2/3 rule is alias-free only for factors on the keep set
    lat = WaveLattice(n)
    u = random_solenoidal(lat, decay=0.5, seed=30 + n, truncate=False)
    assert np.any(u.coeffs[:, ~lat.dealias_mask])
    t = truncate_field(u).coeffs
    # both the m3 = 0 plane and the planes between carry energy
    assert float(np.max(np.abs(t[..., 0]))) > 0.0
    assert float(np.max(np.abs(t[..., 1]))) > 0.0
    d, g = _symbols(lat, spec, order)
    got = residual_stress_norm(u, spec, order)
    want = oracles.residual_stress_norm_full(lat, t, d * g * t)
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("spec,order",
                         [(H, 0), (H, 2), (Gaussian(alpha=1.0), 1)])
def test_residual_stress_keep_set_matches_full_spectrum_oracle(
        monkeypatch, n, spec, order):
    # the norm runs on the keep-set pair alone: no FFT is called
    lat = WaveLattice(n)
    u = random_solenoidal(lat, decay=0.5, seed=70 + n)
    assert float(np.max(np.abs(u.coeffs[..., 1]))) > 0.0
    d, g = _symbols(lat, spec, order)
    want = oracles.residual_stress_norm_full(lat, u.coeffs, d * g * u.coeffs)

    def refuse(*args, **kwargs):
        raise AssertionError("FFT called by the residual-stress norm")

    for name in _FFT_NAMES:
        monkeypatch.setattr(np.fft, name, refuse)
    assert residual_stress_norm(u, spec, order) == pytest.approx(
        want, rel=1e-13)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("spec", [H, Gaussian(alpha=1.0),
                                  HelmholtzPower(mu=0.25, m=2)])
def test_untruncated_fields_read_as_their_truncation(n, spec):
    # products and snapshot norms act on the keep-set part of their input
    lat = WaveLattice(n)
    u = random_solenoidal(lat, decay=0.5, seed=n, truncate=False)
    v = random_solenoidal(lat, decay=1.0, seed=n + 1, truncate=False)
    tu, tv = truncate_field(u), truncate_field(v)
    assert not np.array_equal(u.coeffs, tu.coeffs)
    for order in (0, 2):
        assert residual_stress_norm(u, spec, order) == residual_stress_norm(
            tu, spec, order)
        assert half_norm_defect(u, spec, order) == half_norm_defect(
            tu, spec, order)
    assert np.array_equal(spectral.nonlinear_term(u, v).coeffs,
                          spectral.nonlinear_term(tu, tv).coeffs)


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
