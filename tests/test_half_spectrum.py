"""Half-spectrum products and stepping against full-spectrum references.

The stepper and the residual-stress norm transform only the 6 distinct
products of a symmetric tensor onto the real-to-complex half spectrum.
These tests pin that path to the full-spectrum, 9-product
restatements in tests/oracles.py on random spectra that are not truncated,
so the 2/3-rule mask is active, and count the transforms one step makes.
"""

import numpy as np
import pytest

import oracles
from admles.deconvolution import DeconvOp, deconv_symbol
from admles.diagnostics import residual_stress_norm
from admles.filters import Gaussian, Helmholtz, filter_symbol
from admles.solvers import _Stepper
from admles.spectral import (
    WaveLattice,
    random_solenoidal,
    _half,
    _hermitian_fill,
    _rforward,
    _rinverse,
)

H = Helmholtz(alpha=0.5, p=1.0)


def _symbols(lat, spec, order):
    ksq = lat.k_squared
    return (np.asarray(deconv_symbol(DeconvOp(spec, order), ksq)),
            np.asarray(filter_symbol(spec, ksq)))


def test_hermitian_fill_restores_full_layout():
    for n in (6, 8, 16):
        lat = WaveLattice(n)
        c = random_solenoidal(lat, decay=0.5, seed=n, truncate=False).coeffs
        back = _hermitian_fill(_half(c), n)
        assert back.shape == c.shape
        assert float(np.max(np.abs(back - c))) <= 1e-15 * float(
            np.max(np.abs(c)))


@pytest.mark.parametrize("n", [8, 16, 32])
def test_transform_buffers_match_allocating_calls(n):
    lat = WaveLattice(n)
    half = np.array(_half(random_solenoidal(lat, decay=0.5, seed=n,
                                            truncate=False).coeffs))
    grid = np.empty((3, n, n, n))
    got = _rinverse(half, n, out=grid)
    assert got is grid
    assert np.array_equal(got, _rinverse(half, n))
    spec = np.empty_like(half)
    back = _rforward(grid * grid[::-1], out=spec)
    assert back is spec
    assert np.array_equal(back, _rforward(grid * grid[::-1]))


@pytest.mark.parametrize("n", [6, 8, 16])
@pytest.mark.parametrize("order", [None, 0, 3])
def test_advance_matches_full_spectrum_oracle(n, order):
    lat = WaveLattice(n)
    nu, dt = 0.05, 0.01
    u = random_solenoidal(lat, decay=0.5, seed=20 + n, truncate=False)
    pre, post = (None, None) if order is None else _symbols(lat, H, order)
    stepper = _Stepper(lat, nu, dt, pre=pre, post=post)
    got = _hermitian_fill(stepper.advance(np.array(_half(u.coeffs))), n)
    want = oracles.one_step(u.coeffs, lat, nu, dt, pre=pre, post=post)
    scale = float(np.max(np.abs(want)))
    assert float(np.max(np.abs(got - want))) <= 1e-13 * scale


def test_advance_makes_six_transforms(monkeypatch):
    lat = WaveLattice(16)
    pre, post = _symbols(lat, H, 2)
    stepper = _Stepper(lat, 0.05, 0.01, pre=pre, post=post)
    c = np.array(_half(random_solenoidal(lat, decay=1.0, seed=4).coeffs))
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
    stepper.advance(c)
    assert calls == {"irfftn": 3, "rfftn": 3}


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
