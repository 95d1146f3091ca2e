"""Lattice, norm, projection, and nonlinear-term tests.

The nonlinear term is checked against a brute-force truncated convolution
(tests/oracles.py) and the projection against an explicit per-mode 3x3
matrix, so the FFT pipeline is never trusted to test itself.
"""

import numpy as np
import pytest

import oracles
from admles.spectral import (
    FieldInvariantError,
    LatticeMismatchError,
    PhysicalField,
    SpectralField,
    WaveLattice,
    divergence_ratio,
    from_physical,
    leray_project,
    nonlinear_term,
    random_solenoidal,
    sobolev_norm,
    taylor_green,
    to_physical,
    truncate_field,
    validate_field,
    zero_field,
)


def single_mode(lattice, m, vec):
    """Field with coefficient `vec` at integer mode m and its conjugate
    partner, so the field is real."""
    n = lattice.n
    c = np.zeros((3, n, n, n), dtype=np.complex128)
    idx = tuple(np.asarray(m) % n)
    c[(slice(None),) + idx] = vec
    idx_conj = tuple((-np.asarray(m)) % n)
    c[(slice(None),) + idx_conj] = np.conj(vec)
    return SpectralField(lattice, c)


# ---------------------------------------------------------------------------
# lattice plumbing
# ---------------------------------------------------------------------------


def test_lattice_validation():
    with pytest.raises(ValueError):
        WaveLattice(7)
    with pytest.raises(ValueError):
        WaveLattice(2)
    with pytest.raises(ValueError):
        WaveLattice(8, L=0.0)
    with pytest.raises(ValueError):
        WaveLattice(8, L=-1.0)
    for L in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            WaveLattice(8, L=L)


def test_modes_and_wavevectors():
    lat = WaveLattice(8)
    assert list(lat.modes) == [0, 1, 2, 3, -4, -3, -2, -1]
    # with the default box the wavevector equals the integer mode
    k1, _, _ = lat.wavevectors
    assert np.allclose(k1.ravel(), lat.modes)
    lat2 = WaveLattice(8, L=np.pi)
    k1b, _, _ = lat2.wavevectors
    assert np.allclose(k1b.ravel(), 2.0 * lat.modes)


def test_masks():
    lat = WaveLattice(8)
    # 2/3 rule at n=8 keeps |m| <= 2 per axis
    kept = set(np.asarray(lat.modes)[np.abs(lat.modes) <= 8 / 3.0])
    assert kept == {-2, -1, 0, 1, 2}
    # Nyquist mask drops exactly the m = -4 planes
    assert not lat.nyquist_mask[4, 0, 0]
    assert lat.nyquist_mask[3, 0, 0]
    assert not lat.nyquist_mask[0, 4, 2]


def test_field_shape_guard():
    lat = WaveLattice(8)
    with pytest.raises(ValueError):
        SpectralField(lat, np.zeros((3, 4, 4, 4), dtype=np.complex128))
    with pytest.raises(ValueError):
        PhysicalField(lat, np.zeros((2, 8, 8, 8)))


def test_coeffs_read_only():
    f = zero_field(WaveLattice(8))
    with pytest.raises(ValueError):
        f.coeffs[0, 0, 0, 0] = 1.0


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_sobolev_single_mode_values():
    # unit coefficient at m = (2,0,0) and its partner:
    # order-0 norm sqrt(2), order-1 norm 2 sqrt(2)
    lat = WaveLattice(8)
    f = single_mode(lat, (2, 0, 0), (1.0, 0.0, 0.0))
    assert sobolev_norm(f, 0.0) == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert sobolev_norm(f, 1.0) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-14)


def test_sobolev_zero_field():
    lat = WaveLattice(8)
    for s in (-1.0, 0.0, 1.0, 2.5):
        assert sobolev_norm(zero_field(lat), s) == 0.0


def test_sobolev_monotone_in_order():
    # every retained wavevector has |k| >= 1 on the default box, so the
    # norm is nondecreasing in the smoothness order
    f = random_solenoidal(WaveLattice(16), decay=1.5, seed=7)
    values = [sobolev_norm(f, s) for s in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)]
    assert all(a <= b * (1 + 1e-14) for a, b in zip(values, values[1:]))
    assert values[0] > 0.0


@pytest.mark.parametrize("n", [8, 16])
def test_parseval(n):
    f = random_solenoidal(WaveLattice(n), decay=1.2, seed=n)
    grid = to_physical(f).samples
    mean_sq = float(np.mean(np.sum(grid ** 2, axis=0)))
    assert sobolev_norm(f, 0.0) ** 2 == pytest.approx(mean_sq, rel=1e-12)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_leray_closed_form():
    lat = WaveLattice(8)
    f = single_mode(lat, (1, 0, 0), (1.0, 1.0, 0.0))
    out = leray_project(f)
    idx = (slice(None), 1, 0, 0)
    assert np.allclose(out.coeffs[idx], [0.0, 1.0, 0.0], atol=1e-15)


def test_leray_kills_gradients():
    # coefficients proportional to k are pure gradients
    lat = WaveLattice(8)
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8))
    k1, k2, k3 = lat.wavevectors
    grad = np.stack([1j * k1 * phi, 1j * k2 * phi, 1j * k3 * phi])
    out = leray_project(SpectralField(lat, grad))
    assert float(np.max(np.abs(out.coeffs))) <= 1e-13 * float(np.max(np.abs(grad)))


def test_leray_idempotent_and_solenoidal():
    lat = WaveLattice(16)
    rng = np.random.default_rng(4)
    raw = rng.standard_normal((3, 16, 16, 16))
    f = from_physical(PhysicalField(lat, raw))
    once = leray_project(f)
    twice = leray_project(once)
    scale = float(np.max(np.abs(once.coeffs)))
    assert float(np.max(np.abs(twice.coeffs - once.coeffs))) <= 1e-13 * scale
    assert divergence_ratio(once) <= 1e-13
    # already-solenoidal input passes through unchanged
    g = random_solenoidal(lat, decay=1.0, seed=5)
    again = leray_project(g)
    assert float(np.max(np.abs(again.coeffs - g.coeffs))) <= 1e-13 * float(
        np.max(np.abs(g.coeffs))
    )


def test_leray_matches_matrix_oracle():
    lat = WaveLattice(8)
    rng = np.random.default_rng(6)
    raw = rng.standard_normal((3, 8, 8, 8))
    f = from_physical(PhysicalField(lat, raw))
    expected = oracles.leray_matrix_apply(lat, f.coeffs)
    got = leray_project(f).coeffs
    assert float(np.max(np.abs(got - expected))) <= 1e-13 * float(
        np.max(np.abs(expected))
    )


# ---------------------------------------------------------------------------
# nonlinear term
# ---------------------------------------------------------------------------


def test_nonlinear_zero():
    lat = WaveLattice(8)
    z = zero_field(lat)
    out = nonlinear_term(z, z)
    assert float(np.max(np.abs(out.coeffs))) == 0.0


def test_nonlinear_taylor_green_2d_vs_convolution():
    lat = WaveLattice(8)
    u = oracles.taylor_green_2d(lat)
    got = nonlinear_term(u, u).coeffs
    expected = oracles.convolution_divergence(lat, u.coeffs, u.coeffs)
    assert float(np.max(np.abs(got - expected))) <= 1e-12


def test_nonlinear_random_vs_convolution():
    lat = WaveLattice(8)
    u = random_solenoidal(lat, decay=0.5, seed=11)
    v = random_solenoidal(lat, decay=0.5, seed=12)
    got = nonlinear_term(u, v).coeffs
    expected = oracles.convolution_divergence(lat, u.coeffs, v.coeffs)
    scale = max(float(np.max(np.abs(expected))), 1.0)
    assert float(np.max(np.abs(got - expected))) <= 1e-11 * scale


def test_nonlinear_lattice_mismatch():
    u = zero_field(WaveLattice(8))
    v = zero_field(WaveLattice(16))
    with pytest.raises(LatticeMismatchError):
        nonlinear_term(u, v)


def test_nonlinear_output_is_dealiased():
    lat = WaveLattice(8)
    u = random_solenoidal(lat, decay=0.2, seed=13, truncate=False)
    out = nonlinear_term(u, u)
    assert float(np.max(np.abs(out.coeffs[:, ~lat.dealias_mask]))) == 0.0


# ---------------------------------------------------------------------------
# builders and invariants
# ---------------------------------------------------------------------------


def test_taylor_green_structure():
    lat = WaveLattice(16)
    f = taylor_green(lat, amplitude=2.0)
    validate_field(f, require_divergence_free=True)
    grid = to_physical(f).samples
    X, Y, Z = lat.grid()
    assert np.allclose(grid[0], 2.0 * np.sin(X) * np.cos(Y) * np.cos(Z), atol=1e-12)
    assert np.allclose(grid[2], 0.0, atol=1e-13)


def test_random_solenoidal_deterministic():
    lat = WaveLattice(8)
    a = random_solenoidal(lat, decay=2.0, seed=42)
    b = random_solenoidal(lat, decay=2.0, seed=42)
    c = random_solenoidal(lat, decay=2.0, seed=43)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)
    validate_field(a, require_divergence_free=True)
    # truncate=True restricts support to the dealiased set
    assert float(np.max(np.abs(a.coeffs[:, ~lat.dealias_mask]))) == 0.0


def test_truncate_field():
    lat = WaveLattice(8)
    f = random_solenoidal(lat, decay=0.0, seed=1, truncate=False)
    t = truncate_field(f)
    assert float(np.max(np.abs(t.coeffs[:, ~lat.dealias_mask]))) == 0.0
    inside = lat.dealias_mask
    assert np.array_equal(t.coeffs[:, inside], f.coeffs[:, inside])


def test_roundtrip_physical():
    lat = WaveLattice(16)
    f = random_solenoidal(lat, decay=1.0, seed=9)
    back = from_physical(to_physical(f))
    scale = float(np.max(np.abs(f.coeffs)))
    assert float(np.max(np.abs(back.coeffs - f.coeffs))) <= 1e-13 * scale


def test_validate_field_catches_violations():
    lat = WaveLattice(8)
    base = random_solenoidal(lat, decay=1.0, seed=21)

    c = np.array(base.coeffs)
    c[0, 0, 0, 0] = 1.0  # mean mode
    with pytest.raises(FieldInvariantError, match="mean"):
        validate_field(SpectralField(lat, c))

    c = np.array(base.coeffs)
    c[0, 1, 0, 0] += 0.5  # break conjugate pairing
    with pytest.raises(FieldInvariantError, match="Hermitian"):
        validate_field(SpectralField(lat, c))

    c = np.array(base.coeffs)
    c[0, 4, 0, 0] = 1.0  # unpaired Nyquist plane
    with pytest.raises(FieldInvariantError, match="Nyquist"):
        validate_field(SpectralField(lat, c))

    c = np.array(base.coeffs)
    k1 = lat.wavevectors[0]
    c[0] += 0.1 * np.abs(k1) * (base.coeffs[1] + base.coeffs[2])
    bad = SpectralField(lat, c)
    with pytest.raises(FieldInvariantError, match="divergence"):
        validate_field(bad, require_divergence_free=True)
    # but the same field passes when the check is not requested
    validate_field(bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_validate_field_refuses_non_finite(value):
    # every later check compares against the value, which NaN passes
    lat = WaveLattice(8)
    c = np.array(random_solenoidal(lat, decay=1.0, seed=21).coeffs)
    c[0, 1, 0, 0] = value
    with pytest.raises(FieldInvariantError, match="NaN or inf"):
        validate_field(SpectralField(lat, c), require_divergence_free=True)


def test_validate_zero_field_ok():
    validate_field(zero_field(WaveLattice(8)), require_divergence_free=True)


def test_divergence_ratio_zero_cases():
    lat = WaveLattice(8)
    assert divergence_ratio(zero_field(lat)) == 0.0
    assert divergence_ratio(taylor_green(lat)) <= 1e-13
