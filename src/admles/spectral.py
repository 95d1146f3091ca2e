"""Truncated Fourier representation of periodic velocity fields on the
3-torus.

Conventions
-----------
The box is [0, L)^3 sampled on an n^3 collocation grid.  Integer modes
m in [-n/2, n/2-1]^3 map to wavevectors k = (2 pi / L) m; with the default
L = 2 pi the two coincide.  Coefficients follow the series convention
u(x) = sum_k u_hat_k exp(i k.x), i.e. forward transform = fftn(u)/n^3.

Modes with any component equal to -n/2 (the unpaired Nyquist planes) are
always zeroed so that every retained mode has its conjugate partner and
inverse transforms of Hermitian data are exactly real.  The quadratic
nonlinearity is dealiased by the 2/3 rule: modes with any |m_axis| > n/3
are zeroed after the pointwise product.

Internally the products and the time stepper work on the real-to-complex
half spectrum: coefficients of shape (..., n, n, n/2+1) holding the modes
m3 = 0..n/2 of the last axis (numpy.fft.rfftn layout).  The other half is
the complex conjugate of its partner, u_hat_{-k} = conj(u_hat_k), and is
restored by a Hermitian fill only where a full SpectralField is needed.
Half-layout symbol arrays are last-axis slices of the full ones, so the
m3 = n/2 plane carries the sign of -n/2; that plane lies outside the 2/3
keep-set and is always zero, so the sign never matters.  A mode sum over
the full spectrum equals the half-spectrum sum with weight 1 on the m3 = 0
and m3 = n/2 planes and weight 2 on the planes between.  The products of a
field with itself form a symmetric tensor, so only the 6 components
g_i g_j with i <= j are transformed; in a Frobenius sum the 3 off-diagonal
ones count twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "WaveLattice",
    "SpectralField",
    "PhysicalField",
    "FieldInvariantError",
    "LatticeMismatchError",
    "sobolev_norm",
    "leray_project",
    "nonlinear_term",
    "to_physical",
    "from_physical",
    "zero_field",
    "taylor_green",
    "random_solenoidal",
    "truncate_field",
    "validate_field",
    "divergence_ratio",
]


class FieldInvariantError(ValueError):
    """A spectral field violates one of its structural invariants."""


class LatticeMismatchError(ValueError):
    """Two fields that must share a lattice do not."""


@dataclass(frozen=True)
class WaveLattice:
    """Cubic Fourier lattice: n grid points per axis on a box of size L."""

    n: int
    L: float = 2.0 * np.pi

    def __post_init__(self):
        if self.n % 2 != 0 or self.n < 4:
            raise ValueError(f"grid size must be even and >= 4, got {self.n}")
        if not self.L > 0.0:
            raise ValueError(f"box size must be positive, got {self.L}")

    @cached_property
    def modes(self) -> np.ndarray:
        """Integer modes per axis in FFT order: 0..n/2-1, -n/2..-1."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)

    @cached_property
    def wavevectors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable physical wavevector components (2 pi / L) m."""
        k = (2.0 * np.pi / self.L) * self.modes.astype(np.float64)
        return (k[:, None, None], k[None, :, None], k[None, None, :])

    @cached_property
    def k_squared(self) -> np.ndarray:
        k1, k2, k3 = self.wavevectors
        return k1 ** 2 + k2 ** 2 + k3 ** 2

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """True where every |m_axis| <= n/3 (the 2/3 rule keep-set)."""
        keep = np.abs(self.modes) <= self.n / 3.0
        return keep[:, None, None] & keep[None, :, None] & keep[None, None, :]

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """True where no mode component equals -n/2."""
        keep = self.modes != -(self.n // 2)
        return keep[:, None, None] & keep[None, :, None] & keep[None, None, :]

    def grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Collocation coordinates, indexing='ij'."""
        x = np.arange(self.n) * (self.L / self.n)
        return np.meshgrid(x, x, x, indexing="ij")


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a velocity field: coeffs shape (3, n, n, n)."""

    lattice: WaveLattice
    coeffs: np.ndarray
    divergence_free: bool = False

    def __post_init__(self):
        n = self.lattice.n
        if self.coeffs.shape != (3, n, n, n):
            raise ValueError(
                f"coefficient shape {self.coeffs.shape} does not match "
                f"lattice (3, {n}, {n}, {n})"
            )
        if self.coeffs.dtype != np.complex128:
            object.__setattr__(
                self, "coeffs", self.coeffs.astype(np.complex128)
            )
        self.coeffs.setflags(write=False)


@dataclass(frozen=True)
class PhysicalField:
    """Collocation samples of a velocity field: samples shape (3, n, n, n)."""

    lattice: WaveLattice
    samples: np.ndarray

    def __post_init__(self):
        n = self.lattice.n
        if self.samples.shape != (3, n, n, n):
            raise ValueError(
                f"sample shape {self.samples.shape} does not match "
                f"lattice (3, {n}, {n}, {n})"
            )


def _forward(samples: np.ndarray, n: int) -> np.ndarray:
    return np.fft.fftn(samples, axes=(-3, -2, -1)) / float(n) ** 3


def _inverse(coeffs: np.ndarray, n: int) -> np.ndarray:
    return np.real(np.fft.ifftn(coeffs, axes=(-3, -2, -1))) * float(n) ** 3


def _clean(lattice: WaveLattice, coeffs: np.ndarray) -> np.ndarray:
    """Zero the mean mode and the unpaired Nyquist planes."""
    out = coeffs * lattice.nyquist_mask
    out[:, 0, 0, 0] = 0.0
    return out


def _half(a: np.ndarray) -> np.ndarray:
    """The m3 = 0..n/2 part of a full-layout array (a view).

    Also slices broadcastable arrays whose last axis has length 1.
    """
    return a[..., : a.shape[-1] // 2 + 1]


def _rforward(samples: np.ndarray) -> np.ndarray:
    """Half-spectrum series coefficients of real samples (..., n, n, n)."""
    return np.fft.rfftn(samples, axes=(-3, -2, -1), norm="forward")


def _rinverse(half: np.ndarray, n: int) -> np.ndarray:
    """Real samples of Hermitian-filled half-spectrum coefficients."""
    return np.fft.irfftn(half, s=(n, n, n), axes=(-3, -2, -1),
                         norm="forward")


def _hermitian_fill(half: np.ndarray, n: int) -> np.ndarray:
    """Full-layout coefficients (..., n, n, n) from the half spectrum.

    The missing m3 = -(n/2-1)..-1 planes are conj(u_hat) at the partner
    mode -k; the m3 = -n/2 plane takes the (zero) m3 = n/2 half plane.
    """
    full = np.empty(half.shape[:-1] + (n,), dtype=np.complex128)
    full[..., : n // 2 + 1] = half
    partner = half[..., ::-1, ::-1, n // 2 - 1: 0: -1]
    full[..., n // 2 + 1:] = np.conj(
        np.roll(partner, shift=(1, 1), axis=(-3, -2)))
    return full


def _hermitian_weights(n: int) -> np.ndarray:
    """Per-m3 weights turning a half-spectrum mode sum into a full one."""
    w = np.ones(n // 2 + 1)
    w[1: n // 2] = 2.0
    return w


# The symmetric products g_i g_j (i <= j) in stacking order, the stack
# index of g_i g_j for every (i, j), and each component's Frobenius weight.
_SYM_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_SYM_ROWS = ((0, 1, 2), (1, 3, 4), (2, 4, 5))
_SYM_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])


def _sym_products(lattice: WaveLattice, grid: np.ndarray,
                  minus: np.ndarray | None = None) -> np.ndarray:
    """Dealiased half-spectrum coefficients of the 6 products g_i g_j.

    grid holds collocation samples (3, n, n, n); with `minus` the products
    minus_i minus_j are subtracted on the grid before the one transform.
    Returns shape (6, n, n, n/2+1) in _SYM_PAIRS order, 2/3-rule masked.
    """
    prod = np.empty((6,) + grid.shape[1:])
    for p, (i, j) in enumerate(_SYM_PAIRS):
        np.multiply(grid[i], grid[j], out=prod[p])
        if minus is not None:
            prod[p] -= minus[i] * minus[j]
    out = _rforward(prod)
    out *= _half(lattice.dealias_mask)
    return out


def _contract(products: np.ndarray, k, rows) -> np.ndarray:
    """Component i of sum_j k_j products[rows[i][j]].

    With k the wavevector components this is the divergence of the tensor
    without its factor i.
    """
    out = np.empty((3,) + products.shape[1:], dtype=np.complex128)
    for o, (r1, r2, r3) in zip(out, rows):
        np.multiply(k[0], products[r1], out=o)
        o += k[1] * products[r2]
        o += k[2] * products[r3]
    return out


def _k_over_ksq(lattice: WaveLattice) -> tuple:
    """k / |k|^2 per component, 0 at k = 0 (full layout)."""
    ksq = lattice.k_squared
    denom = np.where(ksq > 0.0, ksq, 1.0)
    return tuple(k / denom for k in lattice.wavevectors)


def _leray(c: np.ndarray, k, kov) -> np.ndarray:
    """Leray projection c -= k (k.c)/|k|^2 of raw coefficients, in place.

    k and kov = k/|k|^2 (_k_over_ksq) belong to the mode layout of c, full
    or half spectrum; the k = 0 mode is left unchanged.
    """
    kdotc = k[0] * c[0] + k[1] * c[1] + k[2] * c[2]
    for j in range(3):
        c[j] -= kov[j] * kdotc
    return c


def to_physical(f: SpectralField) -> PhysicalField:
    return PhysicalField(f.lattice, _inverse(f.coeffs, f.lattice.n))


def from_physical(p: PhysicalField) -> SpectralField:
    coeffs = _clean(p.lattice, _forward(p.samples, p.lattice.n))
    return SpectralField(p.lattice, coeffs)


def zero_field(lattice: WaveLattice) -> SpectralField:
    n = lattice.n
    return SpectralField(
        lattice, np.zeros((3, n, n, n), dtype=np.complex128),
        divergence_free=True,
    )


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Coefficient Sobolev norm ( sum_{k != 0} |k|^(2s) |u_hat_k|^2 )^(1/2).

    The k = 0 term is excluded; it is zero by the zero-mean invariant, which
    also keeps negative s well defined.
    """
    ksq = f.lattice.k_squared
    with np.errstate(divide="ignore"):
        weight = np.where(ksq > 0.0, ksq ** s, 0.0)
    total = np.sum(weight * np.abs(f.coeffs) ** 2)
    return float(np.sqrt(total))


def leray_project(f: SpectralField) -> SpectralField:
    """Project onto divergence-free fields: u_hat -= k (k.u_hat)/|k|^2."""
    lat = f.lattice
    return SpectralField(
        lat, _leray(np.array(f.coeffs), lat.wavevectors, _k_over_ksq(lat)),
        divergence_free=True,
    )


def nonlinear_term(u: SpectralField, v: SpectralField) -> SpectralField:
    """Dealiased spectral coefficients of div(u (x) v).

    Component i is sum_j i k_j F[u_j v_i], with the products formed on the
    collocation grid, transformed to the half spectrum and masked by the
    2/3 rule.
    """
    if u.lattice != v.lattice:
        raise LatticeMismatchError(
            f"operands live on different lattices: "
            f"{u.lattice} vs {v.lattice}"
        )
    lat = u.lattice
    n = lat.n
    k = tuple(_half(kj) for kj in lat.wavevectors)
    ug = _rinverse(_half(u.coeffs), n)
    vg = _rinverse(_half(v.coeffs), n)
    prod = _rforward((vg[:, None] * ug[None, :]).reshape(9, n, n, n))
    prod *= _half(lat.dealias_mask)
    out = _contract(prod, k, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    out *= 1j
    return SpectralField(lat, _hermitian_fill(out, n))


def truncate_field(f: SpectralField) -> SpectralField:
    """Restrict a field to the dealiased mode set (|m_axis| <= n/3)."""
    return SpectralField(
        f.lattice, f.coeffs * f.lattice.dealias_mask,
        divergence_free=f.divergence_free,
    )


def taylor_green(lattice: WaveLattice, amplitude: float = 1.0) -> SpectralField:
    """Classical three-dimensional Taylor-Green vortex.

    u = A (sin x cos y cos z, -cos x sin y cos z, 0) scaled to the box.
    """
    X, Y, Z = lattice.grid()
    s = 2.0 * np.pi / lattice.L
    X, Y, Z = s * X, s * Y, s * Z
    samples = np.stack([
        amplitude * np.sin(X) * np.cos(Y) * np.cos(Z),
        -amplitude * np.cos(X) * np.sin(Y) * np.cos(Z),
        np.zeros_like(X),
    ])
    return leray_project(from_physical(PhysicalField(lattice, samples)))


def random_solenoidal(
    lattice: WaveLattice,
    decay: float,
    seed: int,
    truncate: bool = True,
) -> SpectralField:
    """Random divergence-free field with amplitude envelope |k|^(-decay).

    Built by transforming white noise (hence exactly Hermitian), shaping the
    spectrum, and projecting.  Deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    n = lattice.n
    noise = rng.standard_normal((3, n, n, n))
    coeffs = _forward(noise, n)
    ksq = lattice.k_squared
    with np.errstate(divide="ignore"):
        envelope = np.where(ksq > 0.0, ksq ** (-decay / 2.0), 0.0)
    coeffs = _clean(lattice, coeffs * envelope)
    f = SpectralField(lattice, coeffs)
    if truncate:
        f = truncate_field(f)
    return leray_project(f)


def divergence_ratio(f: SpectralField) -> float:
    """max_k |k . u_hat_k| normalized by max_k |k| |u_hat_k|.

    Zero field returns 0.  This is the quantity bounded by the
    divergence-free invariant and by the solver drift check.
    """
    lat = f.lattice
    return _div_ratio(f.coeffs, lat.wavevectors, np.sqrt(lat.k_squared))


def _div_ratio(c: np.ndarray, k, kmag: np.ndarray) -> float:
    """max |k.c| / max |k| |c| of raw coefficients; 0 for a zero field.

    k and kmag = |k| belong to the mode layout of c.
    """
    top = float(np.max(np.abs(k[0] * c[0] + k[1] * c[1] + k[2] * c[2])))
    bottom = float(np.max(kmag * np.max(np.abs(c), axis=0)))
    if bottom == 0.0:
        return 0.0
    return top / bottom


def _hermitian_partner(coeffs: np.ndarray) -> np.ndarray:
    flipped = coeffs[..., ::-1, ::-1, ::-1]
    return np.conj(np.roll(flipped, shift=(1, 1, 1), axis=(-3, -2, -1)))


def validate_field(
    f: SpectralField,
    require_divergence_free: bool | None = None,
) -> None:
    """Check the structural invariants, raising FieldInvariantError.

    Zero mean (|u_hat_0| <= 1e-14 max|u_hat|), Hermitian symmetry
    (<= 1e-12 relative), zeroed Nyquist planes, and -- when the field is
    flagged divergence-free or the check is forced -- |k.u_hat| <= 1e-12
    |k||u_hat| in the max-normalized sense.
    """
    c = f.coeffs
    peak = float(np.max(np.abs(c)))
    if peak == 0.0:
        return
    mean_mag = float(np.max(np.abs(c[:, 0, 0, 0])))
    if mean_mag > 1e-14 * peak:
        raise FieldInvariantError(
            f"mean mode is {mean_mag:.3e}, exceeds 1e-14 * max|coeff|"
        )
    herm = float(np.max(np.abs(c - _hermitian_partner(c))))
    if herm > 1e-12 * peak:
        raise FieldInvariantError(
            f"Hermitian symmetry violated by {herm:.3e} (max |coeff| {peak:.3e})"
        )
    nyq = float(np.max(np.abs(c * ~f.lattice.nyquist_mask)))
    if nyq > 0.0:
        raise FieldInvariantError(f"Nyquist planes carry energy {nyq:.3e}")
    check_div = (
        require_divergence_free
        if require_divergence_free is not None
        else f.divergence_free
    )
    if check_div:
        ratio = divergence_ratio(f)
        if ratio > 1e-12:
            raise FieldInvariantError(
                f"divergence ratio {ratio:.3e} exceeds 1e-12"
            )
