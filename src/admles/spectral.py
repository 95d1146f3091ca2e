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
are zeroed in the factors before the pointwise product and in the product
after it.

Coefficients live in two layouts, each with one transform pair.  The full
layout (..., n, n, n) holds every mode, and the public API and the
snapshots use it; its pair is _inverse / _forward.  The time stepper and
the per-sample diagnostics keep their state on the 2/3-rule keep set alone:
with M = n//3 the compact layout (..., M+1, 2M+1, 2M+1), axes (m3, m1, m2),
holds the modes m3 in 0..M and m1, m2 in 0..M, -M..-1 (full-axis indices
0..M, n-M..n-1).  The modes with m3 < 0 are the complex conjugates of
their partners, u_hat_{-k} = conj(u_hat_k), so a mode sum over the full
layout equals the keep-set sum with weight 1 on the m3 = 0 plane and 2 on
m3 = 1..M (lattice.keep.w, shape (M+1, 1, 1)).  _kept gathers a full-layout
array onto the keep set, moving m3 to the front, and _full scatters it
back, with the conjugate fill of the m3 < 0 planes.  The products of a
field with itself form a symmetric tensor.  The residual-stress norm
transforms its 6 distinct components g_i g_j with i <= j; in a Frobenius
sum the 3 off-diagonal ones count twice.  The stepper transforms only the
5 components of the trace-free form u_i u_j - delta_ij u_3 u_3 (Basdevant,
J. Comput. Phys. 50:209, 1983): u_1^2 - u_3^2, u_2^2 - u_3^2, u_1 u_2,
u_1 u_3, u_2 u_3.  The dropped part delta_ij u_3 u_3 has the divergence
grad(u_3^2), a pure gradient, which the Leray projection removes, so the
projected transport term is the same.

Each lattice builds its keep set once, on first use: WaveLattice.keep
(a _KeepSet) holds the geometry (k, k/|k|^2, |k|^2, |k| and the weights),
on which per-mode symbols are evaluated directly, and the DFT matrices
restricted to it (along m3 a real matrix on the interleaved real and
imaginary parts).  Its arrays are read-only, so every stepper and
diagnostic on the lattice can share them.  A _Workspace adds the scratch
buffers of the transforms; it is cheap to build, and callers that may run
at the same time each build their own.  The keep-set transform pair,
_kinverse and _kforward, multiplies by the keep set's matrices and writes
into a workspace's buffers through the `out=` argument of np.matmul
(numpy >= 2.0).  Each transform makes three passes, one matmul
call each.  The real pass along m3 (x3) is one product for all
components; each complex pass is one product per component, on an
operand reshaped to a matrix and transposed as a view, without a copy.
The inverse goes along m2, m1, m3 and the forward along x3, x1, x2, so
the contracted axis is always an operand's first or last.  A pass over
one line costs (2M+1) n multiply-adds and never touches the zero lines.
On keep-set data (and, forward, on the kept modes of any grid) the pair
agrees with the full-layout one to within 1e-13 of the largest value.
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
        if not (np.isfinite(self.L) and self.L > 0.0):
            raise ValueError(
                f"box size must be finite and positive, got {self.L}")

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

    @cached_property
    def keep(self) -> _KeepSet:
        """The 2/3-rule keep set in the compact layout: its geometry and
        the DFT matrices restricted to it, read-only (_KeepSet)."""
        return _KeepSet(self)

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


# The symmetric products g_i g_j (i <= j) in stacking order and each
# component's Frobenius weight.
_SYM_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_SYM_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])
# The trace-free stress u_i u_j - delta_ij u_3 u_3 in stacking order (the
# first two products less u_3 u_3), and the stack index of its component
# (i, j) per row i; the zero (3, 3) component closes the last row.
_TF_PAIRS = ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2))
_TF_ROWS = ((0, 2, 3), (2, 1, 4), (3, 4))


def _kept_rows(n: int) -> np.ndarray:
    """Full-axis indices of the keep-set modes 0..M, -M..-1 (M = n//3)."""
    m = n // 3
    return np.r_[0: m + 1, n - m: n]


def _kept(a: np.ndarray, n: int) -> np.ndarray:
    """Keep-set part (..., M+1, 2M+1, 2M+1) of a full-layout array, axes
    (m3, m1, m2), as a contiguous copy.

    Axes of length 1 of a broadcastable symbol stay as they are.
    """
    rows = _kept_rows(n)
    if a.shape[-3] != 1:
        a = a[..., rows, :, :]
    if a.shape[-2] != 1:
        a = a[..., rows, :]
    return np.ascontiguousarray(np.moveaxis(a[..., : n // 3 + 1], -1, -3))


def _full(kc: np.ndarray, n: int) -> np.ndarray:
    """Full-layout coefficients (..., n, n, n) of keep-set ones, zero
    outside the keep set; the m3 < 0 planes are the conjugate partners of
    the m3 > 0 ones, from the partner of the planes 0..n/2-1 alone."""
    full = np.zeros(kc.shape[:-3] + (n, n, n), dtype=np.complex128)
    rows = _kept_rows(n)
    full[..., rows[:, None], rows, : n // 3 + 1] = np.moveaxis(kc, -3, -1)
    full[..., n // 2 + 1:] = _hermitian_partner(full[..., : n // 2])[..., 1:]
    return full


class _KeepSet:
    """One lattice's 2/3-rule keep set, M = n//3, in the compact layout
    (m3, m1, m2): its geometry and the DFT matrices restricted to it, all
    read-only (WaveLattice.keep).

    Geometry, each bit for bit _kept of its full-layout counterpart: the
    wavevector components k, of shapes (1, 2M+1, 1), (1, 1, 2M+1) and
    (M+1, 1, 1), kov = k/|k|^2, ksq = |k|^2, kmag = |k| and the Hermitian
    weights w (M+1, 1, 1), 1 on m3 = 0 and 2 on m3 = 1..M: a weighted
    keep-set mode sum of Hermitian data equals the full-layout sum over the
    keep set.  A per-mode symbol evaluated on ksq is thus _kept of the
    full-layout one.

    Transforms: Fi (n, 2M+1) and Ff (2M+1, n) along m1 and m2, and along m3
    the real R (2(M+1), n) and Wr (n, 2(M+1)) on the interleaved real and
    imaginary parts.
    """

    def __init__(self, lattice: WaveLattice):
        n = lattice.n
        m = n // 3
        self.k = tuple(_kept(k, n) for k in lattice.wavevectors)
        self.ksq = _kept(lattice.k_squared, n)
        self.kov = _k_over_ksq(self.k, self.ksq)
        self.kmag = np.sqrt(self.ksq)
        self.w = np.full((m + 1, 1, 1), 2.0)
        self.w[0] = 1.0
        # Angles 2 pi (k x mod n) / n, reduced before the exp, of the kept
        # modes k (rows) against the samples x (columns), and of x (rows)
        # against the kept modes m3 = 0..M.
        x = np.arange(n)
        ang = (2.0 * np.pi / n) * (np.outer(_kept_rows(n), x) % n)
        self.Ff = np.exp(-1j * ang) / n
        self.Fi = np.ascontiguousarray(np.exp(1j * ang).T)
        ang3 = (2.0 * np.pi / n) * (np.outer(x, np.arange(m + 1)) % n)
        # Real-to-complex along m3 on the float view: columns interleave
        # Re and Im of each mode, and R weights them with w, dropping Im
        # at m3 = 0 as irfft does.
        cs = np.stack([np.cos(ang3), -np.sin(ang3)], axis=-1)
        self.Wr = cs.reshape(n, 2 * (m + 1)) / n
        self.R = np.ascontiguousarray(
            (cs * self.w.reshape(m + 1, 1)).reshape(n, 2 * (m + 1)).T)
        for a in (*self.k, *self.kov, self.ksq, self.kmag, self.w, self.Ff,
                  self.Fi, self.Wr, self.R):
            a.setflags(write=False)


class _Workspace:
    """Scratch buffers for the keep-set transform pair on one lattice, and
    that lattice's keep set (keep = lattice.keep), which every workspace
    on the lattice shares.

    Buffers for a velocity grid (3, n, n, n), up to 6 products
    (6, n, n, n), their keep-set coefficients (6, M+1, 2M+1, 2M+1) and the
    partial passes, lines (6, n, M+1, 2M+1), axes (x2, m3, m1), and planes
    (6, n, n, M+1), axes (x1, x2, m3), which both transforms pass through.
    Each transform uses the leading components it needs: 3 for the
    inverse, 5 for the stepper's trace-free stress and 6 for the residual
    stress.  Every use overwrites the buffers, so a workspace serves
    callers that run one after another in one thread; callers that may
    run at the same time each build their own.
    """

    def __init__(self, lattice: WaveLattice):
        self.keep = lattice.keep
        n = self.n = lattice.n
        m = n // 3
        self.grid = np.empty((3, n, n, n))
        self.prod = np.empty((6, n, n, n))
        self.lines = np.empty((6, n, m + 1, 2 * m + 1), np.complex128)
        self.planes = np.empty((6, n, n, m + 1), np.complex128)
        self.kspec = np.empty((6, m + 1, 2 * m + 1, 2 * m + 1), np.complex128)


def _kinverse(kc: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Real samples of keep-set coefficients (3, M+1, 2M+1, 2M+1), written
    into ws.grid; _inverse of _full(kc) to within rounding.

    Three matmul calls with the DFT matrices restricted to the keep set:
    Fi (n, 2M+1) along m2 into ws.lines and then along m1 into ws.planes,
    each one product per component with the coefficients transposed as a
    view, and the real R (2(M+1), n) on the interleaved Re/Im float view
    along m3, one dgemm.
    """
    n, keep = ws.n, ws.keep
    h, k = kc.shape[-3], kc.shape[-1]
    a = np.matmul(keep.Fi, kc.reshape(3, h * k, k).mT,
                  out=ws.lines[:3].reshape(3, n, h * k))
    b = np.matmul(keep.Fi, a.reshape(3, n * h, k).mT,
                  out=ws.planes[:3].reshape(3, n, n * h))
    np.matmul(b.view(np.float64).reshape(3 * n * n, 2 * h), keep.R,
              out=ws.grid.reshape(3 * n * n, n))
    return ws.grid


def _kforward(samples: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Keep-set series coefficients (c, M+1, 2M+1, 2M+1) of real samples
    (c, n, n, n), c <= 6, in the first c components of ws.kspec;
    _kept(_forward(samples)) to within rounding, for any samples.

    Three matmul calls with the DFT matrices restricted to the keep set:
    the real Wr (n, 2(M+1)) along x3 into the float view of ws.planes, one
    dgemm, then Ff^T (n, 2M+1) along x1 into ws.lines (m1 lands last) and
    along x2, each one product per component with the samples transposed
    as a view.
    """
    n, keep, c = ws.n, ws.keep, samples.shape[0]
    h, k = ws.kspec.shape[-3], ws.kspec.shape[-1]
    p, lines, out = ws.planes[:c], ws.lines[:c], ws.kspec[:c]
    np.matmul(samples.reshape(-1, n), keep.Wr,
              out=p.view(np.float64).reshape(-1, 2 * h))
    np.matmul(p.reshape(c, n, n * h).mT, keep.Ff.T,
              out=lines.reshape(c, n * h, k))
    np.matmul(lines.reshape(c, n, h * k).mT, keep.Ff.T,
              out=out.reshape(c, h * k, k))
    return out


def _sym_products(grid: np.ndarray, minus: np.ndarray,
                  ws: _Workspace) -> np.ndarray:
    """Dealiased keep-set coefficients of the 6 symmetric components
    grid_i grid_j - minus_i minus_j (i <= j) of a residual stress.

    grid and minus hold collocation samples (3, n, n, n); the differences
    are formed on the grid before the one transform.  Returns ws.kspec,
    shape (6, M+1, 2M+1, 2M+1) in _SYM_PAIRS order; it is valid until the
    workspace is used again.
    """
    prod = ws.prod
    for p, (i, j) in enumerate(_SYM_PAIRS):
        np.multiply(grid[i], grid[j], out=prod[p])
        prod[p] -= minus[i] * minus[j]
    return _kforward(prod, ws)


def _tracefree_products(grid: np.ndarray, ws: _Workspace) -> np.ndarray:
    """Dealiased keep-set coefficients of the 5 components of the
    trace-free stress g_i g_j - delta_ij g_3 g_3 of collocation samples
    grid (3, n, n, n).

    Returns the first 5 components of ws.kspec in _TF_PAIRS order; they
    are valid until the workspace is used again.  The last product slot
    holds g_3 g_3 while the first two are formed.
    """
    prod = ws.prod
    g33 = np.multiply(grid[2], grid[2], out=prod[5])
    for p, (i, j) in enumerate(_TF_PAIRS):
        np.multiply(grid[i], grid[j], out=prod[p])
    prod[:2] -= g33
    return _kforward(prod[:5], ws)


def _contract(products: np.ndarray, k, rows) -> np.ndarray:
    """Component i of sum_j k_j products[rows[i][j]].

    With k the wavevector components this is the divergence of the tensor
    without its factor i.  A row shorter than 3 omits its last terms,
    components that are zero.
    """
    out = np.empty((3,) + products.shape[1:], dtype=np.complex128)
    for o, row in zip(out, rows):
        np.multiply(k[0], products[row[0]], out=o)
        for kj, r in zip(k[1:], row[1:]):
            o += kj * products[r]
    return out


def _k_over_ksq(k, ksq: np.ndarray) -> tuple:
    """k / |k|^2 per component, 0 at k = 0, in the mode layout of the
    wavevector components k and of ksq = |k|^2."""
    denom = np.where(ksq > 0.0, ksq, 1.0)
    return tuple(kj / denom for kj in k)


def _leray(c: np.ndarray, k, kov) -> np.ndarray:
    """Leray projection c -= k (k.c)/|k|^2 of raw coefficients, in place.

    k and kov = k/|k|^2 (_k_over_ksq) belong to the mode layout of c, full
    or keep set; the k = 0 mode is left unchanged.
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


def _sobolev_weight(ksq: np.ndarray, s: float) -> np.ndarray:
    """|k|^(2s) = ksq^s off the mean mode and 0 on it, for any real s."""
    with np.errstate(divide="ignore"):
        return np.where(ksq > 0.0, ksq ** s, 0.0)


def sobolev_norm(f: SpectralField, s: float) -> float:
    """Coefficient Sobolev norm ( sum_{k != 0} |k|^(2s) |u_hat_k|^2 )^(1/2).

    The k = 0 term is excluded; it is zero by the zero-mean invariant, which
    also keeps negative s well defined.
    """
    weight = _sobolev_weight(f.lattice.k_squared, s)
    total = np.sum(weight * np.abs(f.coeffs) ** 2)
    return float(np.sqrt(total))


def leray_project(f: SpectralField) -> SpectralField:
    """Project onto divergence-free fields: u_hat -= k (k.u_hat)/|k|^2."""
    lat = f.lattice
    return SpectralField(
        lat, _leray(np.array(f.coeffs), lat.wavevectors,
                    _k_over_ksq(lat.wavevectors, lat.k_squared)),
        divergence_free=True,
    )


def nonlinear_term(u: SpectralField, v: SpectralField) -> SpectralField:
    """Dealiased spectral coefficients of div(u (x) v) for the 2/3-rule
    keep-set parts of u and v.

    Component i is sum_j i k_j F[u_j v_i], with the products formed on the
    collocation grid, transformed by the full-layout pair and masked to
    the keep set.  The 2/3 rule is alias-free only for factors on the keep
    set, so the modes of u and v outside it are dropped first: untruncated
    fields give nonlinear_term of truncate_field of them.
    """
    if u.lattice != v.lattice:
        raise LatticeMismatchError(
            f"operands live on different lattices: "
            f"{u.lattice} vs {v.lattice}"
        )
    lat = u.lattice
    n = lat.n
    ug = _inverse(u.coeffs * lat.dealias_mask, n)
    vg = _inverse(v.coeffs * lat.dealias_mask, n)
    prod = _forward((vg[:, None] * ug[None, :]).reshape(9, n, n, n), n)
    prod *= lat.dealias_mask
    out = _contract(prod, lat.wavevectors, ((0, 1, 2), (3, 4, 5), (6, 7, 8)))
    out *= 1j
    return SpectralField(lat, out)


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
    envelope = _sobolev_weight(lattice.k_squared, -decay / 2.0)
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
    return float(_div_ratio(f.coeffs, lat.wavevectors,
                            np.sqrt(lat.k_squared)))


def _div_ratio(c: np.ndarray, k, kmag: np.ndarray) -> np.ndarray:
    """max |k.c| / max |k| |c| of raw coefficients (..., 3, modes), per
    field; 0 for a zero field.

    k and kmag = |k| belong to the mode layout of c.
    """
    c = np.moveaxis(c, -4, 0)
    modes = (-3, -2, -1)
    top = np.max(np.abs(k[0] * c[0] + k[1] * c[1] + k[2] * c[2]), axis=modes)
    bottom = np.max(kmag * np.max(np.abs(c), axis=0), axis=modes)
    return np.divide(top, bottom, out=np.zeros_like(top), where=bottom > 0)


def _hermitian_partner(coeffs: np.ndarray) -> np.ndarray:
    """conj(c_{-k}) at every mode k of full-layout coefficients."""
    flipped = coeffs[..., ::-1, ::-1, ::-1]
    partner = np.roll(flipped, shift=(1, 1, 1), axis=(-3, -2, -1))
    return np.conj(partner, out=partner)


def validate_field(
    f: SpectralField,
    require_divergence_free: bool | None = None,
) -> None:
    """Check the structural invariants, raising FieldInvariantError.

    Finite coefficients (every later comparison lets NaN through), zero
    mean (|u_hat_0| <= 1e-14 max|u_hat|), Hermitian symmetry (<= 1e-12
    relative), zeroed Nyquist planes, and -- when the field is flagged
    divergence-free or the check is forced -- |k.u_hat| <= 1e-12
    |k||u_hat| in the max-normalized sense.
    """
    c = f.coeffs
    if not np.all(np.isfinite(c)):
        raise FieldInvariantError("coefficients hold NaN or inf")
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
