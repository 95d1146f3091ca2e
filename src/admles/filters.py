"""Low-pass filters applied mode-by-mode through their transfer symbols.

Four families, each an immutable spec:

* ``Helmholtz(alpha, p)``       -- symbol 1/(1 + alpha^(2p) |k|^(2p))
* ``Gaussian(alpha)``           -- symbol exp(-alpha^2 |k|^2 / 24)
* ``GaussianApprox(alpha, m)``  -- symbol (1 + alpha^2 |k|^2 / (24 m))^(-m)
* ``HelmholtzPower(mu, m)``     -- symbol (1 + mu^2 |k|^2)^(-m)

``GaussianApprox(alpha, m)`` and ``HelmholtzPower(mu, m)`` describe the same
operator when alpha^2 = 24 m mu^2; the approximants converge to the Gaussian
symbol uniformly at rate 2/m as m grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from . import kernels
from .spectral import SpectralField

__all__ = [
    "Helmholtz",
    "Gaussian",
    "GaussianApprox",
    "HelmholtzPower",
    "FilterSpec",
    "NonInvertibleFilterError",
    "filter_symbol",
    "inverse_symbol",
    "apply_filter",
    "apply_inverse",
    "gaussian_approx_error",
    "helmholtz_power_sandwich",
    "as_helmholtz_power",
]


class NonInvertibleFilterError(ValueError):
    """Inversion requested for a filter without a usable inverse."""


@dataclass(frozen=True)
class Helmholtz:
    """Generalized differential filter (I + alpha^(2p) (-Laplace)^p)^(-1).

    alpha = 0 is tolerated as the degenerate identity filter (symbol 1
    everywhere); the theory-side bounds all hold trivially there.
    """

    alpha: float
    p: float = 1.0

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ValueError(f"filter radius must be >= 0, got {self.alpha}")
        if self.p < 0.75:
            raise ValueError(f"filter order p must be >= 3/4, got {self.p}")


@dataclass(frozen=True)
class Gaussian:
    alpha: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"filter radius must be > 0, got {self.alpha}")


@dataclass(frozen=True)
class GaussianApprox:
    """m-th rational approximant of the Gaussian filter."""

    alpha: float
    m: int

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"filter radius must be > 0, got {self.alpha}")
        if self.m < 1:
            raise ValueError(f"approximant index must be >= 1, got {self.m}")

    @property
    def mu(self) -> float:
        """Induced length scale: mu^2 = alpha^2 / (24 m)."""
        return self.alpha / np.sqrt(24.0 * self.m)


@dataclass(frozen=True)
class HelmholtzPower:
    """m-th power of the second-order Helmholtz filter (I - mu^2 Laplace)^(-m)."""

    mu: float
    m: int

    def __post_init__(self):
        if not self.mu > 0.0:
            raise ValueError(f"filter radius must be > 0, got {self.mu}")
        if self.m < 1:
            raise ValueError(f"power must be >= 1, got {self.m}")


FilterSpec = Union[Helmholtz, Gaussian, GaussianApprox, HelmholtzPower]


def as_helmholtz_power(spec: GaussianApprox) -> HelmholtzPower:
    """The HelmholtzPower form of a Gaussian approximant (same symbol)."""
    return HelmholtzPower(mu=spec.mu, m=spec.m)


def filter_symbol(spec: FilterSpec, k2):
    """Transfer symbol G_hat in (0, 1] at squared wavenumber k2 (>= 0).

    Accepts scalars or arrays; exactly 1 at k2 = 0.  Large exponents are
    evaluated in log space (m log1p(x)) so the symbol underflows gracefully
    instead of overflowing.
    """
    k2 = np.asarray(k2, dtype=np.float64)
    if isinstance(spec, Helmholtz):
        x = _helmholtz_x(spec, k2)
        out = 1.0 / (1.0 + x)
    elif isinstance(spec, Gaussian):
        out = np.exp(-(spec.alpha ** 2) * k2 / 24.0)
    elif isinstance(spec, GaussianApprox):
        # Route through the induced mu^2 so the HelmholtzPower equivalence
        # is exact whenever alpha^2/(24m) and mu^2 are the same float.
        mu2 = spec.alpha ** 2 / (24.0 * spec.m)
        out = np.exp(-spec.m * np.log1p(mu2 * k2))
    elif isinstance(spec, HelmholtzPower):
        out = np.exp(-spec.m * np.log1p(spec.mu ** 2 * k2))
    else:
        raise TypeError(f"not a filter spec: {spec!r}")
    return out if out.ndim else float(out)


def _helmholtz_x(spec: Helmholtz, k2: np.ndarray) -> np.ndarray:
    """alpha^(2p) |k|^(2p) = (alpha^2 k2)^p, safe at k2 = 0 for any real p."""
    y = spec.alpha ** 2 * k2
    if spec.p == 1.0:
        return y
    with np.errstate(divide="ignore"):
        return np.where(y > 0.0, np.exp(spec.p * np.log(np.maximum(y, 1e-300))), 0.0)


def inverse_symbol(spec: FilterSpec, k2):
    """Symbol of the inverse operator A = G^(-1), where defined."""
    k2 = np.asarray(k2, dtype=np.float64)
    if isinstance(spec, Helmholtz):
        out = 1.0 + _helmholtz_x(spec, k2)
    elif isinstance(spec, HelmholtzPower):
        out = np.exp(spec.m * np.log1p(spec.mu ** 2 * k2))
    else:
        raise NonInvertibleFilterError(
            f"non-invertible filter: {type(spec).__name__}"
        )
    return out if out.ndim else float(out)


def apply_filter(spec: FilterSpec, f: SpectralField) -> SpectralField:
    """Multiply every coefficient by the filter symbol."""
    g = filter_symbol(spec, f.lattice.k_squared)
    return SpectralField(f.lattice, f.coeffs * g,
                         divergence_free=f.divergence_free)


def apply_inverse(spec: FilterSpec, f: SpectralField) -> SpectralField:
    """Multiply by A_hat = 1/G_hat.  Errors for Gaussian-family specs.

    Composition apply_inverse(spec, apply_filter(spec, f)) recovers f to
    roundoff on the truncated lattice.
    """
    a = inverse_symbol(spec, f.lattice.k_squared)
    return SpectralField(f.lattice, f.coeffs * a,
                         divergence_free=f.divergence_free)


def gaussian_approx_error(alpha: float, m, k2):
    """|Gaussian symbol - m-th approximant symbol| at squared wavenumber k2.

    Uniformly bounded by 2/m for every alpha and k2; the difference is
    computed cancellation-free (the approximant is always the larger one).
    m may be an array of indices broadcast against k2: a column gives one
    row per index, with the same bits as the call with that index.
    """
    m = np.asarray(m)
    bad = m[np.logical_not(m >= 1)]
    if bad.size:
        raise ValueError(f"approximant index must be >= 1, got {bad[0]}")
    k2 = np.asarray(k2, dtype=np.float64)
    y = alpha ** 2 * k2 / 24.0
    _, diff = kernels.exp_limit_terms(y, m.astype(np.float64))
    return diff if diff.ndim else float(diff)


def helmholtz_power_sandwich(mu: float, m: int, k2):
    """Bracket the HelmholtzPower symbol between algebraic envelopes.

    Returns (lo, mid, hi) with lo <= mid <= hi:

        lo  = 2^(1-m) / (1 + mu^(2m) |k|^(2m))
        mid = (1 + mu^2 |k|^2)^(-m)
        hi  = 1 / (1 + mu^(2m) |k|^(2m))

    The bracket follows from 1 + x^m <= (1+x)^m <= 2^(m-1) (1 + x^m).
    """
    if m < 1:
        raise ValueError(f"power must be >= 1, got {m}")
    k2 = np.asarray(k2, dtype=np.float64)
    y = mu ** 2 * k2
    if m == 1:
        # The bracket collapses; route all three through one expression so
        # the collapse is exact in floating point.
        mid = 1.0 / (1.0 + y)
        lo = hi = mid
    else:
        mid = np.exp(-m * np.log1p(y))
        with np.errstate(divide="ignore", over="ignore"):
            logy = np.where(y > 0.0, np.log(np.maximum(y, 1e-300)), -np.inf)
            ym = np.exp(m * logy)  # y^m; 0 at k2 = 0, may overflow to inf
            hi = np.where(np.isinf(ym), np.exp(-m * logy), 1.0 / (1.0 + ym))
        lo = hi * 2.0 ** (1.0 - m)
    if mid.ndim:
        return lo, mid, hi
    return float(lo), float(mid), float(hi)
