"""Low-pass filters applied mode-by-mode through their transfer symbols.

Four families, each an immutable spec:

* ``Helmholtz(alpha, p)``       -- symbol 1/(1 + alpha^(2p) |k|^(2p))
* ``Gaussian(alpha)``           -- symbol exp(-alpha^2 |k|^2 / 24)
* ``GaussianApprox(alpha, m)``  -- symbol (1 + alpha^2 |k|^2 / (24 m))^(-m)
* ``HelmholtzPower(mu, m)``     -- symbol (1 + mu^2 |k|^2)^(-m)

``GaussianApprox(alpha, m)`` and ``HelmholtzPower(mu, m)`` describe the same
operator when alpha^2 = 24 m mu^2; the approximants converge to the Gaussian
symbol uniformly at rate 2/m as m grows.

Each family's math is written once, as one row of ``_FAMILIES``: the
symbol G, the complement power (1 - G)^e, the inverse (where the family
has one) and the energy weight.

Each spec declares the domain of its fields beside them, in the field
metadata: alpha >= 0 and p >= 3/4 for Helmholtz, alpha > 0 for the
Gaussian and its approximants, mu > 0, and an integer index m >= 1.
``spectral._check_fields`` checks them where the spec is built, as it
checks the run config, and refuses a bad value with a ValueError
"'<field>' must be <need>, got <value>".
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import kernels
from .spectral import SpectralField, _check_fields

__all__ = [
    "Helmholtz",
    "Gaussian",
    "GaussianApprox",
    "HelmholtzPower",
    "FilterSpec",
    "NonInvertibleFilterError",
    "filter_symbol",
    "complement_power",
    "inverse_symbol",
    "energy_weight",
    "apply_filter",
    "gaussian_approx_error",
    "helmholtz_power_sandwich",
]


class NonInvertibleFilterError(ValueError):
    """Inversion requested for a filter without a usable inverse."""


@dataclass(frozen=True)
class Helmholtz:
    """Generalized differential filter (I + alpha^(2p) (-Laplace)^p)^(-1).

    alpha = 0 is tolerated as the degenerate identity filter (symbol 1
    everywhere); the theory-side bounds all hold trivially there.
    """

    alpha: float = field(metadata={"min": 0})
    p: float = field(default=1.0, metadata={"min": 0.75})

    __post_init__ = _check_fields


@dataclass(frozen=True)
class Gaussian:
    alpha: float = field(metadata={"above": 0})

    __post_init__ = _check_fields


@dataclass(frozen=True)
class GaussianApprox:
    """m-th rational approximant of the Gaussian filter."""

    alpha: float = field(metadata={"above": 0})
    m: int = field(metadata={"min": 1})

    __post_init__ = _check_fields

    @property
    def mu(self) -> float:
        """Induced length scale: mu^2 = alpha^2 / (24 m)."""
        return self.alpha / np.sqrt(24.0 * self.m)


@dataclass(frozen=True)
class HelmholtzPower:
    """m-th power of the second-order Helmholtz filter (I - mu^2 Laplace)^(-m)."""

    mu: float = field(metadata={"above": 0})
    m: int = field(metadata={"min": 1})

    __post_init__ = _check_fields


FilterSpec = Union[Helmholtz, Gaussian, GaussianApprox, HelmholtzPower]


def _helmholtz_x(spec: Helmholtz, k2: np.ndarray) -> np.ndarray:
    """alpha^(2p) |k|^(2p) = (alpha^2 k2)^p for any real p: 0 at k2 = 0 and
    inf where it overflows, where every Helmholtz symbol takes its limit."""
    with np.errstate(over="ignore"):
        return np.power(spec.alpha ** 2 * k2, spec.p)


# One row per filter family: the symbol G, the complement power (1 - G)^e
# and the inverse 1/G (None for a family without one), functions of
# (spec, k2) and, for the complement, e; and the energy weight, a function
# of the spec.
_Family = namedtuple("_Family", "symbol complement inverse energy")


def _exp_family(phi, invertible: bool, energy) -> _Family:
    """The row of a family with G = exp(-phi(spec, k2)): (1 - G)^e is
    exp(e log1mexp(phi)), which keeps its digits for every phi >= 0."""
    return _Family(
        lambda spec, k2: np.exp(-phi(spec, k2)),
        lambda spec, k2, e: np.exp(e * kernels.log1mexp(phi(spec, k2))),
        (lambda spec, k2: np.exp(phi(spec, k2))) if invertible else None,
        energy)


def _power_family(mu2, invertible: bool) -> _Family:
    """The row of a power family, (1 + mu^2 k2)^(-m) with mu^2 = mu2(spec):
    phi = m log1p(mu^2 k2), so the symbol underflows instead of
    overflowing."""
    return _exp_family(
        lambda spec, k2: spec.m * np.log1p(mu2(spec) * k2), invertible,
        energy=lambda spec: (spec.mu ** (2.0 * spec.m), float(spec.m)))


# GaussianApprox forms its mu^2 from alpha, so the HelmholtzPower
# equivalence is exact whenever alpha^2/(24m) and mu^2 are the same float.
_FAMILIES = {
    Helmholtz: _Family(
        lambda spec, k2: 1.0 / (1.0 + _helmholtz_x(spec, k2)),
        lambda spec, k2, e: kernels.ratio_power(_helmholtz_x(spec, k2), e),
        lambda spec, k2: 1.0 + _helmholtz_x(spec, k2),
        lambda spec: (spec.alpha ** (2.0 * spec.p), spec.p)),
    Gaussian: _exp_family(
        lambda spec, k2: spec.alpha ** 2 * k2 / 24.0, invertible=False,
        energy=lambda spec: (spec.alpha ** 2 / 24.0, 1.0)),
    GaussianApprox: _power_family(
        lambda spec: spec.alpha ** 2 / (24.0 * spec.m), invertible=False),
    HelmholtzPower: _power_family(lambda spec: spec.mu ** 2, invertible=True),
}


def _family(spec) -> _Family:
    if type(spec) not in _FAMILIES:
        raise TypeError(f"not a filter spec: {spec!r}")
    return _FAMILIES[type(spec)]


def _at(spec: FilterSpec, entry: str, k2, *e):
    """The `entry` of spec's row at k2 (and e); a float for a scalar k2."""
    fn = getattr(_family(spec), entry)
    if fn is None:
        raise NonInvertibleFilterError(
            f"non-invertible filter: {type(spec).__name__}")
    out = fn(spec, np.asarray(k2, dtype=np.float64), *e)
    return out if out.ndim else float(out)


def filter_symbol(spec: FilterSpec, k2):
    """Transfer symbol G_hat in (0, 1] at squared wavenumber k2 (>= 0).

    Accepts scalars or arrays; exactly 1 at k2 = 0.
    """
    return _at(spec, "symbol", k2)


def complement_power(spec: FilterSpec, k2, e):
    """(1 - G_hat)^e at squared wavenumber k2 (>= 0), e > 0; 0 at k2 = 0.

    Formed without cancellation, so it keeps its digits where G_hat is
    near 0 or 1 and for large e.  e = N + 1 gives the defect symbol
    1 - D_N G of the van Cittert deconvolution of order N.
    """
    return _at(spec, "complement", k2, e)


def inverse_symbol(spec: FilterSpec, k2):
    """Symbol of the inverse operator A = G^(-1), where defined."""
    return _at(spec, "inverse", k2)


def energy_weight(spec: FilterSpec) -> tuple[float, float]:
    """(weight, s) such that weight * ||.||_s^2 is the filter's natural
    higher-order energy term: alpha^(2p) ||.||_p^2 for Helmholtz,
    mu^(2m) ||.||_m^2 for the power families, and the leading differential
    approximation alpha^2/24 ||.||_1^2 for the Gaussian.
    """
    return _family(spec).energy(spec)


def apply_filter(spec: FilterSpec, f: SpectralField) -> SpectralField:
    """Multiply every coefficient by the filter symbol."""
    g = filter_symbol(spec, f.lattice.k_squared)
    return SpectralField(f.lattice, f.coeffs * g,
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
    power = HelmholtzPower(mu=mu, m=m)  # refuses m < 1, as ValueError
    # hi is the Helmholtz symbol of order p = m, 0 where (mu^2 k2)^m
    # overflows; for m = 1 the bracket collapses exactly onto it.
    hi = np.asarray(filter_symbol(Helmholtz(alpha=mu, p=m), k2))
    mid = hi if m == 1 else np.asarray(filter_symbol(power, k2))
    lo = hi * 2.0 ** (1.0 - m)
    if mid.ndim:
        return lo, mid, hi
    return float(lo), float(mid), float(hi)
