"""Van Cittert deconvolution: the truncated Neumann series for G^(-1).

The order-N operator D_N = sum_{j=0}^{N} (I - G)^j acts mode-by-mode with
symbol (1 - (1 - G_hat)^(N+1)) / G_hat.  It is defined for every filter
family (only the scalar G_hat is needed), satisfies 1 <= D_hat <= N+1, never
exceeds the inverse symbol where one exists, and saturates to N+1 at large
wavenumbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .filters import (
    FilterSpec,
    Helmholtz,
    filter_symbol,
    inverse_symbol,
    _helmholtz_x,
)
from .spectral import SpectralField

__all__ = [
    "DeconvOp",
    "PropertyCheck",
    "PropertyReport",
    "deconv_symbol",
    "recovery_symbol",
    "apply_deconv",
    "check_properties",
]

# Saturation tolerance at the far end of a verification grid.
_SATURATION_REL = 1e-6
_SATURATION_K2 = 1e12


@dataclass(frozen=True)
class DeconvOp:
    """Deconvolution of a fixed order bound to a filter spec."""

    spec: FilterSpec
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")


def deconv_symbol(op: DeconvOp, k2):
    """D_hat at squared wavenumber k2; exactly 1 at k2 = 0 and for order 0."""
    g = np.asarray(filter_symbol(op.spec, k2), dtype=np.float64)
    out = kernels.deconv_from_g(g, op.order)
    return out if out.ndim else float(out)


def recovery_symbol(op: DeconvOp, k2):
    """Symbol of D_N G, the fraction of a mode surviving filter+deconvolution.

    Helmholtz filters only: with x = alpha^(2p) |k|^(2p) the value is
    1 - (x/(1+x))^(N+1), always in (0, 1].  It equals
    deconv_symbol * filter_symbol to roundoff.
    """
    if not isinstance(op.spec, Helmholtz):
        raise TypeError(
            "recovery symbol is defined for Helmholtz filters, got "
            f"{type(op.spec).__name__}"
        )
    x = _helmholtz_x(op.spec, np.asarray(k2, dtype=np.float64))
    out = 1.0 - kernels.ratio_power(x, float(op.order + 1))
    return out if out.ndim else float(out)


def _defect_weight(spec: Helmholtz, order: int, k2: np.ndarray) -> np.ndarray:
    """(x/(1+x))^(2(order+1)) |k|, the per-mode weight of the squared
    deconvolution-defect half-norm, with x = (alpha^2 k2)^p."""
    return kernels.ratio_power(_helmholtz_x(spec, k2), 2.0 * (order + 1)) \
        * np.sqrt(k2)


def apply_deconv(op: DeconvOp, f: SpectralField) -> SpectralField:
    """Multiply coefficients by the deconvolution symbol.

    The operator norm on every Sobolev level lies in [1, order + 1].
    """
    d = deconv_symbol(op, f.lattice.k_squared)
    return SpectralField(f.lattice, f.coeffs * d,
                         divergence_free=f.divergence_free)


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    k2: float
    lhs: float
    rhs: float
    passed: bool


@dataclass(frozen=True)
class PropertyReport:
    """Structural checks of the deconvolution symbol on a k2 grid.

    Asserted rows:
      range_low      1 <= D_hat (as rhs >= lhs with lhs = 1)
      range_high     D_hat <= order + 1
      below_inverse  D_hat <= A_hat
      saturation     |D_hat - (order+1)| <= 1e-6 (order+1), emitted only when
                     the largest grid point exceeds 1e12
    Diagnostic (never asserted): tail_deviation, the relative deviation of
    D_hat from (order+1)(1+x)/x at the largest grid point.
    """

    op: DeconvOp
    rows: tuple
    tail_deviation: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def failures(self):
        return [r for r in self.rows if not r.passed]


def check_properties(op: DeconvOp, k2_grid: Sequence[float]) -> PropertyReport:
    """Evaluate the symbol properties pointwise on a nonempty grid."""
    if not isinstance(op.spec, Helmholtz):
        raise TypeError(
            "property checks require a Helmholtz filter, got "
            f"{type(op.spec).__name__}"
        )
    k2 = np.asarray(list(k2_grid), dtype=np.float64)
    if k2.size == 0:
        raise ValueError("empty verification grid")
    k2 = np.sort(k2)
    d = np.asarray(deconv_symbol(op, k2))
    a = np.asarray(inverse_symbol(op.spec, k2))
    top = float(op.order + 1)
    tol = 1e-12

    rows = []
    for k2i, di, ai in zip(k2, d, a):
        rows.append(PropertyCheck(
            "range_low", float(k2i), 1.0, float(di),
            di >= 1.0 - tol,
        ))
        rows.append(PropertyCheck(
            "range_high", float(k2i), float(di), top,
            di <= top * (1.0 + tol),
        ))
        rows.append(PropertyCheck(
            "below_inverse", float(k2i), float(di), float(ai),
            di <= ai * (1.0 + tol),
        ))
    k2_max = float(k2[-1])
    if k2_max > _SATURATION_K2:
        gap = abs(float(d[-1]) - top)
        rows.append(PropertyCheck(
            "saturation", k2_max, gap, _SATURATION_REL * top,
            gap <= _SATURATION_REL * top,
        ))

    x_max = float(_helmholtz_x(op.spec, k2_max))
    if x_max > 0.0:
        equiv = top * (1.0 + x_max) / x_max
        tail_dev = abs(float(d[-1]) / equiv - 1.0)
    else:
        tail_dev = float("nan")
    return PropertyReport(op=op, rows=tuple(rows), tail_deviation=tail_dev)

