"""Van Cittert deconvolution: the truncated Neumann series for G^(-1).

The order-N operator D_N = sum_{j=0}^{N} (I - G)^j acts mode-by-mode with
symbol (1 - (1 - G_hat)^(N+1)) / G_hat.  It is defined for every filter
family (only the scalar G_hat is needed), satisfies 1 <= D_hat <= N+1, never
exceeds the inverse symbol where one exists, and saturates to N+1 at large
wavenumbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .filters import (
    FilterSpec,
    Helmholtz,
    complement_power,
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
    "property_reports",
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
        _check_order(self.order)


def _check_order(order) -> None:
    """Refuse an order that is not an integer >= 0 (numpy's integers too), a
    boolean, a float or NaN included, with a ValueError."""
    if isinstance(order, bool) or not isinstance(order, Integral) \
            or order < 0:
        raise ValueError(f"order must be >= 0 and an integer, got {order!r}")


def deconv_symbol(op: DeconvOp, k2):
    """D_hat at squared wavenumber k2; exactly 1 at k2 = 0 and for order 0."""
    g = np.asarray(filter_symbol(op.spec, k2), dtype=np.float64)
    out = kernels.deconv_from_g(g, op.order)
    return out if out.ndim else float(out)


def recovery_symbol(op: DeconvOp, k2):
    """Symbol of D_N G, the fraction of a mode surviving filter+deconvolution.

    For every filter family the value is 1 - (1 - G)^(N+1), in [0, 1].  It
    is formed as the product deconv_symbol * filter_symbol, which keeps its
    relative digits as G -> 0, where the difference 1 - (1 - G)^(N+1)
    would cancel.
    """
    g = np.asarray(filter_symbol(op.spec, k2), dtype=np.float64)
    out = kernels.deconv_from_g(g, op.order) * g
    return out if out.ndim else float(out)


def _defect_weight(spec: FilterSpec, order: int,
                   k2: np.ndarray) -> np.ndarray:
    """(1 - G)^(2(order+1)) |k|, the per-mode weight of the squared
    deconvolution-defect half-norm; (x/(1+x))^(2(order+1)) |k| with
    x = (alpha^2 k2)^p for a Helmholtz filter."""
    return complement_power(spec, k2, 2.0 * (order + 1)) * np.sqrt(k2)


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


# The checks made at every grid point, in row order.
_PER_POINT = ("range_low", "range_high", "below_inverse")


@dataclass(frozen=True, eq=False)
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

    The per-point checks are held as arrays with one row per name of
    _PER_POINT and one column per grid point; `rows` builds the
    PropertyCheck tuple from them when it is first read.
    """

    op: DeconvOp
    k2: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    ok: np.ndarray
    saturation: Optional[PropertyCheck]
    tail_deviation: float

    @property
    def passed(self) -> bool:
        return bool(self.ok.all()) and (
            self.saturation is None or self.saturation.passed)

    @property
    def n_rows(self) -> int:
        """len(rows), without building them."""
        return self.ok.size + (self.saturation is not None)

    @cached_property
    def rows(self) -> tuple:
        """Every check, point by point in grid order (the _PER_POINT checks
        of each point in turn), then the saturation row if any."""
        rows = [
            PropertyCheck(name, k2, lhs, rhs, ok)
            for k2, *point in zip(self.k2.tolist(), self.lhs.T.tolist(),
                                  self.rhs.T.tolist(), self.ok.T.tolist())
            for name, lhs, rhs, ok in zip(_PER_POINT, *point)
        ]
        if self.saturation is not None:
            rows.append(self.saturation)
        return tuple(rows)

    def failures(self):
        return [r for r in self.rows if not r.passed]


def check_properties(op: DeconvOp, k2_grid: Sequence[float]) -> PropertyReport:
    """Evaluate the symbol properties on a nonempty grid of k2 >= 0.

    The one-order case of property_reports, with its refusals.
    """
    return property_reports(op.spec, (op.order,), k2_grid)[0]


def property_reports(spec: FilterSpec, orders: Sequence[int],
                     k2_grid: Sequence[float]) -> tuple:
    """check_properties of DeconvOp(spec, N) for each N in orders, from one
    evaluation of the filter symbol, its inverse and the per-point checks
    on the grid (deconv_from_g with an order column).

    Raises ValueError for a negative order, an empty grid or one holding a
    negative or NaN k2, and TypeError for a filter other than Helmholtz.
    """
    ops = [DeconvOp(spec, N) for N in orders]
    if not isinstance(spec, Helmholtz):
        raise TypeError(
            "property checks require a Helmholtz filter, got "
            f"{type(spec).__name__}"
        )
    k2 = np.asarray(list(k2_grid), dtype=np.float64)
    if k2.size == 0:
        raise ValueError("empty verification grid")
    bad = k2[np.logical_not(k2 >= 0.0)]
    if bad.size:
        raise ValueError(
            f"verification grid values must be k2 >= 0, got {float(bad[0])!r}")
    k2 = np.sort(k2)
    order_col = np.array([op.order for op in ops])[:, None]
    tops = order_col + 1.0
    d = kernels.deconv_from_g(
        np.asarray(filter_symbol(spec, k2), dtype=np.float64), order_col)
    a = np.asarray(inverse_symbol(spec, k2))
    tol = 1e-12
    # (order, check, point), the checks in _PER_POINT order
    lhs = np.stack([np.ones_like(d), d, d], axis=1)
    rhs = np.stack([d, np.broadcast_to(tops, d.shape),
                    np.broadcast_to(a, d.shape)], axis=1)
    ok = np.stack([d >= 1.0 - tol, d <= tops * (1.0 + tol),
                   d <= a * (1.0 + tol)], axis=1)
    for arr in (k2, lhs, rhs, ok):  # so rows, built later, match them
        arr.flags.writeable = False

    k2_max = float(k2[-1])
    x_max = float(_helmholtz_x(spec, k2_max))
    reports = []
    for i, op in enumerate(ops):
        top = float(op.order + 1)
        d_max = float(d[i, -1])
        saturation = None
        if k2_max > _SATURATION_K2:
            gap = abs(d_max - top)
            saturation = PropertyCheck(
                "saturation", k2_max, gap, _SATURATION_REL * top,
                gap <= _SATURATION_REL * top,
            )
        if x_max > 0.0:
            equiv = top * (1.0 + x_max) / x_max
            tail_dev = abs(d_max / equiv - 1.0)
        else:
            tail_dev = float("nan")
        reports.append(PropertyReport(
            op=op, k2=k2, lhs=lhs[i], rhs=rhs[i], ok=ok[i],
            saturation=saturation, tail_deviation=tail_dev))
    return tuple(reports)
