"""Van Cittert deconvolution: the truncated Neumann series for G^(-1).

The order-N operator D_N = sum_{j=0}^{N} (I - G)^j acts mode-by-mode with
symbol (1 - (1 - G_hat)^(N+1)) / G_hat.  It is defined for every filter
family (only the scalar G_hat is needed), satisfies 1 <= D_hat <= N+1, never
exceeds the inverse symbol where one exists, and saturates to N+1 at large
wavenumbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

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


# The columns of a property table, keyed by their CSV names, and their
# dtypes.
_COLUMNS = {"property": object, "k2": float, "lhs": float, "rhs": float,
            "pass": bool}


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

    `columns` is the table of the checks, read-only arrays keyed by the
    names of _COLUMNS: range_low, range_high and below_inverse of each grid
    point in turn, in grid order, then the saturation row if any.
    """

    op: DeconvOp
    columns: dict
    tail_deviation: float

    @property
    def passed(self) -> bool:
        return bool(self.columns["pass"].all())


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
    k2_max = float(k2[-1])
    saturates = k2_max > _SATURATION_K2
    n_point = 3 * k2.size
    checks = [  # where the check's rows sit, then its value per column
        (np.s_[0:n_point:3], "range_low", k2, 1.0, d, d >= 1.0 - tol),
        (np.s_[1:n_point:3], "range_high", k2, d, tops,
         d <= tops * (1.0 + tol)),
        (np.s_[2:n_point:3], "below_inverse", k2, d, a,
         d <= a * (1.0 + tol)),
    ]
    if saturates:
        gap = np.abs(d[:, -1:] - tops)
        bound = _SATURATION_REL * tops
        checks.append((np.s_[n_point:], "saturation", k2_max, gap, bound,
                       gap <= bound))
    # row i holds the table of order orders[i]
    shape = (len(ops), n_point + saturates)
    columns = {name: np.empty(shape, dtype)
               for name, dtype in _COLUMNS.items()}
    for where, *values in checks:
        for col, value in zip(columns.values(), values):
            col[:, where] = value
    for col in columns.values():  # the reports are frozen, so are they
        col.flags.writeable = False

    x_max = float(_helmholtz_x(spec, k2_max))
    reports = []
    for i, op in enumerate(ops):
        d_max = float(d[i, -1])
        if x_max > 0.0:
            equiv = float(op.order + 1) * (1.0 + x_max) / x_max
            tail_dev = abs(d_max / equiv - 1.0)
        else:
            tail_dev = float("nan")
        reports.append(PropertyReport(
            op=op, columns={name: col[i] for name, col in columns.items()},
            tail_deviation=tail_dev))
    return tuple(reports)
