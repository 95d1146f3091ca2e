"""Numerical verifiers for the scalar inequalities behind the filter and
deconvolution estimates.

Four families, named by what the left side is:

  highpass_power     (1 - (1+x)^-m)^a      <= m x / a^(1/m)
  highpass_power_sq  (1 - (1+x^2)^-m)^a    <= sqrt(m) x / (2a)^(1/(2m))
  highpass_ratio     (x^2/(1+x^2))^a       <= x / sqrt(2a)   (and x/sqrt(a))
  exp_limit          |(1+x/n)^-n - e^-x|   <= 2/n, with (1+x/n)^-n >= e^-x

All hold for x >= 0 and real exponents a, m, n >= 1.  The left sides are
high-pass filter symbols raised to large powers: naive evaluation loses all
digits near x = 0, so everything routes through the expm1/log1p kernels.
Verification is a margin check with floating-point slack 1e-12 max(1, rhs).

Each family is written once, as one evaluator of (lhs, rhs, side condition)
in two stages that take x as a float or an array: the scalar checks run
both stages on one tuple, the sweeps on a whole x grid at once.  The first
stage holds every term that does not depend on the outer (first) exponent
a or n: the logs log(1 - (1+x)^-m) and log(x^2/(1+x^2)) of the power
families with their x > 0 masks and the a-free rhs factors, and exp(-x)
of exp_limit.  A sweep runs it once; the second stage, the powers
exp(a log q) and the rest, runs once per outer exponent, so no
transcendental call is repeated across exponents.  A two-exponent family
takes its second exponent m as a float or as a column, so its sweep
evaluates every m at once as stacked rows, (12, 801) points per call on
the default grid; a one-exponent family's x grid is already as long as
those stacked rows (9601 points).  Exponents are not stacked further, so
no evaluation array grows.  A sweep rejects a grid outside the domain (an
x < 0 or NaN, an exponent < 1) before evaluating anything.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import kernels

__all__ = [
    "NAMES",
    "IneqCase",
    "GridSpec",
    "SweepResult",
    "check_highpass_power",
    "check_highpass_power_sq",
    "check_highpass_ratio",
    "check_exp_limit",
    "default_grid",
    "sweep",
]

_SLACK = 1e-12


@dataclass(frozen=True)
class IneqCase:
    """One evaluated inequality instance; margin = rhs - lhs."""

    name: str
    params: tuple
    lhs: float
    rhs: float
    side_ok: bool = True

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.side_ok and self.margin >= -_SLACK * max(1.0, self.rhs)


# Family evaluators, in two stages, for x a float or an array: prep(x,
# *inner) computes every term that does not depend on the outer (first)
# exponent, and terms(prep(x, *inner), outer) gives (lhs, rhs, side_ok).
# The inner exponent m of a two-exponent family may be a column; its rhs
# coefficients are still computed with math, one float at a time, so a
# row of the column form has the same bits as the call with that m.

def _highpass_power_prep(x, m):
    return kernels.log_compl(x, m), m * x, m


def _highpass_power(state, a):
    log_q, mx, m = state
    log_a = math.log(a)
    return (kernels.power_of_log(*log_q, a),
            mx * kernels._scalar_map(lambda v: math.exp(-log_a / v), m),
            True)


def _highpass_power_sq_prep(x, m):
    return (kernels.log_compl(x * x, m),
            kernels._scalar_map(math.sqrt, m) * x, m)


def _highpass_power_sq(state, a):
    log_q, sqrt_mx, m = state
    log_2a = math.log(2.0 * a)
    return (kernels.power_of_log(*log_q, a),
            sqrt_mx
            * kernels._scalar_map(lambda v: math.exp(-log_2a / (2.0 * v)), m),
            True)


def _highpass_ratio_prep(x):
    return x, kernels.log_ratio(x * x)


def _highpass_ratio(state, a):
    x, log_r = state
    lhs = kernels.power_of_log(*log_r, a)
    weak = x / math.sqrt(a)
    return (lhs, x / math.sqrt(2.0 * a),
            lhs <= weak + _SLACK * np.maximum(1.0, weak))


def _exp_limit(base, n):
    # diff = (1+x/n)^-n - e^-x is computed as a signed quantity; it must be
    # nonnegative up to rounding for the absolute bound to be one-sided.
    _, diff = kernels.exp_limit_at(base, n)
    return np.abs(diff), 2.0 / n, diff >= -_SLACK


_Family = namedtuple("_Family", "prep terms exps")

# name -> (prep, terms, exponent names); the names give the arity and the
# domain messages, the first name is the outer exponent.
_FAMILIES = {
    "highpass_power": _Family(_highpass_power_prep, _highpass_power,
                              ("a", "m")),
    "highpass_power_sq": _Family(_highpass_power_sq_prep, _highpass_power_sq,
                                 ("a", "m")),
    "highpass_ratio": _Family(_highpass_ratio_prep, _highpass_ratio, ("a",)),
    "exp_limit": _Family(kernels.exp_limit_base, _exp_limit, ("n",)),
}

NAMES = tuple(_FAMILIES)


def _family(name: str):
    if name not in _FAMILIES:
        raise ValueError(f"unknown inequality: {name!r} (choose from {NAMES})")
    return _FAMILIES[name]


def _check(name: str, x: float, *exps: float) -> IneqCase:
    """Validate one tuple against the domain and evaluate it."""
    fam = _FAMILIES[name]
    for label, value, lo in zip(("x", *fam.exps), (x, *exps), (0, 1, 1)):
        if not value >= lo:
            raise ValueError(f"{label} must be >= {lo}, got {value}")
    lhs, rhs, side_ok = fam.terms(fam.prep(x, *exps[1:]), exps[0])
    return IneqCase(name, (x, *exps), float(lhs), float(rhs), bool(side_ok))


def check_highpass_power(x: float, a: float, m: float) -> IneqCase:
    """(1 - (1+x)^-m)^a against m x / a^(1/m), for x >= 0, a, m >= 1."""
    return _check("highpass_power", x, a, m)


def check_highpass_power_sq(x: float, a: float, m: float) -> IneqCase:
    """(1 - (1+x^2)^-m)^a against sqrt(m) x / (2a)^(1/(2m))."""
    return _check("highpass_power_sq", x, a, m)


def check_highpass_ratio(x: float, a: float) -> IneqCase:
    """(x^2/(1+x^2))^a against x / sqrt(2a).

    The weaker companion bound x / sqrt(a) is implied (it is larger) and
    folded into side_ok for completeness.
    """
    return _check("highpass_ratio", x, a)


def check_exp_limit(x: float, n: float) -> IneqCase:
    """|(1+x/n)^-n - e^-x| against 2/n, plus the sign fact that the power
    dominates the exponential."""
    return _check("exp_limit", x, n)


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: log-spaced x (optionally with 0) times exponents."""

    x_points: int
    x_lo: float = 1e-6
    x_hi: float = 1e6
    include_zero: bool = True
    exps: tuple = (1.0, 1.5, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                   256.0, 512.0, 1024.0)

    def x_values(self) -> np.ndarray:
        """The x values; raises ValueError when x_lo or x_hi is not > 0,
        since both are log-spaced."""
        for bound in ("x_lo", "x_hi"):
            value = getattr(self, bound)
            if not value > 0.0:
                raise ValueError(
                    f"grid bound {bound} = {value!r} must be > 0 for "
                    f"log-spaced x values: {self}")
        xs = np.logspace(math.log10(self.x_lo), math.log10(self.x_hi),
                         self.x_points)
        if self.include_zero:
            xs = np.concatenate(([0.0], xs))
        return xs


def default_grid(name: str, dense: bool = False) -> GridSpec:
    """Per-family default sized so every sweep exceeds 1e5 tuples."""
    base = 800 if len(_family(name).exps) == 2 else 9600
    return GridSpec(x_points=base * (10 if dense else 1))


@dataclass(frozen=True)
class SweepResult:
    """Aggregate of one sweep; failures hold the offending tuples, if any."""

    name: str
    grid: GridSpec
    n_cases: int
    min_margin: float
    worst: IneqCase
    failures: tuple = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def cases(self) -> Iterator[IneqCase]:
        """Re-evaluate the grid lazily, one scalar case at a time."""
        xs = self.grid.x_values()
        for combo in itertools.product(self.grid.exps,
                                       repeat=len(_FAMILIES[self.name].exps)):
            for x in xs:
                yield _check(self.name, float(x), *combo)


def _staged(fam: _Family, xs: np.ndarray, exps) -> Iterator[tuple]:
    """(combos, lhs, rhs, side_ok) of a family over the x grid xs, one
    block per outer exponent, the blocks and rows in itertools.product
    order: row j of each array (broadcast to (len(combos), len(xs))) holds
    the x grid of combos[j].

    The first stage runs once, with every inner exponent tuple stacked as
    a row ((m,) for two exponents, () for one); the second once per outer
    exponent.
    """
    inner = list(itertools.product(exps, repeat=len(fam.exps) - 1))
    state = fam.prep(xs, *(np.array(col)[:, None] for col in zip(*inner)))
    for outer in exps:
        yield ([(outer, *rest) for rest in inner],
               *fam.terms(state, outer))


def sweep(name: str, grid: Optional[GridSpec] = None,
          dense: bool = False) -> SweepResult:
    """Exhaustively evaluate one family over its grid.

    Returns the aggregate with the worst (smallest-margin) case materialized
    and every failing tuple collected; passing sweeps have an empty failures
    tuple.  Raises ValueError for an empty grid or one outside the domain.
    """
    fam = _family(name)
    if grid is None:
        grid = default_grid(name, dense=dense)
    # An infinite bound makes NaN x values, which the domain check rejects.
    with np.errstate(invalid="ignore"):
        xs = grid.x_values()
    if len(xs) == 0 or len(grid.exps) == 0:
        raise ValueError("empty grid")
    if not (np.all(xs >= 0.0) and all(e >= 1.0 for e in grid.exps)):
        raise ValueError(
            f"grid outside the domain of {name} (x >= 0, "
            f"{', '.join(fam.exps)} >= 1): {grid}")

    n_cases = 0
    min_rel_margin = math.inf
    worst_params = None
    failures = []
    for combos, lhs, rhs, side_ok in _staged(fam, xs, grid.exps):
        margin = rhs - lhs
        scale = np.maximum(1.0, rhs)
        # row j holds the x grid of combos[j]
        rel = np.broadcast_to(margin / scale, (len(combos), len(xs)))
        n_cases += rel.size
        # Each row's first minimum, as np.argmin picks it (a row holding a
        # NaN yields that NaN and is never the worst); then the first row
        # whose minimum beats the running one.
        i_min = np.argmin(rel, axis=1)
        row_min = rel[np.arange(len(combos)), i_min]
        j = int(np.argmin(np.where(np.isnan(row_min), np.inf, row_min)))
        if row_min[j] < min_rel_margin:
            min_rel_margin = float(row_min[j])
            worst_params = (float(xs[i_min[j]]), *combos[j])
        bad = (margin < -_SLACK * scale) | np.logical_not(side_ok)
        if not bad.any():
            continue
        for k in np.flatnonzero(np.broadcast_to(bad, rel.shape)):
            row, i = divmod(int(k), len(xs))
            failures.append(_check(name, float(xs[i]), *combos[row]))
    worst = _check(name, *worst_params)
    return SweepResult(
        name=name, grid=grid, n_cases=n_cases,
        min_margin=min_rel_margin, worst=worst, failures=tuple(failures),
    )
