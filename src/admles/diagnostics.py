"""Closure-quality diagnostics: residual stress, deconvolution defect,
a-priori error bounds with their Gronwall prefactors, and rate fitting.

The bounds come in two flavors.  Pointwise-in-field quantities
(residual_stress_norm, half_norm_defect, defect_bound) are exact mode sums
over one snapshot.  A-priori bounds (bound_main, gronwall_log10) are
scalar formulas in the configuration and a time-integrated velocity
norm; their Gronwall factor exp(u^4/nu^3) overflows float64 for any
realistic viscosity, so they are computed in log10 space and only
exponentiated when representable.

Each filter family's a-priori bounds are one entry of _BOUNDS, which
bound_main and error_report read; None where the paper gives no bound.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .deconvolution import (
    DeconvOp,
    recovery_symbol,
    _check_order,
    _defect_weight,
)
from .filters import (
    FilterSpec,
    Gaussian,
    GaussianApprox,
    Helmholtz,
    HelmholtzPower,
    energy_weight,
)
from .kernels import _scalar_map
from .solvers import ExperimentOutput, _key
from .spectral import (
    SpectralField,
    WaveLattice,
    random_solenoidal,
    sobolev_norm,
    _SYM_WEIGHTS,
    _kept,
    _mode_sq,
    _mode_sum,
    _tau_norms,
    _weight_row,
    _Workspace,
)

__all__ = [
    "LogValue",
    "ReportSummary",
    "ErrorReport",
    "residual_stress_norm",
    "half_norm_defect",
    "defect_bound",
    "bound_main",
    "gronwall_log10",
    "fit_rate",
    "calibrate_sobolev_constant",
    "error_report",
]

_LN10 = math.log(10.0)


@dataclass(frozen=True)
class LogValue:
    """A nonnegative scalar carried as log10; value() may be inf or 0."""

    log10: float

    def value(self) -> float:
        if self.log10 == -math.inf:
            return 0.0
        if self.log10 > 307.0:
            return math.inf
        return 10.0 ** self.log10

    def __float__(self) -> float:
        return self.value()


def residual_stress_norm(u: SpectralField, spec: FilterSpec,
                         order: int) -> float:
    """Frobenius coefficient norm of u (x) u - Du_bar (x) Du_bar for the
    2/3-rule keep-set part of u.

    The tensor is formed pseudo-spectrally with 2/3-rule dealiasing, which
    is alias-free only for fields on the keep set, so the modes of u
    outside it are dropped first: an untruncated field gives the norm of
    truncate_field of it, bit for bit.  The mean mode participates (plain
    grid quadrature of the tensor agrees).  The symbol rho = D_N G
    (recovery_symbol) is evaluated on the lattice's keep set
    (WaveLattice.keep), and u and Du_bar go through the same keep-set
    transforms as run_experiment's tau_l2 series, so on a solver state the
    two agree bit for bit.  Each call allocates its own transform buffers
    (_Workspace), so calls may run at the same time.
    """
    lattice, keep = u.lattice, u.lattice.keep
    rho = recovery_symbol(DeconvOp(spec, order), keep.ksq)
    norms, _ = _tau_norms(_kept(u.coeffs, lattice.n), [rho],
                          _weight_row(keep, _SYM_WEIGHTS), _Workspace(lattice))
    return norms[0]


def half_norm_defect(u: SpectralField, spec: FilterSpec, order: int) -> float:
    """Interpolation-level norm of the deconvolution defect u - Du_bar for
    the 2/3-rule keep-set part of u.

    Exact mode sum sqrt( sum (1-G)^(2(order+1)) |k| |u_hat|^2 ) over the
    keep set, for every filter family: the defect symbol of order N is
    1 - D_N G = (1-G)^(N+1).  It describes the same field as
    residual_stress_norm, which the bound tau^2 <= 2 C u_h1^2 defect^2
    pairs it with, so the modes of u outside the keep set are dropped as
    there.  The weight is evaluated on the lattice's keep set
    (WaveLattice.keep) and summed by the code of run_experiment's
    half_norm series (spectral._mode_sum), so the two agree bit for bit.
    order must be an integer >= 0 (ValueError).
    """
    _check_order(order)
    lattice, keep = u.lattice, u.lattice.keep
    row = _weight_row(keep, _defect_weight(spec, order, keep.ksq))
    return float(np.sqrt(_mode_sum(_mode_sq(_kept(u.coeffs, lattice.n)), row)))


def defect_bound(u_h1, alpha: float, p: float, order):
    """alpha (2p(order+1))^(-1/(2p)) u_h1^2, dominating half_norm_defect^2.

    u_h1 and order may also be arrays, broadcast together (a u_h1 row
    against an order column gives one row per order).  Each element has
    the bits of the call with its own scalars, because both powers are
    taken one value at a time (kernels._scalar_map).
    """
    e = -0.5 / p
    return alpha * _scalar_map(lambda v: v ** e, 2.0 * p * (order + 1)) \
        * _scalar_map(lambda v: v ** 2, u_h1)


def _check_constant(value: float, name: str = "the product constant") -> None:
    """Refuse a constant that is not finite and > 0, NaN included, with a
    ValueError naming it."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive: {value}")


def _gronwall_exp_log10(u_l4h1: float, nu: float) -> float:
    return u_l4h1 ** 4 / (nu ** 3 * _LN10)


# Per filter family: `main`, the prefactor (c, d) of the energy bound
# c / (nu d) u^4 exp(u^4/nu^3), of (spec, C, order); `defect`, the bound on
# half_norm^2, of (spec, u_h1, order); None where the paper gives none.
_Bounds = namedtuple("_Bounds", "main defect")


def _power_main(spec, constant: float, order):
    return (14.0 * constant * spec.mu * math.sqrt(spec.m),
            (4.0 * (order + 1)) ** (0.5 / spec.m))


_BOUNDS = {
    Helmholtz: _Bounds(
        lambda spec, constant, order: (
            16.0 * constant * spec.alpha,
            (2.0 * spec.p * (order + 1)) ** (0.5 / spec.p)),
        lambda spec, u_h1, order: defect_bound(u_h1, spec.alpha, spec.p,
                                               order)),
    Gaussian: _Bounds(None, None),
    GaussianApprox: _Bounds(_power_main, None),  # through spec.mu
    HelmholtzPower: _Bounds(_power_main, None),
}


def _bounds(spec) -> _Bounds:
    if type(spec) not in _BOUNDS:
        raise TypeError(f"not a filter spec: {spec!r}")
    return _BOUNDS[type(spec)]


def bound_main(u_l4h1: float, nu: float, constant: float, spec: FilterSpec,
               order: int) -> Optional[LogValue]:
    """c / (nu d) u^4 exp(u^4/nu^3): (c, d) is (16 C alpha,
    (2p(order+1))^(1/(2p))) for Helmholtz and (14 C mu sqrt(m),
    (4(order+1))^(1/(2m))) for the power families.

    Dominates the model-error energy (squared norms plus the viscous
    time integral).  Returned as a LogValue, since the Gronwall exponential
    makes the plain value overflow for any realistically small nu; None
    for the Gaussian, for which the paper proves no bound.  nu and
    constant must be finite and > 0 (ValueError naming the argument), and
    order an integer >= 0 (ValueError).
    """
    _check_constant(nu, "the viscosity nu")
    _check_constant(constant)
    _check_order(order)
    main = _bounds(spec).main
    if main is None:
        return None
    if u_l4h1 == 0.0:
        return LogValue(-math.inf)
    c, d = main(spec, constant, order)
    return LogValue(
        math.log10(c / (nu * d)) + 4.0 * math.log10(u_l4h1)
        + _gronwall_exp_log10(u_l4h1, nu)
    )


def gronwall_log10(u_l4h1: float, nu: float) -> float:
    """log10 of (1/nu) u^4 exp(u^4/nu^3), entirely in log space.

    This is the prefactor that makes the energy bound astronomically loose
    for small viscosity; u = 0 returns -inf.  nu must be finite and > 0
    (ValueError).
    """
    _check_constant(nu, "the viscosity nu")
    if u_l4h1 == 0.0:
        return -math.inf
    return 4.0 * math.log10(u_l4h1) - math.log10(nu) \
        + _gronwall_exp_log10(u_l4h1, nu)


def fit_rate(series) -> tuple[float, float]:
    """Least-squares power-law fit e ~ (order+1)^(-beta).

    series is a sequence of (order, e) with e > 0; returns (beta, r2) from
    the slope of ln e against ln(order+1).  Needs at least four points.
    """
    pts = list(series)
    if len(pts) < 4:
        raise ValueError(f"need at least 4 points to fit, got {len(pts)}")
    orders = np.array([float(n) for n, _ in pts])
    values = np.array([float(e) for _, e in pts])
    if np.any(values <= 0.0):
        raise ValueError("all series values must be positive")
    lx = np.log(orders + 1.0)
    ly = np.log(values)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(-slope), r2


def calibrate_sobolev_constant(
    spec: FilterSpec,
    n: int = 16,
    orders=(0, 1, 2, 4, 8),
    n_fields: int = 8,
    decay: float = 2.5,
    seed: int = 0,
) -> float:
    """Smallest C with tau^2 <= 2 C u_h1^2 defect^2 over sampled fields.

    The product constant pairing the gradient norm with the defect half-norm
    has no published numerical value; this measures the empirical best
    constant on random solenoidal fields so a configured C can be judged.
    The random-field value is below what flows realize: 0.383 for
    Helmholtz alpha = 0.5, p = 1 at the defaults, against max_t tau^2 /
    (2 u_h1^2 defect^2) = 0.45-0.72 per order in 16^3 Taylor-Green runs
    (nu = 0.05, T = 1, orders 0..16).  A bound built with this C can fail
    the tau link on the flow it reports on.
    """
    lattice = WaveLattice(n)
    best = 0.0
    for i in range(n_fields):
        u = random_solenoidal(lattice, decay, seed + i)
        u_h1 = sobolev_norm(u, 1.0)
        if u_h1 == 0.0:
            continue
        for order in orders:
            half = half_norm_defect(u, spec, order)
            if half == 0.0:
                continue
            tau = residual_stress_norm(u, spec, order)
            best = max(best, tau ** 2 / (2.0 * u_h1 ** 2 * half ** 2))
    return best


# ---------------------------------------------------------------------------
# report assembly over experiment outputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportSummary:
    """Per-order verdict: measured error energy against its a-priori bound.

    rhs_log10 is the Gronwall right-hand side (8/nu) exp(u^4/nu^3) int tau^2;
    rhs_alt_log10 the sharper-constant variant (4/nu) exp(27 u^4/nu^3) seen
    in intermediate derivations, recorded for comparison only.  The fields
    are the first columns of rates_summary.csv, each under its _key.
    """

    order: int = field(metadata={"key": "N"})
    eps_l2_final: float
    energy_lhs_max: float
    bound_main_log10: float
    rhs_log10: float
    rhs_alt_log10: float
    passed: Optional[bool]


# The report scalars that rates_summary.csv repeats on each row, after the
# ReportSummary fields.
_SUMMARY_SCALARS = ("beta", "beta_r2", "constant", "nu", "u_l4h1",
                    "gronwall_log10")


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """The error ledger of one experiment.

    The per-(order, t) ledger is held as columns, the table of
    rates_detail.csv: `columns` maps each of its column names, in order,
    to a read-only array with one element per row, the rows ordered by
    order (column N), then time.  summary_columns is the table of
    rates_summary.csv.
    """

    constant: float
    nu: float
    weight: float
    s_level: float
    u_l4h1: float
    gronwall_log10: float
    columns: dict
    summaries: tuple
    beta: float
    beta_r2: float

    @property
    def summary_columns(self) -> dict:
        """{column name: column} of the summaries, one row per order: each
        ReportSummary field under its _key, then each report scalar of
        _SUMMARY_SCALARS."""
        table = {_key(f): [getattr(s, f.name) for s in self.summaries]
                 for f in fields(ReportSummary)}
        for name in _SUMMARY_SCALARS:
            table[name] = [getattr(self, name)] * len(self.summaries)
        return table

    def passed(self) -> bool:
        return all(s.passed for s in self.summaries
                   if s.passed is not None)


def _cumulative_trapezoid(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The running trapezoid integral of values over times, along the last
    axis."""
    out = np.zeros_like(values)
    if len(times) > 1:
        increments = 0.5 * (values[..., 1:] + values[..., :-1]) \
            * np.diff(times)
        out[..., 1:] = np.cumsum(increments, axis=-1)
    return out


def _log10_or_ninf(v: float) -> float:
    return math.log10(v) if v > 0.0 else -math.inf


def error_report(output: ExperimentOutput,
                 constant: float = 2.0) -> ErrorReport:
    """Assemble the full error ledger from one experiment's series.

    Per (order, t): the error-energy left-hand side eps_l2^2 + weight *
    eps_hs^2 + nu * grad_integral (trapezoid rule on the sample cadence),
    the residual-stress and defect series, and the snapshot-level bounds.
    Per order: the max of that energy against bound_main (log-space).
    constant is the configurable Sobolev product constant C, finite and
    > 0.  Every order must be sampled at the reference's times, since the
    snapshot bounds pair each sample with the reference's u_h1 there;
    ValueError otherwise.
    """
    _check_constant(constant)
    times = output.dns.times
    for run in output.runs:
        if not np.array_equal(run.times, times):
            raise ValueError(
                f"order N={run.N} is sampled at {len(run.times)} times that "
                f"differ from the reference's {len(times)}")
    cfg = output.config
    spec = cfg.spec
    nu = cfg.nu
    weight, s_level = energy_weight(spec)
    defect = _bounds(spec).defect

    u_h1 = output.dns.u_h1
    u_l4h1 = float(np.trapezoid(u_h1 ** 4, times)) ** 0.25 if len(times) > 1 \
        else float(u_h1[0])
    kappa = gronwall_log10(u_l4h1, nu)
    gron_log10 = _gronwall_exp_log10(u_l4h1, nu)

    runs = output.runs
    orders = np.array([run.N for run in runs])

    def stack(name):  # (order, t)
        return np.stack([getattr(run, name) for run in runs])

    eps_l2 = stack("eps_l2")
    eps_hs = stack("eps_hs")
    half_norm = stack("half_norm")
    grad_int = _cumulative_trapezoid(
        times, stack("eps_grad_l2") ** 2 + weight * stack("eps_grad_hs") ** 2)
    energy_lhs = eps_l2 ** 2 + weight * eps_hs ** 2 + nu * grad_int
    bound_fin = np.full(eps_l2.shape, math.nan) if defect is None \
        else defect(spec, u_h1, orders[:, None])
    bound_tau = math.sqrt(2.0 * constant) * u_h1 * half_norm
    columns = {
        "N": np.repeat(orders, len(times)), "t": stack("times"),
        "eps_l2": eps_l2, "eps_hs": eps_hs, "grad_integral": grad_int,
        "energy_lhs": energy_lhs, "tau_l2": stack("tau_l2"),
        "half_norm": half_norm, "bound_fin": bound_fin,
        "bound_tau": bound_tau,
    }
    for name, col in columns.items():
        columns[name] = col = col.ravel()
        col.flags.writeable = False  # the report is frozen, so are they

    summaries = []
    finals = []
    for run, lhs_row in zip(runs, energy_lhs):
        tau_sq_int = float(np.trapezoid(run.tau_l2 ** 2, run.times)) \
            if len(run.times) > 1 else 0.0
        bm = bound_main(u_l4h1, nu, constant, spec, run.N)
        bm = math.nan if bm is None else bm.log10
        lhs_max = float(np.max(lhs_row))
        passed = None if bm != bm else bool(_log10_or_ninf(lhs_max) <= bm)
        summaries.append(ReportSummary(
            order=run.N,
            eps_l2_final=float(run.eps_l2[-1]),
            energy_lhs_max=lhs_max,
            bound_main_log10=bm,
            rhs_log10=_log10_or_ninf(8.0 / nu * tau_sq_int) + gron_log10,
            rhs_alt_log10=_log10_or_ninf(4.0 / nu * tau_sq_int)
            + 27.0 * gron_log10,
            passed=passed,
        ))
        finals.append((run.N, float(run.eps_l2[-1])))

    beta = beta_r2 = math.nan
    if len(finals) >= 4 and all(e > 0.0 for _, e in finals):
        beta, beta_r2 = fit_rate(finals)

    return ErrorReport(
        constant=constant, nu=nu, weight=weight, s_level=s_level,
        u_l4h1=u_l4h1, gronwall_log10=kappa,
        columns=columns, summaries=tuple(summaries),
        beta=beta, beta_r2=beta_r2,
    )
