"""Per-layer metrics: timings of the public functions of each admles module
on a workload's own lattice, filter, orders and outputs.

Each timing is the median of repeated calls, run until a small per-metric
budget is spent (at least MIN_REPS calls).  Ratios over whole experiments
(sampling share, thread speed-up) use the workload's config cut to a short
horizon and interleave their two variants.
"""

from __future__ import annotations

import dataclasses
import itertools
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

import workloads as wl
from tracing import CallCounter

MIN_REPS = 3
MAX_REPS = 25

# Steps in the short-horizon experiments, per size and family.
SHORT_STEPS = {"full": {"tg": 20, "rs": 4}, "smoke": {"tg": 2, "rs": 2}}
KERNEL_SIZE = {"full": 2_000_000, "smoke": 20_000}
INEQ_FAMILIES = ("highpass_power", "highpass_power_sq", "highpass_ratio",
                 "exp_limit")
KERNEL_CALLS = (
    ("ratio_power", lambda k, x, g: k.ratio_power(x, 16.0)),
    ("compl_power", lambda k, x, g: k.compl_power(x, 8.0, 4.0)),
    ("y_minus_log1p", lambda k, x, g: k.y_minus_log1p(x)),
    ("exp_limit_terms", lambda k, x, g: k.exp_limit_terms(x, 64.0)),
    ("deconv_from_g", lambda k, x, g: k.deconv_from_g(g, 8)),
)

# Every per-layer metric with its unit, in print order.
METRICS = (
    [(f"spectral.{f}_ms", "ms") for f in (
        "to_physical", "from_physical", "nonlinear_term", "leray_project",
        "sobolev_norm", "validate_field")]
    + [("spectral.fft_calls_per_step", "count"),
       ("solvers.dns_step_ms", "ms"), ("solvers.adm_step_ms", "ms"),
       ("solvers.alloc_mb_per_step", "MB"),
       ("diagnostics.residual_stress_norm_ms", "ms"),
       ("diagnostics.half_norm_defect_ms", "ms"),
       ("solvers.sampling_share", "ratio"),
       ("solvers.thread_speedup", "ratio"),
       ("filters.filter_symbol_ms", "ms"),
       ("deconvolution.deconv_symbol_ms", "ms"),
       ("deconvolution.apply_deconv_ms", "ms"),
       ("solvers.initial_field_ms", "ms"), ("cli.import_s", "s"),
       ("io.save_field_ms", "ms"), ("io.load_field_ms", "ms"),
       ("io.write_csv_ms", "ms"), ("io.read_csv_ms", "ms"),
       ("io.bytes_written", "B"),
       ("solvers.write_outputs_ms", "ms"), ("solvers.read_outputs_ms", "ms")]
    + [(f"inequalities.sweep.{f}_ms", "ms") for f in INEQ_FAMILIES]
    + [("inequalities.cases_per_s", "1/s")]
    + [(f"kernels.{name}_ms", "ms") for name, _ in KERNEL_CALLS]
    + [("diagnostics.error_report_ms", "ms"),
       ("diagnostics.calibrate_sobolev_constant_ms", "ms"),
       ("trace.overhead_ms", "ms")]
)
UNITS = dict(METRICS)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def median_ms(fn, budget_s: float) -> float:
    """Median wall time of fn() in ms over repeated calls."""
    times = []
    end = time.perf_counter() + budget_s
    while len(times) < MIN_REPS or (len(times) < MAX_REPS
                                    and time.perf_counter() < end):
        times.append(_timed(fn))
    return 1e3 * statistics.median(times)


def _paired(fa, fb, reps: int) -> tuple[float, float]:
    """Median times of two variants, run alternately."""
    ta, tb = [], []
    for _ in range(reps):
        ta.append(_timed(fa))
        tb.append(_timed(fb))
    return statistics.median(ta), statistics.median(tb)


def _load_output(out_dir):
    """An experiment directory read back whole: series plus final fields."""
    from admles import io as admio, read_outputs

    out = read_outputs(out_dir)
    snaps = Path(out_dir) / "snapshots"
    out.u_final = admio.load_field(snaps / "u_final.admf")
    out.ubar_final = admio.load_field(snaps / "ubar_final.admf")
    for run in out.runs:
        run.final_field = admio.load_field(snaps / f"w{run.N}_final.admf")
    return out


def collect(workload, cfg, size: str, out_dir, scratch, budget_s: float,
            extra: dict) -> dict:
    """{metric: value} for every name in METRICS; `extra` supplies the
    values measured elsewhere (cli.import_s, io.bytes_written,
    trace.overhead_ms)."""
    from admles import (DeconvOp, SolverState, SpectralField, WaveLattice,
                        adm_step, apply_deconv, calibrate_sobolev_constant,
                        deconv_symbol, dns_step, error_report, filter_symbol,
                        from_physical, half_norm_defect, kernels,
                        leray_project, nonlinear_term, read_outputs,
                        residual_stress_norm, run_experiment, sobolev_norm,
                        sweep, to_physical, validate_field, write_outputs)
    from admles import io as admio
    from admles.solvers import initial_field

    scratch = Path(scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    each = budget_s / 40.0
    lattice = WaveLattice(cfg.n, cfg.L)
    spec = cfg.spec
    orders = cfg.N_list
    top = max(orders)
    ksq = lattice.k_squared
    u = initial_field(cfg, lattice)
    phys = to_physical(u)
    g = np.asarray(filter_symbol(spec, ksq))
    ubar = SpectralField(lattice, g * u.coeffs, divergence_free=True)
    m = dict(extra)

    # spectral
    m["spectral.to_physical_ms"] = median_ms(lambda: to_physical(u), each)
    m["spectral.from_physical_ms"] = median_ms(
        lambda: from_physical(phys), each)
    m["spectral.nonlinear_term_ms"] = median_ms(
        lambda: nonlinear_term(u, u), each)
    m["spectral.leray_project_ms"] = median_ms(
        lambda: leray_project(u), each)
    m["spectral.sobolev_norm_ms"] = median_ms(
        lambda: sobolev_norm(u, 1.0), each)
    m["spectral.validate_field_ms"] = median_ms(
        lambda: validate_field(u, require_divergence_free=True), each)

    # solvers: single steps and their allocation
    state = SolverState(field=u)
    bar_state = SolverState(field=ubar)
    m["solvers.dns_step_ms"] = median_ms(lambda: dns_step(state, cfg), each)
    order_cycle = itertools.cycle(orders)
    m["solvers.adm_step_ms"] = median_ms(
        lambda: adm_step(bar_state, cfg, next(order_cycle)), each)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        adm_step(bar_state, cfg, top)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m["solvers.alloc_mb_per_step"] = (peak - base) / 1e6

    # whole-experiment ratios on a short horizon
    steps = SHORT_STEPS[size][workload.family]
    short = dataclasses.replace(cfg, T=steps * cfg.dt)
    threads = workload.threads
    with CallCounter() as fft:
        run_experiment(short, threads=threads, progress=False)
    m["spectral.fft_calls_per_step"] = fft.calls / wl.steps_per_op(short)
    every = dataclasses.replace(short, sample_every=1)
    ends = dataclasses.replace(short, sample_every=steps)
    t_every, t_ends = _paired(
        lambda: run_experiment(every, threads=threads, progress=False),
        lambda: run_experiment(ends, threads=threads, progress=False), 3)
    m["solvers.sampling_share"] = (t_every - t_ends) / t_every
    t_one, t_two = _paired(
        lambda: run_experiment(short, threads=1, progress=False),
        lambda: run_experiment(short, threads=2, progress=False), 3)
    m["solvers.thread_speedup"] = t_one / t_two

    # diagnostics on the input field
    m["diagnostics.residual_stress_norm_ms"] = median_ms(
        lambda: residual_stress_norm(u, spec, top), each)
    m["diagnostics.half_norm_defect_ms"] = median_ms(
        lambda: half_norm_defect(u, spec, top), each)

    # set-up path: symbols and the initial field
    op = DeconvOp(spec, top)
    m["filters.filter_symbol_ms"] = median_ms(
        lambda: filter_symbol(spec, ksq), each)
    m["deconvolution.deconv_symbol_ms"] = median_ms(
        lambda: deconv_symbol(op, ksq), each)
    m["deconvolution.apply_deconv_ms"] = median_ms(
        lambda: apply_deconv(op, u), each)
    m["solvers.initial_field_ms"] = median_ms(
        lambda: initial_field(cfg, lattice), each)

    # io and the experiment directory
    snap = scratch / "field.admf"
    admio.save_field(u, snap)
    m["io.save_field_ms"] = median_ms(lambda: admio.save_field(u, snap), each)
    m["io.load_field_ms"] = median_ms(lambda: admio.load_field(snap), each)
    series = Path(out_dir) / "series.csv"
    header, rows = admio.read_csv(series)
    rows = [[int(r[0])] + [float(v) for v in r[1:]] for r in rows]
    m["io.write_csv_ms"] = median_ms(
        lambda: admio.write_csv(scratch / "series.csv", "0" * 64, header,
                                rows), each)
    m["io.read_csv_ms"] = median_ms(lambda: admio.read_csv(series), each)
    output = _load_output(out_dir)
    m["solvers.write_outputs_ms"] = median_ms(
        lambda: write_outputs(output, scratch / "out"), each)
    m["solvers.read_outputs_ms"] = median_ms(
        lambda: read_outputs(out_dir), each)

    # inequality sweeps and kernels
    cases = 0
    seconds = 0.0
    for family in INEQ_FAMILIES:
        cases += sweep(family).n_cases
        ms = median_ms(lambda: sweep(family), each)
        m[f"inequalities.sweep.{family}_ms"] = ms
        seconds += ms / 1e3
    m["inequalities.cases_per_s"] = cases / seconds
    rng = np.random.default_rng(0)
    x = 10.0 ** rng.uniform(-6.0, 6.0, KERNEL_SIZE[size])
    gx = 1.0 / (1.0 + x)
    for name, call in KERNEL_CALLS:
        m[f"kernels.{name}_ms"] = median_ms(
            lambda call=call: call(kernels, x, gx), each)

    # reports
    stored = read_outputs(out_dir)
    m["diagnostics.error_report_ms"] = median_ms(
        lambda: error_report(stored, constant=2.0), each)
    m["diagnostics.calibrate_sobolev_constant_ms"] = median_ms(
        lambda: calibrate_sobolev_constant(spec, n=cfg.n, orders=orders),
        each)
    return m
