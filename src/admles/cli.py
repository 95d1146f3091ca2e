"""Command-line harness.

Subcommands:

  verify          inequality sweeps, deconvolution symbol properties,
                  filter sandwich and approximation checks
  symbols         CSV table of filter / inverse / deconvolution symbols
  simulate        run one experiment from a JSON config
  rates           error-bound report and rate fits over experiment outputs
  gaussian-approx sup-norm distance of the power family to the Gaussian

Exit codes: 0 all checks pass, 1 a check failed (first offending tuple is
printed), 2 usage errors.  Every CSV starts with `# config=<sha256>` of the
parameters that produced it.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
from dataclasses import fields
from pathlib import Path

import click
import numpy as np

from . import io as admio
from .deconvolution import DeconvOp, deconv_symbol, property_reports
from .filters import (
    Helmholtz,
    NonInvertibleFilterError,
    filter_symbol,
    gaussian_approx_error,
    helmholtz_power_sandwich,
    inverse_symbol,
)
from .inequalities import NAMES, sweep
from .solvers import (
    BlowUpError,
    CflError,
    SimConfig,
    config_hash,
    read_outputs,
    run_experiment,
    write_outputs,
    _FILTER_KINDS,
    _from_dict,
)
from .spectral import WaveLattice

_SANDWICH_SLACK = 1e-13
# Approximant indices per gaussian_approx_error call.
_M_BLOCK = 64


def _echo(text: str, nl: bool = True) -> None:
    """click.echo to the current sys.stdout.  Naming the stream keeps click
    from caching it: click's cache of its default stream holds each
    redirected sys.stdout (an io.StringIO, say) alive for good."""
    click.echo(text, file=sys.stdout, nl=nl)


@contextlib.contextmanager
def _writing(path):
    """An OSError inside becomes a click error (exit 1) naming its file
    (io.write_atomic names its target) or, failing that, path."""
    try:
        yield
    except OSError as e:
        raise click.ClickException(
            f"cannot write {e.filename or path}: {e.strerror or e}")


def _emit(csv_path, text: str) -> None:
    """Print CSV text, or write it to csv_path; a failed write is an error
    (exit 1) that names csv_path."""
    if csv_path is None:
        _echo(text, nl=False)
        return
    with _writing(csv_path):
        admio.write_atomic(csv_path, text)


def _emit_table(csv_path, token: str, table: dict) -> None:
    """_emit the CSV of a {CSV name: column} table."""
    _emit(csv_path, admio.csv_columns_text(token, table, table.values()))


def _first_failure(table: dict, passed: str):
    """The first row of a table whose `passed` column is False, as
    {CSV name: Python value}, or None when every row passed."""
    bad = np.flatnonzero(np.logical_not(table[passed]))
    if not bad.size:
        return None
    return {name: col.item(bad[0]) for name, col in table.items()}


@click.group()
@click.version_option(package_name="admles")
def main() -> None:
    """Spectral verification harness for deconvolution-based closures."""


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _fail(label: str, detail: str) -> None:
    _echo(f"FAIL {label}: {detail}")
    sys.exit(1)


# The columns of the verify summary, one row per check.
_SUMMARY = ("family", "check", "n_cases", "min_margin", "passed")


def _summarize(summary: dict, family: str, check: str, n_cases: int,
               min_margin: float = math.nan, failure=None) -> None:
    """Append a check's row to the summary table, then print its `ok` line
    or, for a failure (label, detail), its FAIL line and exit 1."""
    row = (family, check, n_cases, min_margin, failure is None)
    for col, value in zip(summary.values(), row):
        col.append(value)
    if failure is not None:
        _fail(*failure)
    margin = "" if math.isnan(min_margin) else f" min_margin={min_margin:.3e}"
    _echo(f"ok {family} {check}: cases={n_cases}{margin}")


def _verify_sweeps(names, dense, summary) -> None:
    for name in names:
        result = sweep(name, dense=dense)
        failure = None
        if not result.passed:
            c = result.failures[0]
            failure = (f"inequality {name}",
                       f"params={c.params} lhs={c.lhs!r} rhs={c.rhs!r} "
                       f"margin={c.margin!r}")
        _summarize(summary, "inequality", name, result.n_cases,
                   result.min_margin, failure)


def _verify_deconvolution(summary, reports) -> None:
    k2_grid = np.logspace(-2.0, 14.0, 33)
    n_cases = 0
    for p, alpha in itertools.product((0.75, 1.0, 2.0, 4.0), (0.1, 1.0)):
        for report in property_reports(Helmholtz(alpha=alpha, p=p),
                                       (0, 1, 2, 4, 8, 16, 32), k2_grid):
            reports.append(report)
            n_cases += len(report.columns["pass"])
            c = _first_failure(report.columns, "pass")
            if c is not None:
                _summarize(summary, "deconvolution", "symbol_properties",
                           n_cases, failure=(
                               "deconvolution properties",
                               f"alpha={alpha} p={p} order={report.op.order} "
                               f"property={c['property']} k2={c['k2']!r} "
                               f"lhs={c['lhs']!r} rhs={c['rhs']!r}"))
    _summarize(summary, "deconvolution", "symbol_properties", n_cases)


def _gaussian_approx_table(alpha: float, m_max: int, k2) -> dict:
    """The columns m, sup_error, bound and passed for m = 1..m_max: the
    sup-mode distance of the power approximants to the Gaussian symbol
    against 2/m.

    The indices go in as one column per block of _M_BLOCK, so an
    evaluation holds at most _M_BLOCK rows of len(k2) modes.
    """
    m = np.arange(1, m_max + 1)
    err = np.concatenate([
        np.max(gaussian_approx_error(alpha, m[i:i + _M_BLOCK, None], k2),
               axis=1)
        for i in range(0, m_max, _M_BLOCK)])
    bound = 2.0 / m
    return {"m": m, "sup_error": err, "bound": bound,
            "passed": err <= bound}


def _gaussian_approx_failure(alpha: float, table: dict):
    """The FAIL detail of a gaussian-approx table's first failing row, or
    None."""
    c = _first_failure(table, "passed")
    return None if c is None else (
        f"alpha={alpha} m={c['m']} sup_error={c['sup_error']!r} "
        f"bound={c['bound']!r}")


def _verify_filters(summary) -> None:
    k2 = np.unique(WaveLattice(16).k_squared)
    n_cases = 0
    for mu, m in itertools.product((0.5, 1.0), range(1, 9)):
        lo, mid, hi = helmholtz_power_sandwich(mu, m, k2)
        slack = _SANDWICH_SLACK * np.maximum(1.0, hi)
        bad = (mid < lo - slack) | (mid > hi + slack)
        n_cases += len(k2)
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            k2_i, lo_i, mid_i, hi_i = (a[i].item() for a in (k2, lo, mid, hi))
            _summarize(summary, "filters", "power_sandwich", n_cases,
                       failure=("filter sandwich",
                                f"mu={mu} m={m} k2={k2_i!r} lo={lo_i!r} "
                                f"mid={mid_i!r} hi={hi_i!r}"))
    _summarize(summary, "filters", "power_sandwich", n_cases)

    k2 = np.unique(WaveLattice(32).k_squared)
    n_cases = 0
    for alpha in (0.5, 1.0, 2.0):
        table = _gaussian_approx_table(alpha, 32, k2)
        n_cases += len(table["m"])
        detail = _gaussian_approx_failure(alpha, table)
        if detail is not None:
            _summarize(summary, "filters", "gaussian_approx", n_cases,
                       failure=("filter gaussian_approx", detail))
    _summarize(summary, "filters", "gaussian_approx", n_cases)


@main.command()
@click.option("--ineq", default="all", show_default=True,
              help=f"one of {', '.join(NAMES)}, or 'all'.")
@click.option("--dense", is_flag=True, help="10x denser x grid.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False),
              default=None,
              help="write a per-check summary CSV; with --ineq all, the "
                   "per-mode deconvolution property rows land next to it "
                   "as <stem>_properties.csv.")
def verify(ineq: str, dense: bool, csv_path) -> None:
    """Run the numerical checks; exit 1 on the first failure."""
    if ineq != "all" and ineq not in NAMES:
        raise click.UsageError(
            f"--ineq must be 'all' or one of {', '.join(NAMES)}")
    summary = {name: [] for name in _SUMMARY}
    reports: list = []
    token = admio.sha256_token({"command": "verify", "ineq": ineq,
                                "dense": dense})
    try:
        _verify_sweeps(NAMES if ineq == "all" else (ineq,), dense, summary)
        if ineq == "all":
            _verify_deconvolution(summary, reports)
            _verify_filters(summary)
    finally:
        if csv_path is not None:
            _emit_table(csv_path, token, summary)
            if reports:
                path = Path(csv_path)
                _emit_table(path.with_name(path.stem + "_properties.csv"),
                            token,
                            {name: np.concatenate([r.columns[name]
                                                   for r in reports])
                             for name in reports[0].columns})
    _echo("all checks passed")


# ---------------------------------------------------------------------------
# symbols
# ---------------------------------------------------------------------------

def _parse_orders(text: str) -> list:
    try:
        orders = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise click.UsageError(f"--N must be a comma-separated integer "
                               f"list, got {text!r}")
    if not orders or any(N < 0 for N in orders):
        raise click.UsageError(f"--N entries must be >= 0, got {text!r}")
    if len(set(orders)) < len(orders):  # one column per order
        raise click.UsageError(f"--N entries must be distinct, got {text!r}")
    return orders


@main.command()
@click.option("--filter", "filter_name", default="helmholtz",
              show_default=True,
              type=click.Choice([kind.replace("_", "-")
                                 for kind in _FILTER_KINDS]))
@click.option("--alpha", default=1.0, show_default=True)
@click.option("--p", default=1.0, show_default=True)
@click.option("--mu", default=1.0, show_default=True)
@click.option("--m", default=4, show_default=True)
@click.option("--N", "orders_text", default="0,1,2,4", show_default=True,
              help="comma-separated deconvolution orders.")
@click.option("--kmax", default=64.0, show_default=True,
              help="largest wavenumber magnitude tabulated.")
@click.option("--points", default=128, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False),
              default=None, help="write here instead of stdout.")
def symbols(filter_name, alpha, p, mu, m, orders_text, kmax, points,
            csv_path) -> None:
    """Tabulate filter, inverse, and deconvolution symbols over k^2."""
    cls = _FILTER_KINDS[filter_name.replace("-", "_")]
    given = {"alpha": alpha, "p": p, "mu": mu, "m": m}
    try:
        spec = _from_dict(cls, "filter",
                          {f.name: given[f.name] for f in fields(cls)})
    except ValueError as e:
        raise click.UsageError(str(e))
    orders = _parse_orders(orders_text)
    try:
        k2_max = kmax ** 2
    except OverflowError:  # a square beyond the float range
        k2_max = math.inf
    if not (kmax > 0 and 0.0 < k2_max < math.inf) or points < 2:
        raise click.UsageError(
            "--kmax must be > 0 with a finite, nonzero square and "
            "--points >= 2")
    k2 = np.concatenate(
        ([0.0], np.logspace(-2.0, math.log10(k2_max), points)))
    table = {"k2": k2, "G_hat": np.asarray(filter_symbol(spec, k2))}
    try:
        table["A_hat"] = np.asarray(inverse_symbol(spec, k2))
    except NonInvertibleFilterError:
        table["A_hat"] = [""] * len(k2)
    for N in orders:
        table[f"D{N}_hat"] = np.asarray(deconv_symbol(DeconvOp(spec, N), k2))
    token = admio.sha256_token({
        "command": "symbols", "filter": filter_name, "alpha": alpha, "p": p,
        "mu": mu, "m": m, "N": orders, "kmax": kmax, "points": points,
    })
    _emit_table(csv_path, token, table)


# ---------------------------------------------------------------------------
# simulate / rates
# ---------------------------------------------------------------------------

def _load_config(config_path) -> SimConfig:
    try:
        return SimConfig.from_json(Path(config_path).read_text())
    except (ValueError, KeyError, TypeError) as e:
        raise click.ClickException(f"bad config {config_path}: {e}")


def _resolve_out(cfg: SimConfig, out) -> Path:
    """--out, else the config's output_dir, created with its parents before
    any stepping (a path that cannot be a directory is an exit 1)."""
    if out is None and cfg.output_dir is None:
        raise click.UsageError(
            "no output directory: pass --out or set output_dir in the config")
    out_dir = Path(cfg.output_dir if out is None else out)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _run(cfg: SimConfig, out_dir: Path, threads: int = 1) -> tuple:
    """run_experiment, then write_outputs into out_dir: (output, paths).
    Its refusals, an unreadable snapshot or forcing file (the OSError names
    its path) and a failed write are click errors (exit 1)."""
    try:
        output = run_experiment(cfg, threads=threads)
    except (CflError, BlowUpError, ValueError, OSError) as e:
        raise click.ClickException(str(e))
    with _writing(out_dir):
        return output, write_outputs(output, out_dir)


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(file_okay=False), default=None)
@click.option("--threads", type=click.IntRange(min=1), default=1,
              help="step the model orders in up to this many processes, "
                   "capped by the number of orders and of CPUs; the "
                   "outputs are the same bytes for any value.")
def simulate(config_path, out, threads) -> None:
    """Run the reference and model systems described by a JSON config."""
    cfg = _load_config(config_path)
    out_dir = _resolve_out(cfg, out)
    output, paths = _run(cfg, out_dir, threads)
    for run in output.runs:
        _echo(f"N={run.N}: final error {float(run.eps_l2[-1])!r}, "
              f"max divergence ratio {run.div_ratio_max:.3e}")
    _echo(f"wrote {paths['config']}, {paths['dns']}, {paths['series']} "
          f"and {len(output.runs) + 2} snapshots")


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(file_okay=False), default=None)
@click.option("--constant", default=2.0, show_default=True,
              help="Sobolev product constant C in the error bounds.")
def rates(config_path, out, constant) -> None:
    """Error-bound ledger and convergence-rate fits for one experiment.

    Reuses the experiment outputs in the directory when present, running
    the simulation first otherwise.  Emits rates_detail.csv (per order and
    time) and rates_summary.csv (per order, with the fitted rate).
    """
    from .diagnostics import error_report

    cfg = _load_config(config_path)
    out_dir = _resolve_out(cfg, out)
    if (out_dir / "series.csv").exists():
        try:
            output = read_outputs(out_dir)
        except (ValueError, FileNotFoundError) as e:
            raise click.ClickException(str(e))
        if config_hash(output.config) != config_hash(cfg):
            raise click.ClickException(
                f"{out_dir} holds outputs for a different config")
    else:
        output, _ = _run(cfg, out_dir)
    try:
        report = error_report(output, constant=constant)
    except ValueError as e:
        raise click.ClickException(str(e))

    token = config_hash(cfg)
    _emit_table(out_dir / "rates_detail.csv", token, report.columns)
    _emit_table(out_dir / "rates_summary.csv", token, report.summary_columns)
    for s in report.summaries:
        verdict = ("n/a" if s.passed is None
                   else "ok" if s.passed else "FAIL")
        _echo(
            f"{verdict} N={s.order}: energy_lhs_max={s.energy_lhs_max:.6e} "
            f"bound_main_log10={s.bound_main_log10:.6g}")
    if not math.isnan(report.beta):
        _echo(f"fitted rate beta={report.beta:.4f} "
              f"(r2={report.beta_r2:.4f})")
    failed = [s for s in report.summaries if s.passed is False]
    if failed:
        s = failed[0]
        _fail("rates bound",
              f"N={s.order} energy_lhs_max={s.energy_lhs_max!r} exceeds "
              f"bound_main_log10={s.bound_main_log10!r}")


# ---------------------------------------------------------------------------
# gaussian-approx
# ---------------------------------------------------------------------------

@main.command(name="gaussian-approx")
@click.option("--alpha", default=1.0, show_default=True)
@click.option("--m-max", default=64, show_default=True)
@click.option("--n", default=32, show_default=True,
              help="lattice resolution supplying the mode set.")
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False),
              default=None, help="write here instead of stdout.")
def gaussian_approx(alpha, m_max, n, csv_path) -> None:
    """Sup-mode distance between the Gaussian symbol and its power-law
    approximations, against the 2/m guarantee."""
    if not (math.isfinite(alpha) and alpha > 0) or m_max < 1:
        raise click.UsageError(
            "--alpha must be finite and > 0 and --m-max >= 1")
    try:
        k2 = np.unique(WaveLattice(n).k_squared)
    except ValueError as e:
        raise click.UsageError(str(e))
    table = _gaussian_approx_table(alpha, m_max, k2)
    token = admio.sha256_token({"command": "gaussian-approx",
                                "alpha": alpha, "m_max": m_max, "n": n})
    _emit_table(csv_path, token, table)
    detail = _gaussian_approx_failure(alpha, table)
    if detail is not None:
        _fail("gaussian-approx", detail)


if __name__ == "__main__":
    main()
