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


@contextlib.contextmanager
def _writing(path):
    """An OSError inside becomes a click error (exit 1) naming its file
    (io.write_atomic names its target) or, failing that, path."""
    try:
        yield
    except OSError as e:
        raise click.ClickException(
            f"cannot write {e.filename or path}: {e.strerror or e}")


def _emit_csv(csv_path, token: str, header, rows) -> None:
    """Print or write the CSV of rows, as _emit does."""
    _emit(csv_path, admio.csv_text(token, header, rows))


def _emit(csv_path, text: str) -> None:
    """Print CSV text, or write it to csv_path; a failed write is an error
    (exit 1) that names csv_path."""
    if csv_path is None:
        click.echo(text, nl=False)
        return
    with _writing(csv_path):
        admio.write_atomic(csv_path, text)


@click.group()
@click.version_option(package_name="admles")
def main() -> None:
    """Spectral verification harness for deconvolution-based closures."""


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _fail(label: str, detail: str) -> None:
    click.echo(f"FAIL {label}: {detail}")
    sys.exit(1)


def _verify_sweeps(names, dense, rows) -> None:
    for name in names:
        result = sweep(name, dense=dense)
        rows.append(["inequality", name, result.n_cases,
                     result.min_margin, result.passed])
        if not result.passed:
            c = result.failures[0]
            _fail(f"inequality {name}",
                  f"params={c.params} lhs={c.lhs!r} rhs={c.rhs!r} "
                  f"margin={c.margin!r}")
        click.echo(f"ok inequality {name}: cases={result.n_cases} "
                   f"min_margin={result.min_margin:.3e}")


def _verify_deconvolution(rows, reports) -> None:
    k2_grid = np.logspace(-2.0, 14.0, 33)
    n_rows = 0
    for p in (0.75, 1.0, 2.0, 4.0):
        for alpha in (0.1, 1.0):
            for report in property_reports(Helmholtz(alpha=alpha, p=p),
                                           (0, 1, 2, 4, 8, 16, 32), k2_grid):
                reports.append(report)
                n_rows += report.n_rows
                if not report.passed:
                    c = report.failures()[0]
                    _fail("deconvolution properties",
                          f"alpha={alpha} p={p} order={report.op.order} "
                          f"property={c.name} k2={c.k2!r} lhs={c.lhs!r} "
                          f"rhs={c.rhs!r}")
    rows.append(["deconvolution", "symbol_properties", n_rows, math.nan,
                 True])
    click.echo(f"ok deconvolution symbol_properties: cases={n_rows}")


def _gaussian_approx_rows(alpha: float, m_max: int, k2) -> list:
    """[m, sup_error, bound, passed] for m = 1..m_max: the sup-mode distance
    of the power approximants to the Gaussian symbol against 2/m.

    The indices go in as one column per block of _M_BLOCK, so an
    evaluation holds at most _M_BLOCK rows of len(k2) modes.
    """
    rows = []
    for start in range(1, m_max + 1, _M_BLOCK):
        ms = np.arange(start, min(start + _M_BLOCK, m_max + 1))
        err = np.max(gaussian_approx_error(alpha, ms[:, None], k2), axis=1)
        bound = 2.0 / ms
        rows += map(list, zip(ms.tolist(), err.tolist(), bound.tolist(),
                              (err <= bound).tolist()))
    return rows


def _verify_filters(rows) -> None:
    k2 = np.unique(WaveLattice(16).k_squared)
    n_rows = 0
    for mu in (0.5, 1.0):
        for m in range(1, 9):
            lo, mid, hi = helmholtz_power_sandwich(mu, m, k2)
            slack = _SANDWICH_SLACK * np.maximum(1.0, hi)
            bad = (mid < lo - slack) | (mid > hi + slack)
            n_rows += len(k2)
            if np.any(bad):
                i = int(np.flatnonzero(bad)[0])
                _fail("filter sandwich",
                      f"mu={mu} m={m} k2={k2[i]!r} lo={lo[i]!r} "
                      f"mid={mid[i]!r} hi={hi[i]!r}")
    rows.append(["filters", "power_sandwich", n_rows, math.nan, True])
    click.echo(f"ok filters power_sandwich: cases={n_rows}")

    k2 = np.unique(WaveLattice(32).k_squared)
    n_rows = 0
    for alpha in (0.5, 1.0, 2.0):
        for m, err, bound, ok in _gaussian_approx_rows(alpha, 32, k2):
            n_rows += 1
            if not ok:
                _fail("filter gaussian_approx",
                      f"alpha={alpha} m={m} sup_error={err!r} "
                      f"bound={bound!r}")
    rows.append(["filters", "gaussian_approx", n_rows, math.nan, True])
    click.echo(f"ok filters gaussian_approx: cases={n_rows}")


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
    rows: list = []
    reports: list = []
    token = admio.sha256_token({"command": "verify", "ineq": ineq,
                                "dense": dense})
    try:
        _verify_sweeps(NAMES if ineq == "all" else (ineq,), dense, rows)
        if ineq == "all":
            _verify_deconvolution(rows, reports)
            _verify_filters(rows)
    finally:
        if csv_path is not None:
            _emit_csv(csv_path, token,
                      ["family", "check", "n_cases", "min_margin", "passed"],
                      rows)
            if reports:
                path = Path(csv_path)
                _emit_csv(path.with_name(path.stem + "_properties.csv"),
                          token,
                          ["property", "k2", "lhs", "rhs", "pass"],
                          [[c.name, c.k2, c.lhs, c.rhs, c.passed]
                           for report in reports for c in report.rows])
    click.echo("all checks passed")


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
    if not (math.isfinite(kmax) and kmax > 0) or points < 2:
        raise click.UsageError(
            "--kmax must be finite and > 0 and --points >= 2")
    k2 = np.concatenate(
        ([0.0], np.logspace(-2.0, math.log10(kmax ** 2), points)))
    g = np.asarray(filter_symbol(spec, k2))
    try:
        a_col = np.asarray(inverse_symbol(spec, k2))
    except NonInvertibleFilterError:
        a_col = [""] * len(k2)
    d_cols = [np.asarray(deconv_symbol(DeconvOp(spec, N), k2))
              for N in orders]
    header = ["k2", "G_hat", "A_hat"] + [f"D{N}_hat" for N in orders]
    token = admio.sha256_token({
        "command": "symbols", "filter": filter_name, "alpha": alpha, "p": p,
        "mu": mu, "m": m, "N": orders, "kmax": kmax, "points": points,
    })
    _emit(csv_path,
          admio.csv_columns_text(token, header, [k2, g, a_col, *d_cols]))


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
        click.echo(f"N={run.N}: final error {float(run.eps_l2[-1])!r}, "
                   f"max divergence ratio {run.div_ratio_max:.3e}")
    click.echo(f"wrote {paths['config']}, {paths['dns']}, {paths['series']} "
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
    for name, table in (("rates_detail.csv", report.columns),
                        ("rates_summary.csv", report.summary_columns)):
        _emit(out_dir / name,
              admio.csv_columns_text(token, table, table.values()))
    for s in report.summaries:
        verdict = ("n/a" if s.passed is None
                   else "ok" if s.passed else "FAIL")
        click.echo(
            f"{verdict} N={s.order}: energy_lhs_max={s.energy_lhs_max:.6e} "
            f"bound_main_log10={s.bound_main_log10:.6g}")
    if not math.isnan(report.beta):
        click.echo(f"fitted rate beta={report.beta:.4f} "
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
    rows = _gaussian_approx_rows(alpha, m_max, k2)
    token = admio.sha256_token({"command": "gaussian-approx",
                                "alpha": alpha, "m_max": m_max, "n": n})
    _emit_csv(csv_path, token, ["m", "sup_error", "bound", "passed"], rows)
    bad = [row for row in rows if not row[3]]
    if bad:
        m, err, bound, _ = bad[0]
        _fail("gaussian-approx",
              f"alpha={alpha} m={m} sup_error={err!r} bound={bound!r}")


if __name__ == "__main__":
    main()
