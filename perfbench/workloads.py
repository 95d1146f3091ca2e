"""Workload definitions: the experiment configs, the timed operation and
the correctness check applied to every operation.

Three workloads share one physical setup (nu = 0.05, Helmholtz filter
alpha = 0.5, p = 1):

  tg16_acceptance  `admles simulate` on the acceptance experiment: 16^3
                   Taylor-Green, orders 0,1,2,4,8, dt = 0.005, T = 1,
                   a sample every step, two threads.
  rs32_stepping    `admles simulate` at 32^3 from a random solenoidal
                   spectrum, orders 0,4, a sample every fourth step, one
                   thread.
  postproc         `admles verify` followed by `admles rates` on a
                   tg16-shaped output directory written before timing.

Each size ("full" for the benchmark, "smoke" for the self-test) fixes the
lattice and horizon.  The random-spectrum input seed is the benchmark seed
modulo REFERENCE_SEEDS; reference.json records the outputs of every one of
those inputs, so every operation is checked against recorded values.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
REFERENCE_SEEDS = 64

NU = 0.05
ALPHA = 0.5
P = 1.0
RS_DECAY = 2.5

# Per-size experiment shapes.  "tg" is the Taylor-Green family (tg16 and
# the postproc input), "rs" the random-spectrum family.
SIZES = {
    "full": {
        "tg": dict(n=16, T=1.0, dt=0.005, N_list=(0, 1, 2, 4, 8),
                   sample_every=1),
        "rs": dict(n=32, T=0.08, dt=0.01, N_list=(0, 4), sample_every=4),
    },
    "smoke": {
        "tg": dict(n=8, T=0.05, dt=0.005, N_list=(0, 1, 2, 4, 8),
                   sample_every=1),
        "rs": dict(n=8, T=0.04, dt=0.01, N_list=(0, 4), sample_every=2),
    },
}

# Correctness thresholds.
REF_TOL = 1e-12          # times the reference field's L2 norm
DIV_RATIO_MAX = 1e-11
TG_ERROR_RATIO_MIN = 1.5  # eps(N=0) / eps(N=8) on the Taylor-Green family
BETA_TOL = 1e-9

_SIM_LINE = re.compile(
    r"^N=(\d+): final error (\S+), max divergence ratio (\S+)$")
_RATES_LINE = re.compile(r"^(ok|FAIL) N=(\d+): ")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str        # "simulate" or "postproc"
    family: str      # "tg" or "rs": which experiment config it runs on
    threads: int


WORKLOADS = {
    w.name: w for w in (
        Workload("tg16_acceptance", "simulate", "tg", 2),
        Workload("rs32_stepping", "simulate", "rs", 1),
        Workload("postproc", "postproc", "tg", 1),
    )
}


def input_seed(seed: int) -> int:
    """Seed of the random-spectrum input for a benchmark seed."""
    return seed % REFERENCE_SEEDS


def sim_config(family: str, size: str, seed: int):
    """The SimConfig a workload family runs at a size and benchmark seed."""
    from admles import (Helmholtz, RandomSpectrumInit, SimConfig,
                        TaylorGreenInit)

    shape = SIZES[size][family]
    if family == "tg":
        init = TaylorGreenInit()
    else:
        init = RandomSpectrumInit(decay=RS_DECAY, seed=input_seed(seed))
    return SimConfig(nu=NU, spec=Helmholtz(alpha=ALPHA, p=P), init=init,
                     **shape)


def reference_key(family: str, seed: int) -> str:
    return "tg" if family == "tg" else f"rs/{input_seed(seed)}"


def steps_per_op(cfg) -> int:
    """RK3 steps in one experiment: the reference run plus every order."""
    return int(round(cfg.T / cfg.dt)) * (1 + len(cfg.N_list))


def summarize_output(output) -> dict:
    """The values reference.json records for one experiment output."""
    from admles import error_report

    beta = float(error_report(output, constant=2.0).beta)
    return {
        "u_l2": float(output.dns.u_l2[0]),
        "dns_energy": float(output.dns.energy[-1]),
        "eps_l2": {str(r.N): float(r.eps_l2[-1]) for r in output.runs},
        # the rate fit needs four orders; null when there are fewer
        "beta": beta if math.isfinite(beta) else None,
    }


def load_reference(path=REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# the operation
# ---------------------------------------------------------------------------

def run_cli(args) -> tuple[int, str]:
    """Run one `admles` subcommand in this process; (exit code, stdout).

    Progress lines on stderr are captured and dropped.
    """
    import click

    from admles import cli

    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(list(args), standalone_mode=False)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except click.ClickException as e:
            print(f"error: {e.format_message()}")
            code = e.exit_code
    return code, out.getvalue()


def simulate_args(config_path, out_dir, threads: int) -> list:
    return ["simulate", "--config", str(config_path), "--out", str(out_dir),
            "--threads", str(threads)]


def postproc_commands(config_path, out_dir) -> list:
    return [["verify"],
            ["rates", "--config", str(config_path), "--out", str(out_dir)]]


# ---------------------------------------------------------------------------
# correctness checks: each returns a list of problems, empty when correct
# ---------------------------------------------------------------------------

def _csv_rows(path) -> list:
    lines = [line for line in Path(path).read_text().splitlines() if line]
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def _compare(problems, label, got, want, tol) -> None:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        problems.append(f"{label} = {got!r}, reference {want!r} "
                        f"(tolerance {tol:.3e})")


def _check_errors(problems, family, eps: dict, ref: dict) -> None:
    tol = REF_TOL * ref["u_l2"]
    if sorted(eps) != sorted(int(k) for k in ref["eps_l2"]):
        problems.append(f"orders {sorted(eps)} differ from the reference")
        return
    for N, value in eps.items():
        _compare(problems, f"eps_l2(N={N})", value, ref["eps_l2"][str(N)],
                 tol)
    if family == "tg":
        ratio = eps[0] / eps[8] if eps[8] > 0.0 else math.inf
        if not ratio >= TG_ERROR_RATIO_MIN:
            problems.append(f"error ratio eps(0)/eps(8) = {ratio:.3f} < "
                            f"{TG_ERROR_RATIO_MIN}")


def check_simulate(code: int, stdout: str, out_dir, family: str,
                   ref: dict) -> list:
    """Exit status, divergence, final errors and DNS energy against the
    reference, and the rates verdict of every order."""
    from admles import error_report, read_outputs

    problems = []
    if code != 0:
        return [f"simulate exited {code}: {stdout.strip()[-300:]}"]
    eps, div = {}, {}
    for line in stdout.splitlines():
        m = _SIM_LINE.match(line)
        if m:
            eps[int(m.group(1))] = float(m.group(2))
            div[int(m.group(1))] = float(m.group(3))
    _check_errors(problems, family, eps, ref)
    for N, ratio in div.items():
        if not ratio <= DIV_RATIO_MAX:
            problems.append(f"divergence ratio {ratio:.3e} at N={N}")
    energy = float(_csv_rows(Path(out_dir) / "dns.csv")[-1]["energy"])
    _compare(problems, "final DNS energy", energy, ref["dns_energy"],
             REF_TOL * ref["u_l2"])
    report = error_report(read_outputs(out_dir), constant=2.0)
    for s in report.summaries:
        if s.passed is not True:
            problems.append(f"rates verdict not ok at N={s.order}")
    return problems


def check_postproc(results, out_dir, ref: dict) -> list:
    """verify passes; rates reports ok for every order, and its summary
    reproduces the reference final errors and fitted rate."""
    (v_code, v_out), (r_code, r_out) = results
    problems = []
    if v_code != 0 or not v_out.rstrip().endswith("all checks passed"):
        problems.append(f"verify exited {v_code} without 'all checks "
                        f"passed': {v_out.strip()[-300:]}")
    if r_code != 0:
        problems.append(f"rates exited {r_code}: {r_out.strip()[-300:]}")
        return problems
    verdicts = {int(m.group(2)): m.group(1)
                for m in map(_RATES_LINE.match, r_out.splitlines()) if m}
    orders = sorted(int(k) for k in ref["eps_l2"])
    if sorted(verdicts) != orders or set(verdicts.values()) != {"ok"}:
        problems.append(f"rates verdicts {verdicts}, expected ok for "
                        f"{orders}")
    rows = _csv_rows(Path(out_dir) / "rates_summary.csv")
    eps = {int(r["N"]): float(r["eps_l2_final"]) for r in rows}
    _check_errors(problems, "tg", eps, ref)
    beta = float(rows[0]["beta"]) if rows else math.nan
    _compare(problems, "fitted beta", beta, ref["beta"], BETA_TOL)
    return problems
