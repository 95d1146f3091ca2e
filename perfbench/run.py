"""admles benchmark: end-to-end timings per workload, per-layer timings in
a traced run, and a correctness check of every operation.

    python3 perfbench/run.py --workload tg16_acceptance --seed 0 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # each in its own process
    python3 perfbench/run.py --workload postproc --trace 1

Run from the root of a checkout; admles is imported from its src/ tree.
Each workload is a closed loop with one client: the next operation starts
when the previous one ends, until --seconds have passed.  Operations are
timed with tracing off (--trace 0).  With --trace 1 the loop alternates
traced and untraced operations (their difference is the tracing overhead),
then times the public functions of every admles module on the workload's
own inputs.

Lines before the last describe the run for a reader; the last line is one
JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
Working files go to .bench_out/ under the checkout; spans of a traced run
are kept there as spans-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchenv  # noqa: E402
import workloads as wl  # noqa: E402

OUT_ROOT = benchenv.ROOT / ".bench_out"
# Set-up probes per run.  They are spread over the measuring window, between
# operations, because the machine's speed drifts on a scale of seconds.
PROBES = {"full": 6, "smoke": 2}
# Share of --seconds spent on the operation loop of a traced run; the rest
# goes to the per-layer timings.
TRACED_LOOP_SHARE = 0.4
WARMUP_STEPS = 10
PROBE_TIMEOUT_S = 60
PREP_TIMEOUT_S = 120


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(wl.SIZES), default="full",
                        help="'smoke' runs tiny experiments for self-tests")
    parser.add_argument("--reference", type=Path, default=wl.REFERENCE_PATH,
                        help="reference values the outputs must match")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(samples) -> tuple[float, str]:
    """The highest percentile with at least 10 samples beyond it, or the
    max when fewer than 11 samples exist; returns (value, label)."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], f"max of n={n}"
    return xs[n - 11], f"p{100.0 * (n - 10) / n:.1f} of n={n}"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def probe_setup(config_path) -> tuple[float, float]:
    """Time one fresh interpreter from spawn to the end of set-up (import
    admles.cli, load the config, initial field, CFL check); returns
    (set-up seconds, import seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), str(config_path)],
        stdout=subprocess.PIPE, env=benchenv.child_env(), text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe exited {code}")
    return elapsed, json.loads(line)["import_s"]


def write_postproc_input(config_path, out_dir) -> None:
    """Write the tg16-shaped experiment directory postproc reads, in a
    child process so its memory does not count toward this one."""
    proc = subprocess.run(
        [sys.executable, "-m", "admles.cli",
         *wl.simulate_args(config_path, out_dir, 2)],
        env=benchenv.child_env(), capture_output=True, text=True,
        timeout=PREP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"writing the postproc input failed: "
                           f"{proc.stdout}{proc.stderr}")


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Bench:
    """One workload at one size and seed, with its working directory."""

    def __init__(self, workload, size: str, seed: int, reference: dict,
                 work: Path):
        self.workload = workload
        self.cfg = wl.sim_config(workload.family, size, seed)
        self.ref = reference[size][wl.reference_key(workload.family, seed)]
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(self.cfg.to_json() + "\n")
        self.out_dir = work / "out"
        self.problems = []      # (op index, message)

    def prepare_input(self) -> None:
        if self.workload.kind == "postproc":
            write_postproc_input(self.config_path, self.out_dir)

    def warm_up(self) -> None:
        """One untimed operation; simulate workloads use a short horizon."""
        if self.workload.kind == "postproc":
            self.operation()
            return
        steps = min(WARMUP_STEPS, wl.steps_per_op(self.cfg))
        short = dataclasses.replace(self.cfg, T=steps * self.cfg.dt)
        path = self.work / "warmup.json"
        path.write_text(short.to_json() + "\n")
        wl.run_cli(wl.simulate_args(path, self.work / "warmup",
                                    self.workload.threads))

    def operation(self):
        """The timed work; returns what check() needs."""
        if self.workload.kind == "postproc":
            return [wl.run_cli(args) for args in
                    wl.postproc_commands(self.config_path, self.out_dir)]
        return wl.run_cli(wl.simulate_args(self.config_path, self.out_dir,
                                           self.workload.threads))

    def check(self, result) -> list:
        if self.workload.kind == "postproc":
            return wl.check_postproc(result, self.out_dir, self.ref)
        code, stdout = result
        return wl.check_simulate(code, stdout, self.out_dir,
                                 self.workload.family, self.ref)

    def clear_outputs(self) -> None:
        """Remove what the previous operation wrote, so that the check
        never reads a stale file."""
        if self.workload.kind == "postproc":
            for name in ("rates_detail.csv", "rates_summary.csv"):
                (self.out_dir / name).unlink(missing_ok=True)
        else:
            shutil.rmtree(self.out_dir, ignore_errors=True)

    def timed_op(self, index: int) -> float:
        """Run, time and check one operation; returns seconds, or nan when
        the operation raised or its outputs are wrong."""
        try:
            self.clear_outputs()
            t0 = time.perf_counter()
            result = self.operation()
            elapsed = time.perf_counter() - t0
            problems = self.check(result)
        except Exception:  # an operation that raises counts as failed
            problems = [traceback.format_exc()]
        for p in problems:
            self.problems.append((index, p))
        return math.nan if problems else elapsed


def run_loop(bench: Bench, seconds: float, probes: int,
             tracer=None) -> dict:
    """Closed loop until `seconds` pass, with `probes` set-up probes spread
    between the operations.  With a tracer, operations alternate traced
    and untraced, starting traced."""
    times = {"untraced": [], "traced": [], "setup": [], "import": []}

    def probe():
        setup_s, import_s = probe_setup(bench.config_path)
        times["setup"].append(setup_s)
        times["import"].append(import_s)

    least = 1 if tracer is None else 2
    start = time.perf_counter()
    index = 0
    while index < least or time.perf_counter() - start < seconds:
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.op_id = index
            tracer.install()
            try:
                with tracer.span("op"):
                    t = bench.timed_op(index)
            finally:
                tracer.uninstall()
        else:
            t = bench.timed_op(index)
        times["traced" if traced else "untraced"].append(t)
        index += 1
        due = probes * min(1.0, (time.perf_counter() - start) / seconds)
        while len(times["setup"]) < max(1, int(due)):
            probe()
    while len(times["setup"]) < probes:
        probe()
    return times


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def report_line(name, value, unit, note="") -> None:
    note = f"  ({note})" if note else ""
    print(f"metric {name} = {value:.6g} {unit}{note}")


def end_to_end(bench: Bench, ok_times, attempted, failed, setup) -> dict:
    """Print the six end-to-end metrics; return those BENCHMARK.json
    lists (failed_ops is carried by attempted/failed, steps_per_s is
    op_s rescaled)."""
    steps = (wl.steps_per_op(bench.cfg)
             if bench.workload.kind == "simulate" else 0)
    op_s = statistics.median(ok_times) if ok_times else math.nan
    op_tail, tail_label = tail(ok_times) if ok_times else (math.nan, "n=0")
    rss = peak_rss_mb()
    setup_s = statistics.median(setup)
    report_line("setup_s", setup_s, "s", f"median of {len(setup)} set-ups")
    report_line("op_s", op_s, "s", f"median of n={len(ok_times)}")
    report_line("op_s_tail", op_tail, "s", tail_label)
    if steps:
        report_line("steps_per_s", steps / op_s, "1/s",
                    f"{steps} RK3 steps per operation")
    else:
        print("metric steps_per_s = n/a  (no time stepping)")
    report_line("peak_rss_mb", rss, "MB")
    report_line("failed_ops", failed / attempted, "ratio",
                f"{failed} of {attempted}")
    return {"setup_s": (setup_s, "s"), "op_s": (op_s, "s"),
            "op_s_tail": (op_tail, "s"), "peak_rss_mb": (rss, "MB")}


def print_span_breakdown(tracer) -> None:
    per_op = tracer.self_seconds_by_module()
    modules = sorted({mod for op in per_op.values() for mod in op})
    print("trace self time per traced operation (median over "
          f"{len(per_op)} ops):")
    for mod in modules:
        med = statistics.median(op.get(mod, 0.0) for op in per_op.values())
        print(f"  {mod:<14} {1e3 * med:12.3f} ms")


def run_workload(args) -> int:
    try:
        benchenv.prepare()
    except benchenv.MissingSourceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import layers
    from tracing import Tracer

    workload = wl.WORKLOADS[args.workload]
    reference = wl.load_reference(args.reference)
    work = OUT_ROOT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, args.size, args.seed, reference, work)
        bench.prepare_input()
        bench.warm_up()
        tracer = Tracer() if args.trace else None
        loop_s = args.seconds * (TRACED_LOOP_SHARE if args.trace else 1.0)
        times = run_loop(bench, loop_s, PROBES[args.size], tracer)

        all_times = times["untraced"] + times["traced"]
        attempted = len(all_times)
        failed = sum(1 for t in all_times if math.isnan(t))
        ok = [t for t in times["untraced"] if not math.isnan(t)]
        print(f"workload {workload.name}  seed {args.seed}  size "
              f"{args.size}  trace {args.trace}  threads "
              f"{workload.threads}")
        for index, problem in bench.problems[:10]:
            print(f"check failed, op {index}: {problem}")
        metrics = end_to_end(bench, ok, attempted, failed, times["setup"])
        if args.trace:
            traced_ok = [t for t in times["traced"] if not math.isnan(t)]
            overhead_ms = 1e3 * (statistics.median(traced_ok)
                                 - statistics.median(ok)) \
                if traced_ok and ok else math.nan
            print_span_breakdown(tracer)
            tracer.dump(OUT_ROOT /
                        f"spans-{workload.name}-seed{args.seed}.jsonl")
            n_traced = max(1, len(times["traced"]))
            extra = {"cli.import_s": statistics.median(times["import"]),
                     "io.bytes_written": tracer.bytes_written / n_traced,
                     "trace.overhead_ms": overhead_ms}
            values = layers.collect(
                workload, bench.cfg, args.size, bench.out_dir,
                work / "layers", args.seconds * (1 - TRACED_LOOP_SHARE),
                extra)
            notes = {"trace.overhead_ms":
                     f"traced op_s minus untraced op_s, {len(traced_ok)} "
                     f"vs {len(ok)} ops"}
            metrics = {}
            for name, unit in layers.METRICS:
                report_line(name, values[name], unit, notes.get(name, ""))
                metrics[name] = (values[name], unit)
        print("env " + json.dumps(benchenv.record(args.seed, args.size)))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process; a combined summary line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--reference", str(args.reference)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
