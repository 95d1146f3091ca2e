"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

For every workload, runs the benchmark at --size smoke with tracing off and
on, and checks that the last line carries exactly the end-to-end or
per-layer metrics BENCHMARK.json names, with their units, that every
end-to-end metric is printed with its unit, and that every
operation passed its check.  Then corrupts one reference value per
workload and checks that the corruption is caught (failed_ops > 0).
Prints the problems found and exits 1 if there are any.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

PRINTED = ("setup_s", "op_s", "op_s_tail", "steps_per_s", "peak_rss_mb",
           "failed_ops")
_METRIC_LINE = re.compile(r"^metric (\S+) = (\S+)(?: (\S+))?")


def run(workload: str, trace: int, reference=None, seconds: float = 1.0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--size", "smoke", "--seconds", str(seconds),
           "--trace", str(trace)]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines:
        m = _METRIC_LINE.match(line)
        if m:
            printed[m.group(1)] = (m.group(2), m.group(3))
    return json.loads(lines[-1]), printed


def _check_metrics(problems, label, result, printed, declared) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        problems.append(f"{label}: metrics {sorted(got.items())} != "
                        f"declared {sorted(want.items())}")
    for name, unit in want.items():
        if printed.get(name, (None, None))[1] != unit:
            problems.append(f"{label}: no printed line for {name} [{unit}]")


def corrupted_reference(path: Path) -> Path:
    """A copy of reference.json with one value per family perturbed by a
    relative 1e-6, far beyond the check's tolerance."""
    ref = wl.load_reference()
    smoke = ref["smoke"]
    smoke["tg"]["eps_l2"]["8"] *= 1.0 + 1e-6
    rs = smoke[wl.reference_key("rs", 0)]
    rs["dns_energy"] *= 1.0 + 1e-6
    path.write_text(json.dumps(ref))
    return path


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in wl.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{name} trace {trace}"
            result, printed = run(name, trace)
            _check_metrics(problems, label, result, printed, spec[key])
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            if trace == 0:
                missing = [m for m in PRINTED if m not in printed]
                if missing:
                    problems.append(f"{label}: not printed: {missing}")
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    bad = corrupted_reference(scratch / "corrupted-reference.json")
    for name in wl.WORKLOADS:
        result, printed = run(name, 0, reference=bad)
        if result["failed"] == 0 or result["correct"]:
            problems.append(f"{name}: corrupted reference not detected")
        if float(printed.get("failed_ops", ("0", ""))[0]) <= 0.0:
            problems.append(f"{name}: failed_ops not above 0 with a "
                            f"corrupted reference")
    bad.unlink()
    for p in problems:
        print(f"FAIL {p}")
    print("smoke ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
