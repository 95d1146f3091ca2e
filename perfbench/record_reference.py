"""Record the reference values the correctness check compares against.

    python3 perfbench/record_reference.py

Runs every experiment the benchmark can ask for -- the Taylor-Green config
and each of the REFERENCE_SEEDS random-spectrum inputs, at both the full
and the smoke size -- and writes their final errors, final DNS energy,
initial L2 norm and fitted rate to perfbench/reference.json.  Re-record only
when a change to the program is meant to change these numbers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchenv  # noqa: E402

benchenv.prepare()

import workloads as wl  # noqa: E402
from admles import run_experiment  # noqa: E402


def main() -> None:
    ref = {}
    for size in wl.SIZES:
        table = {}
        for family, seeds in (("tg", [0]),
                              ("rs", range(wl.REFERENCE_SEEDS))):
            for seed in seeds:
                cfg = wl.sim_config(family, size, seed)
                out = run_experiment(cfg, threads=1, progress=False)
                table[wl.reference_key(family, seed)] = \
                    wl.summarize_output(out)
            print(f"recorded {size}/{family}", file=sys.stderr)
        ref[size] = table
    wl.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True)
                                 + "\n")


if __name__ == "__main__":
    main()
