"""Set-up probe: one fresh interpreter doing a workload's set-up.

    python3 perfbench/probe.py <config.json>

Imports admles.cli, loads the config, builds the initial field and checks
the CFL condition, then prints {"import_s": ...} and exits.  The parent
times it from spawn to that line.  Expects admles on PYTHONPATH.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import admles.cli  # noqa: E402,F401

_IMPORT_S = time.perf_counter() - _T0

from admles import SimConfig, WaveLattice  # noqa: E402
from admles.solvers import check_cfl, initial_field  # noqa: E402


def main() -> None:
    cfg = SimConfig.from_json(Path(sys.argv[1]).read_text())
    lattice = WaveLattice(cfg.n, cfg.L)
    check_cfl(cfg, initial_field(cfg, lattice))
    print(json.dumps({"import_s": _IMPORT_S}), flush=True)


if __name__ == "__main__":
    main()
