"""The names the benchmark in perfbench/ reaches into admles for.

perfbench traces the public functions listed in perfbench/tracing.py's
TRACED, its set-up probe imports solvers.check_cfl and
solvers.initial_field, and benchenv.py reads kernels.HAS_NUMBA.  Some of
these have no caller inside admles, so only this test ties them to the
package: removing or renaming one fails here, not only in the benchmark's
own suite.  tracing.py is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_names() -> tuple:
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("qualname", [
    *_traced_names(),
    "solvers.check_cfl", "solvers.initial_field", "kernels.HAS_NUMBA",
])
def test_benchmark_hook_resolves(qualname):
    mod_name, attr = qualname.split(".")
    module = importlib.import_module(f"admles.{mod_name}")
    assert hasattr(module, attr), f"admles.{qualname} is gone"
