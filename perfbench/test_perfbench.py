"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import smoke  # noqa: E402
from tracing import _union_length  # noqa: E402


def test_tail_is_max_below_eleven_samples():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of n=3")


def test_tail_leaves_ten_samples_beyond():
    samples = list(range(100))
    value, label = run.tail(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert label == "p90.0 of n=100"


def test_union_length_merges_overlaps():
    assert _union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert _union_length([]) == 0.0


def test_smoke():
    assert smoke.main() == 0
