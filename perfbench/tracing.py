"""Spans and counters recorded from outside the admles package.

The Tracer replaces public admles functions with wrappers that record a
span (name, start, end, parent, op id) per call, and counts the bytes the
operation writes through pathlib.  Spans stay in memory until dump().
Nothing inside admles is edited: every admles module attribute that refers
to a traced function (including `from .x import f` copies) is swapped for
the wrapper and restored by uninstall().
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import pathlib
import sys
import threading
import time

# Public functions traced, as "<module>.<function>" under admles.
TRACED = (
    "cli.main",
    "spectral.to_physical", "spectral.from_physical",
    "spectral.nonlinear_term", "spectral.leray_project",
    "spectral.sobolev_norm", "spectral.validate_field",
    "spectral.truncate_field", "spectral.taylor_green",
    "spectral.random_solenoidal", "spectral.divergence_ratio",
    "filters.filter_symbol", "filters.inverse_symbol",
    "filters.helmholtz_power_sandwich", "filters.gaussian_approx_error",
    "deconvolution.deconv_symbol", "deconvolution.apply_deconv",
    "deconvolution.check_properties",
    "kernels.ratio_power", "kernels.compl_power", "kernels.y_minus_log1p",
    "kernels.exp_limit_terms", "kernels.deconv_from_g",
    "solvers.run_experiment", "solvers.initial_field", "solvers.check_cfl",
    "solvers.write_outputs", "solvers.read_outputs", "solvers.config_hash",
    "diagnostics.error_report", "diagnostics.fit_rate",
    "diagnostics.bound_main", "diagnostics.residual_stress_norm",
    "diagnostics.half_norm_defect",
    "inequalities.sweep",
    "io.save_field", "io.load_field", "io.write_csv", "io.read_csv",
)

FFT_ENTRY_POINTS = ("fftn", "ifftn", "rfftn", "irfftn",
                    "fft2", "ifft2", "rfft2", "irfft2")


def _swap_everywhere(original, replacement, prefix: str = "admles"):
    """Point every module attribute under prefix that is `original` at
    `replacement`; returns the (module, attr, old) triples to undo it."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == prefix
                                  or mod_name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


class CallCounter:
    """Counts calls to numpy's n-dimensional FFT entry points while active.

    Thread-safe; used as a context manager.
    """

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()
        self._undo = []

    def _counting(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.calls += 1
            return fn(*args, **kwargs)
        return counted

    def __enter__(self):
        import numpy as np

        for name in FFT_ENTRY_POINTS:
            original = getattr(np.fft, name)
            setattr(np.fft, name, self._counting(original))
            self._undo.append((np.fft, name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        return False


class Tracer:
    """In-memory span recorder around the TRACED public functions."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, op_id)
        self.bytes_written = 0
        self.op_id = None
        self._ids = itertools.count(1)
        self._stacks = {}        # thread id -> open span ids
        self._main = threading.get_ident()
        self._lock = threading.Lock()
        self._undo = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span.  A span opened on a worker thread with nothing
        open there is parented to the innermost span open on the thread
        that installed the tracer (the call that started the worker)."""
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main) or [None]
            parent = main[-1]
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op_id))

    def _traced(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _count_writes(self, fn, text: bool):
        @functools.wraps(fn)
        def counted(path, data, *args, **kwargs):
            n = len(data.encode()) if text else len(data)
            with self._lock:
                self.bytes_written += n
            return fn(path, data, *args, **kwargs)
        return counted

    def install(self) -> None:
        for qual in TRACED:
            mod_name, attr = qual.split(".")
            module = importlib.import_module(f"admles.{mod_name}")
            original = getattr(module, attr)
            self._undo += _swap_everywhere(original,
                                           self._traced(qual, original))
        for attr, text in (("write_text", True), ("write_bytes", False)):
            original = getattr(pathlib.Path, attr)
            setattr(pathlib.Path, attr, self._count_writes(original, text))
            self._undo.append((pathlib.Path, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def self_seconds_by_module(self) -> dict:
        """{op id: {module: self seconds}} over the recorded spans.

        A span's self time is its duration minus the union of its
        children's intervals; the module is the name's first component
        ("op" for the benchmark's own root span).
        """
        children = {}
        for span in self.spans:
            children.setdefault(span[4], []).append(span)
        out = {}
        for sid, name, start, end, _, op in self.spans:
            covered = _union_length(
                [(max(s[2], start), min(s[3], end))
                 for s in children.get(sid, ())])
            per_op = out.setdefault(op, {})
            module = name.split(".")[0]
            per_op[module] = per_op.get(module, 0.0) + (end - start) - covered
        return out


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
