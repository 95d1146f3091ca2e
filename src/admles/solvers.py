"""Time integration of the spectral Navier-Stokes reference and its
approximate-deconvolution counterpart on one shared lattice.

Both systems advance with the same scheme: an exact integrating factor
E_s = exp(-nu |k|^2 s) for diffusion wrapped around a three-stage
strong-stability-preserving Runge-Kutta update of the projected transport
term.  With F the projected nonlinear+forcing operator and E1 = E_dt,
Eh = E_{dt/2}:

    q1 = E1 (c + dt F(c))
    q2 = (3/4) Eh c + (1/4) Eh^(-1) (q1 + dt F(q1))
    c' = (1/3) E1 c + (2/3) Eh (q2 + dt F(q2))

The reference system uses F(c) = P[-div(c (x) c) + f].  The model system
uses F(c) = P[-G div(Dc (x) Dc) + G f]: deconvolution before the product,
filter after -- one code path parameterized by the two symbols, so identity
symbols reduce the model step to the reference step exactly.  Pressure never
appears; the Leray projection P plays its role.  The stepper evaluates both
with the trace-free stress in place of the product, S(v)_ij = v_i v_j -
delta_ij v_3 v_3 with v = c or Dc (Basdevant 1983): div S(v) = div(v (x) v)
- grad(v_3^2), P annihilates the gradient and commutes with G, so
P[-G div S(v)] = P[-G div(v (x) v)].  S(v) has 5 nonzero distinct
components against 6 for v (x) v, so each stage transforms 5 products.

Every state lives on the 2/3-rule keep set (spectral._kept), an array
(3, M+1, 2M+1, 2M+1) with axes (m3, m1, m2), M = n//3: it is zero outside
the keep set from the truncated initial field on, because the products
are dealiased and every other operator is per-mode.  The stepper
therefore stores, combines, projects and filters only the keep-set modes,
about 15% of the full layout, and goes to the grid and back through the
keep-set transform pair spectral._kinverse / _kforward: products with the
DFT matrices restricted to the keep set, three passes of one BLAS product
per component, (2M+1) n multiply-adds per line, which agree with the
full-layout pair to within 1e-13 of the largest value.  Every sampled
norm is one keep-set mode sum (spectral._mode_sq, _mode_sum).  A step
makes no numpy.fft call, and neither
does a sample: the per-sample diagnostics, residual stress included, go
to the grid through the same pair.

run_experiment advances the reference and every model order in lockstep:
each step moves the reference and then each order.  Every symbol and
per-sample weight is evaluated once, on the lattice's keep set
(WaveLattice.keep: the geometry and DFT matrices, built once per lattice
and read-only), and the steppers of a process share one
spectral._Workspace, the transform buffers (numpy >= 2.0 writes matmul
results into them through `out=`).  The residual-stress norm of each
sample (spectral._tau_norms) runs in the same workspace, after the steps.  At a
sample step each order is compared with the live reference state, so no
reference sample is stored.  A sample works one order at a time in the
workspace's scratch views, so it allocates nothing larger than one state
and keeps no buffer of its own.  With threads = W > 1 the orders
are split over up to W processes: forked children step contiguous blocks
of them with the same loop and hand their states back through one pipe
each (1 MiB where the platform allows, so a child runs a few samples
ahead), read into one array per child allocated with the children, while
the calling process steps the reference and the first order and records
every sample.  Each process then runs numpy's BLAS on one thread, so the
processes use no more threads than there are CPUs; a serial run keeps
the caller's BLAS setting.  Each order's arithmetic is the same in any
process, so the outputs do not depend on W.

A run is described by a SimConfig, whose filter, initial condition and
forcing are kinds: frozen dataclasses named in a config by their entry in
a {kind: class} table.  Every input dataclass checks its fields where it
is built, with one checker (spectral._check_fields) that reads each
field's annotation and metadata, so a config built in Python and one read
from JSON are checked alike and refuse a bad value with the same
message.  The JSON form is one mapper pair, _to_dict / _from_dict, that
reads the same fields and metadata.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import json
import os
import pickle
import signal
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import io as admio
from . import kernels
from .deconvolution import _check_order, _defect_weight
from .filters import (
    FilterSpec,
    Gaussian,
    GaussianApprox,
    Helmholtz,
    HelmholtzPower,
    energy_weight,
    filter_symbol,
)
from .spectral import (
    SpectralField,
    WaveLattice,
    leray_project,
    random_solenoidal,
    taylor_green,
    to_physical,
    truncate_field,
    validate_field,
    _SYM_WEIGHTS,
    _TF_ROWS,
    _check_fields,
    _contract,
    _div_ratio,
    _full,
    _kept,
    _kinverse,
    _leray,
    _mode_sq,
    _mode_sum,
    _sobolev_weight,
    _tau_norms,
    _tracefree_products,
    _weight_row,
    _Workspace,
)

__all__ = [
    "TaylorGreenInit",
    "RandomSpectrumInit",
    "SnapshotInit",
    "SnapshotForcing",
    "SimConfig",
    "SolverState",
    "RunSeries",
    "DnsSeries",
    "ExperimentOutput",
    "BlowUpError",
    "CflError",
    "dns_step",
    "adm_step",
    "run_experiment",
    "write_outputs",
    "read_outputs",
    "initial_field",
    "energy_weight",
    "config_hash",
]


class BlowUpError(RuntimeError):
    """The integration produced a non-finite coefficient."""

    def __init__(self, step_index: int, t: float):
        super().__init__(
            f"solution blew up at step {step_index} (t = {t:.6g})"
        )
        self.step_index = step_index
        self.t = t

    def __reduce__(self):
        return BlowUpError, (self.step_index, self.t)


class CflError(ValueError):
    """The configured step size violates the advective CFL condition."""


def _as_object(label: str, value) -> dict:
    """A dict value; any other raises ValueError naming label and the
    type."""
    if not isinstance(value, dict):
        raise ValueError(f"{label} must be a JSON object, got "
                         f"{type(value).__name__}")
    return value


@dataclass(frozen=True)
class TaylorGreenInit:
    amplitude: float = 1.0

    __post_init__ = _check_fields


@dataclass(frozen=True)
class RandomSpectrumInit:
    decay: float
    seed: int

    __post_init__ = _check_fields


@dataclass(frozen=True)
class SnapshotInit:
    path: str

    __post_init__ = _check_fields


@dataclass(frozen=True)
class SnapshotForcing:
    path: str

    __post_init__ = _check_fields


InitSpec = Union[TaylorGreenInit, RandomSpectrumInit, SnapshotInit]

_FILTER_KINDS = {
    "helmholtz": Helmholtz,
    "gaussian": Gaussian,
    "gaussian_approx": GaussianApprox,
    "helmholtz_power": HelmholtzPower,
}
_INIT_KINDS = {
    "taylor_green": TaylorGreenInit,
    "random_spectrum": RandomSpectrumInit,
    "snapshot": SnapshotInit,
}
_FORCING_KINDS = {"snapshot": SnapshotForcing}


@dataclass(frozen=True)
class SimConfig:
    """Full description of one experiment; JSON-serializable.  Every field
    is checked here, however the config is built: each against its type
    and declared domain by _check_fields (n and L by the lattice), and
    here only what spans fields or entries, dt <= T and N_list
    nonempty, non-negative and distinct."""

    n: int
    nu: float = field(metadata={"above": 0})
    spec: FilterSpec = field(
        metadata={"key": "filter", "kinds": (_FILTER_KINDS, "filter")})
    T: float = field(metadata={"above": 0})
    dt: float = field(metadata={"above": 0})
    N_list: tuple = (0,)
    L: float = 2.0 * np.pi
    init: InitSpec = field(
        default=TaylorGreenInit(),
        metadata={"kinds": (_INIT_KINDS, "initial condition")})
    forcing: Optional[SnapshotForcing] = field(
        default=None, metadata={"kinds": (_FORCING_KINDS, "forcing")})
    output_dir: Optional[str] = None
    sample_every: int = field(default=1, metadata={"min": 1})

    def __post_init__(self):
        _check_fields(self)
        if self.dt > self.T:
            raise ValueError(
                f"step size must satisfy dt <= T, got dt={self.dt} T={self.T}")
        if any(N < 0 for N in self.N_list) or not self.N_list:
            raise ValueError(f"N_list must be nonempty, all >= 0: {self.N_list}")
        if len(set(self.N_list)) != len(self.N_list):
            raise ValueError(f"N_list has duplicate orders: {self.N_list}")
        WaveLattice(self.n, self.L)  # validates n and L

    # -- JSON round trip ----------------------------------------------------

    def to_dict(self) -> dict:
        return _to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        return _from_dict(cls, "config", data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimConfig":
        return cls.from_dict(json.loads(text))


def _key(f) -> str:
    """The JSON or CSV key of a field: its metadata "key", else its
    name."""
    return f.metadata.get("key", f.name)


def _to_dict(obj) -> dict:
    """The JSON object of a config dataclass: each field under its key, a
    tuple as a list and a kind as {"kind": <name in its table>, <field>:
    <value>, ...}."""
    data = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "kinds" in f.metadata and value is not None:
            kinds = f.metadata["kinds"][0]
            kind = next(k for k, c in kinds.items() if isinstance(value, c))
            value = {"kind": kind, **_to_dict(value)}
        elif isinstance(value, tuple):
            value = list(value)
        data[_key(f)] = value
    return data


def _from_dict(cls, label: str, data):
    """Inverse of _to_dict: cls built from the JSON object data, which
    heads each error about it as label.  A field with a default may be
    omitted; a simple value goes to cls as it is, which checks it, and a
    kind is read through its table (metadata "kinds").  A non-object, an
    unknown key, a missing required key and a missing or unknown kind
    raise ValueError naming it."""
    keys = {_key(f): f for f in fields(cls)}
    unknown = set(_as_object(label, data)) - set(keys)
    if unknown:
        raise ValueError(f"unknown {label} keys: {sorted(unknown)}")
    values = {}
    for key, f in keys.items():
        if key not in data:
            if f.default is MISSING:
                raise ValueError(f"{label} is missing required key '{key}'")
        elif "kinds" not in f.metadata or (
                data[key] is None and f.type.startswith("Optional[")):
            values[f.name] = data[key]
        else:
            values[f.name] = _kind_from_dict(*f.metadata["kinds"], key,
                                             data[key])
    return cls(**values)


def _kind_from_dict(kinds: dict, noun: str, key: str, data):
    """The kind the JSON object data names by its "kind" key, read from
    the table kinds with _from_dict."""
    if "kind" not in _as_object(f"config key '{key}'", data):
        raise ValueError(f"{noun} is missing required key 'kind'")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {noun} kind: {kind!r}")
    return _from_dict(kinds[kind], f"{noun} {kind!r}",
                      {k: v for k, v in data.items() if k != "kind"})


def config_hash(cfg: SimConfig) -> str:
    """sha256 of the canonical JSON form; stamped into every CSV."""
    return admio.sha256_token(cfg.to_dict())


@dataclass
class SolverState:
    field: SpectralField
    t: float = 0.0
    step_index: int = 0


def initial_field(cfg: SimConfig, lattice: WaveLattice) -> SpectralField:
    """Build, truncate and project the initial velocity."""
    source = None
    if isinstance(cfg.init, TaylorGreenInit):
        f = taylor_green(lattice, amplitude=cfg.init.amplitude)
    elif isinstance(cfg.init, RandomSpectrumInit):
        f = random_solenoidal(lattice, cfg.init.decay, cfg.init.seed)
    elif isinstance(cfg.init, SnapshotInit):
        f, source = _load_snapshot(cfg.init.path, lattice, "init")
    else:
        raise TypeError(f"not an initial condition: {cfg.init!r}")
    f = leray_project(truncate_field(f))
    validate_field(f, require_divergence_free=True, source=source)
    return f


def _load_snapshot(path: str, lattice: WaveLattice, kind: str) -> tuple:
    """The field saved at path, refused unless it lives on lattice, and
    its name "<kind> snapshot <path>", which heads every error about it."""
    source = f"{kind} snapshot {path}"
    f = admio.load_field(path)
    if f.lattice != lattice:
        raise ValueError(
            f"{source}: lattice {f.lattice} does not match config lattice "
            f"{lattice}"
        )
    return f, source


def check_cfl(cfg: SimConfig, u0: SpectralField) -> None:
    """Enforce dt <= 0.5 dx / max|u0| against the collocation samples of
    the (Hermitian) field u0."""
    _courant(cfg, to_physical(u0).samples, speed="u0")


def _courant(cfg: SimConfig, grid: np.ndarray, where: str = "",
             speed: str = "u", out: Optional[np.ndarray] = None) -> float:
    """Courant number dt max|u| / dx of collocation samples (3, n, n, n).

    The squares are formed in `out`, a float buffer of the shape of grid,
    or in a new array when it is None.  Raises CflError when dt exceeds
    the limit 0.5 dx / max|u|; the message starts with `where` and names
    the field `speed`.  A zero field has no limit.
    """
    sq = np.square(grid, out=out)
    sq[0] += sq[1]
    sq[0] += sq[2]
    peak = float(np.sqrt(np.max(sq[0])))
    dx = cfg.L / cfg.n
    if peak > 0.0 and cfg.dt > 0.5 * dx / peak:
        raise CflError(
            f"{where}dt = {cfg.dt:.6g} exceeds the CFL limit "
            f"0.5 dx / max|{speed}| = {0.5 * dx / peak:.6g}"
        )
    return cfg.dt * peak / dx


class _Stepper:
    """Shared integrating-factor SSP-RK3 stepper over raw keep-set
    coefficients of shape (3, M+1, 2M+1, 2M+1), M = n//3 (spectral._kept).

    pre/post are per-mode symbols on the keep set of `ws` (or None for
    identity); forcing is keep-set coefficients already multiplied by post
    and projected.  The geometry comes from the lattice's keep set,
    ws.keep, and the transforms of rhs run in the buffers of `ws`, which
    steppers advanced one after another share.
    """

    def __init__(self, ws: _Workspace, nu: float, dt: float,
                 pre=None, post=None, forcing=None):
        self.ws = ws
        self.dt = dt
        ksq = ws.keep.ksq
        self.E1 = np.exp(-nu * ksq * dt)
        self.Eh = np.exp(-nu * ksq * (0.5 * dt))
        self.Ehi = np.exp(nu * ksq * (0.5 * dt))
        self.pre = pre
        self.forcing = forcing
        # -i post: the divergence's factor i, the sign of the transport
        # term and the filter, applied after the projection they commute
        # with.
        self._scale = -1j if post is None else -1j * post

    def rhs(self, c: np.ndarray) -> np.ndarray:
        ws = self.ws
        keep = ws.keep
        q = c if self.pre is None else self.pre * c
        grid = _kinverse(q, ws)
        products = _tracefree_products(grid, ws)
        out = _leray(_contract(products, keep.k, _TF_ROWS), keep.k, keep.kov)
        out *= self._scale
        if self.forcing is not None:
            out += self.forcing
        return out

    def advance(self, c: np.ndarray) -> np.ndarray:
        dt = self.dt
        q1 = self.E1 * (c + dt * self.rhs(c))
        q2 = 0.75 * self.Eh * c + 0.25 * self.Ehi * (q1 + dt * self.rhs(q1))
        return (self.E1 * c + 2.0 * self.Eh * (q2 + dt * self.rhs(q2))) / 3.0


def _build_steppers(cfg: SimConfig, lattice: WaveLattice,
                    orders) -> tuple[list, np.ndarray, list]:
    """One stepper of cfg per entry of `orders`, all sharing one workspace:
    the reference for None, the model of order N for N (deconvolution
    symbol D_N before the product, filter symbol G after it).

    Returns the steppers, G and the D_N (None for the reference), the
    symbols evaluated on the lattice's keep set (WaveLattice.keep): G once,
    and each D_N formed from it.  The forcing snapshot is loaded once and
    gathered onto the keep set.
    """
    ws = _Workspace(lattice)
    keep = lattice.keep
    g = np.asarray(filter_symbol(cfg.spec, keep.ksq))
    pres = [None if N is None else kernels.deconv_from_g(g, N)
            for N in orders]
    dns_forcing = model_forcing = None
    if cfg.forcing is not None:
        f, source = _load_snapshot(cfg.forcing.path, lattice, "forcing")
        # The keep-set stepper stores only the m3 >= 0 modes and would
        # silently drop a non-Hermitian part; divergence is not required,
        # the projection removes it.
        validate_field(f, require_divergence_free=False, source=source)
        f = _kept(f.coeffs * lattice.dealias_mask, lattice.n)
        # Project once (P G f for the models); the projection commutes with
        # the per-mode symbols.
        model_forcing = _leray(f * g, keep.k, keep.kov)
        dns_forcing = _leray(f, keep.k, keep.kov)
    steppers = [
        _Stepper(ws, cfg.nu, cfg.dt, forcing=dns_forcing)
        if d is None else
        _Stepper(ws, cfg.nu, cfg.dt, pre=d, post=g, forcing=model_forcing)
        for d in pres]
    return steppers, g, pres


def _step(stepper: _Stepper, c: np.ndarray, step_index: int,
          t: float) -> np.ndarray:
    """Advance keep-set coefficients to step `step_index` at time t."""
    c = stepper.advance(c)
    if not np.all(np.isfinite(c)):
        raise BlowUpError(step_index, t)
    return c


def _lockstep(steppers: list, states: list, n_steps: int, dt: float,
              on_step) -> list:
    """Advance states[j] with steppers[j], all by one step at a time, for
    n_steps steps of dt, calling on_step(step, t, states) after each step;
    returns the final states."""
    t = 0.0
    for step in range(1, n_steps + 1):
        t += dt
        states = [_step(s, c, step, t) for s, c in zip(steppers, states)]
        on_step(step, t, states)
    return states


def _advance_state(state: SolverState, stepper: _Stepper,
                   dt: float) -> SolverState:
    n = stepper.ws.n
    c = _step(stepper, _kept(state.field.coeffs, n), state.step_index + 1,
              state.t + dt)
    return SolverState(
        field=SpectralField(state.field.lattice, _full(c, n),
                            divergence_free=True),
        t=state.t + dt,
        step_index=state.step_index + 1,
    )


def dns_step(state: SolverState, cfg: SimConfig) -> SolverState:
    """One reference Navier-Stokes step.

    The state is first projected onto the 2/3-rule keep set, the Galerkin
    contract that initial_field enforces: modes outside it are dropped,
    so an untruncated field steps exactly like truncate_field of it.
    """
    (stepper,), _, _ = _build_steppers(cfg, state.field.lattice, (None,))
    return _advance_state(state, stepper, cfg.dt)


def adm_step(state: SolverState, cfg: SimConfig, N: int) -> SolverState:
    """One approximate-deconvolution model step of order N.

    N = 0 is the simplified closure with the deconvolution equal to the
    identity: the filtered product of the unmodified state.  Like dns_step,
    it projects the state onto the 2/3-rule keep set first.  N must be an
    integer >= 0 (ValueError).
    """
    _check_order(N)
    (stepper,), _, _ = _build_steppers(cfg, state.field.lattice, (N,))
    return _advance_state(state, stepper, cfg.dt)


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

@dataclass
class DnsSeries:
    """The reference's sampled series.  Its fields are the columns of
    dns.csv, in order, each under its _key."""

    times: np.ndarray = field(metadata={"key": "t"})
    u_l2: np.ndarray
    u_h1: np.ndarray
    energy: np.ndarray


@dataclass
class RunSeries:
    """Per-order time series sampled on the shared cadence.

    eps_* compare the filtered reference against the model state; *_hs uses
    the filter's natural higher-order level s (energy_weight).  half_norm is
    the interpolation-level deconvolution defect of the unfiltered
    reference (half_norm_defect), for every filter family.  N and the
    array fields are the columns of series.csv, in order, each under its
    _key.
    """

    N: int
    times: np.ndarray = field(metadata={"key": "t"})
    eps_l2: np.ndarray
    eps_hs: np.ndarray
    eps_grad_l2: np.ndarray
    eps_grad_hs: np.ndarray
    tau_l2: np.ndarray
    half_norm: np.ndarray
    w_l2: np.ndarray
    div_ratio_max: float
    final_field: Optional[SpectralField] = None


@dataclass
class ExperimentOutput:
    """courant_max is the peak of dt max|u| / dx of the reference over the
    samples (nan when read back from disk)."""

    config: SimConfig
    lattice: WaveLattice
    dns: DnsSeries
    runs: list
    u_final: Optional[SpectralField] = None
    ubar_final: Optional[SpectralField] = None
    courant_max: float = float("nan")


def _steps_of(cfg: SimConfig) -> int:
    ratio = cfg.T / cfg.dt
    n_steps = int(round(ratio))
    if n_steps < 1 or abs(ratio - n_steps) > 1e-9 * max(1.0, ratio):
        raise ValueError(
            f"T = {cfg.T} is not an integer number of steps of dt = {cfg.dt}"
        )
    return n_steps


def _sample_steps(n_steps: int, every: int) -> list:
    steps = list(range(0, n_steps + 1, every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return steps


def _progress(tag: str, step: int, t: float, e: float) -> None:
    print(f"[{tag}] step={step} t={t:.6g} E={e:.6g}", file=sys.stderr)


_DNS = tuple(map(_key, fields(DnsSeries)))
# The sampled fields of RunSeries, its arrays: the times, then the series
# of _SERIES.  series.csv holds N and these, each under its _key.
_SAMPLED = tuple(f for f in fields(RunSeries) if f.type == "np.ndarray")
_SERIES = tuple(f.name for f in _SAMPLED[1:])

# A child runs ahead of the caller's reads by as many exchange steps as its
# pipe holds, so it does not stall while the caller records a sample.  The
# 64 KiB default holds no 16^3 exchange of 4 orders (4 x 34,848 B); 1 MiB
# holds several.  Status bytes: a step done, a step that failed (followed
# by the pickled exception).
_PIPE_BYTES = 1 << 20
_OK, _FAILED = b"+", b"!"


def _cpus() -> int:
    """CPUs this process may run on; 1 where fork is unavailable."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _order_blocks(threads: int, k: int, cpus: int) -> list:
    """Contiguous blocks of the order indices 0..k-1, one per process of
    W = min(threads, k, cpus).  The first is the caller's: every order when
    W = 1, else order 0 alone beside the reference; the other k - 1 orders
    split into W - 1 blocks whose sizes differ by at most one."""
    w = max(1, min(threads, k, cpus))
    if w == 1:
        return [range(k)]
    size, extra = divmod(k - 1, w - 1)
    blocks, lo = [range(1)], 1
    for i in range(w - 1):
        hi = lo + size + (i < extra)
        blocks.append(range(lo, hi))
        lo = hi
    return blocks


@functools.cache
def _blas_pool() -> Optional[tuple]:
    """(get, set) of the thread count of numpy's bundled OpenBLAS,
    scipy_openblas_get/set_num_threads64_ reached through ctypes; None
    where numpy links another BLAS and the symbols are missing.  Looked up
    once per process: each ctypes.CDLL builds its own function classes."""
    from numpy._core import _multiarray_umath

    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's BLAS on one thread (_blas_pool), and
    restore the caller's count on exit, on success and on error; where
    the count cannot be reached, change nothing.  Children forked inside
    the block inherit the count."""
    pool = _blas_pool()
    if pool is None:
        yield
        return
    get, put = pool
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _worker(steppers: list, states: list, n_steps: int, dt: float,
            exchange: frozenset, pipe) -> None:
    """A forked child's work: _lockstep over its block of orders, writing
    to `pipe` one status byte per step and, at each exchange step, the raw
    bytes of its states after it, one order after another.  The pipe's
    capacity bounds how far the child runs ahead; once the caller is gone,
    the next write raises BrokenPipeError."""

    def publish(step: int, t: float, stepped: list) -> None:
        pipe.write(_OK)
        if step in exchange:
            for c in stepped:  # contiguous, as every step's result is
                pipe.write(c)
        pipe.flush()

    try:
        _lockstep(steppers, states, n_steps, dt, publish)
    except Exception as e:
        message = pickle.dumps(e)
        pickle.loads(message)  # one the caller cannot rebuild is not sent
        pipe.write(_FAILED + message)
        pipe.flush()


class _Workers:
    """Forked children that step blocks of orders in lockstep with the
    calling process (_worker), the read end of each child's one pipe and
    one array per child, (orders, 3, M+1, 2M+1, 2M+1), allocated here,
    that each exchange is read into (receive).

    Where the platform allows, each pipe holds _PIPE_BYTES.  Children write
    nothing to stdout or stderr (both go to the null device) and leave
    through os._exit; close() kills and reaps them.
    """

    def __init__(self, steppers: list, states: list, blocks: list,
                 n_steps: int, dt: float, exchange: frozenset):
        self.pids, self.pipes, self.inboxes = [], [], []
        try:
            for block in blocks:
                self._fork([steppers[j] for j in block],
                           [states[j] for j in block], n_steps, dt, exchange)
        except BaseException:
            self.close()
            raise

    def _fork(self, steppers, states, n_steps, dt, exchange) -> None:
        import fcntl  # wherever os.fork is; admles imports without it
        r, w = os.pipe()
        if hasattr(fcntl, "F_SETPIPE_SZ"):  # Linux
            # an admin's lower pipe-max-size leaves the default capacity
            with contextlib.suppress(OSError):
                fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:
            try:
                os.close(r)
                for pipe in self.pipes:
                    pipe.close()
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, 1)
                os.dup2(null, 2)
                _worker(steppers, states, n_steps, dt, exchange,
                        open(w, "wb"))
            finally:
                os._exit(0)
        os.close(w)
        self.pids.append(pid)
        self.pipes.append(open(r, "rb"))
        self.inboxes.append(np.empty((len(states), *states[0].shape),
                                     states[0].dtype))

    def receive(self, step: int, exchange: bool) -> list:
        """Every child's status for `step`, read before the caller moves
        past it, so a child's exception (a blow-up too) is raised at the
        step of a serial run; at an exchange step, the children's states.

        The states are read (readinto) into each child's preallocated
        array and returned as views of it, valid until the next exchange.
        """
        states = []
        for pipe, inbox in zip(self.pipes, self.inboxes):
            msg = pipe.read(1)
            if msg == _FAILED:
                raise pickle.load(pipe)
            if msg != _OK or exchange and pipe.readinto(inbox) != inbox.nbytes:
                raise RuntimeError(f"a worker process stopped at step {step}")
            if exchange:
                states.extend(inbox)
        return states

    def close(self) -> None:
        """Close the caller's pipe ends, then kill and reap every child."""
        for pipe in self.pipes:
            pipe.close()
        for pid in self.pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self.pids, self.pipes, self.inboxes = [], [], []

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_experiment(cfg: SimConfig, threads: int = 1,
                   progress: bool = True) -> ExperimentOutput:
    """Run the reference system and one model run per order in lockstep.

    Every process advances its steppers by one step at a time through its
    workspace, with every state stored on the keep set.  With threads = 1
    one process steps the reference and then every order.  Otherwise up
    to min(threads, orders, CPUs) processes share the work: forked
    children step contiguous blocks of the orders after the first and hand
    their states back at every sample and progress step; this process
    steps the reference and the first order and does all the recording.
    The symbols and per-sample weights are evaluated on the lattice's
    keep set (WaveLattice.keep); only the final snapshots go back to the
    full layout.  At each sample step every order is compared with the live
    reference state on the keep set, so no reference sample is stored;
    everything downstream (error norms, residual stress, defect series,
    divergence ratio, the peak Courant number) is computed here, so reports
    never need the full fields again.  The model runs start from the
    filtered initial state.  CflError is raised at the first sample, step 0
    included, where dt > 0.5 dx / max|u| for the reference.  A blow-up in
    any order raises BlowUpError at the same step as with threads = 1, and
    no child outlives the call.  With more than one process, each runs
    numpy's BLAS on one thread during the time loop, and the caller's
    thread count is restored afterwards.  Deterministic for a fixed config,
    and the same bit for bit for any `threads`.

    The time loop runs in _time_loop, and the final snapshots are built
    after it has returned: its workspace and sampling buffers are freed
    by then, so a run's peak memory is the loop's working set.  During
    the loop only the keep-set part of the initial field is held.
    """
    lattice = WaveLattice(cfg.n, cfg.L)
    n = cfg.n
    u = _kept(initial_field(cfg, lattice).coeffs, n)
    output, u, states, g = _time_loop(cfg, lattice, u, threads, progress)
    for run, c in zip(output.runs, states):
        run.final_field = SpectralField(lattice, _full(c, n),
                                        divergence_free=True)
    output.u_final = SpectralField(lattice, _full(u, n), divergence_free=True)
    output.ubar_final = SpectralField(lattice, _full(g * u, n),
                                      divergence_free=True)
    return output


def _time_loop(cfg: SimConfig, lattice: WaveLattice, u: np.ndarray,
               threads: int, progress: bool) -> tuple:
    """run_experiment's time loop from the keep-set initial field u:
    (the run's series as an ExperimentOutput without snapshots, the final
    keep-set states of the reference and of each order, G on the keep
    set).  Everything else it builds, the steppers and their workspace
    included, is freed when it returns."""
    n_steps = _steps_of(cfg)
    samples = _sample_steps(n_steps, cfg.sample_every)
    times = np.array([s * cfg.dt for s in samples])
    report_every = max(1, n_steps // 8)

    def reports(step: int) -> bool:
        return progress and (step % report_every == 0 or step == n_steps)

    # The steps at which every order's state is needed here.
    sampled = set(samples)
    exchange = frozenset(s for s in range(1, n_steps + 1)
                         if s in sampled or reports(s))

    (dns_stepper, *steppers), g, (_, *d_syms) = _build_steppers(
        cfg, lattice, (None, *cfg.N_list))
    ws = dns_stepper.ws
    keep = lattice.keep

    # The weight rows of the sampled mode sums in _SERIES order (eps_* and
    # u and w, tau_l2, half_norm per order), and the energy's, mean included.
    _, s_level = energy_weight(cfg.spec)
    levels = np.stack([_weight_row(keep, _sobolev_weight(keep.ksq, s))
                       for s in (0.0, s_level, 1.0, s_level + 1.0)])
    tau_row = _weight_row(keep, _SYM_WEIGHTS)
    defect_rows = np.stack([
        _weight_row(keep, _defect_weight(cfg.spec, N, keep.ksq))
        for N in cfg.N_list])
    energy_row = _weight_row(keep, 0.5)
    rhos = [d * g for d in d_syms]

    dns_cols = np.empty((3, len(samples)))  # the DnsSeries after times
    table = np.full((len(_SERIES), len(cfg.N_list), len(samples)), np.nan)
    series = dict(zip(_SERIES, table))
    div_max = np.zeros(len(cfg.N_list))
    courant_max = 0.0
    # A sample works in the workspace's named scratch (_Workspace), after
    # the tau norms: the per-mode squares of u, G u - w and w in sq.
    diff, sq = ws.diff, ws.mode_sq
    pair = ws.pair[:2 * sq.shape[1]]

    def energy(c: np.ndarray) -> float:
        return float(_mode_sum(_mode_sq(c, sq[0], pair), energy_row, sq[1]))

    def record(idx: int, step: int, t: float, u: np.ndarray,
               states: list) -> None:
        nonlocal courant_max
        series["tau_l2"][:, idx], u_grid = _tau_norms(u, rhos, tau_row, ws)
        courant_max = max(courant_max, _courant(
            cfg, u_grid, where=f"at step {step} (t = {t:.6g}) ",
            out=ws.grid_sq))
        u_sq = _mode_sq(u, sq[0], pair)
        dns_cols[:, idx] = (np.sqrt(_mode_sum(u_sq, levels[0], sq[1])),
                            np.sqrt(_mode_sum(u_sq, levels[2], sq[1])),
                            _mode_sum(u_sq, energy_row, sq[1]))
        for j, c in enumerate(states):
            series["half_norm"][j, idx] = np.sqrt(
                _mode_sum(u_sq, defect_rows[j], sq[1]))
            np.subtract(np.multiply(g, u, out=diff), c, out=diff)
            _mode_sq(diff, sq[1], pair)
            _mode_sq(c, sq[2], pair)
            # G u - w at the 4 levels of _SERIES[:4], and w at level 0
            norms = np.sqrt(_mode_sum(sq[1:], levels))
            table[:4, j, idx] = norms[0]
            series["w_l2"][j, idx] = norms[1, 0]
            div_max[j] = max(div_max[j], _div_ratio(c, keep.k, keep.kmag))

    # One initial array for every order: a step never writes into its input.
    states = [g * u] * len(steppers)
    record(0, 0, 0.0, u, states)
    cursor = 1
    blocks = _order_blocks(threads, len(steppers), _cpus())
    own = len(blocks[0])

    def on_step(step: int, t: float, stepped: list) -> None:
        nonlocal u, states, cursor
        u, *mine = stepped
        exchanged = step in exchange
        theirs = workers.receive(step, exchanged)
        if not exchanged:
            return
        states = mine + theirs
        if samples[cursor] == step:
            record(cursor, step, t, u, states)
            cursor += 1
        if reports(step):
            _progress("dns", step, t, energy(u))
            for N, c in zip(cfg.N_list, states):
                _progress(f"adm N={N}", step, t, energy(c))

    # W processes x 1 BLAS thread each stay within the CPUs; a serial run
    # keeps the spare cores for BLAS.
    pin = _one_blas_thread() if len(blocks) > 1 else contextlib.nullcontext()
    with pin, _Workers(steppers, states, blocks[1:], n_steps, cfg.dt,
                       exchange) as workers:
        _lockstep([dns_stepper, *steppers[:own]], [u, *states[:own]],
                  n_steps, cfg.dt, on_step)

    runs = [RunSeries(N=N, times=times,
                      **{name: series[name][j] for name in _SERIES},
                      div_ratio_max=float(div_max[j]))
            for j, N in enumerate(cfg.N_list)]
    output = ExperimentOutput(config=cfg, lattice=lattice,
                              dns=DnsSeries(times, *dns_cols), runs=runs,
                              courant_max=courant_max)
    return output, u, states, g


# ---------------------------------------------------------------------------
# on-disk emission and re-ingestion
# ---------------------------------------------------------------------------

def write_outputs(output: ExperimentOutput, out_dir) -> dict:
    """Emit config echo, per-run CSVs and final snapshots; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = output.config
    token = config_hash(cfg)

    admio.write_atomic(out / "config.json", cfg.to_json() + "\n")

    dns_path = out / "dns.csv"
    admio.write_csv_columns(
        dns_path, token, _DNS,
        [getattr(output.dns, f.name) for f in fields(DnsSeries)])

    # one row per (order, sample), the orders one after another
    runs = output.runs
    series_path = out / "series.csv"
    admio.write_csv_columns(
        series_path, token, ["N", *map(_key, _SAMPLED)],
        [np.repeat([run.N for run in runs], [len(run.times) for run in runs]),
         *(np.concatenate([getattr(run, f.name) for run in runs])
           for f in _SAMPLED)],
    )

    snap_dir = out / "snapshots"
    snap_dir.mkdir(exist_ok=True)
    paths = {"config": out / "config.json", "dns": dns_path,
             "series": series_path}
    if output.u_final is not None:
        admio.save_field(output.u_final, snap_dir / "u_final.admf")
        paths["u_final"] = snap_dir / "u_final.admf"
    if output.ubar_final is not None:
        admio.save_field(output.ubar_final, snap_dir / "ubar_final.admf")
        paths["ubar_final"] = snap_dir / "ubar_final.admf"
    for run in output.runs:
        if run.final_field is not None:
            p = snap_dir / f"w{run.N}_final.admf"
            admio.save_field(run.final_field, p)
            paths[f"w{run.N}_final"] = p
    return paths


def read_outputs(out_dir) -> ExperimentOutput:
    """Reconstruct series (not fields) from an experiment directory.

    Each CSV is converted to floats in one pass (admio.read_columns) and
    each order's rows are selected with one mask.  Raises
    SnapshotFormatError when the `# config=` stamp of dns.csv or
    series.csv is not the hash of the directory's config.json, when either
    file lacks a column, holds a cell that is not a number or does not
    parse as a table (admio.read_csv), and when series.csv has no rows for
    an order of N_list or rows for an order outside it.
    """
    out = Path(out_dir)
    cfg = SimConfig.from_json((out / "config.json").read_text())
    lattice = WaveLattice(cfg.n, cfg.L)
    token = config_hash(cfg)

    dns = DnsSeries(
        *admio.read_columns(out / "dns.csv", token, _DNS).values())

    series_path = out / "series.csv"
    cols = admio.read_columns(series_path, token,
                              ("N", *map(_key, _SAMPLED)))
    orders = cols["N"]
    stray = np.sort(orders[~np.isin(orders, cfg.N_list)])
    if stray.size:
        raise admio.SnapshotFormatError(
            f"{series_path}: rows for order N={stray[0]:g}, which is not "
            f"in N_list {list(cfg.N_list)}")
    runs = []
    for N in cfg.N_list:
        sel = orders == N
        if not sel.any():
            raise admio.SnapshotFormatError(
                f"{series_path}: no rows for order N={N}")
        runs.append(RunSeries(
            N=N, **{f.name: cols[_key(f)][sel] for f in _SAMPLED},
            div_ratio_max=float("nan"),
        ))
    return ExperimentOutput(config=cfg, lattice=lattice, dns=dns, runs=runs)
