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
appears; the Leray projection P plays its role.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import io as admio
from .deconvolution import DeconvOp, deconv_symbol
from .filters import (
    FilterSpec,
    Gaussian,
    GaussianApprox,
    Helmholtz,
    HelmholtzPower,
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
    _SYM_ROWS,
    _SYM_WEIGHTS,
    _contract,
    _half,
    _hermitian_fill,
    _hermitian_weights,
    _k_over_ksq,
    _leray,
    _rinverse,
    _sym_products,
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


class CflError(ValueError):
    """The configured step size violates the advective CFL condition."""


@dataclass(frozen=True)
class TaylorGreenInit:
    amplitude: float = 1.0


@dataclass(frozen=True)
class RandomSpectrumInit:
    decay: float
    seed: int


@dataclass(frozen=True)
class SnapshotInit:
    path: str


@dataclass(frozen=True)
class SnapshotForcing:
    path: str


InitSpec = Union[TaylorGreenInit, RandomSpectrumInit, SnapshotInit]


@dataclass(frozen=True)
class SimConfig:
    """Full description of one experiment; JSON-serializable."""

    n: int
    nu: float
    spec: FilterSpec
    T: float
    dt: float
    N_list: tuple = (0,)
    L: float = 2.0 * np.pi
    init: InitSpec = TaylorGreenInit()
    forcing: Optional[SnapshotForcing] = None
    output_dir: Optional[str] = None
    sample_every: int = 1

    def __post_init__(self):
        if not self.nu > 0.0:
            raise ValueError(f"viscosity must be positive, got {self.nu}")
        if not self.T > 0.0:
            raise ValueError(f"horizon must be positive, got {self.T}")
        if not 0.0 < self.dt <= self.T:
            raise ValueError(
                f"step size must satisfy 0 < dt <= T, got dt={self.dt} T={self.T}"
            )
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        object.__setattr__(self, "N_list", tuple(int(N) for N in self.N_list))
        if any(N < 0 for N in self.N_list) or not self.N_list:
            raise ValueError(f"N_list must be nonempty, all >= 0: {self.N_list}")
        if len(set(self.N_list)) != len(self.N_list):
            raise ValueError(f"N_list has duplicate orders: {self.N_list}")
        WaveLattice(self.n, self.L)  # validates n and L

    # -- JSON round trip ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "L": self.L,
            "nu": self.nu,
            "filter": _filter_to_dict(self.spec),
            "N_list": list(self.N_list),
            "T": self.T,
            "dt": self.dt,
            "init": _init_to_dict(self.init),
            "forcing": (
                {"kind": "snapshot", "path": self.forcing.path}
                if self.forcing else None
            ),
            "output_dir": self.output_dir,
            "sample_every": self.sample_every,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        known = {
            "n", "L", "nu", "filter", "N_list", "T", "dt", "init",
            "forcing", "output_dir", "sample_every",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key in ("n", "nu", "filter", "T", "dt"):
            if key not in data:
                raise ValueError(f"config is missing required key '{key}'")
        forcing = data.get("forcing")
        return cls(
            n=int(data["n"]),
            L=float(data.get("L", 2.0 * np.pi)),
            nu=float(data["nu"]),
            spec=_filter_from_dict(data["filter"]),
            N_list=tuple(data.get("N_list", [0])),
            T=float(data["T"]),
            dt=float(data["dt"]),
            init=_init_from_dict(data.get("init", {"kind": "taylor_green"})),
            forcing=(
                SnapshotForcing(path=str(forcing["path"])) if forcing else None
            ),
            output_dir=data.get("output_dir"),
            sample_every=int(data.get("sample_every", 1)),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimConfig":
        return cls.from_dict(json.loads(text))


def _filter_to_dict(spec: FilterSpec) -> dict:
    if isinstance(spec, Helmholtz):
        return {"kind": "helmholtz", "alpha": spec.alpha, "p": spec.p}
    if isinstance(spec, Gaussian):
        return {"kind": "gaussian", "alpha": spec.alpha}
    if isinstance(spec, GaussianApprox):
        return {"kind": "gaussian_approx", "alpha": spec.alpha, "m": spec.m}
    if isinstance(spec, HelmholtzPower):
        return {"kind": "helmholtz_power", "mu": spec.mu, "m": spec.m}
    raise TypeError(f"not a filter spec: {spec!r}")


def _filter_from_dict(data: dict) -> FilterSpec:
    kind = data.get("kind")
    if kind == "helmholtz":
        return Helmholtz(alpha=float(data["alpha"]),
                         p=float(data.get("p", 1.0)))
    if kind == "gaussian":
        return Gaussian(alpha=float(data["alpha"]))
    if kind == "gaussian_approx":
        return GaussianApprox(alpha=float(data["alpha"]), m=int(data["m"]))
    if kind == "helmholtz_power":
        return HelmholtzPower(mu=float(data["mu"]), m=int(data["m"]))
    raise ValueError(f"unknown filter kind: {kind!r}")


def _init_to_dict(init: InitSpec) -> dict:
    if isinstance(init, TaylorGreenInit):
        return {"kind": "taylor_green", "amplitude": init.amplitude}
    if isinstance(init, RandomSpectrumInit):
        return {"kind": "random_spectrum", "decay": init.decay,
                "seed": init.seed}
    if isinstance(init, SnapshotInit):
        return {"kind": "snapshot", "path": init.path}
    raise TypeError(f"not an initial condition: {init!r}")


def _init_from_dict(data: dict) -> InitSpec:
    kind = data.get("kind")
    if kind == "taylor_green":
        return TaylorGreenInit(amplitude=float(data.get("amplitude", 1.0)))
    if kind == "random_spectrum":
        return RandomSpectrumInit(decay=float(data["decay"]),
                                  seed=int(data["seed"]))
    if kind == "snapshot":
        return SnapshotInit(path=str(data["path"]))
    raise ValueError(f"unknown initial condition kind: {kind!r}")


def config_hash(cfg: SimConfig) -> str:
    """sha256 of the canonical JSON form; stamped into every CSV."""
    import hashlib

    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class SolverState:
    field: SpectralField
    t: float = 0.0
    step_index: int = 0


def energy_weight(spec: FilterSpec) -> tuple[float, float]:
    """(weight, s) such that weight * ||.||_s^2 is the filter's natural
    higher-order energy term: alpha^(2p) ||.||_p^2 for Helmholtz,
    mu^(2m) ||.||_m^2 for the power families, and the leading differential
    approximation alpha^2/24 ||.||_1^2 for the Gaussian.
    """
    if isinstance(spec, Helmholtz):
        return spec.alpha ** (2.0 * spec.p), spec.p
    if isinstance(spec, HelmholtzPower):
        return spec.mu ** (2.0 * spec.m), float(spec.m)
    if isinstance(spec, GaussianApprox):
        return spec.mu ** (2.0 * spec.m), float(spec.m)
    if isinstance(spec, Gaussian):
        return spec.alpha ** 2 / 24.0, 1.0
    raise TypeError(f"not a filter spec: {spec!r}")


def initial_field(cfg: SimConfig, lattice: WaveLattice) -> SpectralField:
    """Build, truncate and project the initial velocity."""
    if isinstance(cfg.init, TaylorGreenInit):
        f = taylor_green(lattice, amplitude=cfg.init.amplitude)
    elif isinstance(cfg.init, RandomSpectrumInit):
        f = random_solenoidal(lattice, cfg.init.decay, cfg.init.seed)
    elif isinstance(cfg.init, SnapshotInit):
        f = admio.load_field(cfg.init.path)
        if f.lattice != lattice:
            raise ValueError(
                f"snapshot lattice {f.lattice} does not match config "
                f"lattice {lattice}"
            )
    else:
        raise TypeError(f"not an initial condition: {cfg.init!r}")
    f = leray_project(truncate_field(f))
    validate_field(f, require_divergence_free=True)
    return f


def check_cfl(cfg: SimConfig, u0: SpectralField) -> None:
    """Enforce dt <= 0.5 dx / max|u0| against the collocation samples."""
    speed = np.sqrt(np.sum(to_physical(u0).samples ** 2, axis=0))
    peak = float(np.max(speed))
    if peak == 0.0:
        return
    dx = cfg.L / cfg.n
    limit = 0.5 * dx / peak
    if cfg.dt > limit:
        raise CflError(
            f"dt = {cfg.dt:.6g} exceeds the CFL limit 0.5 dx / max|u0| = "
            f"{limit:.6g}"
        )


class _Stepper:
    """Shared integrating-factor SSP-RK3 stepper over raw half-spectrum
    coefficients of shape (3, n, n, n/2+1).

    pre/post are full-layout per-mode symbol arrays (or None for identity);
    forcing is a full-layout coefficient array already multiplied by post
    and projected.  All of them are sliced to the half spectrum once here.
    """

    def __init__(self, lattice: WaveLattice, nu: float, dt: float,
                 pre=None, post=None, forcing=None):
        self.lattice = lattice
        self.n = lattice.n
        self.dt = dt
        ksq = np.ascontiguousarray(_half(lattice.k_squared))
        self.E1 = np.exp(-nu * ksq * dt)
        self.Eh = np.exp(-nu * ksq * (0.5 * dt))
        self.Ehi = np.exp(nu * ksq * (0.5 * dt))
        self.pre = _half_or_none(pre)
        self.forcing = _half_or_none(forcing)
        self._k = tuple(_half(k) for k in lattice.wavevectors)
        self._kov = tuple(_half(k) for k in _k_over_ksq(lattice))
        # -i post: the divergence's factor i, the sign of the transport
        # term and the filter, applied after the projection they commute
        # with.
        self._scale = -1j if post is None else -1j * _half_or_none(post)

    def rhs(self, c: np.ndarray) -> np.ndarray:
        q = c if self.pre is None else self.pre * c
        products = _sym_products(self.lattice, _rinverse(q, self.n))
        out = _leray(_contract(products, self._k, _SYM_ROWS),
                     self._k, self._kov)
        out *= self._scale
        if self.forcing is not None:
            out += self.forcing
        return out

    def advance(self, c: np.ndarray) -> np.ndarray:
        dt = self.dt
        q1 = self.E1 * (c + dt * self.rhs(c))
        q2 = 0.75 * self.Eh * c + 0.25 * self.Ehi * (q1 + dt * self.rhs(q1))
        return (self.E1 * c + 2.0 * self.Eh * (q2 + dt * self.rhs(q2))) / 3.0


def _half_or_none(a):
    return None if a is None else np.ascontiguousarray(_half(a))


def _forcing_coeffs(cfg: SimConfig, lattice: WaveLattice, post=None):
    if cfg.forcing is None:
        return None
    f = admio.load_field(cfg.forcing.path)
    if f.lattice != lattice:
        raise ValueError(
            f"forcing lattice {f.lattice} does not match config lattice "
            f"{lattice}"
        )
    # The half-spectrum stepper would silently drop a non-Hermitian part;
    # divergence is not required, the projection below removes it.
    validate_field(f, require_divergence_free=False)
    coeffs = f.coeffs * lattice.dealias_mask
    if post is not None:
        coeffs = coeffs * post
    # Project once; the projection commutes with the per-mode symbols.
    return _leray(coeffs, lattice.wavevectors, _k_over_ksq(lattice))


def _step(stepper: _Stepper, c: np.ndarray, step_index: int,
          t: float) -> np.ndarray:
    """Advance half-spectrum coefficients to step `step_index` at time t."""
    c = stepper.advance(c)
    if not np.all(np.isfinite(c)):
        raise BlowUpError(step_index, t)
    return c


def _advance_state(state: SolverState, stepper: _Stepper,
                   dt: float) -> SolverState:
    c = _step(stepper, _half(state.field.coeffs), state.step_index + 1,
              state.t + dt)
    return SolverState(
        field=SpectralField(state.field.lattice,
                            _hermitian_fill(c, stepper.n),
                            divergence_free=True),
        t=state.t + dt,
        step_index=state.step_index + 1,
    )


def dns_step(state: SolverState, cfg: SimConfig) -> SolverState:
    """One reference Navier-Stokes step."""
    lattice = state.field.lattice
    stepper = _Stepper(
        lattice, cfg.nu, cfg.dt,
        forcing=_forcing_coeffs(cfg, lattice),
    )
    return _advance_state(state, stepper, cfg.dt)


def adm_step(state: SolverState, cfg: SimConfig, N: int) -> SolverState:
    """One approximate-deconvolution model step of order N.

    N = 0 is the simplified closure with the deconvolution equal to the
    identity: the filtered product of the unmodified state.
    """
    lattice = state.field.lattice
    ksq = lattice.k_squared
    post = np.asarray(filter_symbol(cfg.spec, ksq))
    pre = np.asarray(deconv_symbol(DeconvOp(cfg.spec, N), ksq))
    stepper = _Stepper(
        lattice, cfg.nu, cfg.dt, pre=pre, post=post,
        forcing=_forcing_coeffs(cfg, lattice, post=post),
    )
    return _advance_state(state, stepper, cfg.dt)


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

@dataclass
class DnsSeries:
    times: np.ndarray
    u_l2: np.ndarray
    u_h1: np.ndarray
    energy: np.ndarray


@dataclass
class RunSeries:
    """Per-order time series sampled on the shared cadence.

    eps_* compare the filtered reference against the model state; *_hs uses
    the filter's natural higher-order level s (energy_weight).  half_norm is
    the interpolation-level deconvolution defect of the unfiltered
    reference (Helmholtz filters; nan otherwise).
    """

    N: int
    times: np.ndarray
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
    config: SimConfig
    lattice: WaveLattice
    dns: DnsSeries
    runs: list
    u_final: Optional[SpectralField] = None
    ubar_final: Optional[SpectralField] = None


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


def _coeff_energy(c: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(c) ** 2))


def _weighted_norm(c: np.ndarray, weight: np.ndarray) -> float:
    return float(np.sqrt(np.sum(weight * np.abs(c) ** 2)))


def run_experiment(cfg: SimConfig, threads: int = 1,
                   progress: bool = True) -> ExperimentOutput:
    """Run the reference system once, then one model run per order.

    The model runs start from the filtered initial state and reuse the
    stored reference samples; everything downstream (error norms, residual
    stress, defect series) is computed here so reports never need the full
    fields again.  Deterministic for a fixed config.
    """
    lattice = WaveLattice(cfg.n, cfg.L)
    u0 = initial_field(cfg, lattice)
    check_cfl(cfg, u0)
    n_steps = _steps_of(cfg)
    samples = _sample_steps(n_steps, cfg.sample_every)
    times = np.array([s * cfg.dt for s in samples])
    report_every = max(1, n_steps // 8)

    ksq = lattice.k_squared
    g_sym = np.asarray(filter_symbol(cfg.spec, ksq))
    weight_hs, s_level = energy_weight(cfg.spec)
    with np.errstate(divide="ignore"):
        w_s = np.where(ksq > 0.0, ksq ** s_level, 0.0)
        w_s1 = np.where(ksq > 0.0, ksq ** (s_level + 1.0), 0.0)
    w_0 = np.where(ksq > 0.0, 1.0, 0.0)

    # Reference run, storing coefficients at sample steps.
    dns_stepper = _Stepper(lattice, cfg.nu, cfg.dt,
                           forcing=_forcing_coeffs(cfg, lattice))
    sample_set = set(samples)
    u_samples = {0: np.array(u0.coeffs)}
    c, t = np.array(_half(u0.coeffs)), 0.0
    for step in range(1, n_steps + 1):
        t += cfg.dt
        c = _step(dns_stepper, c, step, t)
        if step in sample_set:
            u_samples[step] = _hermitian_fill(c, cfg.n)
        if progress and (step % report_every == 0 or step == n_steps):
            _progress("dns", step, t,
                      _coeff_energy(_hermitian_fill(c, cfg.n)))
    u_final = SpectralField(lattice, u_samples[n_steps],
                            divergence_free=True)
    u_stack = [u_samples[s] for s in samples]
    dns = DnsSeries(
        times=times,
        u_l2=np.array([_weighted_norm(c, w_0) for c in u_stack]),
        u_h1=np.array([_weighted_norm(c, ksq) for c in u_stack]),
        energy=np.array([_coeff_energy(c) for c in u_stack]),
    )
    is_helmholtz = isinstance(cfg.spec, Helmholtz)
    if is_helmholtz:
        x_sym = np.asarray(inverse_of_symbol(g_sym))
    kmag = np.sqrt(ksq)

    def one_run(N: int) -> RunSeries:
        from . import kernels

        d_sym = np.asarray(deconv_symbol(DeconvOp(cfg.spec, N), ksq))
        stepper = _Stepper(
            lattice, cfg.nu, cfg.dt, pre=d_sym, post=g_sym,
            forcing=_forcing_coeffs(cfg, lattice, post=g_sym),
        )
        rho_half = _half(d_sym * g_sym)
        if is_helmholtz:
            half_weight = kernels.ratio_power(x_sym, 2.0 * (N + 1)) * kmag

        eps_l2 = np.empty(len(samples))
        eps_hs = np.empty(len(samples))
        eps_g0 = np.empty(len(samples))
        eps_gs = np.empty(len(samples))
        tau_l2 = np.empty(len(samples))
        half = np.full(len(samples), np.nan)
        w_l2 = np.empty(len(samples))
        div_max = 0.0

        def record(idx: int, c: np.ndarray) -> None:
            nonlocal div_max
            eps = g_sym * u_stack[idx] - c
            eps_l2[idx] = _weighted_norm(eps, w_0)
            eps_hs[idx] = _weighted_norm(eps, w_s)
            eps_g0[idx] = _weighted_norm(eps, ksq)
            eps_gs[idx] = _weighted_norm(eps, w_s1)
            w_l2[idx] = _weighted_norm(c, w_0)
            u_half = _half(u_stack[idx])
            tau_l2[idx] = _tau_norm(lattice, u_half, rho_half * u_half)
            if is_helmholtz:
                half[idx] = float(np.sqrt(np.sum(
                    half_weight * np.abs(u_stack[idx]) ** 2)))
            k1, k2, k3 = lattice.wavevectors
            div = float(np.max(np.abs(
                k1 * c[0] + k2 * c[1] + k3 * c[2])))
            scale = float(np.max(kmag * np.max(np.abs(c), axis=0)))
            if scale > 0.0:
                div_max = max(div_max, div / scale)

        c = np.array(g_sym * u0.coeffs)
        cursor = 0
        if samples[cursor] == 0:
            record(0, c)
            cursor += 1
        c, t = np.array(_half(c)), 0.0
        for step in range(1, n_steps + 1):
            t += cfg.dt
            c = _step(stepper, c, step, t)
            if cursor < len(samples) and samples[cursor] == step:
                record(cursor, _hermitian_fill(c, cfg.n))
                cursor += 1
            if progress and threads == 1 and (
                    step % report_every == 0 or step == n_steps):
                _progress(f"adm N={N}", step, t,
                          _coeff_energy(_hermitian_fill(c, cfg.n)))
        return RunSeries(
            N=N, times=times, eps_l2=eps_l2, eps_hs=eps_hs,
            eps_grad_l2=eps_g0, eps_grad_hs=eps_gs, tau_l2=tau_l2,
            half_norm=half, w_l2=w_l2, div_ratio_max=div_max,
            final_field=SpectralField(lattice, _hermitian_fill(c, cfg.n),
                                      divergence_free=True),
        )

    if threads > 1 and len(cfg.N_list) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(one_run, cfg.N_list))
    else:
        runs = [one_run(N) for N in cfg.N_list]

    ubar_final = SpectralField(lattice, g_sym * u_final.coeffs,
                               divergence_free=True)
    return ExperimentOutput(
        config=cfg, lattice=lattice, dns=dns, runs=runs,
        u_final=u_final, ubar_final=ubar_final,
    )


def inverse_of_symbol(g_sym: np.ndarray) -> np.ndarray:
    """x = 1/G_hat - 1, the dimensionless high-pass argument of the symbol."""
    return 1.0 / g_sym - 1.0


def _tau_norm(lattice: WaveLattice, u_half: np.ndarray,
              d_half: np.ndarray) -> float:
    """Frobenius coefficient norm of u(x)u - Du(x)Du, dealiased, mean kept.

    u_half and d_half are the half-spectrum coefficients of u and Du; both
    go to the grid in one inverse transform.  The tensor is symmetric, so
    its 6 distinct components are formed and transformed once; the mode
    sum uses the Hermitian and off-diagonal weights of the half layout.
    """
    u_grid, d_grid = _rinverse(np.stack([u_half, d_half]), lattice.n)
    prod = _sym_products(lattice, u_grid, minus=d_grid)
    weight = _SYM_WEIGHTS[:, None, None, None] \
        * _hermitian_weights(lattice.n)
    return float(np.sqrt(np.sum(weight * np.abs(prod) ** 2)))


# ---------------------------------------------------------------------------
# on-disk emission and re-ingestion
# ---------------------------------------------------------------------------

def write_outputs(output: ExperimentOutput, out_dir) -> dict:
    """Emit config echo, per-run CSVs and final snapshots; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = output.config
    token = config_hash(cfg)

    (out / "config.json").write_text(cfg.to_json() + "\n")

    dns_path = out / "dns.csv"
    admio.write_csv(
        dns_path, token,
        ["t", "u_l2", "u_h1", "energy"],
        zip(output.dns.times, output.dns.u_l2, output.dns.u_h1,
            output.dns.energy),
    )

    series_path = out / "series.csv"
    rows = []
    for run in output.runs:
        for i, t in enumerate(run.times):
            rows.append([
                run.N, t, run.eps_l2[i], run.eps_hs[i], run.eps_grad_l2[i],
                run.eps_grad_hs[i], run.tau_l2[i], run.half_norm[i],
                run.w_l2[i],
            ])
    admio.write_csv(
        series_path, token,
        ["N", "t", "eps_l2", "eps_hs", "eps_grad_l2", "eps_grad_hs",
         "tau_l2", "half_norm", "w_l2"],
        rows,
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
    """Reconstruct series (not fields) from an experiment directory."""
    out = Path(out_dir)
    cfg = SimConfig.from_json((out / "config.json").read_text())
    lattice = WaveLattice(cfg.n, cfg.L)

    header, rows = admio.read_csv(out / "dns.csv")
    cols = {name: np.array([row[i] for row in rows], dtype=float)
            for i, name in enumerate(header)}
    dns = DnsSeries(times=cols["t"], u_l2=cols["u_l2"], u_h1=cols["u_h1"],
                    energy=cols["energy"])

    header, rows = admio.read_csv(out / "series.csv")
    idx = {name: i for i, name in enumerate(header)}
    runs = []
    for N in cfg.N_list:
        sel = [row for row in rows if int(float(row[idx["N"]])) == N]
        col = lambda name: np.array(
            [float(r[idx[name]]) for r in sel], dtype=float)
        runs.append(RunSeries(
            N=N, times=col("t"), eps_l2=col("eps_l2"), eps_hs=col("eps_hs"),
            eps_grad_l2=col("eps_grad_l2"), eps_grad_hs=col("eps_grad_hs"),
            tau_l2=col("tau_l2"), half_norm=col("half_norm"),
            w_l2=col("w_l2"), div_ratio_max=float("nan"),
        ))
    return ExperimentOutput(config=cfg, lattice=lattice, dns=dns, runs=runs)
