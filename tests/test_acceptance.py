"""Acceptance gate: seven numbered criteria, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines
as they happen; without ``-s`` pytest shows them for failing tests only.
Every criterion also asserts, so the gate doubles as a regular test module.
Criteria with a runtime budget measure and enforce it here.
"""

import math
import time

import numpy as np

import oracles
from admles import cli, inequalities
from admles.deconvolution import (
    DeconvOp,
    check_properties,
    deconv_symbol,
    recovery_symbol,
)
from admles.diagnostics import (
    defect_bound,
    error_report,
    fit_rate,
    gronwall_log10,
    half_norm_defect,
)
from admles.filters import (
    Helmholtz,
    filter_symbol,
    gaussian_approx_error,
    helmholtz_power_sandwich,
)
from admles.solvers import SimConfig, SolverState, adm_step, dns_step, run_experiment
from admles.spectral import (
    SpectralField,
    WaveLattice,
    divergence_ratio,
    nonlinear_term,
    random_solenoidal,
    sobolev_norm,
    taylor_green,
    to_physical,
    zero_field,
)


def _verdict(num: int, label: str, problems: list, detail: str = "") -> None:
    ok = not problems
    tail = detail if ok else "; ".join(problems[:4])
    suffix = f" [{tail}]" if tail else ""
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num} ({label}): {problems}"


def test_criterion_1_inequality_sweeps():
    problems = []
    t0 = time.perf_counter()
    total = 0
    for name in inequalities.NAMES:
        res = inequalities.sweep(name)
        total += res.n_cases
        if res.n_cases < 100_000:
            problems.append(f"{name}: grid too small ({res.n_cases})")
        for fail in res.failures[:2]:
            problems.append(f"{name}: violated at {fail.params}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    _verdict(1, "scalar inequality sweeps", problems,
             f"{total} tuples in {elapsed:.1f}s")


def test_criterion_2_deconvolution_symbol_properties():
    problems = []
    t0 = time.perf_counter()
    k2 = np.logspace(-2.0, 14.0, 33)
    worst_rel = 0.0
    for p in (0.75, 1.0, 2.0, 4.0):
        for alpha in (0.1, 1.0):
            spec = Helmholtz(alpha=alpha, p=p)
            g = np.asarray(filter_symbol(spec, k2))
            term = np.ones_like(k2)
            total = np.ones_like(k2)
            prev = None
            for order in range(33):
                op = DeconvOp(spec, order)
                rep = check_properties(op, k2)
                if not rep.passed:
                    row = cli._first_failure(rep.columns, "pass")
                    problems.append(
                        f"{row['property']} fails at p={p} alpha={alpha} "
                        f"N={order} k2={row['k2']:g}")
                d = np.asarray(deconv_symbol(op, k2))
                # term-by-term partial sum of the inverse expansion; every
                # term is positive so the sum itself is cancellation-free
                rel = float(np.max(np.abs(d - total) / total))
                worst_rel = max(worst_rel, rel)
                if rel > 1e-12:
                    problems.append(
                        f"closed form vs sum: rel {rel:.2e} at p={p} "
                        f"alpha={alpha} N={order}")
                if prev is not None and np.any(d < prev * (1.0 - 1e-12)):
                    problems.append(
                        f"not nondecreasing in N at p={p} alpha={alpha} "
                        f"N={order}")
                rho = np.asarray(recovery_symbol(op, k2))
                if float(np.max(np.abs(rho - d * g))) > 1e-13:
                    problems.append(
                        f"recovery != symbol product at p={p} alpha={alpha} "
                        f"N={order}")
                prev = d
                term = term * (1.0 - g)
                total = total + term
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    _verdict(2, "deconvolution symbol properties", problems,
             f"worst closed-vs-sum rel {worst_rel:.1e}, {elapsed:.1f}s")


def test_criterion_3_defect_bound():
    problems = []
    t0 = time.perf_counter()
    lat = WaveLattice(16)
    orders = [0] + [2 ** j for j in range(9)]  # 0, 1, 2, ..., 256
    decays = (0.5, 1.0, 1.5, 2.0, 2.5)
    alphas = (0.25, 0.5, 1.0, 2.0)
    violations = 0
    checks = 0
    for i in range(200):
        u = random_solenoidal(lat, decay=decays[i % 5], seed=1000 + i)
        u_h1 = sobolev_norm(u, 1.0)
        alpha = alphas[i % 4]
        for p in (0.75, 1.0, 2.0, 4.0):
            spec = Helmholtz(alpha=alpha, p=p)
            for order in orders:
                half = half_norm_defect(u, spec, order)
                bound = defect_bound(u_h1, alpha, p, order)
                checks += 1
                if half * half > bound * (1.0 + 1e-12):
                    violations += 1
    if violations:
        problems.append(f"{violations}/{checks} bound violations")

    betas = []
    for seed in (0, 1, 2):
        u = random_solenoidal(lat, decay=2.0, seed=seed)
        spec = Helmholtz(alpha=2.0, p=1.0)
        series = [(order, half_norm_defect(u, spec, order) ** 2)
                  for order in (0, 1, 2, 4, 8, 16, 32)]
        beta, r2 = fit_rate(series)
        betas.append(beta)
        if not 0.35 <= beta <= 0.65:
            problems.append(f"fitted rate {beta:.3f} outside [0.35, 0.65] "
                            f"(seed {seed})")
        if r2 <= 0.9:
            problems.append(f"poor fit r2={r2:.3f} (seed {seed})")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    _verdict(3, "deconvolution defect bound", problems,
             f"{checks} checks, rates {[round(b, 3) for b in betas]}, "
             f"{elapsed:.1f}s")


def test_criterion_4_gaussian_approximation():
    problems = []
    t0 = time.perf_counter()
    k2 = np.unique(WaveLattice(32).k_squared)
    worst_margin = math.inf
    for alpha in (0.5, 1.0, 2.0):
        for m in range(1, 65):
            err = float(np.max(gaussian_approx_error(alpha, m, k2)))
            worst_margin = min(worst_margin, 2.0 / m - err)
            if err > 2.0 / m + 1e-12:
                problems.append(f"sup error {err:.3e} > 2/{m} at "
                                f"alpha={alpha}")
    for mu in (0.25, 0.5, 1.0):
        for m in range(1, 9):
            lo, mid, hi = helmholtz_power_sandwich(mu, m, k2)
            if np.any(lo > mid + 1e-13) or np.any(mid > hi + 1e-13):
                problems.append(f"sandwich broken at mu={mu} m={m}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    _verdict(4, "gaussian filter approximants", problems,
             f"min 2/m margin {worst_margin:.2e}, {elapsed:.1f}s")


def test_criterion_5_model_convergence():
    problems = []
    t0 = time.perf_counter()
    cfg = SimConfig(n=16, nu=0.05, spec=Helmholtz(alpha=0.5, p=1.0),
                    T=1.0, dt=0.005, N_list=(0, 1, 2, 4, 8))
    out = run_experiment(cfg, threads=2, progress=False)

    finals = {run.N: float(run.eps_l2[-1]) for run in out.runs}
    ratio = finals[0] / finals[8]
    if not ratio >= 1.5:
        problems.append(f"error ratio N=0 vs N=8 only {ratio:.2f}")

    worst_div = max(run.div_ratio_max for run in out.runs)
    worst_div = max(worst_div, divergence_ratio(out.u_final))
    if worst_div > 1e-11:
        problems.append(f"divergence drift {worst_div:.2e}")

    report = error_report(out, constant=2.0)
    for summary in report.summaries:
        if summary.passed is not True:
            problems.append(f"energy bound not satisfied at N="
                            f"{summary.order}")

    ksq = out.lattice.k_squared
    post = np.asarray(filter_symbol(cfg.spec, ksq))
    pre = np.asarray(deconv_symbol(DeconvOp(cfg.spec, 4), ksq))
    w0 = SpectralField(out.lattice, post * taylor_green(out.lattice).coeffs,
                       divergence_free=True)
    got = adm_step(SolverState(field=w0), cfg, 4).field.coeffs
    want = oracles.one_step(w0.coeffs, out.lattice, cfg.nu, cfg.dt,
                            pre=pre, post=post)
    scale = float(np.max(np.abs(want)))
    step_err = float(np.max(np.abs(got - want))) / scale
    if step_err > 1e-12:
        problems.append(f"one-step oracle mismatch {step_err:.2e}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 180.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    _verdict(5, "model error convergence", problems,
             f"error ratio {ratio:.1f}, divergence {worst_div:.1e}, "
             f"one-step {step_err:.1e}, {elapsed:.0f}s")


def test_criterion_6_gronwall_prefactor_magnitude():
    problems = []
    # boundary-layer scale inputs: velocity-gradient norm ~3e4, air viscosity
    log10_kappa = gronwall_log10(3.0e4, 2.0e-5)
    loglog = math.log10(log10_kappa)
    if not 27.0 <= loglog <= 33.0:
        problems.append(f"log10(log10 kappa) = {loglog:.2f} outside [27, 33]")
    _verdict(6, "gronwall prefactor magnitude", problems,
             f"log10(log10 kappa) = {loglog:.2f}")


def test_criterion_7_oracle_equivalences():
    problems = []
    lat = WaveLattice(8)
    u = random_solenoidal(lat, decay=0.5, seed=21)
    v = random_solenoidal(lat, decay=0.5, seed=22)
    got = nonlinear_term(u, v).coeffs
    want = oracles.convolution_divergence(lat, u.coeffs, v.coeffs)
    scale = max(float(np.max(np.abs(want))), 1.0)
    conv_err = float(np.max(np.abs(got - want))) / scale
    if conv_err > 1e-11:
        problems.append(f"convolution mismatch {conv_err:.2e}")

    # single excited mode at tiny amplitude: the nonlinear term is below
    # roundoff, so stepping must reproduce the exact viscous decay
    nu, dt, steps = 0.1, 0.01, 5
    cfg = SimConfig(n=8, nu=nu, spec=Helmholtz(alpha=0.5, p=1.0),
                    T=dt * steps, dt=dt, N_list=(0,))
    f = zero_field(lat)
    c = f.coeffs.copy()
    c[1, 1, 0, 0] = 1e-8
    c[1, -1, 0, 0] = 1e-8
    st = SolverState(field=SpectralField(lat, c, divergence_free=True))
    for _ in range(steps):
        st = dns_step(st, cfg)
    got_amp = st.field.coeffs[1, 1, 0, 0]
    want_amp = 1e-8 * math.exp(-nu * dt * steps)
    stokes_err = abs(got_amp - want_amp) / abs(want_amp)
    if stokes_err > 1e-9:
        problems.append(f"viscous decay off by {stokes_err:.2e}")

    w = random_solenoidal(WaveLattice(16), decay=1.2, seed=23)
    grid = to_physical(w).samples
    mean_sq = float(np.mean(np.sum(grid ** 2, axis=0)))
    pars_err = abs(sobolev_norm(w, 0.0) ** 2 - mean_sq) / mean_sq
    if pars_err > 1e-12:
        problems.append(f"grid/coefficient energy mismatch {pars_err:.2e}")

    _verdict(7, "transform and stepper oracles", problems,
             f"convolution {conv_err:.1e}, decay {stokes_err:.1e}, "
             f"energy {pars_err:.1e}")
