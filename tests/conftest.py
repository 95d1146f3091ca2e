"""Fixtures shared by several test modules."""

import pytest

from admles.filters import Helmholtz
from admles.solvers import SimConfig, run_experiment


@pytest.fixture(scope="session")
def tg16_output():
    """The 16^3 Taylor-Green acceptance experiment (orders 0, 1, 2, 4, 8,
    200 steps, every step sampled): the shape of the stored outputs that
    `admles rates` reads in the benchmark's post-processing workload."""
    cfg = SimConfig(n=16, nu=0.05, spec=Helmholtz(alpha=0.5, p=1.0),
                    T=1.0, dt=0.005, N_list=(0, 1, 2, 4, 8))
    return run_experiment(cfg, threads=2, progress=False)
