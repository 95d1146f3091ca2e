"""Pseudo-spectral toolkit for approximate-deconvolution closures on the
periodic box: filters and their van Cittert inverses, the model and
reference solvers, the error bounds that connect them, and the scalar
inequalities those bounds stand on.
"""

from .spectral import (
    WaveLattice,
    SpectralField,
    PhysicalField,
    FieldInvariantError,
    LatticeMismatchError,
    to_physical,
    from_physical,
    zero_field,
    sobolev_norm,
    leray_project,
    nonlinear_term,
    truncate_field,
    taylor_green,
    random_solenoidal,
    divergence_ratio,
    validate_field,
)
from .filters import (
    Helmholtz,
    Gaussian,
    GaussianApprox,
    HelmholtzPower,
    FilterSpec,
    NonInvertibleFilterError,
    filter_symbol,
    inverse_symbol,
    apply_filter,
    gaussian_approx_error,
    helmholtz_power_sandwich,
)
from .deconvolution import (
    DeconvOp,
    PropertyReport,
    deconv_symbol,
    recovery_symbol,
    apply_deconv,
    check_properties,
    property_reports,
)
from .io import save_field, load_field, SnapshotFormatError
from .solvers import (
    SimConfig,
    SolverState,
    TaylorGreenInit,
    RandomSpectrumInit,
    SnapshotInit,
    SnapshotForcing,
    BlowUpError,
    CflError,
    dns_step,
    adm_step,
    run_experiment,
    write_outputs,
    read_outputs,
)
from .diagnostics import (
    ErrorReport,
    residual_stress_norm,
    half_norm_defect,
    defect_bound,
    bound_main,
    gronwall_log10,
    fit_rate,
    calibrate_sobolev_constant,
    error_report,
)
from .inequalities import (
    IneqCase,
    GridSpec,
    SweepResult,
    check_highpass_power,
    check_highpass_power_sq,
    check_highpass_ratio,
    check_exp_limit,
    sweep,
)

__version__ = "0.1.0"
