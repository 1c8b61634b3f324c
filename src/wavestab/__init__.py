"""Finite-parameter feedback stabilization for damped nonlinear wave equations.

The package simulates one-dimensional damped wave models closed with
finite-dimensional feedback (volume elements, low Fourier modes, point
observations, or a subdomain indicator), evaluates the explicit gain and
resolution conditions each feedback law comes with, and measures the
resulting decay against the predicted rates.
"""

from .analysis import (
    DecayFit,
    InequalityReport,
    VerifyExponential,
    VerifyPolynomial,
    fit_exponential,
    run_inequality_suite,
    verify_exponential,
    verify_polynomial,
)
from .controllers import (
    ControllerSpec,
    FourierModes,
    GainReport,
    Margin,
    Nodal,
    NoControl,
    SubdomainControl,
    VolumeElements,
    check_fourier_gains,
    check_nodal_gains,
    check_nonlinear_gains,
    check_strong_fourier_gains,
    check_subdomain_gains,
    check_volume_gains,
    controller_energy,
    element_averages,
    element_layout,
    make_control_operator,
    make_energy_operator,
)
from .grid import (
    BoundaryCondition,
    Field,
    Grid1D,
    State,
    h1_seminorm_sq,
    integral,
    laplacian_stencil,
    make_grid,
    sample,
    zeros,
)
from .integrator import (
    RunResult,
    Scheme,
    StepperConfig,
    default_dt,
    lyapunov_eb,
    lyapunov_volume,
    run,
)
from .models import (
    LEDGER_COLUMNS,
    Family,
    ModelSpec,
    Nonlinearity,
    acceleration,
    damped_wave,
    energy_record,
    nonlinear_damping_wave,
    strongly_damped_wave,
)
from .spectral import (
    Subdomain,
    complement_eigenvalue,
    dirichlet_eigenvalue,
    mode_matrix,
    mu_zero,
    project_modes,
    tail_bound_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # grid
    "BoundaryCondition",
    "Grid1D",
    "Field",
    "State",
    "make_grid",
    "sample",
    "zeros",
    "integral",
    "h1_seminorm_sq",
    "laplacian_stencil",
    # spectral
    "Subdomain",
    "dirichlet_eigenvalue",
    "mode_matrix",
    "project_modes",
    "tail_bound_check",
    "complement_eigenvalue",
    "mu_zero",
    # models
    "Family",
    "Nonlinearity",
    "ModelSpec",
    "damped_wave",
    "nonlinear_damping_wave",
    "strongly_damped_wave",
    "acceleration",
    "LEDGER_COLUMNS",
    "energy_record",
    # controllers
    "NoControl",
    "VolumeElements",
    "FourierModes",
    "Nodal",
    "SubdomainControl",
    "ControllerSpec",
    "element_averages",
    "element_layout",
    "make_control_operator",
    "make_energy_operator",
    "controller_energy",
    "Margin",
    "GainReport",
    "check_volume_gains",
    "check_fourier_gains",
    "check_nonlinear_gains",
    "check_nodal_gains",
    "check_strong_fourier_gains",
    "check_subdomain_gains",
    # integrator
    "Scheme",
    "StepperConfig",
    "RunResult",
    "default_dt",
    "run",
    "lyapunov_volume",
    "lyapunov_eb",
    # analysis
    "DecayFit",
    "VerifyExponential",
    "VerifyPolynomial",
    "fit_exponential",
    "verify_exponential",
    "verify_polynomial",
    "InequalityReport",
    "run_inequality_suite",
]
