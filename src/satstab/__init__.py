"""Saturated-feedback stabilization of fourth-order parabolic dynamics.

Spectral reduction of -y'''' - lam y'' under clamped, hinged, or Neumann
walls, truncated-system assembly for internal or boundary actuation, gain
synthesis with constructive quadratic certificates, and closed-loop spectral
simulation with Lyapunov monitoring.
"""

from .errors import (
    AllModesUnstable,
    BlowUp,
    BoundExpired,
    CertificateFailure,
    ConfigError,
    ConvergenceFailure,
    CriticalLength,
    GapTooSmall,
    Infeasible,
    NonPositiveChannel,
    NotStabilizable,
    SatStabError,
)
from .modal import (
    Indicator,
    Lifting,
    ModalSystem,
    ModeCombination,
    actuator_coefficients,
    actuator_norms_sq,
    assemble_boundary,
    assemble_internal,
)
from .saturation import UNSATURATED, SaturationLevel, deadzone, sat, sector_holds
from .simulate import (
    SimConfig,
    Trajectory,
    estimate_basin,
    fit_decay_rate,
    gronwall_bound,
    run,
    run_batch,
    step_boundary_closed_loop,
    step_linear_closed_loop,
    step_nonlinear_closed_loop,
)
from .spectral import (
    BoundaryCondition,
    EigenSystem,
    OperatorParams,
    Quadrature,
    critical_set_member,
    eigen_clamped,
    eigen_closed_form,
    eigen_residual,
    unstable_count,
)
from .synthesis import (
    Certificate,
    Gain,
    H2Constants,
    build_certificate,
    check_certificate,
    design_gain,
    diagnose_pair,
    select_h2_constants,
)

__version__ = "0.1.0"
