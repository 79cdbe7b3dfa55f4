"""Radial vortex profiles, escape thresholds, and second-variation stability
on the unit ball."""

from .core import (  # noqa: F401
    BracketError,
    ConvergenceError,
    DomainError,
    InconsistentError,
    InputError,
    NoEscapingRegionError,
    NoThresholdError,
    OutOfRangeError,
    Potential,
    RadialGrid,
    VortexLabError,
    format_float,
    grid_from_spec,
    make_grid,
    potential_eval,
)
from .profiles import (  # noqa: F401
    ExtendedProfile,
    GLProfile,
    SolverOptions,
    SphereProfile,
    pohozaev_check,
    profile_from_json,
    profile_to_csv,
    profile_to_json,
    reduced_energy_extended,
    reduced_energy_gl,
    reduced_energy_mm,
    residual,
    solve_extended_profile,
    solve_gl_profile,
    solve_sphere_profile,
)
from .spectral import (  # noqa: F401
    EigenPair,
    RadialPencil,
    assemble_radial_operator,
    find_epsilon0,
    gl_linearization_eigenvalue,
    linearization_eigenvalue_sweep,
    smallest_eigenpair,
    sweep_to_csv,
)
from .phase import (  # noqa: F401
    PhaseDiagram,
    PhasePoint,
    classify_point,
    eta0,
    sweep,
)
from .stability import (  # noqa: F401
    EquatorInstability,
    StabilityReport,
    decomposition_check,
    divfree_certificate,
    equator_instability_value,
    hardy_identity_check,
    mode_block,
    mode_form_value,
    mode_min_eigenvalue,
    spectrum_summary,
    sphere_eigenvalues,
)

# the radial operator and the mode blocks are one pencil type
SLOperator = ModeBlock = RadialPencil

__version__ = "0.1.0"
