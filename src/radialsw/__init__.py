"""Exact solutions and verification tools for radially symmetric
pressureless gas flow with power-law jump data.

The solver builds global-in-time wave plans (delta fronts carrying lineal
mass, vacuum fans, contacts, origin accumulation); the companion modules
integrate general front ODEs, check conservation, dissipation, and weak
eps -> 0 limits, and cross-validate against a sticky-particle oracle.
"""
from .core import (
    Atom,
    ConfigError,
    ConservedPair,
    DomainError,
    LinearFront,
    Phase,
    PseudoRiemannData,
    RadialSWError,
    RegionProfile,
    SolutionSample,
    WavePlan,
    surface_area,
)
from .exact_riemann import (
    ConstSpeedSW,
    GridSample,
    PostAbsorptionSW,
    absorption_time,
    classify,
    evaluate,
    evaluate_grid,
    first_root_speed,
    post_absorption,
    second_root_speed,
    solve,
)
from .sw_ode import (
    FrontIVP,
    FrontTrajectory,
    front_rhs,
    integrate_front,
    nonentropic_derivatives,
    nonentropic_example,
    nonentropic_outer_states,
    ode_residual,
)
from .verify import (
    ResidualReport,
    TestFunction,
    conserved_pair,
    default_test_function,
    entropy_lhs,
    fit_order,
    is_overcompressive,
    rankine_hugoniot_degenerate,
    residual_ladder,
    second_root_excluded,
    weak_residual,
)
from .oracle import (
    ParticleSystem,
    compare,
    discretize,
    front_extract,
    largest_absorption_time,
)

__version__ = "0.1.0"
