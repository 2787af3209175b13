"""Exact solutions and verification tools for radially symmetric
pressureless gas flow with power-law jump data.

The solver builds global-in-time wave plans (delta fronts carrying lineal
mass, vacuum fans, contacts, origin accumulation); the companion modules
integrate general front ODEs, check conservation, dissipation, and weak
eps -> 0 limits, and cross-validate against a sticky-particle oracle.

The package is lazy (PEP 562): `import radialsw` loads no submodule, and
each name below imports its submodule on first access.
"""
import sys

_EXPORTS = {
    "core": (
        "Atom", "ConfigError", "ConservedPair", "DomainError", "LinearFront",
        "Phase", "PseudoRiemannData", "RadialSWError", "RegionProfile",
        "SolutionSample", "WavePlan", "surface_area"),
    "exact_riemann": (
        "ConstSpeedSW", "GridSample", "PostAbsorptionSW", "absorption_time",
        "classify", "evaluate", "evaluate_grid", "first_root_speed",
        "post_absorption", "second_root_speed", "solve"),
    "sw_ode": (
        "FrontIVP", "FrontTrajectory", "front_rhs", "integrate_front",
        "nonentropic_derivatives", "nonentropic_example",
        "nonentropic_outer_states", "ode_residual"),
    "verify": (
        "ResidualReport", "TestFunction", "conserved_pair",
        "default_test_function", "entropy_lhs", "fit_order",
        "is_overcompressive", "rankine_hugoniot_degenerate",
        "residual_ladder", "second_root_excluded", "weak_residual"),
    "oracle": (
        "ParticleSystem", "compare", "discretize", "front_extract",
        "largest_absorption_time"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}
__all__ = [*_SOURCE, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    """An exported name or a submodule, imported on first access and then
    held in the package namespace.  __import__ takes the interpreter's own
    import path, which -X importtime reports."""
    module = _SOURCE.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    __import__(__name__ + "." + module)
    value = sys.modules[__name__ + "." + module]
    if name in _SOURCE:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
