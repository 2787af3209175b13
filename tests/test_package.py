"""The package namespace: `import radialsw` loads no submodule, and every
name the package has exported resolves, on first access, to its
submodule's object."""
import importlib
import os
import subprocess
import sys

import pytest

import radialsw

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the names `from radialsw import *` bound while __init__ imported every
# submodule, by submodule
EXPORTED = {
    "core": [
        "Atom", "ConfigError", "ConservedPair", "DomainError", "LinearFront",
        "Phase", "PseudoRiemannData", "RadialSWError", "RegionProfile",
        "SolutionSample", "WavePlan", "surface_area"],
    "exact_riemann": [
        "ConstSpeedSW", "GridSample", "PostAbsorptionSW", "absorption_time",
        "classify", "evaluate", "evaluate_grid", "first_root_speed",
        "post_absorption", "second_root_speed", "solve"],
    "sw_ode": [
        "FrontIVP", "FrontTrajectory", "front_rhs", "integrate_front",
        "nonentropic_derivatives", "nonentropic_example",
        "nonentropic_outer_states", "ode_residual"],
    "verify": [
        "ResidualReport", "TestFunction", "conserved_pair",
        "default_test_function", "entropy_lhs", "fit_order",
        "is_overcompressive", "rankine_hugoniot_degenerate",
        "residual_ladder", "second_root_excluded", "weak_residual"],
    "oracle": [
        "ParticleSystem", "compare", "discretize", "front_extract",
        "largest_absorption_time"],
}


def test_bare_import_loads_no_submodule():
    code = ("import sys, radialsw; print(sorted(m for m in sys.modules"
            " if m.startswith('radialsw.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from radialsw import *", namespace)
    listed = dir(radialsw)
    for module, names in EXPORTED.items():
        mod = importlib.import_module("radialsw." + module)
        assert namespace[module] is mod and radialsw.__dict__[module] is mod
        for name in names:
            assert namespace[name] is getattr(mod, name), name
            assert getattr(radialsw, name) is getattr(mod, name), name
            assert name in listed, name
    assert set(namespace) - {"__builtins__"} == set(EXPORTED).union(
        *EXPORTED.values())


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        radialsw.nope
    # a submodule's private name is not the package's
    assert not hasattr(radialsw, "_GL_X")
