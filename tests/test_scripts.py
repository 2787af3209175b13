"""Smoke test: every script in scripts/ runs to completion on tiny inputs."""
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script, args", [
    ("oracle_convergence.py", ["--N", "200", "--times", "0.5", "2.0",
                               "--run-to", "4.2"]),
    ("weak_convergence.py", ["--halvings", "2"]),
    ("worked_example.py", ["--steps", "3"]),
    ("nonentropic_front.py", ["--steps", "3"]),
])
def test_script_exits_0(script, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script),
                           *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
