"""Smoke test: every script in scripts/ runs to completion on tiny inputs."""
import json
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
    assert run_script(script, args).stdout


def run_script(script, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script),
                           *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_output_digests_subset(tmp_path):
    # one item per workload and seed: 7 items, each run by solve and by
    # its own command, one output file per run
    out = tmp_path / "digests.json"
    run_script("output_digests.py", [str(out), "--limit", "1"])
    digests = json.loads(out.read_text(encoding="utf-8"))
    assert len(digests) == 14
    assert sorted({k.split("/")[-1] for k in digests}) == [
        "oracle", "sample", "solve", "verify"]
    for key, record in digests.items():
        name = {"solve": "plan.txt", "sample": "samples.csv",
                "verify": "verify.txt", "oracle": "oracle.csv"}[key.split("/")[-1]]
        assert sorted(record) == sorted(["exit", "stdout", name])
        assert len(record[name]) == 64
