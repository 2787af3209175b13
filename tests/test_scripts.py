"""Smoke test: every script in scripts/ runs to completion on tiny inputs."""
import hashlib
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


def test_worked_example_output_is_pinned():
    # sha256 of the 21-step table, recorded before the script moved from
    # front snapshots to the front paths' methods
    out = run_script("worked_example.py", ["--steps", "21"]).stdout
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "3bfc803bf6c96268d63541e859aa92c16214e1a17b8137b6c640e8c60e87189c")


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
    # its own command, one output file per run; the own command's run also
    # holds the benchmark check's outcome, which passes or is a weak-ladder
    # order below the gate
    out = tmp_path / "digests.json"
    run_script("output_digests.py", [str(out), "--limit", "1"])
    digests = json.loads(out.read_text(encoding="utf-8"))
    assert len(digests) == 14
    assert sorted({k.split("/")[-1] for k in digests}) == [
        "oracle", "sample", "solve", "verify"]
    for key, record in digests.items():
        name = {"solve": "plan.txt", "sample": "samples.csv",
                "verify": "verify.txt", "oracle": "oracle.csv"}[key.split("/")[-1]]
        own = key.split("/")[-1] != "solve"
        assert sorted(record) == sorted(["exit", "stdout", name]
                                        + ["check"] * own)
        assert len(record[name]) == 64
        if own:
            assert record["check"] in ("", "ladder_gate"), (key, record)
