"""Smoke test: every script in scripts/ runs to completion on tiny inputs;
and the benchmark's tracer finds every name it wraps."""
import ast
import hashlib
import importlib
import importlib.util
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
    # one item per workload and seed: 7 benchmark items, each run by solve
    # and by its own command, one output file per run; the own command's
    # run also holds the benchmark check's outcome, which passes or is a
    # weak-ladder order below the gate, and a verify run the front ODE
    # check's figures; and one extreme datum, run by solve alone, with the
    # digest of its library plan
    out = tmp_path / "digests.json"
    run_script("output_digests.py", [str(out), "--limit", "1"])
    digests = json.loads(out.read_text(encoding="utf-8"))
    assert len(digests) == 15
    assert sorted({k.split("/")[-1] for k in digests}) == [
        "oracle", "sample", "solve", "verify"]
    extreme = digests.pop("solve_1e300/1/0/solve")
    assert sorted(extreme) == ["exit", "plan", "plan.txt", "stdout"]
    assert extreme["exit"] == 0 and len(extreme["plan"]) == 64
    for key, record in digests.items():
        name = {"solve": "plan.txt", "sample": "samples.csv",
                "verify": "verify.txt", "oracle": "oracle.csv"}[key.split("/")[-1]]
        own = key.split("/")[-1] != "solve"
        ode = key.split("/")[-1] == "verify"
        assert sorted(record) == sorted(["exit", "stdout", name]
                                        + ["check"] * own + ["ode"] * ode)
        assert len(record[name]) == 64
        if own:
            assert record["check"] in ("", "ladder_gate"), (key, record)
        if ode:
            assert sorted(record["ode"]) == ["residual", "sigma_err", "xi_err"]
            assert all(float.fromhex(v) >= 0.0 for v in record["ode"].values())


def test_cold_start_one_round_against_itself():
    out = run_script("cold_start.py", [ROOT, ROOT, "--rounds", "1"]).stdout
    rows = [ln.split() for ln in out.splitlines()]
    walls = {row[0]: row for row in rows[2:7]}
    assert sorted(walls) == sorted(
        ["solve", "sample", "verify", "oracle", "example64"])
    assert all(row[-1] in ("0/1", "1/1") for row in walls.values())
    modules = {(row[0], row[1]) for row in rows[9:]}
    # sample loads the package, cli, core and exact_riemann; example64 also
    # sw_ode and verify
    assert {m for c, m in modules if c == "sample"} == {
        "radialsw", "radialsw.cli", "radialsw.core", "radialsw.exact_riemann"}
    assert ("example64", "radialsw.sw_ode") in modules


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_counts_the_runs_page_faults(tmp_path):
    # a stand-in run that touches 4000 fresh pages over its 4 items
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\nbuf = bytearray(4000 * 4096)\n"
        "buf[::4096] = b'x' * 4000\n"
        "print(json.dumps({'attempted': 4, 'metrics': {}}))\n")
    res = _bench_pairs().run_once(str(tmp_path), "oracle_ladder", 1, 1.0)
    assert res["metrics"]["minor_faults_per_item"]["unit"] == "count/item"
    assert res["metrics"]["minor_faults_per_item"]["value"] >= 1000


def test_bench_pairs_summary_on_canned_runs():
    bench_pairs = _bench_pairs()

    def line(throughput, p50, faults):
        return "oracle_ladder seed=13 runs=2000\n" + json.dumps({
            "correct": True, "attempted": 2000, "failed": 0, "metrics": {
                "throughput_items_per_s": {"value": throughput, "unit": "1/s"},
                "latency_p50_ms": {"value": p50, "unit": "ms"},
                "minor_faults_per_item": {"value": faults,
                                          "unit": "count/item"}}}) + "\n"

    parent = [bench_pairs.last_json(line(x, 4.0, f)) for x, f in (
        (180.0, 230.0), (184.0, 236.0), (186.0, 240.0), (188.0, 232.0),
        (190.0, 234.0))]
    change = [bench_pairs.last_json(line(x, y, f)) for x, y, f in (
        (200.0, 3.5, 90.0), (205.0, 4.0, 250.0), (170.0, 4.5, 88.0),
        (210.0, 3.7, 94.0), (208.0, 3.9, 92.0))]
    rows = bench_pairs.summarize(parent, change, [
        {"name": "throughput_items_per_s", "better": "higher"},
        {"name": "latency_p50_ms", "better": "lower"}]).splitlines()
    assert rows[1].split() == ["throughput_items_per_s", "higher",
                               "186", "[184,", "188]", "205", "[200,", "208]",
                               "4/5", "yes"]
    # a tie (4.0 on both sides) counts for neither side
    assert rows[2].split() == ["latency_p50_ms", "lower", "4", "[4,", "4]",
                               "3.9", "[3.7,", "4]", "3/5", "yes"]
    # the page-fault row follows the benchmark's own metrics
    assert rows[3].split() == ["minor_faults_per_item", "lower", "234",
                               "[232,", "236]", "92", "[90,", "94]", "4/5",
                               "yes"]
    assert len(rows) == 4


def tracer_targets(path):
    """(owner, attr) of every tr.wrap(owner, "attr", ...) and
    tr.count(owner, "attr", ...) call in the file, owner as its dotted
    source text."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [(ast.unparse(node.args[0]), node.args[1].value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("wrap", "count")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "tr"]


def test_benchmark_tracer_targets_exist():
    # perfbench/run.py --trace 1 patches these names; a missing one fails
    # only there, with a KeyError or AttributeError
    path = os.path.join(ROOT, "perfbench", "run.py")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    targets = tracer_targets(path)
    assert len(targets) == text.count("tr.wrap(") + text.count("tr.count(")
    for owner_text, attr in targets:
        head, *rest = owner_text.split(".")
        owner = importlib.import_module("radialsw." + head)
        for name in rest:
            owner = getattr(owner, name)
        # resolved as Tracer does: a class's own attribute, a module's any
        if isinstance(owner, type):
            assert attr in owner.__dict__, (owner_text, attr)
        else:
            assert callable(getattr(owner, attr, None)), (owner_text, attr)
