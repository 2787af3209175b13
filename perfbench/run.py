"""radialsw benchmark: closed-loop batches of CLI commands on generated scenarios.

Run from the repository root:

    python3 perfbench/run.py --workload sample_grid --seed 1 --seconds 30 --trace 0

One client in one process calls `radialsw.cli.main([...])` once per item,
waits for it, checks its output, and only then sends the next item (a
closed loop, no threads, RADIAL_SW_THREADS unset).  Items are generated
from --seed (see workloads.py).  With --trace 0 the run reports the
end-to-end metrics, its timings scaled by the machine's measured speed;
with --trace 1 it runs each item twice, plain and with spans around the
library's public functions, and reports the per-layer metrics.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

MIN_ITEMS = 100          # so that at least 10 items lie beyond the p90
# a typical mean calibrate() time on the machine the baseline was recorded
# on (2 vCPUs, Intel Xeon 2.1 GHz); timings are scaled to it
CAL_REF_S = 1.2e-3
MAX_MEASURE_S = 120.0    # hard stop, keeps a slow program under 180 s
SETUP_SPAWNS = 9
IMPORT_SPAWNS = 3
TRACE_SHARE = 0.8        # of --seconds spent on plain + traced item pairs
TRACE_MIN_ITEMS = 10
IMPORT_MODULES = {"import.radialsw_ms": "radialsw",
                  "import.scipy_optimize_ms": "scipy.optimize",
                  "import.scipy_integrate_ms": "scipy.integrate"}

WORKED = {"n": 2, "R": 1.0, "rho_l": 1.0, "rho_r": 1.0, "u_l": 1.0, "u_r": -1.0}
MINIMAL = {
    "sample": {"sample": {"r": [0.1, 0.5, 2.0], "t": [0.0, 1.0]}},
    "verify": {"verify": {"conservation": True, "entropy": True,
                          "weak_ladder": False, "example64": False}},
    "oracle": {"oracle": {"N": [10], "r_max": 5.3, "times": [0.5]}},
}
COMMANDS = {"sample_grid": "sample", "verify_ladder": "verify",
            "oracle_ladder": "oracle"}


class Runner:
    """Runs one item through the CLI in-process and checks its outputs."""

    def __init__(self, workload: str, work_dir: str):
        import workloads
        self.wl = workloads
        self.make, self.check = workloads.WORKLOADS[workload]
        self.reference = (workloads.load_sample_reference()
                          if workload == "sample_grid" else None)
        self.front_ode = workload == "verify_ladder"
        self.config = os.path.join(work_dir, "scenario.json")
        self.out = os.path.join(work_dir, "out")

    def run(self, item, tracer=None, item_id=-1):
        """(latency seconds, None or a record of why the item did not pass).

        The record's "failed" is False for a check outcome
        (workloads.LADDER_GATE): the output is right, and the CLI reports a
        failed check of its own."""
        from radialsw import cli
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(item["scenario"], fh)
        shutil.rmtree(self.out, ignore_errors=True)
        argv = [item["command"], "--config", self.config, "--out", self.out]
        buf = io.StringIO()
        extra = None
        if tracer is not None:
            tracer.item_id = item_id
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            if self.front_ode:
                extra = self.wl.front_ode_check(item)
        except (Exception, SystemExit) as exc:
            reason = "raised_%s: %s" % (type(exc).__name__, exc)
        else:
            reason = None
        finally:
            latency = perf_counter() - t0
            if tracer is not None:
                tracer.item_id = -1
        if reason is None:
            try:
                reason = self.check(item, rc, buf.getvalue(), self.out, extra,
                                    self.reference)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                reason = "unreadable_output_%s" % type(exc).__name__
        if not reason:
            return latency, None
        return latency, {"index": item["index"], "case": item["case"],
                         "reason": reason.split(":")[0],
                         "failed": reason != self.wl.LADDER_GATE,
                         "data": item["scenario"]["data"],
                         "detail": [ln for ln in buf.getvalue().splitlines()
                                    if " FAIL " in ln and "expected" not in ln]
                         or reason}


def spawn_command(workload: str, work_dir: str, importtime: bool):
    """Fresh-interpreter run of the workload's command on a minimal
    scenario; returns (wall seconds, stderr)."""
    command = COMMANDS[workload]
    path = os.path.join(work_dir, "minimal_%s.json" % command)
    scenario = {"schema": "radialsw-scenario-1", "data": WORKED, "t_max": 5.0}
    scenario.update(MINIMAL[command])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh)
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        "-m", "radialsw", command, "--config", path,
        "--out", os.path.join(work_dir, "minimal_out")]
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("RADIAL_SW_THREADS", None)
    t0 = perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    wall = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("minimal %s exited %d: %s"
                           % (command, proc.returncode, proc.stderr[-500:]))
    return wall, proc.stderr


def import_times(stderr: str) -> dict:
    """Cumulative -X importtime milliseconds of the IMPORT_MODULES."""
    cumulative = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1000.0
    return {key: cumulative.get(mod, 0.0) for key, mod in IMPORT_MODULES.items()}


def machine_record(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "loadavg_start": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace,
            "loop": "closed loop, 1 client, 1 process, no threads, "
                    "RADIAL_SW_THREADS unset"}


def calibrate() -> float:
    """Seconds one fixed piece of benchmark-owned work takes: float
    arithmetic in a Python loop, %.17g formatting and small numpy
    operations, the mix the program spends its time on."""
    import numpy as np
    t0 = perf_counter()
    acc = 0.0
    for i in range(3000):
        acc += (i * 0.5) ** 0.5 / (1.0 + i)
    ["%.17g" % (k * acc) for k in range(600)]
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(60):
        a = np.sqrt(a * a + 1.0) - 0.5
    return perf_counter() - t0


def end_to_end(args, runner, work_dir):
    """Items j = 0, 1, ... until at least MIN_ITEMS have run and --seconds
    have passed, with one calibrate() before each.  The SETUP_SPAWNS set-up
    spawns are spread evenly over the run; their time does not count
    towards --seconds.

    The machine's speed swings by up to a factor of two within minutes
    (see perfbench/README.md, "Noise"), and calibrate() swings with it.
    Item latencies and set-up times are therefore divided by the run's
    slowdown, the mean calibrate() time over CAL_REF_S; the unscaled
    figures go to the record."""
    lat, outcomes, cal, setup = [], [], [], []
    t_begin = perf_counter()
    spawn_s = 0.0
    while True:
        cal.append(calibrate())
        latency, outcome = runner.run(runner.make(args.seed, len(lat)))
        lat.append(latency)
        outcomes.append(outcome)
        elapsed = perf_counter() - t_begin - spawn_s
        due = min(SETUP_SPAWNS, int(SETUP_SPAWNS * elapsed / args.seconds))
        if len(setup) < due:
            t0 = perf_counter()
            setup.append(spawn_command(args.workload, work_dir, False)[0])
            spawn_s += perf_counter() - t0
        if (len(lat) >= MIN_ITEMS and elapsed >= args.seconds) \
                or elapsed >= MAX_MEASURE_S:
            break
    while len(setup) < SETUP_SPAWNS:
        setup.append(spawn_command(args.workload, work_dir, False)[0])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    slowdown = statistics.mean(cal) / CAL_REF_S
    n = len(lat)

    def timings(scale):
        scaled = [x / scale for x in lat]
        return {
            "throughput_items_per_s": (n / sum(scaled), "1/s", n),
            "latency_p50_ms": (1e3 * statistics.median(scaled), "ms", n),
            "latency_p90_ms": (1e3 * statistics.quantiles(
                scaled, n=10, method="inclusive")[8], "ms", n),
        }

    metrics = timings(slowdown)
    metrics.update({
        "setup_s": (statistics.median(setup) / slowdown, "s", len(setup)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "passed_frac": (sum(o is None for o in outcomes) / n, "ratio", n),
    })
    unscaled = {k: v for k, (v, _, _) in timings(1.0).items()}
    unscaled["setup_s"] = statistics.median(setup)
    raw = {"slowdown": slowdown, "calibrate_s": cal, "latencies_s": lat,
           "setup_runs_s": setup, "timings": unscaled}
    return outcomes, metrics, raw


def per_layer(args, runner, work_dir):
    from tracing import Tracer
    from radialsw import cli, core, exact_riemann, oracle, sw_ode, verify

    tr = Tracer()
    systems = []

    def after_residual_ladder(report):
        tr.add("verify.ladder_points_below_floor", sum(
            1 for res in report.residuals.values() for r in res
            if abs(r) < verify.ORDER_FIT_FLOOR))

    def after_discretize(ps):
        systems.append((ps, ps.alive_count))

    def after_item(out_dir):
        for ps, n0 in systems:
            deposits = len(ps.absorptions)
            tr.add("oracle.particles", n0)
            tr.add("oracle.deposits", deposits)
            tr.add("oracle.merges", n0 - ps.alive_count - deposits)
        systems.clear()
        for name in (os.listdir(out_dir) if os.path.isdir(out_dir) else ()):
            path = os.path.join(out_dir, name)
            tr.add("cli.bytes_written", os.path.getsize(path))
            with open(path, "rb") as fh:
                rows = fh.read().count(b"\n")
            tr.add("cli.rows_written", rows - (1 if name.endswith(".csv") else 0))

    tr.wrap(cli, "main", "cli.main")
    tr.wrap(exact_riemann, "solve", "exact_riemann.solve")
    tr.wrap(exact_riemann, "evaluate", "exact_riemann.evaluate")
    tr.wrap(core.WavePlan, "phase_at", "core.phase_at")
    tr.wrap(verify, "residual_ladder", "verify.residual_ladder",
            after_residual_ladder)
    tr.wrap(verify, "weak_residual", "verify.weak_residual")
    tr.wrap(verify, "conserved_pair", "verify.conserved_pair")
    tr.count(verify.TestFunction, "dt", "verify.panels")
    tr.wrap(sw_ode, "integrate_front", "sw_ode.integrate_front",
            lambda traj: tr.add("sw_ode.steps", int(traj.t.size)))
    tr.wrap(sw_ode, "ode_residual", "sw_ode.ode_residual")
    tr.wrap(oracle, "discretize", "oracle.discretize", after_discretize)
    tr.wrap(oracle.ParticleSystem, "run_until", "oracle.run_until")
    tr.wrap(oracle, "compare", "oracle.compare")
    # each item runs once plain and once traced, alternating which goes
    # first, so that warm-up effects cancel out of trace.overhead_frac
    lat0, lat1, outcomes = [], [], []
    t_begin = perf_counter()
    while True:
        j = len(lat1)
        item = runner.make(args.seed, j)
        for traced in ((False, True) if j % 2 == 0 else (True, False)):
            if traced:
                with tr.installed():
                    lat, outcome = runner.run(item, tr, j)
                after_item(runner.out)
                lat1.append(lat)
            else:
                lat, outcome = runner.run(item)
                lat0.append(lat)
            outcomes.append(outcome)
        elapsed = perf_counter() - t_begin
        if (j + 1 >= TRACE_MIN_ITEMS and elapsed >= TRACE_SHARE * args.seconds) \
                or elapsed >= MAX_MEASURE_S:
            break

    os.makedirs(os.path.join(RUN_DIR, "traces"), exist_ok=True)
    tr.save(os.path.join(RUN_DIR, "traces", "%s.npz" % args.workload))
    summary = tr.summary()
    k = len(lat1)
    untraced, traced = sum(lat0), sum(lat1)
    spans = {name: v for name, v in summary.items() if name is not None}

    def calls(name):
        return spans[name][0] / k

    def self_s(name):
        return spans[name][2] / k

    imports = [import_times(spawn_command(args.workload, work_dir, True)[1])
               for _ in range(IMPORT_SPAWNS)]
    ev_calls = spans["exact_riemann.evaluate"][0]
    particles = tr.counts.get("oracle.particles", 0)

    def per(name):
        return tr.counts.get(name, 0) / k

    metrics = {
        "core.phase_at.calls": (calls("core.phase_at"), "count/item"),
        "core.phase_at.self_s": (self_s("core.phase_at"), "s/item"),
        "exact_riemann.solve.calls": (calls("exact_riemann.solve"), "count/item"),
        "exact_riemann.solve.self_s": (self_s("exact_riemann.solve"), "s/item"),
        "exact_riemann.evaluate.calls": (calls("exact_riemann.evaluate"), "count/item"),
        "exact_riemann.evaluate.self_s": (self_s("exact_riemann.evaluate"), "s/item"),
        "exact_riemann.evaluate.us_per_call": (
            1e6 * spans["exact_riemann.evaluate"][2] / ev_calls if ev_calls else 0.0,
            "us"),
        "verify.residual_ladder.self_s": (self_s("verify.residual_ladder"), "s/item"),
        "verify.weak_residual.calls": (calls("verify.weak_residual"), "count/item"),
        "verify.weak_residual.self_s": (self_s("verify.weak_residual"), "s/item"),
        "verify.panels": (per("verify.panels"), "count/item"),
        "verify.ladder_points_below_floor": (
            per("verify.ladder_points_below_floor"), "count/item"),
        "verify.conserved_pair.self_s": (self_s("verify.conserved_pair"), "s/item"),
        "sw_ode.integrate_front.calls": (calls("sw_ode.integrate_front"), "count/item"),
        "sw_ode.integrate_front.self_s": (self_s("sw_ode.integrate_front"), "s/item"),
        "sw_ode.steps": (per("sw_ode.steps"), "count/item"),
        "sw_ode.ode_residual.self_s": (self_s("sw_ode.ode_residual"), "s/item"),
        "oracle.run_until.self_s": (self_s("oracle.run_until"), "s/item"),
        "oracle.run_until.ns_per_particle": (
            1e9 * spans["oracle.run_until"][2] / particles if particles else 0.0,
            "ns"),
        "oracle.discretize.self_s": (self_s("oracle.discretize"), "s/item"),
        "oracle.compare.self_s": (self_s("oracle.compare"), "s/item"),
        "oracle.particles": (per("oracle.particles"), "count/item"),
        "oracle.merges": (per("oracle.merges"), "count/item"),
        "oracle.deposits": (per("oracle.deposits"), "count/item"),
        "cli.main.self_s": (self_s("cli.main"), "s/item"),
        "cli.bytes_written": (per("cli.bytes_written"), "B/item"),
        "cli.rows_written": (per("cli.rows_written"), "count/item"),
    }
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    metrics["trace.coverage_frac"] = (summary[None] / traced, "ratio")
    metrics = {name: (v, unit, k) for name, (v, unit) in metrics.items()}
    for key in IMPORT_MODULES:
        metrics[key] = (statistics.median(d[key] for d in imports), "ms",
                        IMPORT_SPAWNS)
    dominant = max((v[2], name) for name, v in spans.items())[1]
    return outcomes, metrics, {"items_traced": k, "spans": len(tr.start),
                               "dominant_self_time": dominant}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "radialsw", "__init__.py")):
        print("perfbench: %s has no src/radialsw; run from the repository root"
              % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("RADIAL_SW_THREADS", None)

    record = machine_record(args)
    work_dir = os.path.join(RUN_DIR, "work-%d" % os.getpid())
    os.makedirs(work_dir)
    try:
        runner = Runner(args.workload, work_dir)
        runner.run(runner.make(args.seed, -1))   # warm-up item, not measured
        if args.trace:
            outcomes, metrics, extra = per_layer(args, runner, work_dir)
            record.update(extra)
        else:
            outcomes, metrics, raw = end_to_end(args, runner, work_dir)
            record["raw"] = raw
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(outcomes)
    not_passed = [o for o in outcomes if o is not None]
    failed = [o for o in not_passed if o["failed"]]
    reasons = {}
    for o in not_passed:
        reasons[o["reason"]] = reasons.get(o["reason"], 0) + 1
    record.update({"attempted": attempted, "reasons": reasons,
                   "failed": len(failed), "failed_frac": len(failed) / attempted,
                   "not_passed_items": not_passed,
                   "metrics": {k: {"value": v, "unit": u, "samples": s}
                               for k, (v, u, s) in metrics.items()}})
    os.makedirs(os.path.join(RUN_DIR, "results"), exist_ok=True)
    with open(os.path.join(RUN_DIR, "results", "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("%s seed=%d runs=%d (%s)" % (args.workload, args.seed, attempted,
                                       record["loop"]))
    for name, (value, unit, samples) in metrics.items():
        print("  %-36s %14.6g %-10s n=%d" % (name, value, unit, samples))
    if "raw" in record:
        print("  timings above divided by slowdown %.4f (mean "
              "calibrate %.4g ms over %d); unscaled: %s" % (
                  record["raw"]["slowdown"], 1e3 * CAL_REF_S
                  * record["raw"]["slowdown"], len(record["raw"]["calibrate_s"]),
                  ", ".join("%s %.6g" % kv
                            for kv in record["raw"]["timings"].items())))
    print("  %-36s %14.6g %-10s n=%d (failed %d of %d attempted; did not "
          "pass: %s)" % ("failed_frac", record["failed_frac"], "ratio",
                         attempted, len(failed), attempted, reasons or "none"))
    print(json.dumps({"record": {k: record[k] for k in (
        "nproc", "cpu", "loadavg_start", "python", "numpy", "scipy", "seed",
        "attempted", "loop")}}))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
