"""Alternating benchmark pairs of two checkouts, summarised per metric.

Runs `perfbench/run.py --trace 0` once in PARENT_DIR and once in
CHANGE_DIR per pair, alternating which side goes first, and reads only the
last line of each run's standard output, the run's JSON result.  Prints
each side's median and quartiles of every end-to-end metric that
CHANGE_DIR/BENCHMARK.json names, the number of pairs the change won on it
(ties count for neither), and whether the medians differ by more than the
parent's interquartile range.  One more row gives each run's minor page
faults per attempted item, from the ru_minflt of the finished run
(`resource.getrusage(RUSAGE_CHILDREN)` before and after), which counts
the run's own set-up subprocesses too, the same number on both sides.
Each run's metrics go to standard error as it ends.

Make both sides the same way, as sibling directories: a run of the main
working tree against a copy elsewhere has read differences on code paths
the change leaves alone.  For example, from the repository root:

    mkdir ../parent ../change
    git archive PARENT_COMMIT | tar -x -C ../parent
    git archive CHANGE_COMMIT | tar -x -C ../change
    python scripts/bench_pairs.py ../parent ../change \\
        --workload oracle_ladder --seed 13 --pairs 10
"""
import argparse
import json
import os
import resource
import subprocess
import sys

import numpy as np

ROW = "%-24s %-6s %-32s %-32s %-5s %s"
FAULTS = {"name": "minor_faults_per_item", "better": "lower"}


def last_json(stdout: str) -> dict:
    """The JSON object on the last line of a run's standard output."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=True)
    res = last_json(proc.stdout)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    res["metrics"][FAULTS["name"]] = {"value": faults / res["attempted"],
                                      "unit": "count/item"}
    return res


def summarize(parent: list, change: list, end_to_end: list) -> str:
    """One row per metric of end_to_end (BENCHMARK.json's entries), and
    one for FAULTS, over the paired results parent[i], change[i]."""
    rows = [ROW % (
        "metric", "better", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "beyond_parent_iqr")]
    for spec in list(end_to_end) + [FAULTS]:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pq, cq = np.percentile(p, [25, 50, 75]), np.percentile(c, [25, 50, 75])
        wins = sum(sign * (ci - pi) > 0 for pi, ci in zip(p, c))
        beyond = sign * (cq[1] - pq[1]) > pq[2] - pq[0]
        rows.append(ROW % (
            name, spec["better"],
            "%.6g [%.6g, %.6g]" % (pq[1], pq[0], pq[2]),
            "%.6g [%.6g, %.6g]" % (cq[1], cq[0], cq[2]),
            "%d/%d" % (wins, len(p)), "yes" if beyond else "no"))
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    args = ap.parse_args(argv)
    with open(os.path.join(args.change_dir, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    results = {"parent": [], "change": []}
    dirs = {"parent": args.parent_dir, "change": args.change_dir}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(dirs[side], args.workload, args.seed, seconds)
            results[side].append(res)
            print("pair %d %s: %s" % (i + 1, side, json.dumps(
                {k: v["value"] for k, v in res["metrics"].items()})),
                file=sys.stderr, flush=True)
    print("%s seed=%d pairs=%d seconds=%g" % (args.workload, args.seed,
                                              args.pairs, seconds))
    print(summarize(results["parent"], results["change"], bench["end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
