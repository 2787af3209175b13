"""Digest the outputs of a fixed set of CLI runs, for byte-identity checks.

Runs `radialsw` in this process on the benchmark's generated items
(perfbench/workloads.py, read only):

- `solve` and `sample` on the 384 sample_grid pool items;
- `solve` and `verify` on verify_ladder items j < 120 of seeds 1..3;
- `solve` and `oracle` on oracle_ladder items j < 60 of seeds 1..3;

that is 1,848 output files.  It writes one JSON object mapping each run
("<workload>/<seed>/<j>/<command>") to its exit code and the sha256 of its
stdout and of each file it wrote.  The run of the item's own command also
records, under "check", the outcome of the workload's benchmark check:
"" (right), "ladder_gate" (right, and the weak ladder reports an order
below its gate) or the reason the output is wrong.  A verify item's run
records under "ode" the figures of its front ODE check (`xi_err`,
`sigma_err` and `residual`, as float.hex), so that a change to the front
ODE is compared bit for bit.  Run it on two trees, each with its own copy
of this script, and compare the two JSON files:

    python scripts/output_digests.py digests.json
    python scripts/output_digests.py small.json --limit 2
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from radialsw import cli  # noqa: E402

SEEDS = (1, 2, 3)
# (workload, seeds, items per seed, item maker)
ITEM_SETS = (
    ("sample_grid", ("pool",), workloads.SAMPLE_POOL,
     lambda seed, j: workloads.sample_pool_item(j)),
    ("verify_ladder", SEEDS, 120, workloads.make_verify_item),
    ("oracle_ladder", SEEDS, 60, workloads.make_oracle_item),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_item(scenario: dict, command: str, work_dir: str, check=None) -> dict:
    """Exit code and digests of stdout and every output file of one run,
    and the entries check(rc, stdout, out_dir) gives when given."""
    config = os.path.join(work_dir, "scenario.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(scenario, fh)
    out = tempfile.mkdtemp(dir=work_dir)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([command, "--config", config, "--out", out])
    record = {"exit": rc, "stdout": _sha256(buf.getvalue().encode("utf-8"))}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            record[name] = _sha256(fh.read())
    if check is not None:
        record.update(check(rc, buf.getvalue(), out))
    return record


def item_check(workload: str, item: dict, reference):
    """check(rc, stdout, out_dir) giving the outcome of the workload's
    benchmark check on one item under "check" and, for a verify item, the
    figures of the front ODE check (the benchmark check's extra input)
    under "ode"."""
    check = workloads.WORKLOADS[workload][1]

    def run_check(rc, stdout, out):
        entries, extra = {}, None
        try:
            if workload == "verify_ladder":
                extra = workloads.front_ode_check(item)
                entries["ode"] = {k: float(v).hex() for k, v in extra.items()}
            entries["check"] = check(item, rc, stdout, out, extra, reference)
        except Exception as exc:  # recorded as the item's failure reason
            entries["check"] = "raised_%s: %s" % (type(exc).__name__, exc)
        return entries
    return run_check


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="JSON file to write")
    ap.add_argument("--limit", type=int, default=None,
                    help="items per workload and seed (default: the full set)")
    args = ap.parse_args()
    digests, files = {}, 0
    reference = workloads.load_sample_reference()
    with tempfile.TemporaryDirectory() as work_dir:
        for workload, seeds, count, make in ITEM_SETS:
            for seed in seeds:
                for j in range(min(count, args.limit or count)):
                    item = make(seed, j)
                    for command in ("solve", item["command"]):
                        check = (item_check(workload, item, reference)
                                 if command == item["command"] else None)
                        record = run_item(item["scenario"], command, work_dir,
                                          check)
                        files += len(set(record) - {"exit", "stdout",
                                                    "check", "ode"})
                        digests["%s/%s/%d/%s" % (workload, seed, j,
                                                 command)] = record
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
    print("%d runs, %d output files -> %s" % (len(digests), files, args.out))


if __name__ == "__main__":
    main()
