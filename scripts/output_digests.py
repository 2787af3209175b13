"""Digest the outputs of a fixed set of CLI runs, for byte-identity checks.

Runs `radialsw` in this process on the benchmark's generated items
(perfbench/workloads.py, read only):

- `solve` and `sample` on the 384 sample_grid pool items;
- `solve` and `verify` on verify_ladder items j < 120 of seeds 1..3;
- `solve` and `oracle` on oracle_ladder items j < 60 of seeds 1..3;
- `solve` on 2,000 seeded data of every case kind, n = 1..4, whose R,
  densities, speeds and t_max are log-uniform in 1e±300 (speeds of either
  sign, half of them delta shocks; "solve_1e300/1/<j>");

that is 1,848 output files from the benchmark's items, plus a plan.txt
for each extreme datum `solve` accepts.  It writes one JSON object mapping
each run ("<workload>/<seed>/<j>/<command>") to its exit code and the
sha256 of its stdout and of each file it wrote.  The run of the item's own
command also records, under "check", the outcome of the workload's
benchmark check: "" (right), "ladder_gate" (right, and the weak ladder
reports an order below its gate) or the reason the output is wrong.  A
verify item's run records under "ode" the figures of its front ODE check
(`xi_err`, `sigma_err` and `residual`, as float.hex), so that a change to
the front ODE is compared bit for bit.  An extreme datum's run records
under "plan" the sha256 of the library plan's `repr((phases, events))`,
which holds every bit of its events, fronts and m0/p0 ledgers, or the
error `solve` raised.  Run it on two trees, each with its own copy of this
script, and compare the two JSON files:

    python scripts/output_digests.py digests.json
    python scripts/output_digests.py small.json --limit 2
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from radialsw import cli, exact_riemann  # noqa: E402
from radialsw.core import (  # noqa: E402
    ALL_VACUUM, CASE_CONTACT, CASE_KINDS, DELTA_SHOCK, VACUUM_LEFT_SHOCK,
    VACUUM_RIGHT_SHOCK, DomainError, PseudoRiemannData,
)

SEEDS = (1, 2, 3)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_extreme_item(seed: int, j: int) -> dict:
    """A `solve` item on the j-th datum of the seed: half delta shocks, the
    rest the six case kinds in turn, n = 1..4, and R, densities, speeds and
    t_max log-uniform in 1e±300 (the standard library's generator only)."""
    rng = random.Random(1000003 * seed + j)

    def magnitude():
        return 10.0 ** rng.uniform(-300.0, 300.0)

    kind = DELTA_SHOCK if j % 2 else CASE_KINDS[j // 2 % len(CASE_KINDS)]
    u_l, u_r = sorted(rng.choice((-1.0, 1.0)) * magnitude() for _ in "lr")
    if kind == DELTA_SHOCK:
        u_l, u_r = u_r, u_l
    elif kind == CASE_CONTACT:
        u_r = u_l
    rho_l, rho_r = magnitude(), magnitude()
    if kind in (ALL_VACUUM, VACUUM_LEFT_SHOCK):
        rho_l = 0.0
    if kind in (ALL_VACUUM, VACUUM_RIGHT_SHOCK):
        rho_r = 0.0
    data = {"n": rng.randint(1, 4), "R": magnitude(), "rho_l": rho_l,
            "rho_r": rho_r, "u_l": u_l, "u_r": u_r}
    return {"command": "solve", "scenario": {
        "schema": cli.SCHEMA, "data": data, "t_max": magnitude()}}


def plan_check(workload: str, item: dict, reference):
    """check(rc, stdout, out_dir) giving under "plan" the sha256 of the
    library plan's repr((phases, events)), or the error solve raised."""
    sc = item["scenario"]

    def run_check(rc, stdout, out):
        try:
            plan = exact_riemann.solve(PseudoRiemannData(**sc["data"]),
                                       sc["t_max"])
        except DomainError as exc:
            return {"plan": "raised: %s" % exc}
        return {"plan": _sha256(repr((plan.phases, plan.events)).encode())}
    return run_check


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


# (workload, seeds, items per seed, item maker, check of the own command)
ITEM_SETS = (
    ("sample_grid", ("pool",), workloads.SAMPLE_POOL,
     lambda seed, j: workloads.sample_pool_item(j), item_check),
    ("verify_ladder", SEEDS, 120, workloads.make_verify_item, item_check),
    ("oracle_ladder", SEEDS, 60, workloads.make_oracle_item, item_check),
    ("solve_1e300", (1,), 2000, make_extreme_item, plan_check),
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", help="JSON file to write")
    ap.add_argument("--limit", type=int, default=None,
                    help="items per workload and seed (default: the full set)")
    args = ap.parse_args()
    digests, files = {}, 0
    reference = workloads.load_sample_reference()
    with tempfile.TemporaryDirectory() as work_dir:
        for workload, seeds, count, make, own_check in ITEM_SETS:
            for seed in seeds:
                for j in range(min(count, args.limit or count)):
                    item = make(seed, j)
                    for command in dict.fromkeys(("solve", item["command"])):
                        check = (own_check(workload, item, reference)
                                 if command == item["command"] else None)
                        record = run_item(item["scenario"], command, work_dir,
                                          check)
                        files += len(set(record) - {"exit", "stdout", "check",
                                                    "ode", "plan"})
                        digests["%s/%s/%d/%s" % (workload, seed, j,
                                                 command)] = record
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
    print("%d runs, %d output files -> %s" % (len(digests), files, args.out))


if __name__ == "__main__":
    main()
