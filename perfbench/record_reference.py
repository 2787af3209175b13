"""Record the sample_grid reference column statistics.

Run from the repository root at the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

It runs `radialsw sample` on every pool item (workloads.SAMPLE_POOL of
them) and writes perfbench/reference/sample_grid.json, which
check_sample compares each benchmark item against.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from radialsw import cli  # noqa: E402


def _round(stats):
    out = {"rows": stats["rows"], "nonfinite": stats["nonfinite"]}
    for name in workloads.SAMPLE_COLUMNS:
        out[name] = [stats[name][0]] + [float("%.12g" % x) for x in stats[name][1:]]
    return out


def main() -> int:
    work = os.path.join(ROOT, ".perfbench_run", "record")
    os.makedirs(work, exist_ok=True)
    config = os.path.join(work, "scenario.json")
    out_dir = os.path.join(work, "out")
    items = {}
    try:
        for index in range(workloads.SAMPLE_POOL):
            item = workloads.sample_pool_item(index)
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(item["scenario"], fh)
            rc = cli.main(["sample", "--config", config, "--out", out_dir])
            if rc != 0:
                raise SystemExit("pool item %d exited %d" % (index, rc))
            items[str(index)] = _round(workloads.sample_stats(
                os.path.join(out_dir, "samples.csv")))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(workloads.REFERENCE_DIR, "sample_grid.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"columns": workloads.SAMPLE_COLUMNS,
                   "stats": "per column [count, sum, abs sum, max] of finite cells",
                   "items": items}, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
