"""Cold-start wall time of `python -m radialsw <command>` in two checkouts.

Each round runs every command once per tree in a fresh interpreter,
alternating which tree goes first, through perfbench/run.py's own
`spawn_command` (loaded from this repository, read only): the benchmark's
minimal scenario of that command, its WORKED datum with its MINIMAL
section (solve and example64 take the datum alone).  Each round also runs
every command once per tree with `-X importtime`.  Prints, per command,
each tree's median wall time and quartiles, the median paired difference
(change minus parent) and the number of rounds the change was faster;
then, per command, the median `-X importtime` self milliseconds of each
radialsw module either tree loaded ("-" where a tree did not load it).
perfbench/run.py's `import_times` gives only cumulative times of the bare
package, hence the self-time parser here.

    python scripts/cold_start.py ../parent ../change --rounds 20
"""
import argparse
import importlib.util
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("solve", "sample", "verify", "oracle", "example64")
SIDES = ("parent", "change")


def load_spawner():
    """perfbench/run.py as a module whose `spawn_command` takes a command
    name in place of a workload name, for every one of COMMANDS."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    run.COMMANDS = {command: command for command in COMMANDS}
    run.MINIMAL = dict({command: {} for command in COMMANDS}, **run.MINIMAL)
    return run


def run_once(run, checkout: str, command: str, work: str,
             importtime: bool = False):
    """(wall seconds, stderr) of one fresh `python -m radialsw` run on the
    checkout's src/."""
    run.ROOT, run.SRC = checkout, os.path.join(checkout, "src")
    return run.spawn_command(command, work, importtime)


def self_ms(stderr: str) -> dict:
    """{module: self milliseconds} of the radialsw modules in -X importtime
    output."""
    times = {}
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if line.startswith("import time:") and len(parts) == 3 \
                and parts[0].strip().isdigit():
            name = parts[2].strip()
            if name == "radialsw" or name.startswith("radialsw."):
                times[name] = int(parts[0]) / 1000.0
    return times


def summarize(walls: dict, imports: dict) -> str:
    """Rows of the report from walls[side][command] (seconds per round) and
    imports[side][command] (self_ms dicts per round)."""
    rows = ["%-10s %-26s %-26s %-14s %s" % (
        "command", "parent ms median [q1, q3]", "change ms median [q1, q3]",
        "median_diff_ms", "change_wins")]
    for command in COMMANDS:
        p, c = (1e3 * np.asarray(walls[side][command]) for side in SIDES)
        pq, cq = np.percentile(p, [25, 50, 75]), np.percentile(c, [25, 50, 75])
        rows.append("%-10s %-26s %-26s %-14s %d/%d" % (
            command, "%.1f [%.1f, %.1f]" % (pq[1], pq[0], pq[2]),
            "%.1f [%.1f, %.1f]" % (cq[1], cq[0], cq[2]),
            "%+.1f" % np.median(c - p), int(np.sum(c < p)), p.size))
    rows.append("")
    rows.append("%-10s %-24s %-10s %s" % (
        "command", "module (-X importtime)", "parent_ms", "change_ms"))
    for command in COMMANDS:
        modules = sorted({m for side in SIDES for run in imports[side][command]
                          for m in run})
        for module in modules:
            cells = []
            for side in SIDES:
                runs = imports[side][command]
                cells.append("%.2f" % np.median([run[module] for run in runs])
                             if all(module in run for run in runs) else "-")
            rows.append("%-10s %-24s %-10s %s" % (command, module, *cells))
    return "\n".join(rows)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    dirs = {"parent": os.path.abspath(args.parent_dir),
            "change": os.path.abspath(args.change_dir)}
    walls = {side: {command: [] for command in COMMANDS} for side in SIDES}
    imports = {side: {command: [] for command in COMMANDS} for side in SIDES}
    run = load_spawner()
    with tempfile.TemporaryDirectory() as work:
        for i in range(args.rounds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for command in COMMANDS:
                for side in order:
                    walls[side][command].append(run_once(
                        run, dirs[side], command, work)[0])
                for side in order:
                    imports[side][command].append(self_ms(run_once(
                        run, dirs[side], command, work, True)[1]))
    print("cold start, rounds=%d" % args.rounds)
    print(summarize(walls, imports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
