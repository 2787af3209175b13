import csv
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings
from itertools import combinations_with_replacement, repeat

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import radialsw.cli as cli
import radialsw.exact_riemann as exact
from grid_strategies import sampled_plans

DATA = pathlib.Path(__file__).parent / "data"

WORKED = {"n": 2, "R": 1.0, "rho_l": 1.0, "rho_r": 1.0, "u_l": 1.0, "u_r": -1.0}
CONTACT = {"n": 2, "R": 1.0, "rho_l": 2.0, "rho_r": 0.5, "u_l": 1.0, "u_r": 1.0}
VACUUM = {"n": 2, "R": 1.0, "rho_l": 0.0, "rho_r": 0.0, "u_l": 0.0, "u_r": 0.0}


def write_config(tmp_path, name="scenario.json", **overrides):
    cfg = {"schema": cli.SCHEMA, "data": dict(WORKED), "t_max": 5.0}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def run(tmp_path, command, config, subdir="out"):
    out = tmp_path / subdir
    code = cli.main([command, "--config", config, "--out", str(out)])
    return code, out


# ---------------------------------------------------------------------------
# configuration loading

def test_missing_config_file_exits_2(tmp_path, capsys):
    code, _ = run(tmp_path, "solve", str(tmp_path / "nope.json"))
    assert code == 2
    assert "config error:" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, _ = run(tmp_path, "solve", str(path))
    assert code == 2


def test_wrong_schema_exits_2(tmp_path):
    cfg = write_config(tmp_path, schema="radialsw-scenario-0")
    assert run(tmp_path, "solve", cfg)[0] == 2


def test_missing_data_key_exits_2(tmp_path):
    data = dict(WORKED)
    del data["u_r"]
    cfg = write_config(tmp_path, data=data)
    assert run(tmp_path, "solve", cfg)[0] == 2


def test_bad_data_exits_2(tmp_path):
    # n = 2.7 must not be truncated to 2, nor a JSON true read as n = 1
    for name, bad in [("rho_l", {"rho_l": -1.0}), ("n_fraction", {"n": 2.7}),
                      ("n_true", {"n": True}), ("n_inf", {"n": math.inf})]:
        code, out = run(tmp_path, "solve",
                        write_config(tmp_path, data=dict(WORKED, **bad)), name)
        assert code == 2, name
        assert not out.exists() or not os.listdir(out), name


def test_nonpositive_t_max_exits_2(tmp_path):
    cfg = write_config(tmp_path, t_max=0.0)
    assert run(tmp_path, "solve", cfg)[0] == 2


def test_bad_grids_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, sample={"r": []})
    assert run(tmp_path, "sample", cfg)[0] == 2
    cfg = write_config(tmp_path, sample={"r": [2.0, 1.0]})
    assert run(tmp_path, "sample", cfg)[0] == 2
    cfg = write_config(tmp_path, sample={"r": {"start": 0.1, "stop": 2.0}})
    assert run(tmp_path, "sample", cfg)[0] == 2
    cfg = write_config(tmp_path, sample={"r": "0.1 2.0"})
    assert run(tmp_path, "sample", cfg)[0] == 2
    assert "r grid must be a list or start/stop/count" in capsys.readouterr().err
    cfg = write_config(tmp_path, sample={"r": {"start": "near", "stop": 2.0,
                                               "count": 3}})
    assert run(tmp_path, "sample", cfg)[0] == 2
    assert "bad r grid" in capsys.readouterr().err


def test_t_grid_beyond_t_max_exits_2(tmp_path):
    cfg = write_config(tmp_path, t_max=1.0, sample={"t": [0.0, 2.0]})
    assert run(tmp_path, "sample", cfg)[0] == 2


@pytest.mark.parametrize("command, overrides", [
    ("sample", {"sample": {"t": [-0.5, 1.0]}}),
    ("sample", {"t_max": math.inf}),
    ("sample", {"sample": {"t": [0.0, math.nan, 1.0]}}),
    ("sample", {"sample": {"r": [math.nan, 1.0]}}),
    ("sample", {"sample": {"r": {"start": 0.1, "stop": 2.0, "count": -3}}}),
    ("sample", {"sample": {"r": {"start": 0.1, "stop": 2.0, "count": 2.5}}}),
    ("sample", {"sample": {"r": {"start": 0.1, "stop": 2.0, "count": True}}}),
    ("oracle", {"oracle": {"N": [100], "times": [0.5, math.nan]}}),
    ("oracle", {"oracle": {"N": [10], "times": []}}),
    ("oracle", {"oracle": {"N": [10], "times": [-0.5]}}),
    ("verify", {"verify": {"r_max": math.nan}}),
    ("oracle", {"oracle": {"N": [100], "r_max": math.inf}}),
    ("oracle", {"oracle": {"N": [100], "r_max": -1.0}}),
    ("verify", {"data": VACUUM, "verify": {"r_max": -1.0}}),
    ("verify", {"verify": {"r_max": 0.0}}),
], ids=["t_below_0", "t_max_inf", "t_nan", "r_nan", "count_negative",
        "count_fraction", "count_true", "oracle_time_nan", "oracle_times_empty",
        "oracle_time_below_0", "verify_r_max_nan", "oracle_r_max_inf",
        "oracle_r_max_negative", "verify_r_max_negative_vacuum",
        "verify_r_max_zero"])
def test_out_of_domain_grids_and_times_exit_2(tmp_path, capsys, command,
                                              overrides):
    code, out = run(tmp_path, command, write_config(tmp_path, **overrides))
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def test_bad_oracle_N_exits_2(tmp_path):
    cfg = write_config(tmp_path, oracle={"N": []})
    assert run(tmp_path, "oracle", cfg)[0] == 2
    cfg = write_config(tmp_path, oracle={"N": 100})
    assert run(tmp_path, "oracle", cfg)[0] == 2
    cfg = write_config(tmp_path, oracle={"N": [2.7], "times": [0.5]})
    assert run(tmp_path, "oracle", cfg)[0] == 2
    cfg = write_config(tmp_path, oracle={"N": [True, 10], "times": [0.5]})
    code, out = run(tmp_path, "oracle", cfg, "N_true")
    assert code == 2
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("command, overrides", [
    ("solve", {"t_max": "five"}),
    ("oracle", {"oracle": {"N": [100], "times": [0.5, "two"]}}),
    ("verify", {"verify": {"r_max": "ten"}}),
    ("oracle", {"oracle": {"N": [100], "r_max": "far"}}),
    ("oracle", {"oracle": {"N": ["many"]}}),
], ids=["t_max", "oracle_times", "verify_r_max", "oracle_r_max", "oracle_N"])
def test_non_numeric_settings_exit_2(tmp_path, capsys, command, overrides):
    code, out = run(tmp_path, command, write_config(tmp_path, **overrides))
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("command, config", [
    ("verify", {"verify": 5}),
    ("oracle", {"oracle": [1]}),
    ("sample", {"sample": "x"}),
    ("solve", [1]),
], ids=["verify", "oracle", "sample", "top_level"])
def test_non_object_config_or_section_exits_2(tmp_path, capsys, command,
                                               config):
    if isinstance(config, dict):
        path = write_config(tmp_path, **config)
    else:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config), encoding="utf-8")
    code, out = run(tmp_path, command, str(path))
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("field", ["rho_l", "rho_r", "u_l", "u_r"])
def test_nan_data_exits_2_without_plan(tmp_path, capsys, field):
    cfg = write_config(tmp_path, data=dict(WORKED, **{field: math.nan}))
    code, out = run(tmp_path, "solve", cfg)
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert not (out / "plan.txt").exists()


@pytest.mark.parametrize("command, field", [
    ("solve", "R"), ("solve", "rho_r"), ("oracle", "u_l"), ("sample", "u_r")])
def test_infinite_data_exits_2_without_output(tmp_path, capsys, command,
                                              field):
    # JSON 1e400 parses as inf; R = inf once wrote inf into plan.txt, and
    # u_l = inf stopped oracle with a float-range message
    cfg = pathlib.Path(write_config(tmp_path, data=dict(WORKED, **{
        field: math.inf})))
    cfg.write_text(cfg.read_text().replace("Infinity", "1e400"))
    code, out = run(tmp_path, command, str(cfg))
    assert code == 2
    assert "bad initial data" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("command", ["solve", "sample", "oracle"])
def test_overflowing_post_absorption_D_exits_1_before_writing(
        tmp_path, capsys, command):
    # rho_l (u_l - u_r)^2 = 4e310: D once read 0, and the front's speed at
    # t_in 4.46e152 where continuity gives 9.9998e149
    data = {"n": 1, "R": 1.0, "rho_l": 1e10, "rho_r": 1.0,
            "u_l": 1e150, "u_r": -1e150}
    code, out = run(tmp_path, command, write_config(tmp_path, data=data))
    assert code == 1
    assert "post-absorption constants" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("verify", [
    {"conservation": "false", "weak_ladder": "no"},
    {"entropy": 0},
    {"example64": None},
], ids=["strings", "number", "null"])
def test_non_boolean_verify_flags_exit_2(tmp_path, capsys, verify):
    # "false" would read as True under bool(); only JSON booleans count
    code, out = run(tmp_path, "verify", write_config(tmp_path, verify=verify))
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def test_boolean_verify_flags_load(tmp_path):
    sc = cli.load_scenario(write_config(tmp_path, verify={
        "conservation": False, "weak_ladder": False, "example64": True}))
    assert (sc.verify_conservation, sc.verify_entropy, sc.verify_weak_ladder,
            sc.verify_example64) == (False, True, False, True)


def test_unknown_expected_fail_exits_2(tmp_path):
    cfg = write_config(tmp_path, verify={"expected_fail": ["everything"]})
    assert run(tmp_path, "verify", cfg)[0] == 2


@pytest.mark.parametrize("command, overrides", [
    ("oracle", {"oracle": {"N": [10], "times": "12"}}),
    ("verify", {"verify": {"expected_fail": ""}}),
], ids=["oracle_times_string", "expected_fail_string"])
def test_non_list_times_or_expected_fail_exits_2(tmp_path, capsys, command,
                                                  overrides):
    # a string would be read one character at a time: oracle rows at
    # t = 1 and t = 2, or no expected failure at all
    code, out = run(tmp_path, command, write_config(tmp_path, **overrides))
    assert code == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def test_unknown_command_rejected(tmp_path):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit):
        cli.main(["tabulate", "--config", cfg])


# ---------------------------------------------------------------------------
# solve

def test_solve_worked_example_plan(tmp_path):
    cfg = write_config(tmp_path)
    code, out = run(tmp_path, "solve", cfg)
    assert code == 0
    text = (out / "plan.txt").read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "case DeltaShock"
    assert "v0 0" in lines
    assert "t_in 1" in lines
    assert "C 1" in lines and "D 0" in lines and "E 0" in lines
    assert "event t_in 1" in lines
    assert "event t_sw0 4" in lines
    assert sum(1 for ln in lines if ln.startswith("phase ")) == 3
    # final phase is unbounded and feeds the origin at the outer rate
    last = [ln for ln in lines if ln.startswith("phase 2")][0]
    assert "inf)" in last
    assert "m0_slope=%s" % (cli._FMT % (2.0 * math.pi)) in last
    assert any(ln.startswith("  front ShadowWave const-speed") for ln in lines)
    assert any(ln.startswith("  front ShadowWave post-absorption") for ln in lines)


def test_solve_contact_plan(tmp_path):
    cfg = write_config(tmp_path, data=CONTACT)
    code, out = run(tmp_path, "solve", cfg)
    assert code == 0
    lines = (out / "plan.txt").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "case Contact"
    rows = [ln for ln in lines if ln.startswith("  front Contact")]
    assert len(rows) == 1
    assert rows[0].startswith("  front Contact linear xi0=1 v=1")
    assert "t_in" not in "\n".join(lines)


def test_solve_vacuum_plan(tmp_path):
    cfg = write_config(tmp_path, data=VACUUM)
    code, out = run(tmp_path, "solve", cfg)
    assert code == 0
    text = (out / "plan.txt").read_text(encoding="utf-8")
    assert "no fronts (vacuum everywhere)" in text


# ---------------------------------------------------------------------------
# sample

def sample_rows(out):
    text = (out / "samples.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return header, rows


def test_sample_columns_and_content(tmp_path):
    cfg = write_config(
        tmp_path,
        sample={"r": [0.25, 0.7, 1.0, 1.5], "t": [0.0, 0.5]})
    code, out = run(tmp_path, "sample", cfg)
    assert code == 0
    header, rows = sample_rows(out)
    assert header == ["r", "t", "rho", "u", "is_vacuum", "m0",
                      "atom_radius", "atom_sigma", "atom_total_mass"]
    assert len(rows) == 8
    # initial data is the power law on both sides of R
    row = next(r for r in rows if r["t"] == "0" and r["r"] == "0.69999999999999996")
    assert float(row["rho"]) == pytest.approx(1.0 / 0.7, rel=1e-15)
    assert row["u"] == "1" and row["is_vacuum"] == "0"
    # interior vacuum fan behind the front at t=0.5
    row = next(r for r in rows if r["t"] == "0.5" and r["r"] == "0.25")
    assert row["rho"] == "0" and row["is_vacuum"] == "1"
    assert float(row["u"]) == pytest.approx(0.5, rel=1e-12)  # fan speed r/t
    # delta front sits exactly at r=1 while v0=0; atom columns populated
    row = next(r for r in rows if r["t"] == "0.5" and r["r"] == "1")
    assert row["atom_radius"] == "1"
    assert float(row["atom_sigma"]) == pytest.approx(1.0, rel=1e-12)
    assert float(row["atom_total_mass"]) == pytest.approx(2.0 * math.pi, rel=1e-12)
    # off-front rows leave the atom columns empty
    row = next(r for r in rows if r["t"] == "0.5" and r["r"] == "1.5")
    assert row["atom_radius"] == "" and row["atom_sigma"] == ""


# samples.csv digests recorded with the per-point sampler that preceded
# evaluate_grid (the last one with its per-time form): every case kind, n = 1..4, r = 0 (inf rows), radii on a
# front (atom rows), times in a vacuum fan and after absorption and the
# origin dump, and a contact with u_l = 0.0, u_r = -0.0 ("0" and "-0" rows);
# absorb_no_hit_n4 re-recorded once the atom's total_mass read S m(t)
GOLDEN_SAMPLES = [
    ("worked_n2", WORKED, 5.0,
     [0.0, 0.25, 0.5, 0.9494897427831779, 1.0, 1.5, 2.0, 3.0],
     [0.0, 0.5, 1.5, 4.0, 4.5, 5.0],
     "f38c1925c637b3fa399cadaa69215a69aa3d32515810633eb361458fdb67e4be"),
    ("absorb_dump_n1",
     dict(n=1, R=1.0, rho_l=1.0, rho_r=4.0, u_l=2.0, u_r=-1.0), 4.0,
     {"start": 0.0, "stop": 3.0, "count": 31},
     [0.0, 0.25, 0.5, 1.0, 2.7247448713915894, 3.5],
     "d091093a11848d8e02efd068fa1763ed765c097178b02d8d91142bb4a28cb53d"),
    ("absorb_no_hit_n4",
     dict(n=4, R=1.5, rho_l=2.0, rho_r=0.5, u_l=1.0, u_r=0.25), 8.0,
     [0.0, 0.5, 1.5, 1.875, 3.0, 6.371621004453466, 7.0],
     [0.0, 0.5, 3.0, 6.5, 8.0],
     "004d7e5b9247a7edcb1c117e671e243a02f71b0cb8e1e229c4cc0c3b59fe01de"),
    ("inflow_hit_n3",
     dict(n=3, R=2.0, rho_l=2.0, rho_r=0.5, u_l=-0.5, u_r=-1.5), 3.0,
     [0.0, 0.5, 1.5833333333333335, 2.0, 3.0],
     [0.0, 0.5, 2.0, 2.4000000000000004, 3.0],
     "439d40460767b2271d7122d1195539aad375701d9e3c1692b2ac3570a141f80e"),
    ("fan_n4", dict(n=4, R=1.0, rho_l=1.0, rho_r=2.0, u_l=-1.0, u_r=0.5), 2.0,
     {"start": 0.0, "stop": 3.0, "count": 13}, [0.0, 0.5, 1.0, 1.5],
     "063cccbef5cd47b06191bdcb0674e949e54ac337ae8a85e30b74173d234dfa9c"),
    ("contact_signed_zero_n3",
     dict(n=3, R=1.0, rho_l=2.0, rho_r=0.5, u_l=0.0, u_r=-0.0), 2.0,
     [0.0, 0.5, 1.0, 2.0], [0.0, 1.0, 2.0],
     "3e7af939a45ad737c7fcf42c33d67b2c968f34fd14218e225d8d31374a910c72"),
    ("vacuum_left_n1",
     dict(n=1, R=1.0, rho_l=0.0, rho_r=3.0, u_l=0.5, u_r=-0.5), 3.0,
     [0.0, 0.5, 0.75, 1.0, 2.0], [0.0, 0.5, 2.5],
     "042d5ca19a2df9e4f13afe7fddfa3824b6111956243aa9f5eea257b68561ef34"),
    ("vacuum_right_n2",
     dict(n=2, R=1.0, rho_l=2.0, rho_r=0.0, u_l=-0.5, u_r=0.5), 3.0,
     [0.0, 0.5, 0.75, 1.5], [0.0, 0.5, 2.5],
     "d9c66da5814a14af6b7e042e8c9b229b6dc448018b2f3417a01678e836be3a41"),
    ("all_vacuum_n3",
     dict(n=3, R=1.0, rho_l=0.0, rho_r=0.0, u_l=1.0, u_r=-1.0), 2.0,
     [0.0, 1.0], [0.0, 1.0],
     "d75aafb99ef29b522d8ef149471d7e1b58a8043fadcc6c93320852f3cff05435"),
    # 401 radii x 41 times, t_in = 1 and t_sw0 = 4 on the t grid, recorded
    # with the per-time sampler that preceded the time-array evaluate_grid
    ("worked_large_n2", WORKED, 5.0,
     {"start": 0.0, "stop": 4.0, "count": 401},
     {"start": 0.0, "stop": 5.0, "count": 41},
     "7c5c6c5e5ebf40f3c72da6949214526133af6321643bb8ee14aca62a0e9a647b"),
]


@pytest.mark.parametrize("name, data, t_max, r, t, digest", GOLDEN_SAMPLES,
                         ids=[g[0] for g in GOLDEN_SAMPLES])
def test_sample_bytes_match_golden_digest(tmp_path, name, data, t_max, r, t,
                                          digest):
    cfg = write_config(tmp_path, data=data, t_max=t_max,
                       sample={"r": r, "t": t})
    code, out = run(tmp_path, "sample", cfg)
    assert code == 0
    assert hashlib.sha256((out / "samples.csv").read_bytes()).hexdigest() == digest


def per_time_sample_text(plan, t_grid, r_grid):
    """samples.csv rows as the per-time sampler wrote them: one
    evaluate_grid call per time, each distinct value formatted once, keyed
    by its bits."""
    text = {}

    def fmt_all(values):
        bits = np.ascontiguousarray(values, dtype=float).view(np.int64).tolist()
        new = list(set(bits).difference(text))
        text.update(zip(new, (cli._FMT % x for x in
                              np.array(new, dtype=np.int64).view(float).tolist())))
        return list(map(text.__getitem__, bits))

    r_text = fmt_all(r_grid)
    chunks = []
    for t in map(float, t_grid):
        g = exact.evaluate_grid(plan, r_grid, t)
        m0_text = "," + cli._fmt(g.m0[0]) + ","
        solid, vacuum = ",0" + m0_text + ",,\n", ",1" + m0_text + ",,\n"
        flags = g.is_vacuum[0].tolist()
        tails = [vacuum if v else solid for v in flags]
        for (_, j), a in g.atoms.items():
            tails[j] = "%s%s%s,%s,%s\n" % (
                ",1" if flags[j] else ",0", m0_text, cli._fmt(a.radius),
                cli._fmt(a.sigma), cli._fmt(a.total_mass))
        chunks.append("".join(map("".join, zip(
            r_text, repeat("," + cli._fmt(t) + ","), fmt_all(g.rho[0]),
            repeat(","), fmt_all(g.u[0]), tails))))
    return "".join(chunks)


@given(sampled_plans())
@settings(max_examples=150, deadline=None)
def test_sample_text_matches_per_time_reference(sample):
    plan, r, t = sample
    pieces = cli._sample_pieces(plan, np.asarray(t, dtype=float),
                                np.asarray(r, dtype=float))
    assert "".join(pieces) == per_time_sample_text(plan, t, r)


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               1e308, -1e308]


# Deduplicating on float values instead of bits (so that -0.0 and 0.0
# share one text) keeps this test passing but fails the
# contact_signed_zero_n3 golden digest above.
@given(st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
                max_size=40))
@example(EDGE_FLOATS)
@settings(max_examples=200, deadline=None)
def test_batched_texts_equal_one_format_per_value(values):
    values = values + values[::2]  # repeated values
    assert cli._texts(values) == [cli._FMT % x + "," for x in values]


def _neighbours(x, steps):
    """x and its nearest `steps` doubles on each side."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(np.nextafter(below[-1], -math.inf))
        above.append(np.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


# Doubles on every edge of the %.17g kernel (10**-6 <= |x| < 10**17): each
# power of ten from 1e-7 to 1e18 with 40 neighbours per side (more than one
# pass of the kernel); values whose exact decimal has 18 digits, the last
# a 5 (m 2^-2 with m odd in [4e15, 2^53), m 2^-3 with m odd in [8e14,
# 8e15)), so the 17th digit rounds half to even; values just below a power
# of ten, whose 17 digits are all nines and must not carry; the layout
# edges of the exponent X (-5/-4: e-05 or 0.0000..., 16/17: 17 digits or
# e+17), with trailing zeros and without.
POW10_NEIGHBOURS = [float(v) for k in range(-7, 19)
                    for v in _neighbours(float("1e%d" % k), 40)]
TIES = [m * 0.25 for m in (4 * 10 ** 15 + 1, 4 * 10 ** 15 + 3, 2 ** 53 - 1,
                           2 ** 53 - 3, 5 * 10 ** 15 + 7)] + [
        m * 0.125 for m in (8 * 10 ** 14 + 1, 8 * 10 ** 14 + 3, 8 * 10 ** 15 - 1,
                            8 * 10 ** 15 - 3, 2 ** 52 + 5)]
NINES = [float(np.nextafter(float("1e%d" % k), 0.0)) for k in range(-6, 18)]
LAYOUT_EDGES = [1e-5, 1.5e-5, 9.9999999999999995e-06, 1e-4, 1.25e-4,
                0.00012345678901234567, 9.9999999999999991e-05, 1e-3, 0.5,
                1.0, 9.5, 1200.0, 1e15, 1.2e16, 1e16, 12345678901234568.0,
                99999999999999984.0, 1e17, 1.2e17, 123456789012345678.0]
SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            -2.225073858507201e-308, 1e-300, 9.9999999999999995e-07, 1e-6,
            math.nan, -math.nan, math.inf, -math.inf, 1e308,
            -1.7976931348623157e308]


def _magnitudes():
    """Positive doubles drawn densely inside [1e-7, 1e18]: any double, log-
    uniform decades, and short decimals or integers with trailing zeros."""
    return st.one_of(
        st.floats(1e-7, 1e18),
        st.floats(-7.0, 18.0).map(lambda e: 10.0 ** e),
        st.builds(lambda m, k: m * 10.0 ** k if k >= 0 else m / 10.0 ** -k,
                  st.integers(1, 10 ** 6), st.integers(-13, 12)))


@given(st.lists(st.builds(math.copysign, _magnitudes(),
                          st.sampled_from([1.0, -1.0])), max_size=50))
@example(POW10_NEIGHBOURS)
@example(TIES + [-x for x in TIES])
@example(NINES + [-x for x in NINES])
@example(LAYOUT_EDGES + [-x for x in LAYOUT_EDGES])
@example(SPECIALS)
@example([])
@settings(max_examples=300, deadline=None)
def test_texts_kernel_matches_one_format_per_value(values):
    assert cli._texts(np.array(values, dtype=float)) == [
        cli._FMT % x + "," for x in values]


def test_texts_kernel_matches_one_format_on_random_bit_patterns():
    rng = np.random.default_rng(20261019)
    patterns = rng.integers(-2 ** 63, 2 ** 63 - 1, 100_000, dtype=np.int64)
    # the same mantissas and signs with binary exponents inside the kernel's
    # range, which uniform 64-bit patterns hit about once in 27 draws
    in_range = (patterns & ~(0x7FF << 52)) | (
        rng.integers(1023 - 20, 1023 + 57, patterns.size) << 52)
    values = np.concatenate([patterns, in_range]).view(float)
    texts = cli._texts(values)
    assert len(texts) == values.size
    assert [t for t, x in zip(texts, values.tolist())
            if t != cli._FMT % x + ","] == []


def test_texts_kernel_formats_its_range_without_fallback(monkeypatch):
    # a kernel that sent in-range values to the per-value fallback would
    # pass the tests above; here the fallback refuses them.  The range is
    # 10**-6 <= |x| < 10**17, which the double 1e-6 (below 10**-6) is not in.
    fallback = []

    def out_of_range_only(x):
        if math.isfinite(x) and 1e-6 < abs(x) < 1e17:
            raise AssertionError("in-range value %r took the fallback" % x)
        fallback.append(float(x))
        return cli._FMT % x

    monkeypatch.setattr(cli, "_fmt", out_of_range_only)
    values = POW10_NEIGHBOURS + TIES + NINES + LAYOUT_EDGES + SPECIALS
    assert cli._texts(np.array(values)) == [cli._FMT % x + "," for x in values]
    outside = [x for x in values
               if not (math.isfinite(x) and 1e-6 < abs(x) < 1e17)]
    assert list(map(repr, fallback)) == list(map(repr, outside))


def test_subnormal_radius_samples_inf_density(tmp_path):
    # r^{1-n} overflows at r = 5e-324 (n = 2): gas there has rho = inf
    cfg = write_config(tmp_path, sample={"r": [5e-324, 1.0], "t": [0.0, 0.5]})
    code, out = run(tmp_path, "sample", cfg)
    assert code == 0
    _, rows = sample_rows(out)
    tiny = [(r["t"], r["rho"]) for r in rows if r["r"] == cli._fmt(5e-324)]
    assert tiny == [("0", "inf"), ("0.5", "0")]  # gas, then vacuum
    ref = run(tmp_path, "sample", write_config(
        tmp_path, "ref.json", sample={"r": [1.0], "t": [0.0, 0.5]}), "ref")[1]
    assert [r for r in rows if r["r"] == "1"] == sample_rows(ref)[1]


def test_negative_radius_exits_1_before_writing(tmp_path):
    cfg = write_config(tmp_path, sample={"r": [-0.5, 0.5], "t": [0.0, 1.0]})
    code, out = run(tmp_path, "sample", cfg)
    assert code == 1
    assert not (out / "samples.csv").exists()


def test_constants_beyond_float_range_exit_1_before_writing(tmp_path, capsys):
    # E = (R/rho_r)(rho_r - rho_l) = inf * 0: the plan would carry a nan front
    data = dict(WORKED, rho_l=5e-324, rho_r=5e-324)
    cfg = write_config(tmp_path, data=data, oracle={"N": [100], "times": [1.5]})
    for command, name in (("oracle", "oracle.csv"), ("solve", "plan.txt")):
        code, out = run(tmp_path, command, cfg, subdir=command)
        assert code == 1
        assert not (out / name).exists()
        assert "float range" in capsys.readouterr().err


def test_inflow_rates_beyond_float_range_exit_1_before_writing(tmp_path,
                                                              capsys):
    # S coeff |u| = 2 * 1e300 * 1e300 = inf: every m0 row would read nan,
    # inf * (t - t_start) at t = t_start
    data = {"n": 1, "R": 5e-324, "rho_l": 1e300, "rho_r": 1e300,
            "u_l": -1.0, "u_r": -1e300}
    cfg = write_config(tmp_path, data=data, t_max=1e-3,
                       sample={"r": [1e-3, 1e-3, 1], "t": [0.0, 1e-3]})
    code, out = run(tmp_path, "sample", cfg)
    assert code == 1
    assert not (out / "samples.csv").exists()
    assert "float range" in capsys.readouterr().err


# Data whose closed forms leave float range or whose test-function support
# rounds to a point.  Each of them once ended in a traceback, in nan
# conservation drifts, or in a non-finite u in samples.csv.
OUT_OF_RANGE = [
    # default_test_function: r_c = 2e146, h_r = 3e-4, so r_lo == r_hi
    ("verify", {"n": 2, "R": 1e-3, "rho_l": 1e300, "rho_r": 1.0,
                "u_l": 1e3, "u_r": -1e3}, 1e300, {}),
    # Q = inf at t = 0: a region term S coeff (b - a) overflows
    ("verify", {"n": 4, "R": 1e300, "rho_l": 1e-300, "rho_r": 1e300,
                "u_l": 1e-3, "u_r": -1e-8}, 1e-3, {}),
    # RegionProfile.density at a subnormal front radius
    ("verify", {"n": 4, "R": 5e-324, "rho_l": 5e-324, "rho_r": 5e-324,
                "u_l": 0.0, "u_r": -5e-324}, 1e3, {}),
    # jump_brackets' u0 ** 2 in the entropy check
    ("verify", {"n": 4, "R": 1e300, "rho_l": 1e-12, "rho_r": 1e300,
                "u_l": 1e300, "u_r": 1e-3}, 7.3, {}),
    # conserved_pair's outflow velocity ** 2 * t
    ("verify", {"n": 1, "R": 1.0, "rho_l": 1.0, "rho_r": 1.0,
                "u_l": 1e200, "u_r": 1e200}, 1e3, {}),
    # the atom's sigma = mass(t) * xi^{1-n} at xi ~ 1e-300, n = 3
    ("sample", {"n": 3, "R": 1e-300, "rho_l": 1.0, "rho_r": 7.3,
                "u_l": 1e-300, "u_r": -7.3}, 1.0,
     {"sample": {"r": [1e-300], "t": [0.0, 1e-300]}}),
    # the outer fan edge R + u_r t = inf: the fan velocity was inf / inf
    ("sample", {"n": 4, "R": 1e-300, "rho_l": 1e300, "rho_r": 1e-3,
                "u_l": 5e-324, "u_r": 1e300}, 1e300,
     {"sample": {"r": [1e8, 1e300, 1e300], "t": [0.0, 1e300]}}),
    # finite fan edges, but (u_r - u_l)(r - x0) overflows: u was inf
    ("sample", {"n": 1, "R": 1.0, "rho_l": 1.0, "rho_r": 1.0,
                "u_l": 1.0, "u_r": 1e300}, 1.0,
     {"sample": {"r": [1e299], "t": [1.0]}}),
]


@pytest.mark.parametrize("command, data, t_max, extra", OUT_OF_RANGE, ids=[
    "collapsed_support", "infinite_totals", "subnormal_front_density",
    "entropy_brackets", "outflow_momentum", "atom_sigma", "infinite_fan_edge",
    "fan_velocity_overflow"])
def test_out_of_range_data_exit_1_before_writing(tmp_path, capsys, command,
                                                 data, t_max, extra):
    code, out = run(tmp_path, command,
                    write_config(tmp_path, data=data, t_max=t_max, **extra))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists() or not os.listdir(out)


def test_tiny_density_product_keeps_the_front_mass(tmp_path):
    # rho_l rho_r = 1e-340 underflowed to 0, so amp read 0 and the
    # conservation check failed with Q_drift = 0.19 on a right plan
    data = {"n": 2, "R": 1.0, "rho_l": 1e-170, "rho_r": 1e-170,
            "u_l": 1.0, "u_r": -1.0}
    code, out = run(tmp_path, "verify", write_config(tmp_path, data=data,
                                                     t_max=1.0))
    assert code == 0
    assert "check conservation PASS" in (out / "verify.txt").read_text(
        encoding="utf-8")


def test_overflowing_products_write_finite_closed_forms(tmp_path):
    # rho_l rho_r = 1e600: plan.txt held amp=inf, samples.csv a nan atom
    data = {"n": 3, "R": 1e8, "rho_l": 1e300, "rho_r": 1e300,
            "u_l": 1e-8, "u_r": -1.0}
    cfg = write_config(tmp_path, data=data, t_max=1.0,
                       sample={"r": [1e8], "t": [0.0, 0.5]})
    code, out = run(tmp_path, "solve", cfg)
    assert code == 0
    assert "amp=1.0000000099999999e+300" in (out / "plan.txt").read_text(
        encoding="utf-8")
    code, out = run(tmp_path, "sample", cfg)
    assert code == 0
    assert sample_rows(out)[1][0]["atom_sigma"] == "0"
    # u_r sqrt(rho_r) = 1e450: plan.txt held v0 inf
    data = {"n": 1, "R": 1e300, "rho_l": 0.0, "rho_r": 1e300,
            "u_l": -1e-8, "u_r": 1e300}
    code, out = run(tmp_path, "solve", write_config(tmp_path, data=data,
                                                    t_max=1.0))
    assert code == 0
    assert "v0 1.0000000000000001e+300\n" in (out / "plan.txt").read_text(
        encoding="utf-8")


def test_absorption_where_the_products_overflow(tmp_path):
    # R (sqrt(rho_l) + sqrt(rho_r)) = 2e310: plan.txt held no event and
    # one unending phase in which the vacuum edge overtook the front
    data = {"n": 1, "R": 1e300, "rho_l": 1e20, "rho_r": 1e20,
            "u_l": 1.0, "u_r": -1.0}
    code, out = run(tmp_path, "solve", write_config(tmp_path, data=data,
                                                    t_max=1e301))
    assert code == 0
    plan = (out / "plan.txt").read_text(encoding="utf-8")
    events = dict(ln.split()[1:] for ln in plan.splitlines()
                  if ln.startswith("event "))
    assert float(events["t_in"]) == 1e300
    assert "  front ShadowWave post-absorption C=" in plan


@pytest.mark.parametrize("data, times, fronts", [
    # the cell masses sum to 2e308 and more: front masses 2e307 and 4e307
    ({"n": 1, "R": 1.0, "rho_l": 1e307, "rho_r": 1e307, "u_l": 1.0,
      "u_r": -1.0}, [0.5, 1.0], [2e307, 4e307]),
    ({"n": 4, "R": 0.001, "rho_l": 1e300, "rho_r": 1e300, "u_l": -5e-324,
      "u_r": -5e-324}, [1e-8, 0.001, 0.001], [None, None, None]),
], ids=["n1_front", "n4_no_front"])
def test_oracle_total_mass_beyond_float_range(tmp_path, capsys, data, times,
                                              fronts):
    # numpy's sum overflowed: "overflow encountered in reduce" on stderr,
    # and no cluster could reach 5 % of an infinite total
    N, r_max = (100, 10.0) if data["n"] == 1 else (146, 1e8)
    cfg = write_config(tmp_path, data=data, oracle={
        "N": [N], "r_max": r_max, "times": times})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "oracle", cfg)
    assert code == 0 and capsys.readouterr().err == ""
    lines = (out / "oracle.csv").read_text(encoding="utf-8").splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    for row, mass in zip(rows, fronts):
        if mass is None:
            assert row["pos_oracle"] == row["mass_oracle"] == ""
        else:
            assert float(row["mass_oracle"]) == pytest.approx(mass, rel=1e-12)
            assert float(row["mass_exact"]) == pytest.approx(mass, rel=1e-12)


def test_turning_time_beyond_float_range_verifies(tmp_path):
    # the weak ladder's post-absorption turning time u_r^-2 = 1e400 ended
    # in an OverflowError traceback
    data = {"n": 1, "R": 0.005, "rho_l": 1.0, "rho_r": 1.0,
            "u_l": 1.0, "u_r": -1e-200}
    cfg = write_config(tmp_path, data=data, t_max=10.0,
                       verify={"r_max": 100.0})
    assert run(tmp_path, "verify", cfg)[0] == 0


# ROADMAP item 9's lattice: magnitudes from the smallest subnormal to 1e300
LATTICE = [5e-324, 1e-300, 1e-8, 1e-3, 1.0, 7.3, 1e3, 1e8, 1e300]
SIGNED = [0.0, -0.0] + LATTICE + [-x for x in LATTICE]


def _grids(values):
    """Every sorted grid of one to three of values, repeats allowed."""
    return st.sampled_from([g for k in (1, 2, 3) for g in
                            combinations_with_replacement(sorted(values), k)])


@st.composite
def lattice_runs(draw):
    """(command, config): any command on a datum, t_max, grids, r_max and
    oracle N <= 200 drawn from LATTICE, densities and speeds from SIGNED
    (a density from its nonnegative half at least every other draw, so
    most data get past the configuration check).  A grid is one draw."""
    pos, signed = st.sampled_from(LATTICE), st.sampled_from(SIGNED)
    density = st.one_of(st.sampled_from(SIGNED[:2] + LATTICE), signed)
    t_max = draw(pos)
    times = _grids([0.0, t_max] + [x for x in LATTICE if x < t_max])
    cfg = {"schema": cli.SCHEMA, "t_max": t_max,
           "data": {"n": draw(st.integers(1, 4)), "R": draw(pos),
                    "rho_l": draw(density), "rho_r": draw(density),
                    "u_l": draw(signed), "u_r": draw(signed)},
           "sample": {"r": draw(_grids(LATTICE)), "t": draw(times)},
           "verify": {"r_max": draw(pos)},
           "oracle": {"N": draw(st.lists(st.integers(1, 200), min_size=1,
                                         max_size=2)),
                      "times": draw(times), "r_max": draw(pos)}}
    return draw(st.sampled_from(sorted(cli._COMMANDS))), cfg


def _rho_inf_documented(r, n, rho_l, rho_r):
    """The three places README lets samples.csv hold rho = inf: r = 0 for
    n >= 2, r^{1-n} beyond float range, and coeff r^{1-n} beyond it."""
    if r == 0.0:
        return n >= 2
    try:
        rpow = r ** (1 - n)
    except OverflowError:
        return True
    return max(rho_l, rho_r) * rpow == math.inf


@given(lattice_runs())
@settings(max_examples=500, deadline=None, derandomize=True)
def test_lattice_runs_exit_0_1_or_2(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "out")
        code = cli.main([command, "--config", path, "--out", out])
        assert code in (0, 1, 2)
        if code == 2:
            assert not os.path.exists(out) or not os.listdir(out)
        if code != 0:
            return
        # no nan or inf written, except an unending phase's end in plan.txt
        # and the rho = inf of samples.csv that README documents
        files = {}
        for name in os.listdir(out):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                files[name] = fh.read()
        plan = re.sub(r"^(phase \d+ \[\S+, )inf\)", r"\1)",
                      files.get("plan.txt", ""), flags=re.M)
        assert not re.search(r"\b(nan|inf)\b", plan)
        samples = [row.split(",")
                   for row in files.get("samples.csv", "").splitlines()[1:]]
        d = cfg["data"]
        for r, t, rho, u in ([float(c) for c in row[:4]] for row in samples):
            # the lattice's radii are finite
            assert math.isfinite(r) and math.isfinite(t) and math.isfinite(u)
            assert not math.isnan(rho)
            if math.isinf(rho):
                assert _rho_inf_documented(r, d["n"], d["rho_l"], d["rho_r"])
        cells = [c for row in samples for c in row[6:]]
        cells += [c for row in files.get("oracle.csv", "").splitlines()[1:]
                  for c in row.split(",")]
        assert all(not c or math.isfinite(float(c)) for c in cells)


def test_default_r_grid_is_valid_for_small_R(tmp_path):
    data = dict(WORKED, R=0.01)
    cfg = write_config(tmp_path, data=data)
    assert run(tmp_path, "solve", cfg)[0] == 0
    code, out = run(tmp_path, "sample", cfg)
    assert code == 0
    header, rows = sample_rows(out)
    assert len(rows) == 21 * 11
    radii = sorted({float(r["r"]) for r in rows})
    assert radii[0] == pytest.approx(0.001) and radii[-1] == pytest.approx(0.02)


# ---------------------------------------------------------------------------
# verify

def test_verify_worked_example_passes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code, out = run(tmp_path, "verify", cfg)
    assert code == 0
    text = (out / "verify.txt").read_text(encoding="utf-8")
    assert "check conservation PASS" in text
    assert "check entropy PASS" in text
    assert "check weak_ladder PASS" in text
    assert "FAIL" not in text
    # report is mirrored on stdout
    assert capsys.readouterr().out.strip() == text.strip()


def test_verify_contact_trivial_pass(tmp_path):
    cfg = write_config(tmp_path, data=CONTACT)
    code, out = run(tmp_path, "verify", cfg)
    assert code == 0
    text = (out / "verify.txt").read_text(encoding="utf-8")
    assert "check entropy PASS no delta front" in text
    assert "check weak_ladder PASS no delta front" in text


def test_verify_example64_fails_then_expected(tmp_path):
    cfg = write_config(tmp_path, verify={"example64": True})
    code, out = run(tmp_path, "verify", cfg, subdir="hard")
    assert code == 1
    text = (out / "verify.txt").read_text(encoding="utf-8")
    assert "check example64_entropy FAIL max_lhs=" in text
    assert "FAIL (expected)" not in text

    cfg = write_config(tmp_path, verify={"example64": True,
                                         "expected_fail": ["example64_entropy"]})
    code, out = run(tmp_path, "verify", cfg, subdir="soft")
    assert code == 0
    text = (out / "verify.txt").read_text(encoding="utf-8")
    assert "check example64_entropy FAIL (expected) max_lhs=" in text


# ---------------------------------------------------------------------------
# oracle

def test_oracle_csv(tmp_path):
    cfg = write_config(tmp_path,
                       oracle={"N": [200, 400], "times": [0.5, 2.0]})
    code, out = run(tmp_path, "oracle", cfg)
    assert code == 0
    lines = (out / "oracle.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("t,N,pos_exact,pos_oracle,mass_exact,mass_oracle,"
                       "m0_exact,m0_oracle")
    assert len(lines) == 1 + 4
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["t"] == "0.5" and row["N"] == "200"
    assert float(row["pos_exact"]) == pytest.approx(1.0)
    assert float(row["pos_oracle"]) == pytest.approx(1.0, abs=0.05)
    assert float(row["mass_exact"]) == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_oracle_front_beyond_r_max_exits_0(tmp_path):
    # the front at t = 8 lies at 12, beyond the default r_max 5.3; the
    # oracle's cells all moved right, so the comparison holds and once
    # failed only because a conserved-total check refused the front
    data = dict(WORKED, u_l=2.0, u_r=1.0)
    cfg = write_config(tmp_path, data=data, oracle={"N": [1000],
                                                    "times": [1.0, 8.0]})
    code, out = run(tmp_path, "oracle", cfg)
    assert code == 0
    lines = (out / "oracle.csv").read_text(encoding="utf-8").splitlines()
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 2
    assert all(math.isfinite(float(v)) for row in rows for v in row.values())
    assert float(rows[1]["pos_exact"]) == 12.0
    assert float(rows[1]["pos_oracle"]) == pytest.approx(12.0, rel=1e-6)
    assert float(rows[1]["mass_oracle"]) == pytest.approx(
        float(rows[1]["mass_exact"]), rel=1e-3)


def test_oracle_values_beyond_float_range_exit_1_before_writing(tmp_path,
                                                                capsys):
    # at t = 1e300 the oracle's front cluster sits at u_r t = inf
    data = {"n": 4, "R": 1.0, "rho_l": 1.0, "rho_r": 1000.0,
            "u_l": 1e-8, "u_r": 1e300}
    cfg = write_config(tmp_path, data=data, t_max=1e300,
                       oracle={"N": [152], "times": [1e300], "r_max": 1000.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "oracle", cfg)
    assert code == 1
    assert capsys.readouterr().err == (
        "error: oracle comparison leaves float range at t=1e+300\n")
    assert not out.exists() or not os.listdir(out)


def test_oracle_infinite_cell_masses_exit_1_cleanly(tmp_path, capsys):
    # the cells right of R hold (hi - lo) S rho_r = inf: the run exited 0
    # after a numpy overflow warning, with no front cluster to compare
    data = {"n": 1, "R": 1.0, "rho_l": 1.0, "rho_r": 1e300,
            "u_l": 1.0, "u_r": 1.0}
    cfg = write_config(tmp_path, data=data, t_max=2.0,
                       oracle={"N": [10], "times": [1.0], "r_max": 1e300})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "oracle", cfg)
    assert code == 1
    assert capsys.readouterr().err == "error: masses must be finite and >= 0\n"
    assert not out.exists() or not os.listdir(out)


# oracle.csv files of n = 1..4: snapshots past t_sw0 after absorption and
# the origin dump, an inflow hit, a vacuum fan and a drained side that feed
# m0, a contact with u = -0.0, and R on a cell edge (r_max / N dyadic).
# tests/data/oracle_<name>.csv holds each file as the heap event loop that
# preceded the projection oracle wrote it, except inflow_hit_n3's two
# mass_exact cells, now the front's n-free mass S m(t) (2 pi and 8 pi,
# correctly rounded); the digests pin today's bytes.
GOLDEN_ORACLE = [
    ("worked_n2", WORKED, 5.0,
     {"N": [300, 1000], "r_max": 5.3, "times": [0.5, 2.0, 3.9, 4.5]},
     "d5b9d29c65c502b9f9f6f635273a819a1d90f8b021df4bf0348fc8fb23d159d5"),
    ("absorb_dump_edge_n1",
     dict(n=1, R=1.0, rho_l=1.0, rho_r=4.0, u_l=2.0, u_r=-1.0), 4.0,
     {"N": [512], "r_max": 4.0, "times": [0.25, 1.0, 2.5, 3.0, 3.5]},
     "ae73ac88444e1bdf508e1dd46875de0e2321672618b47bd1a74cdbee7ddf9198"),
    ("inflow_hit_n3",
     dict(n=3, R=2.0, rho_l=2.0, rho_r=0.5, u_l=-0.5, u_r=-1.5), 3.0,
     {"N": [400], "r_max": 6.0, "times": [0.5, 2.0, 2.6]},
     "60c69e0db5ca2821a34bb6d640f3f986caf52abd3954baa95468a099057bed02"),
    ("fan_n4", dict(n=4, R=1.0, rho_l=1.0, rho_r=2.0, u_l=-1.0, u_r=0.5), 2.0,
     {"N": [800], "r_max": 4.0, "times": [0.3, 0.7, 1.2, 2.0]},
     "97987e53efcd065da771fac7150d08f5eb8f3a7f1b32c5aa4323cb357dd1268a"),
    ("contact_signed_zero_edge_n3",
     dict(n=3, R=1.0, rho_l=2.0, rho_r=0.5, u_l=0.0, u_r=-0.0), 2.0,
     {"N": [256], "r_max": 4.0, "times": [0.5, 2.0]},
     "9c8667ba75b30093e18c7b341f495f751d6e52b041f04408124f186a88e0480f"),
    ("vacuum_right_n2",
     dict(n=2, R=1.0, rho_l=2.0, rho_r=0.0, u_l=-0.5, u_r=0.5), 3.0,
     {"N": [333], "r_max": 2.5, "times": [0.5, 1.5, 2.5]},
     "267917c67d460d4daf9758540b77d8deadf4f759c23a5d1efb2c59e5f13a844d"),
]
ORACLE_COLUMNS = ("pos_oracle", "mass_oracle", "m0_oracle")


@pytest.mark.parametrize("name, data, t_max, oracle, digest", GOLDEN_ORACLE,
                         ids=[g[0] for g in GOLDEN_ORACLE])
def test_oracle_bytes_match_golden_digest(tmp_path, name, data, t_max, oracle,
                                          digest):
    cfg = write_config(tmp_path, data=data, t_max=t_max, oracle=oracle)
    code, out = run(tmp_path, "oracle", cfg)
    assert code == 0
    text = (out / "oracle.csv").read_bytes()
    assert hashlib.sha256(text).hexdigest() == digest
    # against the heap event loop: the exact columns and the empty cells
    # byte for byte, the oracle's numbers to 1e-11
    want = (DATA / ("oracle_%s.csv" % name)).read_text(encoding="utf-8")
    got_rows = list(csv.DictReader(io.StringIO(text.decode("utf-8"))))
    want_rows = list(csv.DictReader(io.StringIO(want)))
    assert len(got_rows) == len(want_rows)
    for got, row in zip(got_rows, want_rows):
        assert got.keys() == row.keys()
        for key, cell in row.items():
            if key in ORACLE_COLUMNS and cell and got[key]:
                assert abs(float(got[key]) - float(cell)) <= 1e-11 * abs(float(cell))
            else:
                assert got[key] == cell, key


# plan.txt and verify.txt digests: the worked datum, a vacuum fan, and an
# inflow-hit delta shock whose verify also runs the expected example64
# failure; example64.csv and example64.txt below
GOLDEN_REPORTS = [
    ("worked_n2", WORKED, 5.0, {},
     "457cac712004bbdf720c4a5c06370302b10692ed70e2c28c68f367fd34b2f7df",
     "ad178c891a90568860b889ef5b97b7cf4271f490244db2158457bec71b81a5f7"),
    ("fan_n4", dict(n=4, R=1.0, rho_l=1.0, rho_r=2.0, u_l=-1.0, u_r=0.5), 2.0,
     {},
     "6c88554c6ddcc6dca7d62c162678784e2040b21b1e9f38f0b96e1839ad210041",
     "6773ebbe1c1fdcd692e7d444d69f0052d437fda1f45cf771ced057c55784e5a4"),
    ("inflow_hit_example64_n3",
     dict(n=3, R=2.0, rho_l=2.0, rho_r=0.5, u_l=-0.5, u_r=-1.5), 3.0,
     {"example64": True, "expected_fail": ["example64_entropy"]},
     "41db533a1efcc8a8979bc435f3e9adab8caaf048f5ef4a1e8dc11f2557185f6d",
     "03e7c27478ec36aad1bc911ad0035647580a511417d743f651f83fb8bf45c90f"),
]


@pytest.mark.parametrize("name, data, t_max, ver, plan_digest, verify_digest",
                         GOLDEN_REPORTS, ids=[g[0] for g in GOLDEN_REPORTS])
def test_reports_match_golden_digest(tmp_path, name, data, t_max, ver,
                                     plan_digest, verify_digest):
    overrides = {"verify": ver} if ver else {}
    cfg = write_config(tmp_path, data=data, t_max=t_max, **overrides)
    for command, fname, digest in (("solve", "plan.txt", plan_digest),
                                   ("verify", "verify.txt", verify_digest)):
        code, out = run(tmp_path, command, cfg)
        assert code == 0
        assert hashlib.sha256((out / fname).read_bytes()).hexdigest() == digest


GOLDEN_EXAMPLE64 = {
    "example64.csv":
        "9c072763272d56f0567478bea46ce8891ffd6882d8960d2778454bdc12cc07bb",
    "example64.txt":
        "9dcb40a9690d10a4eea92d8e829d664c261a8f4f4fb921c3be49b8b161979e74",
}


def test_example64_bytes_match_golden_digest(tmp_path):
    code, out = run(tmp_path, "example64", write_config(tmp_path))
    assert code == 0
    for fname, digest in GOLDEN_EXAMPLE64.items():
        assert hashlib.sha256((out / fname).read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# example64

def test_example64_outputs(tmp_path):
    cfg = write_config(tmp_path)
    code, out = run(tmp_path, "example64", cfg)
    assert code == 0
    lines = (out / "example64.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,xi,xi_dot,sigma,rho_l,u_l,entropy_lhs"
    assert len(lines) == 1 + 99
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(first["t"]) == pytest.approx(0.1)
    assert float(first["entropy_lhs"]) > 0.0  # nondissipative at small t
    last = dict(zip(lines[0].split(","), lines[-1].split(",")))
    assert float(last["entropy_lhs"]) < 0.0
    text = (out / "example64.txt").read_text(encoding="utf-8")
    assert "front ODE residuals" in text
    assert "changes sign near t=1.108" in text


# ---------------------------------------------------------------------------
# imports

def test_cli_import_leaves_scipy_unloaded():
    # the package runs on numpy alone, the front ODE integrator included
    code = "; ".join([
        "import sys, radialsw.cli, radialsw.sw_ode as so",
        "scipy = lambda: any(m.startswith('scipy') for m in sys.modules)",
        "on_import = scipy()",
        "ivp = so.FrontIVP(0.0, 1.0, None, 0.0, "
        "lambda t, xi: (1 / xi, 1.0, 1 / xi, -1.0), 2)",
        "so.integrate_front(ivp, 0.999)(0.5)",
        "sys.exit(on_import or scipy())"])
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


LAZY_MODULES = ("radialsw.verify", "radialsw.oracle", "radialsw.sw_ode",
                "numpy.polynomial", "fractions")


@pytest.mark.parametrize("command, section, loaded", [
    ("solve", {}, []),
    ("sample", {}, []),
    ("verify", {"verify": {"example64": False}},
     ["numpy.polynomial", "radialsw.verify"]),
    ("oracle", {"oracle": {"N": [10], "times": [0.5]}}, ["radialsw.oracle"]),
    ("example64", {},
     ["numpy.polynomial", "radialsw.sw_ode", "radialsw.verify"]),
])
def test_each_command_imports_only_what_it_runs(tmp_path, command, section,
                                                loaded):
    # a fresh interpreter's sys.modules after cli.main, among LAZY_MODULES
    code = "; ".join([
        "import sys, radialsw.cli",
        "code = radialsw.cli.main(sys.argv[1:])",
        "print(sorted(m for m in %r if m in sys.modules))" % (LAZY_MODULES,),
        "sys.exit(code)"])
    cfg = write_config(tmp_path, **section)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-c", code, command, "--config", cfg,
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(loaded)


# ---------------------------------------------------------------------------
# determinism

def test_reruns_are_byte_identical(tmp_path, monkeypatch):
    # every command writes each of its files through cli._write: the file
    # holds exactly the text the command built, ASCII with no "\r", and a
    # rerun writes the same bytes
    built, write = {}, cli._write

    def recording_write(out_dir, name, *texts):
        built[name] = "".join(texts)
        write(out_dir, name, *texts)

    monkeypatch.setattr(cli, "_write", recording_write)
    cfg = write_config(tmp_path, sample={"r": [0.3, 1.0, 1.7], "t": [0.0, 0.5, 2.0]},
                       oracle={"N": [100], "times": [0.5, 2.0]})
    blobs = {}
    for subdir in ("a", "b"):
        for command in ("solve", "sample", "verify", "oracle", "example64"):
            built.clear()
            code, out = run(tmp_path, command, cfg, subdir=subdir + command)
            assert code == 0
            assert sorted(os.listdir(out)) == sorted(built)
            for fname, text in built.items():
                data = (out / fname).read_bytes()
                assert data == text.encode("ascii") and b"\r" not in data
                blobs.setdefault(fname, []).append(data)
    assert sorted(blobs) == ["example64.csv", "example64.txt", "oracle.csv",
                             "plan.txt", "samples.csv", "verify.txt"]
    for fname, (first, second) in blobs.items():
        assert first == second, fname
