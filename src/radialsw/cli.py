"""Batch front-end: JSON scenarios in, deterministic text/CSV reports out.

Commands: solve (plan summary), sample (field CSV), verify (conservation,
entropy, weak-residual ladder), oracle (sticky-particle comparison CSV),
example64 (closed forms of the nonconstant-speed front).  Exit codes:
0 all checks pass, 1 a check failed, 2 configuration problem.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    ConfigError, DomainError, PseudoRiemannData, WavePlan, surface_area,
)
from . import exact_riemann as exact
from . import oracle as oracle_mod
from . import sw_ode
from . import verify

SCHEMA = "radialsw-scenario-1"
_FMT = "%.17g"


def _fmt(x) -> str:
    return "" if x is None else _FMT % float(x)


def _write(out_dir: str, name: str, *texts: str) -> None:
    """Every output file: its ASCII texts in turn, each encoded once and
    written in binary mode."""
    with open(os.path.join(out_dir, name), "wb") as fh:
        for text in texts:
            fh.write(text.encode("ascii"))


def _texts(values) -> list:
    """_FMT % x + "," for each float x of values, from one % operation."""
    return ((_FMT + ",\n") * len(values) % tuple(values)).split("\n")[:-1]


@dataclass
class Scenario:
    data: PseudoRiemannData
    t_max: float
    r_grid: np.ndarray
    t_grid: np.ndarray
    verify_conservation: bool
    verify_entropy: bool
    verify_weak_ladder: bool
    verify_example64: bool
    verify_r_max: float
    expected_fail: Sequence[str]
    oracle_N: Sequence[int]
    oracle_r_max: float
    oracle_times: Sequence[float]
    out_dir: str


def _grid(raw, name) -> np.ndarray:
    try:
        if isinstance(raw, list):
            arr = np.asarray(raw, dtype=float)
        elif isinstance(raw, dict):
            count = raw["count"]
            if int(count) != count or count < 1:
                raise ConfigError("%s grid count must be an integer >= 1" % name)
            arr = np.linspace(float(raw["start"]), float(raw["stop"]), int(count))
        else:
            raise ConfigError("%s grid must be a list or start/stop/count" % name)
    except KeyError as exc:
        raise ConfigError("%s grid needs start/stop/count" % name) from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("bad %s grid: %s" % (name, exc)) from exc
    if arr.size == 0:
        raise ConfigError("%s grid is empty" % name)
    if np.isnan(arr).any():
        raise ConfigError("%s grid holds nan" % name)
    if np.any(np.diff(arr) < 0):
        raise ConfigError("%s grid must be sorted" % name)
    return arr


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc) from exc
    if not isinstance(raw, dict) or raw.get("schema") != SCHEMA:
        raise ConfigError("config must be an object with schema %r" % SCHEMA)
    try:
        dd = raw["data"]
        data = PseudoRiemannData(n=int(dd["n"]), R=float(dd["R"]),
                                 rho_l=float(dd["rho_l"]), rho_r=float(dd["rho_r"]),
                                 u_l=float(dd["u_l"]), u_r=float(dd["u_r"]))
    except KeyError as exc:
        raise ConfigError("data section needs n, R, rho_l, rho_r, u_l, u_r") from exc
    except (TypeError, ValueError, DomainError) as exc:
        raise ConfigError("bad initial data: %s" % exc) from exc
    ver, orc, sample = (raw.get(k, {}) for k in ("verify", "oracle", "sample"))
    if not all(isinstance(sec, dict) for sec in (ver, orc, sample)):
        raise ConfigError("verify, oracle and sample sections must be objects")
    N_list, times = orc.get("N", [1000]), orc.get("times", [0.5, 2.0, 3.9])
    expected_fail = ver.get("expected_fail", [])
    if not isinstance(N_list, list) or not N_list:
        raise ConfigError("oracle N must be a nonempty list")
    if not (isinstance(times, list) and isinstance(expected_fail, list)):
        raise ConfigError("oracle times and expected_fail must be lists")
    try:
        t_max = float(raw.get("t_max", 5.0))
        verify_r_max = float(ver.get("r_max", 10.0 * data.R))
        oracle_N = tuple(int(N) for N in N_list)
        oracle_r_max = float(orc.get("r_max", 5.3 * data.R))
        oracle_times = tuple(float(t) for t in times)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("bad numeric setting: %s" % exc) from exc
    if oracle_N != tuple(N_list):
        raise ConfigError("oracle N must be integers, got %r" % (N_list,))
    if not oracle_times or min(oracle_times) < 0:
        raise ConfigError("oracle times must be a nonempty list of times >= 0")
    if not (0 < t_max < math.inf):
        raise ConfigError("t_max must be positive and finite")
    flags = {k: ver.get(k, k != "example64")
             for k in ("conservation", "entropy", "weak_ladder", "example64")}
    if not all(isinstance(v, bool) for v in flags.values()):
        raise ConfigError("verify %s must be true or false" % ", ".join(flags))
    r_grid = _grid(sample.get("r", {"start": 0.1 * data.R, "stop": 2.0 * data.R, "count": 21}), "r")
    t_grid = _grid(sample.get("t", {"start": 0.0, "stop": t_max, "count": 11}), "t")
    if t_grid[0] < 0 or t_grid[-1] > t_max:
        raise ConfigError("t grid must lie in [0, t_max]")
    sc = Scenario(
        data=data, t_max=t_max, r_grid=r_grid, t_grid=t_grid,
        verify_conservation=flags["conservation"],
        verify_entropy=flags["entropy"],
        verify_weak_ladder=flags["weak_ladder"],
        verify_example64=flags["example64"],
        verify_r_max=verify_r_max,
        expected_fail=tuple(expected_fail),
        oracle_N=oracle_N, oracle_r_max=oracle_r_max,
        oracle_times=oracle_times, out_dir=str(raw.get("out", ".")),
    )
    if not all(map(math.isfinite, sc.oracle_times + (sc.verify_r_max,))):
        raise ConfigError("oracle times and verify r_max must be finite")
    for name in sc.expected_fail:
        if name not in ("conservation", "entropy", "weak_ladder",
                        "example64_entropy"):
            raise ConfigError("unknown expected_fail entry %r" % name)
    return sc


def _describe_front(path) -> str:
    if isinstance(path, exact.ConstSpeedSW):
        return "%s const-speed R=%s v0=%s amp=%s" % (
            path.kind, _fmt(path.R), _fmt(path.v0), _fmt(path.amp))
    if isinstance(path, exact.PostAbsorptionSW):
        return "%s post-absorption C=%s D=%s E=%s u_r=%s" % (
            path.kind, _fmt(path.C), _fmt(path.D), _fmt(path.E), _fmt(path.u_r))
    return "%s linear xi0=%s v=%s t0=%s" % (
        path.kind, _fmt(path.xi0), _fmt(path.velocity), _fmt(path.t0))


def cmd_solve(sc: Scenario, out_dir: str) -> int:
    plan = exact.solve(sc.data, sc.t_max)
    lines = ["case %s" % plan.case,
             "data n=%d R=%s rho_l=%s rho_r=%s u_l=%s u_r=%s" % (
                 sc.data.n, _fmt(sc.data.R), _fmt(sc.data.rho_l),
                 _fmt(sc.data.rho_r), _fmt(sc.data.u_l), _fmt(sc.data.u_r))]
    try:
        v0 = exact.first_root_speed(sc.data.rho_l, sc.data.u_l,
                                    sc.data.rho_r, sc.data.u_r)
        lines.append("v0 %s" % _fmt(v0))
    except DomainError:
        pass
    t_in = plan.events.get("t_in")
    if t_in is not None and t_in <= sc.t_max:
        post = exact.post_absorption(sc.data)
        lines += ["t_in %s" % _fmt(t_in), "C %s" % _fmt(post.C),
                  "D %s" % _fmt(post.D), "E %s" % _fmt(post.E)]
    for name, t in sorted(plan.events.items(), key=lambda kv: (kv[1], kv[0])):
        lines.append("event %s %s" % (name, _fmt(t)))
    if not any(ph.fronts for ph in plan.phases):
        lines.append("no fronts (vacuum everywhere)")
    for k, ph in enumerate(plan.phases):
        t_end = "inf" if not np.isfinite(ph.t_end) else _fmt(ph.t_end)
        lines.append("phase %d [%s, %s) m0_slope=%s" % (
            k, _fmt(ph.t_start), t_end, _fmt(ph.m0_slope)))
        for fr in ph.fronts:
            lines.append("  front %s" % _describe_front(fr))
        for rg in ph.regions:
            lines.append("  region %s coeff=%s u=%s" % (
                rg.kind, _fmt(rg.coeff), _fmt(rg.velocity)))
    _write(out_dir, "plan.txt", "\n".join(lines) + "\n")
    return 0


def _sample_text(plan: WavePlan, t_grid, r_grid) -> str:
    """The rows of samples.csv from one evaluate_grid call over the whole
    grid, joined in one pass once the grid's arrays are freed.  Fields
    never need CSV quoting."""
    return "".join(_sample_pieces(plan, np.asarray(t_grid, float),
                                  np.asarray(r_grid, float)))


def _sample_pieces(plan: WavePlan, t_grid, r_grid) -> list:
    """The five pieces of each samples.csv row, row after row: "r," "t,"
    "rho," "u," and the tail "is_vacuum,m0,atom fields\n".  Each
    distinct value is formatted once with its comma by one _texts call,
    found by one sort of its bits so that -0.0 and 0.0 stay apart."""
    g = exact.evaluate_grid(plan, r_grid, t_grid)
    K, m = g.rho.shape
    allbits = np.concatenate(
        [r_grid, t_grid, g.m0, g.rho.ravel(), g.u.ravel()]).view(np.int64)
    bits = np.sort(allbits)
    bits = bits[np.concatenate(([True], bits[1:] != bits[:-1]))]
    inverse = np.searchsorted(bits, allbits)
    text = np.array(_texts(bits.view(float).tolist()), dtype=object)[inverse]
    r_text, t_text, m0_text, rho_text, u_text = np.split(
        text, [m, m + K, m + 2 * K, m + 2 * K + K * m])
    rows = np.empty((K, m, 5), dtype=object)
    rows[..., 0] = r_text
    rows[..., 1] = t_text[:, None]
    rows[..., 2] = rho_text.reshape(K, m)
    rows[..., 3] = u_text.reshape(K, m)
    rows[..., 4] = np.where(g.is_vacuum, ("1," + m0_text + ",,\n")[:, None],
                            ("0," + m0_text + ",,\n")[:, None])
    for k, atoms in enumerate(g.atoms):
        if atoms.count(None) < m:
            for j, a in enumerate(atoms):
                if a is not None:
                    rows[k, j, 4] = "%d,%s%s,%s,%s\n" % (
                        g.is_vacuum[k, j], m0_text[k], _fmt(a.radius),
                        _fmt(a.sigma), _fmt(a.total_mass))
    return rows.ravel().tolist()


def cmd_sample(sc: Scenario, out_dir: str) -> int:
    plan = exact.solve(sc.data, sc.t_max)
    _write(out_dir, "samples.csv",
           "r,t,rho,u,is_vacuum,m0,atom_radius,atom_sigma,atom_total_mass\n",
           _sample_text(plan, sc.t_grid, sc.r_grid))
    return 0


def cmd_verify(sc: Scenario, out_dir: str) -> int:
    plan = exact.solve(sc.data, sc.t_max)
    lines = []
    failures = []

    def record(name, passed, detail):
        status = "PASS" if passed else "FAIL"
        if not passed and name in sc.expected_fail:
            status = "FAIL (expected)"
        elif not passed:
            failures.append(name)
        lines.append("check %s %s %s" % (name, status, detail))

    if sc.verify_conservation:
        times = np.linspace(0.0, sc.t_max, 20)
        pairs = [verify.conserved_pair(plan, float(t), sc.verify_r_max)
                 for t in times]
        Q0, M0 = pairs[0].Q, pairs[0].M
        dq = max(abs(p.Q - Q0) for p in pairs) / max(abs(Q0), 1e-300)
        dm = max(abs(p.M - M0) for p in pairs) / max(1.0, abs(M0))
        record("conservation", dq <= 1e-9 and dm <= 1e-9,
               "Q_drift=%s M_drift=%s" % (_fmt(dq), _fmt(dm)))
    if sc.verify_entropy:
        worst = verify.worst_entropy_lhs(plan)
        if worst is None:
            lines.append("check entropy PASS no delta front")
        else:
            record("entropy", worst <= verify.ENTROPY_TOL, "max_lhs=%s" % _fmt(worst))
    if sc.verify_weak_ladder:
        phi = verify.default_test_function(plan)
        if phi is None:
            lines.append("check weak_ladder PASS no delta front")
        else:
            report = verify.residual_ladder(plan, phi)
            record("weak_ladder", report.passed, " ".join(
                "%s_order=%s" % (w, _fmt(o))
                for w, o in sorted(report.order.items())))
    if sc.verify_example64:
        # the nonconstant-speed front is not dissipative at small times
        worst = max(_example64_entropy(np.linspace(0.1, 5.0, 50))[1])
        record("example64_entropy", worst <= verify.ENTROPY_TOL, "max_lhs=%s" % _fmt(worst))
    _write(out_dir, "verify.txt", "\n".join(lines) + "\n")
    for ln in lines:
        print(ln)
    return 1 if failures else 0


def cmd_oracle(sc: Scenario, out_dir: str) -> int:
    plan = exact.solve(sc.data, max(sc.t_max, max(sc.oracle_times)))
    rows = ["t,N,pos_exact,pos_oracle,mass_exact,mass_oracle,m0_exact,"
            "m0_oracle"]
    for N in sc.oracle_N:
        ps = oracle_mod.discretize(sc.data, N, sc.oracle_r_max)
        for t in sorted(sc.oracle_times):
            ps.run_until(t)
            rep = oracle_mod.compare(plan, ps, t, sc.oracle_r_max)
            rows.append(",".join([_fmt(t), str(N)] + [_fmt(rep[k]) for k in (
                "pos_exact", "pos_oracle", "mass_exact", "mass_oracle",
                "m0_exact", "m0_oracle")]))
    _write(out_dir, "oracle.csv", "\n".join(rows) + "\n")
    return 0


def _example64_entropy(ts):
    """Closed forms (xi, xi_dot, sigma, rho_l, u_l) of the nonconstant-speed
    front at times ts, and its dissipation cubic against the outer state
    (1/xi, 0) at each time."""
    xi, xid, sg, rl, ul = sw_ode.nonentropic_example(ts)
    lhs = [verify.entropy_lhs(float(rl[k]), float(ul[k]),
                              1.0 / float(xi[k]), 0.0, float(xid[k]))
           for k in range(ts.size)]
    return (xi, xid, sg, rl, ul), lhs


def cmd_example64(sc: Scenario, out_dir: str) -> int:
    ts = np.linspace(0.1, 5.0, 99)
    (xi, xid, sg, rl, ul), lhs = _example64_entropy(ts)
    res1, res2 = sw_ode.ode_residual(
        sw_ode.nonentropic_example, sw_ode.nonentropic_outer_states, 2, ts,
        derivatives=sw_ode.nonentropic_derivatives)
    rows = ["t,xi,xi_dot,sigma,rho_l,u_l,entropy_lhs"] + [
        ",".join(map(_fmt, row)) for row in zip(ts, xi, xid, sg, rl, ul, lhs)]
    _write(out_dir, "example64.csv", "\n".join(rows) + "\n")
    _write(out_dir, "example64.txt",
           "front ODE residuals: res1=%s res2=%s\n" % (_fmt(res1), _fmt(res2))
           + "dissipation cubic is positive for small t"
           " (entropy condition violated) and changes sign near t=1.108\n")
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "sample": cmd_sample,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
    "example64": cmd_example64,
}


_PARSER = argparse.ArgumentParser(
    prog="radialsw",
    description="Exact solver and checks for radial pressureless flow")
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--config", required=True, help="scenario JSON path")
_PARSER.add_argument("--out", default=None, help="output directory override")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        sc = load_scenario(args.config)
        out_dir = args.out if args.out is not None else sc.out_dir
        os.makedirs(out_dir, exist_ok=True)
        return _COMMANDS[args.command](sc, out_dir)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
