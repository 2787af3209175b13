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


# The %.17g kernel of _texts.  For 10**-6 <= |x| < 10**17, j = 16 -
# floor(log10|x|) lies in [0, 22], so 10**j is a double, and Dekker's
# split product (Numer. Math. 18, 1971) gives |x| * 10**j exactly as
# hi + lo.  Each text is first one row of six uint64 words, for the
# decimal exponent X = 16 - j in [-6, 16] and the 17 digits d0..d16:
#   word 0     the sign, "0.000" (for -4 <= X < 0), d0 and its point slot;
#   words 1-4  d1..d16 in groups of four, each digit before its point slot;
#   word 5     "e-0X" (for X < -4), then ",\n".
# Bytes left NUL (point slots not chosen, trailing zeros %g drops) are
# deleted from all rows at once.
_TEXTS_PER_PASS = 2048
_POW10 = np.array([float(10 ** j) for j in range(23)])
_SPLITTER = 134217729.0  # 2**27 + 1: Veltkamp's split into 26-bit halves
_POW10_HI = _POW10 * _SPLITTER - (_POW10 * _SPLITTER - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _words(texts) -> np.ndarray:
    """Each ASCII text of at most 8 characters as one NUL-padded uint64."""
    return np.frombuffer(b"".join(
        t.encode("ascii").ljust(8, b"\0") for t in texts), np.uint64)


_X_MIN = -6
_LEAD = _words(["\0" + "0." + "0" * (-1 - X) if -4 <= X < 0 else ""
                for X in range(_X_MIN, 17)])
_TAIL = _words(["e%+03d,\n" % X if X < -4 else ",\n"
                for X in range(_X_MIN, 17)])
# Tables of the groups g = 1000 a + 100 b + 10 c + d, built over the axes
# (a, b, c, d): _GROUPS[g] holds the digit bytes of g, and _LAST[m, g] the
# index of the last nonzero digit of g as group m, or 0 for g = 0.
_ascii = np.arange(48, 58, dtype=np.uint8)
_GROUPS = np.zeros((10, 10, 10, 10, 8), np.uint8)
_GROUPS[..., 0] = _ascii[:, None, None, None]
_GROUPS[..., 2] = _ascii[:, None, None]
_GROUPS[..., 4] = _ascii[:, None]
_GROUPS[..., 6] = _ascii
_GROUPS = _GROUPS.view(np.uint64).ravel()
_last = np.zeros((10, 10, 10, 10), np.int8)
_last[1:] = 1
_last[:, 1:] = 2
_last[:, :, 1:] = 3
_last[..., 1:] = 4
_m = np.arange(4, dtype=np.int8)[:, None]
_LAST = np.where(_last.ravel() > 0, _last.ravel() + 4 * _m, 0).astype(np.int8)
# _KEEP[m, k]: the mask of group m's digit bytes whose indices are <= k
_KEEP = np.zeros((4, 17, 8), np.uint8)
_KEEP[:, :, ::2] = np.arange(17)[:, None] >= 4 * _m[..., None] + [1, 2, 3, 4]
_KEEP = _KEEP.view(np.uint64)[..., 0] * np.uint64(255)
del _ascii, _last, _m


def _texts(values) -> list:
    """_FMT % x + "," for each x of the float64 array values, by the
    kernel above in passes of _TEXTS_PER_PASS values.  Zeros, non-finite
    values and |x| outside [10**-6, 10**17) take _fmt one at a time."""
    x = np.asarray(values, dtype=float)
    texts = []
    for start in range(0, x.size, _TEXTS_PER_PASS):
        texts += _text_pass(x[start:start + _TEXTS_PER_PASS])
    return texts


def _scaled(ax, j):
    """hi, lo with hi + lo == ax * 10**j exactly: Dekker's product."""
    c = ax * _SPLITTER
    a_hi = c - (c - ax)
    a_lo = ax - a_hi
    p_hi, p_lo = _POW10_HI[j], _POW10_LO[j]
    hi = ax * _POW10[j]
    return hi, ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo


def _decade(hi, lo):
    """-1, 0 or 1 where hi + lo is below 1e16, in [1e16, 1e17) or above,
    tested exactly."""
    above = (hi > 1e17) | (hi == 1e17) & (lo >= 0)
    return above.astype(np.int8) - ((hi < 1e16) | (hi == 1e16) & (lo < 0))


def _text_pass(x) -> list:
    """_texts of at most _TEXTS_PER_PASS values."""
    ax = np.abs(x)
    ok = (ax >= 1e-6) & (ax < 1e17)
    ax[~ok] = 1.0
    j = 16 - np.floor(np.log10(ax)).astype(np.int64)
    np.clip(j, 0, 22, out=j)
    hi, lo = _scaled(ax, j)
    # log10 can round across a power of ten and leave j one off
    off = _decade(hi, lo)
    redo = np.flatnonzero(off)
    if redo.size:
        j[redo] = np.clip(j[redo] - off[redo], 0, 22)
        hi[redo], lo[redo] = _scaled(ax[redo], j[redo])
        ok[redo] &= _decade(hi[redo], lo[redo]) == 0
    # Now 1e16 <= hi + lo < 1e17 where ok.  There hi is an even integer,
    # so hi + rint(lo) is the 17-digit significand, ties to even.  It stays
    # below 10**17: a double below a power of ten lies at least 1.1e-16 of
    # it away, more than half a unit of the 17th digit.
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    X = 16 - j
    head = D // 10 ** 8
    tail = D - head * 10 ** 8
    d0 = head // 10 ** 8
    head -= d0 * 10 ** 8
    G = np.empty((4, x.size), np.int64)
    G[0] = head // 10 ** 4
    G[1] = head - G[0] * 10 ** 4
    G[2] = tail // 10 ** 4
    G[3] = tail - G[2] * 10 ** 4
    last = _LAST[0][G[0]]
    for m in range(1, 4):
        np.maximum(last, _LAST[m][G[m]], out=last)
    point = np.where(X < -4, 0, X)  # the index of the digit before the point
    keep = np.maximum(last, point)
    rows = np.empty((x.size, 6), np.uint64)
    rows[:, 0] = _LEAD[X - _X_MIN]
    for m in range(4):
        rows[:, 1 + m] = _GROUPS[G[m]] & _KEEP[m][keep]
    rows[:, 5] = _TAIL[X - _X_MIN]
    ch = rows.view(np.uint8)
    ch[:, 0] = np.signbit(x) * 45
    ch[:, 6] = d0 + 48
    dot = np.flatnonzero((last > point) & (point >= 0))
    ch[dot, 7 + 2 * point[dot]] = 46
    bad = np.flatnonzero(~ok)
    ch[bad] = 0
    ch[bad, -1] = 10
    texts = rows.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    texts.pop()
    for i in bad.tolist():
        texts[i] = _fmt(x[i]) + ","
    return texts


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
            if isinstance(count, bool) or int(count) != count or count < 1:
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
        if isinstance(dd["n"], bool):
            raise ConfigError("bad initial data: n must be an integer >= 1,"
                              " got %r" % (dd["n"],))
        data = PseudoRiemannData(n=dd["n"], R=float(dd["R"]),
                                 rho_l=float(dd["rho_l"]), rho_r=float(dd["rho_r"]),
                                 u_l=float(dd["u_l"]), u_r=float(dd["u_r"]))
    except KeyError as exc:
        raise ConfigError("data section needs n, R, rho_l, rho_r, u_l, u_r") from exc
    except (TypeError, ValueError, OverflowError, DomainError) as exc:
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
    if oracle_N != tuple(N_list) or any(isinstance(N, bool) for N in N_list):
        raise ConfigError("oracle N must be integers, got %r" % (N_list,))
    if not (oracle_times and all(0 <= t < math.inf for t in oracle_times)):
        raise ConfigError("oracle times must be a nonempty list of finite"
                          " times >= 0")
    if not (0 < t_max < math.inf):
        raise ConfigError("t_max must be positive and finite")
    if not (0 < verify_r_max < math.inf and 0 < oracle_r_max < math.inf):
        raise ConfigError("verify and oracle r_max must be positive and finite")
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


def _sample_pieces(plan: WavePlan, t_grid, r_grid) -> list:
    """The five pieces of each samples.csv row, row after row: "r," "t,"
    "rho," "u," and the tail "is_vacuum,m0,atom fields\n", from one
    evaluate_grid call over the float arrays t_grid and r_grid; fields
    never need CSV quoting.  Each distinct value is formatted once with
    its comma by one _texts call, found by one sort of its bits so that
    -0.0 and 0.0 stay apart."""
    g = exact.evaluate_grid(plan, r_grid, t_grid)
    K, m = g.rho.shape
    allbits = np.concatenate(
        [r_grid, t_grid, g.m0, g.rho.ravel(), g.u.ravel()]).view(np.int64)
    bits = np.sort(allbits)
    bits = bits[np.concatenate(([True], bits[1:] != bits[:-1]))]
    inverse = np.searchsorted(bits, allbits)
    text = np.array(_texts(bits.view(float)), dtype=object)[inverse]
    r_text, t_text, m0_text, rho_text, u_text = np.split(
        text, [m, m + K, m + 2 * K, m + 2 * K + K * m])
    rows = np.empty((K, m, 5), dtype=object)
    rows[..., 0] = r_text
    rows[..., 1] = t_text[:, None]
    rows[..., 2] = rho_text.reshape(K, m)
    rows[..., 3] = u_text.reshape(K, m)
    rows[..., 4] = np.where(g.is_vacuum, ("1," + m0_text + ",,\n")[:, None],
                            ("0," + m0_text + ",,\n")[:, None])
    for (k, j), a in g.atoms.items():
        rows[k, j, 4] = "%d,%s%s,%s,%s\n" % (
            g.is_vacuum[k, j], m0_text[k], _fmt(a.radius), _fmt(a.sigma),
            _fmt(a.total_mass))
    return rows.ravel().tolist()


def cmd_sample(sc: Scenario, out_dir: str) -> int:
    plan = exact.solve(sc.data, sc.t_max)
    _write(out_dir, "samples.csv",
           "r,t,rho,u,is_vacuum,m0,atom_radius,atom_sigma,atom_total_mass\n",
           "".join(_sample_pieces(plan, sc.t_grid, sc.r_grid)))
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
            rep = oracle_mod.compare(plan, ps, t)
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
