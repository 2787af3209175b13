"""Scenario generators and output checks for the three benchmark workloads.

An item is a pure function of (workload, seed, j) for j = 0, 1, ...
(sample_grid: of (seed, j), through a fixed pool of recorded items).  Every
parameter of a verify_ladder or oracle_ladder item, the cost-setting ones
(case class, dimension, density and speed ratios, oracle work and snapshot
count) and the ones that rescale the problem (R, speed and density
levels), is one coordinate of the Halton point j + 1, shifted modulo 1 by a
vector drawn from the seed (a Cranley-Patterson rotation); only the
oracle snapshot times and the sign of the speeds of the non-delta case
kinds come from a generator seeded by (seed, j).  Any first items of a
run therefore cover each parameter's range evenly whatever the seed,
which keeps the cost mix, and so the p50 and p90, steady across seeds
while the data still range over decades of scale.
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from radialsw import cli, sw_ode
from radialsw import exact_riemann as exact
from radialsw.core import SHADOW_WAVE, PseudoRiemannData, surface_area

SCHEMA = cli.SCHEMA
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

# sample_grid draws from a fixed pool so that each item has reference
# column statistics recorded by record_reference.py
SAMPLE_POOL = 384
SAMPLE_RTOL = 1e-9
SAMPLE_COLUMNS = ("rho", "u", "m0", "atom_radius", "atom_sigma",
                  "atom_total_mass")

# verify_ladder: front ODE against the closed-form front
ODE_XI_RTOL = 1e-7
ODE_SIGMA_RTOL = 1e-6
ODE_RESIDUAL_RTOL = 1e-10

# oracle_ladder: allowed discrepancy in cell widths / cell masses
ORACLE_CELLS = 4.0
ORACLE_CLUSTER_FRACTION = 0.05   # oracle.front_extract's default
# oracle_ladder item cost model, seconds: CASE_FACTOR * (C0 + N * (CN +
# CP * gas share + CS * swept share)), fitted by least squares to 1161
# measured items (timings scaled as in run.py); N is chosen from it
ORACLE_COST_C0, ORACLE_COST_CN = 1.56e-3, 0.29e-6
ORACLE_COST_CP, ORACLE_COST_CS = 1.46e-6, 12.4e-6
ORACLE_CASE_FACTOR = {
    "absorb_then_dump": 1.26, "absorb_no_hit": 0.94, "inflow_hit": 1.17,
    "VacuumFan": 0.73, "Contact": 0.73, "VacuumLeftShock": 0.91,
    "VacuumRightShock": 0.65, "AllVacuum": 0.62}
ORACLE_TARGET_S = (5e-3, 0.3)    # range of the predicted item cost


def radical_inverse(i: int, base: int) -> float:
    """Van der Corput radical inverse of i >= 0 in `base`."""
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def loguniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _rng(workload_id: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([workload_id, *key])


HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def point(workload_id: int, seed: int, j: int, dims: int):
    """Coordinates of item j of a run: the Halton point j + 1 in `dims`
    dimensions, shifted modulo 1 by a vector drawn from the seed."""
    shift = _rng(workload_id, seed).random(dims)
    return [float((radical_inverse(j + 1, b) + s) % 1.0)
            for b, s in zip(HALTON_BASES[:dims], shift)]


def _scales(u):
    """Length, speed and density scales over several decades from
    u = (u_R, u_U, u_rho, u_rho_ratio, u_speed_ratio).  The density ratio
    rho_l/rho_r (1e-3..1e3) and the speed ratio (0.01..100) set how much
    work the checks and the oracle do; R and the overall speed and density
    levels only rescale the problem."""
    R = loguniform(u[0], 1e-2, 1e2)
    U = loguniform(u[1], 1e-2, 1e2)
    rho = loguniform(u[2], 1e-3, 1e3)
    rho_ratio = loguniform(u[3], 1e-3, 1e3)
    speed_ratio = loguniform(u[4], 1e-2, 1e2)
    return (R, rho * math.sqrt(rho_ratio), rho / math.sqrt(rho_ratio),
            U * math.sqrt(speed_ratio), U / math.sqrt(speed_ratio))


DELTA_SUBCASES = ("absorb_then_dump", "absorb_no_hit", "inflow_hit")
OTHER_CLASSES = ("VacuumFan", "Contact", "VacuumLeftShock", "VacuumRightShock",
                 "AllVacuum")
CASE_CLASSES = DELTA_SUBCASES + OTHER_CLASSES


def draw_data(case_class: str, n: int, u) -> dict:
    """Pseudo-Riemann data of the named class with decade-wide scales, from
    u = (u_R, u_U, u_rho, u_rho_ratio, u_speed_ratio, u_sign).

    Delta-shock subclasses: absorb_then_dump (u_l > 0 > u_r), absorb_no_hit
    (u_l > u_r >= 0) and inflow_hit (u_r < u_l <= 0).
    """
    R, rho_l, rho_r, a, b = _scales(u)
    sign = 1.0 if u[5] < 0.5 else -1.0
    if case_class == "absorb_then_dump":
        u_l, u_r = a, -b
    elif case_class == "absorb_no_hit":
        u_r = b
        u_l = u_r + a
    elif case_class == "inflow_hit":
        u_l = -a
        u_r = u_l - b
    elif case_class == "VacuumFan":
        u_l = sign * a
        u_r = u_l + b
    elif case_class == "Contact":
        u_l = u_r = sign * a
    elif case_class == "VacuumLeftShock":
        rho_l, u_l, u_r = 0.0, 0.0, sign * a
    elif case_class == "VacuumRightShock":
        rho_r, u_r, u_l = 0.0, 0.0, sign * a
    elif case_class == "AllVacuum":
        rho_l = rho_r = 0.0
        u_l, u_r = sign * a, sign * b
    else:
        raise ValueError("unknown case class %r" % (case_class,))
    return {"n": n, "R": R, "rho_l": rho_l, "rho_r": rho_r,
            "u_l": float(u_l), "u_r": float(u_r)}


def _horizon(data: dict) -> float:
    """A time past every plan event (or a few transit times R/|u| when
    the plan has none)."""
    plan = exact.solve(PseudoRiemannData(**data), 1.0)
    speed = max(abs(data["u_l"]), abs(data["u_r"]))
    if plan.events:
        return 1.5 * max(plan.events.values())
    return 3.0 * data["R"] / speed


def _reach(plan, times, inflow: float = 0.0) -> float:
    """Largest over `times` of the outermost of R and the front positions,
    plus the distance inflow * t that gas at speed -inflow covers."""
    best = 0.0
    for t in times:
        t = float(t)
        outer = max([plan.data.R] + [f.xi(t) for f in plan.phase_at(t).fronts])
        best = max(best, outer + inflow * t)
    return best


def _base_scenario(data: dict, t_max: float) -> dict:
    # an explicit r grid: the default one, 0.1..2R, is unsorted for R < 0.05
    # and load_scenario then rejects the scenario whatever the command
    return {"schema": SCHEMA, "data": data, "t_max": t_max,
            "sample": {"r": [0.5 * data["R"], 2.0 * data["R"]]}}


def _halton(index: int, dims: int):
    return [radical_inverse(index, b) for b in HALTON_BASES[:dims]]


# ---------------------------------------------------------------------------
# sample_grid

def make_sample_item(seed: int, j: int) -> dict:
    """Item j of a sample_grid run: consecutive pool items from a start
    drawn from the seed (consecutive Halton indices cover the cost-setting
    parameters evenly)."""
    start = int(_rng(1, seed).integers(SAMPLE_POOL))
    return sample_pool_item(start + j)


def sample_pool_item(index: int) -> dict:
    """`radialsw sample` on a dense r x t grid of about 10^4 points, from
    near the origin to past the outermost front; pool index `index`
    modulo SAMPLE_POOL."""
    index %= SAMPLE_POOL
    u_pts, u_case, u_n = _halton(index, 3)
    rng = _rng(1, index)
    kind = CASE_CLASSES[int(u_case * len(CASE_CLASSES))]
    n = 1 + int(u_n * 4)
    u_rho, u_speed = rng.random(), rng.random()
    u_R, u_U, u_level = rng.random(), rng.random(), rng.random()
    data = draw_data(kind, n, (u_R, u_U, u_level, u_rho, u_speed, rng.random()))
    t_max = _horizon(data)
    n_t = int(rng.integers(5, 41))
    n_r = max(2, int(round((7000.0 + 6000.0 * u_pts) / n_t)))
    plan = exact.solve(PseudoRiemannData(**data), t_max)
    r_hi = 1.25 * _reach(plan, np.linspace(0.0, t_max, n_t))
    sc = _base_scenario(data, t_max)
    sc["sample"] = {"r": {"start": 1e-3 * data["R"], "stop": r_hi, "count": n_r},
                    "t": {"start": 0.0, "stop": t_max, "count": n_t}}
    return {"index": index, "command": "sample", "scenario": sc,
            "case": kind, "rows": n_r * n_t}


def sample_stats(path: str) -> dict:
    """Row count, finite column sum / abs sum / max and the non-finite
    cells of a samples.csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = [header.index(c) for c in SAMPLE_COLUMNS]
    stats = {"rows": len(body), "nonfinite": []}
    for name, c in zip(SAMPLE_COLUMNS, cols):
        vals = np.array([float(r[c]) for r in body if r[c] != ""], dtype=float)
        fin = np.isfinite(vals)
        for k in np.flatnonzero(~fin):
            stats["nonfinite"].append([name, int(k), repr(float(vals[k]))])
        v = vals[fin]
        stats[name] = [int(vals.size), float(v.sum()), float(np.abs(v).sum()),
                       float(v.max()) if v.size else 0.0]
    return stats


def load_sample_reference() -> dict:
    with open(os.path.join(REFERENCE_DIR, "sample_grid.json"),
              encoding="utf-8") as fh:
        return {int(k): v for k, v in json.load(fh)["items"].items()}


def check_sample(item, rc, stdout, out_dir, extra, reference) -> str:
    if rc != 0:
        return "exit_%d" % rc
    got = sample_stats(os.path.join(out_dir, "samples.csv"))
    if got["rows"] != item["rows"]:
        return "row_count"
    ref = reference[item["index"]]
    if got["nonfinite"] != ref["nonfinite"]:
        return "nonfinite_cells"
    for name in SAMPLE_COLUMNS:
        cnt, s, l1, mx = got[name]
        rcnt, rs, rl1, rmx = ref[name]
        tol = SAMPLE_RTOL * max(rl1, 1e-300)
        if cnt != rcnt or abs(s - rs) > tol or abs(mx - rmx) > tol:
            return "column_%s" % name
    return ""


# ---------------------------------------------------------------------------
# verify_ladder

def make_verify_item(seed: int, j: int) -> dict:
    """`radialsw verify` with every check on, on one delta-shock datum,
    plus a front ODE cross-check over the plan's first phase."""
    u_sub, u_n, u_rho, u_speed, u_R, u_U, u_level = point(2, seed, j, 7)
    sub = DELTA_SUBCASES[int(u_sub * 3)]
    n = 1 + int(u_n * 4)
    data = draw_data(sub, n, (u_R, u_U, u_level, u_rho, u_speed, 0.0))
    t_max = _horizon(data)
    speed = max(abs(data["u_l"]), abs(data["u_r"]))
    sc = _base_scenario(data, t_max)
    sc["verify"] = {"conservation": True, "entropy": True, "weak_ladder": True,
                    "example64": True, "expected_fail": ["example64_entropy"],
                    "r_max": 2.0 * (data["R"] + speed * t_max)}
    return {"index": j, "command": "verify", "scenario": sc, "case": sub}


def _first_front(plan):
    ph = plan.phases[0]
    for k, f in enumerate(ph.fronts):
        if f.kind == SHADOW_WAVE:
            return ph, k, f
    raise ValueError("delta-shock plan without a shadow front")


def front_ode_check(item) -> dict:
    """Integrate the front ODE over the first phase of the plan and
    evaluate the ODE residuals of the closed-form front there."""
    data = PseudoRiemannData(**item["scenario"]["data"])
    n = data.n
    plan = exact.solve(data, item["scenario"]["t_max"])
    ph, k, front = _first_front(plan)
    inner, outer = ph.regions[k], ph.regions[k + 1]

    def outer_states(t, xi):
        return (inner.density(xi, n), inner.velocity,
                outer.density(xi, n), outer.velocity)

    t_end = 0.9 * (ph.t_end if math.isfinite(ph.t_end) else plan.t_max)
    ivp = sw_ode.FrontIVP(t0=0.0, xi0=data.R, speed0=None, sigma0=0.0,
                          outer_states=outer_states, n=n)
    speed = abs(data.u_l) + abs(data.u_r)
    sigma_scale = abs(front.sigma(t_end))
    traj = sw_ode.integrate_front(
        ivp, t_end, atol=1e-12 * min(data.R, speed, sigma_scale))

    def closed(t):
        return front.xi(t), front.speed(t), front.sigma(t)

    def derivatives(ts):
        xi = front.xi(ts)
        sigma_dot = front.amp * xi ** (1 - n) * (1.0 + (1 - n) * front.v0 * ts / xi)
        return sigma_dot, 0.0

    grid = np.linspace(0.1 * t_end, t_end, 8)
    res1, res2 = sw_ode.ode_residual(closed, outer_states, n, grid,
                                     derivatives=derivatives)
    # flux scale of kappa1; kappa2 carries one more speed factor
    k1_scale = max((data.rho_l + data.rho_r) * front.xi(t) ** (1 - n) * speed
                   for t in grid)
    xi_ref = np.array([front.xi(t) for t in traj.t])
    # sigma compared as the front mass per unit sphere area, sigma xi^(n-1),
    # whose closed form amp*t the ODE carries with a constant absolute error
    # from its algebraic first step (sw_ode.SEED_FRACTION)
    mass = traj.sigma * traj.xi ** (n - 1)
    mass_ref = front.amp * traj.t
    return {
        "xi_err": float(np.max(np.abs(traj.xi - xi_ref))
                        / max(data.R, float(np.max(np.abs(xi_ref))))),
        "sigma_err": float(np.max(np.abs(mass - mass_ref))
                           / float(np.max(np.abs(mass_ref)))),
        "residual": max(res1 / k1_scale, res2 / (k1_scale * speed)),
    }


_VERIFY_EXPECTED = {"conservation": "PASS", "entropy": "PASS",
                    "example64_entropy": "FAIL (expected)"}
LADDER_ORDER_GATE = 0.9   # cli.cmd_verify's weak-ladder threshold
# a check outcome: the CLI ran, its output is consistent and right, and it
# reports a failed check of its own (see perfbench/README.md, "Known
# failures").  Such items lower passed_frac but are not failed operations.
LADDER_GATE = "ladder_gate"


def _ladder_verdict(detail: str):
    """The weak-ladder verdict the reported orders imply: True when every
    finite fitted order reaches the gate; None when the detail carries no
    orders of mass and momentum."""
    orders = {}
    for tok in detail.split():
        key, sep, value = tok.partition("_order=")
        if sep:
            orders[key] = float(value)
    if set(orders) != {"mass", "momentum"}:
        return None
    return all(not math.isfinite(o) or o >= LADDER_ORDER_GATE
               for o in orders.values())


def check_verify(item, rc, stdout, out_dir, extra, reference=None) -> str:
    """Empty when the verify output is right; LADDER_GATE when it is right
    and the weak ladder reports an order below the gate (exit code 1);
    otherwise the reason the output is wrong."""
    status, details = {}, {}
    for ln in stdout.splitlines():
        if ln.startswith("check "):
            name, _, rest = ln[len("check "):].partition(" ")
            expected = rest.startswith("FAIL (expected)")
            status[name] = "FAIL (expected)" if expected else rest.split(" ")[0]
            details[name] = rest
    if extra["xi_err"] > ODE_XI_RTOL or extra["sigma_err"] > ODE_SIGMA_RTOL:
        return "ode_front"
    if not extra["residual"] <= ODE_RESIDUAL_RTOL:
        return "ode_residual"
    wrong = [k for k, v in _VERIFY_EXPECTED.items() if status.get(k) != v]
    if wrong:
        return "verify_" + "_".join(wrong)
    detail = details.get("weak_ladder", "")
    ladder = True if detail == "PASS no delta front" else _ladder_verdict(detail)
    if ladder is None or status["weak_ladder"] != ("PASS" if ladder else "FAIL"):
        return "verify_weak_ladder_output"
    if rc != (0 if ladder else 1):
        return "verify_exit_%d" % rc
    return "" if ladder else LADDER_GATE


# ---------------------------------------------------------------------------
# oracle_ladder

def _oracle_shares(plan, t: float, r_max: float):
    """Shares of (0, r_max], by initial position, that hold gas (one oracle
    particle per cell there) and whose gas the exact solution has merged
    into a front or delivered to the origin by time t (one oracle merge or
    deposit per cell there)."""
    d = plan.data
    ph = plan.phase_at(t)
    bounds = [0.0] + [f.xi(t) for f in ph.fronts] + [math.inf]
    kept = 0.0
    for reg, a, b in zip(ph.regions, bounds[:-1], bounds[1:]):
        if reg.is_vacuum or reg.coeff == 0.0:
            continue
        lo, hi = a - reg.velocity * t, b - reg.velocity * t
        for coeff, u, r0, r1 in ((d.rho_l, d.u_l, 0.0, d.R),
                                 (d.rho_r, d.u_r, d.R, r_max)):
            if (reg.coeff, reg.velocity) == (coeff, u):
                kept += max(0.0, min(hi, r1) - max(lo, r0))
    gas = (d.R if d.rho_l > 0 else 0.0) + (r_max - d.R if d.rho_r > 0 else 0.0)
    return gas / r_max, max(0.0, gas - kept) / r_max


def make_oracle_item(seed: int, j: int) -> dict:
    """`radialsw oracle` at one N with 3..40 snapshot times spanning
    absorption and the origin dump, on any case class.

    N is set from a predicted item cost, within N = 1e3..1e5, so that item
    costs follow the stratified u_N instead of the case and ratio draws.
    The log of the predicted cost lies 1 - (1 - u_N)^2 of the way across
    ORACLE_TARGET_S, which packs the costliest fifth of the items into a
    narrow band: the p90 then falls among items of similar cost.  The cost
    model charges each cell a little, each cell with gas (one particle)
    more, and each cell the exact solution sweeps into a front or the
    origin (one merge or deposit) most.
    """
    (u_N, u_case, u_rho, u_speed, u_snap, u_n, u_R, u_U,
     u_level) = point(3, seed, j, 9)
    rng = _rng(3, seed, j + 1)
    # three items in four are delta shocks, whose merges are the event
    # loop's work
    k = int(u_case * 4 * len(OTHER_CLASSES))
    case = (DELTA_SUBCASES[k % 3] if k < 3 * len(OTHER_CLASSES)
            else OTHER_CLASSES[k - 3 * len(OTHER_CLASSES)])
    n = 1 + int(u_n * 4)
    data = draw_data(case, n, (u_R, u_U, u_level, u_rho, u_speed, rng.random()))
    n_snap = 3 + int(u_snap * 38)
    t_last = _horizon(data)
    plan = exact.solve(PseudoRiemannData(**data), t_last)
    # the oracle domain (0, r_max] has no inflow through r_max: its gas
    # ends at r_max + u_r t.  Keep that edge beyond every front up to
    # t_last and no further, so that the fronts sweep most particles
    r_max = 1.1 * _reach(plan, np.linspace(0.0, t_last, 257),
                         max(0.0, -data["u_r"]))
    # the oracle cluster reaches the origin within a few cell transit times
    # of t_sw0 (guard taken at the coarsest N); keep snapshots clear of that
    # window, where the whole front mass is in m0 on one side only
    spans = [(0.02 * t_last, t_last)]
    t_sw0 = plan.events.get("t_sw0")
    if t_sw0 is not None:
        front = plan.phase_at(0.999 * t_sw0).fronts[-1]
        guard = 20.0 * (r_max / 1e3) / abs(front.speed(t_sw0))
        spans = [(a, b) for a, b in ((0.02 * t_last, t_sw0 - guard),
                                     (t_sw0 + guard, t_last)) if b > a]
        if sum(b - a for a, b in spans) < 0.1 * t_last:
            # a front that grazes the origin: snapshots before it only
            spans = [(0.02 * t_last, 0.5 * t_sw0)]
    times = []
    for u in rng.random(n_snap) * sum(b - a for a, b in spans):
        for a, b in spans[:-1]:
            if u < b - a:
                break
            u -= b - a
        else:
            a = spans[-1][0]
        times.append(float(a + u))
    particles, swept = _oracle_shares(plan, max(times), r_max)
    per_cell = ORACLE_COST_CN + ORACLE_COST_CP * particles + ORACLE_COST_CS * swept
    target = (loguniform(1.0 - (1.0 - u_N) ** 2, *ORACLE_TARGET_S)
              / ORACLE_CASE_FACTOR[case])
    N = int(round(min(1e5, max(1e3, (target - ORACLE_COST_C0) / per_cell))))
    sc = _base_scenario(data, t_last)
    sc["oracle"] = {"N": [N], "r_max": r_max, "times": sorted(times)}
    return {"index": j, "command": "oracle", "scenario": sc, "case": case,
            "N": N, "snapshots": n_snap}


def check_oracle(item, rc, stdout, out_dir, extra, reference=None) -> str:
    if rc != 0:
        return "exit_%d" % rc
    sc = item["scenario"]
    d = sc["data"]
    r_max = sc["oracle"]["r_max"]
    N = item["N"]
    S = surface_area(d["n"])
    dx = r_max / N
    cell_mass = S * max(d["rho_l"], d["rho_r"]) * dx
    total = S * (d["rho_l"] * d["R"] + d["rho_r"] * (r_max - d["R"]))
    with open(os.path.join(out_dir, "oracle.csv"), newline="",
              encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != item["snapshots"]:
        return "row_count"

    def num(row, key):
        return float(row[key]) if row[key] != "" else None

    for row in rows:
        pe, po = num(row, "pos_exact"), num(row, "pos_oracle")
        me, mo = num(row, "mass_exact"), num(row, "mass_oracle")
        if abs(num(row, "m0_oracle") - num(row, "m0_exact")) > ORACLE_CELLS * cell_mass:
            return "m0_error"
        if pe is not None and po is not None:
            # a front lighter than a few cells is not resolved at this N:
            # the oracle cluster is then one heavy cell and its centroid
            if me >= ORACLE_CELLS * cell_mass and abs(po - pe) > ORACLE_CELLS * dx:
                return "pos_error"
            if abs(mo - me) > ORACLE_CELLS * cell_mass:
                return "mass_error"
        elif pe is not None:
            if me > ORACLE_CLUSTER_FRACTION * total + ORACLE_CELLS * cell_mass:
                return "missing_cluster"
        elif po is not None:
            return "spurious_cluster"
    return ""


WORKLOADS = {
    "sample_grid": (make_sample_item, check_sample),
    "verify_ladder": (make_verify_item, check_verify),
    "oracle_ladder": (make_oracle_item, check_oracle),
}
