"""Classification of pseudo-Riemann data and exact global plan construction.

Cases: both sides vacuum; one-sided vacuum bounded by a degenerate shock;
a contact (equal velocities); a vacuum fan (u_l < u_r, the regions
separate); a delta shock carried by a shadow-wave front (u_l > u_r).
Interior gas that moves outward (u_l > 0) leaves vacuum at the origin.
Each phase of a plan ends at one of two events: the vacuum edge catches
the constant-speed shadow front (t_in; the closed post-absorption form
takes over), or the innermost front reaches r = 0 and the region inside
it empties into the origin point mass (t_sw0 for a shadow front, which
dumps its mass there; t_vacuum_close when that region is vacuum;
t_origin_left otherwise).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    ALL_VACUUM, CASE_CONTACT, CONTACT, DELTA_SHOCK, SHADOW_WAVE, SHOCK,
    VACUUM_EDGE, VACUUM_FAN, VACUUM_LEFT_SHOCK, VACUUM_RIGHT_SHOCK,
    Atom, DomainError, LinearFront, Phase, PseudoRiemannData, RegionProfile,
    SolutionSample, WavePlan, in_float_range,
    linear_times, path_const, path_power, path_sqrt, surface_area,
)

INF = math.inf

# evaluate_grid() reports the front atom within this relative distance of xi
ATOM_POSITION_RTOL = 1e-9


# ---------------------------------------------------------------------------
# Front paths with closed-form mass

@dataclass(frozen=True)
class ConstSpeedSW:
    """Shadow front at xi = R + v0 t with sigma from variation of constants:
    sigma(t) = t sqrt(rho_l rho_r) (u_l - u_r) xi^{1-n}."""
    kind = SHADOW_WAVE
    R: float
    v0: float
    amp: float  # sqrt(rho_l rho_r) (u_l - u_r)
    n: int

    def xi(self, t):
        return self.R + self.v0 * t

    def speed(self, t):
        return path_const(t, self.v0)

    def mass(self, t):
        return self.amp * t

    def sigma(self, t):
        return self.mass(t) * path_power(self.xi(t), 1 - self.n)

    def times_at(self, x, lo, hi):
        return linear_times(self.R, self.v0, 0.0, x, lo, hi)


@dataclass(frozen=True)
class PostAbsorptionSW:
    """Shadow front after the interior region is absorbed (rho0 = 0):
    xi(t) = u_r t + E + (2/C) sqrt(Ct+D), sigma = (2 rho_r/C) sqrt(Ct+D) xi^{1-n}."""
    kind = SHADOW_WAVE
    u_r: float
    C: float
    D: float
    E: float
    rho_r: float
    n: int

    def xi(self, t):
        return self.u_r * t + self.E + (2.0 / self.C) * path_sqrt(self.C * t + self.D)

    def speed(self, t):
        return self.u_r + 1.0 / path_sqrt(self.C * t + self.D)

    def mass(self, t):
        return (2.0 * self.rho_r / self.C) * path_sqrt(self.C * t + self.D)

    def sigma(self, t):
        return self.mass(t) * path_power(self.xi(t), 1 - self.n)

    @property
    def t_turn(self) -> Optional[float]:
        """Time the front turns inward (speed 0); None when u_r >= 0 or
        when u_r^-2 leaves float range (the turn never comes)."""
        try:
            return (self.u_r ** -2 - self.D) / self.C if self.u_r < 0 else None
        except OverflowError:
            return None

    def times_at(self, x, lo, hi):
        """With s = sqrt(Ct+D), xi(t) = x reads u_r s^2 + 2 s + (C(E-x) -
        u_r D) = 0; its roots come from the cancellation-free pair q/a,
        c/q with q = -(1 + sqrt(1 - a c)), and only s >= sqrt(C lo + D)
        lies on the path."""
        a, c = self.u_r, self.C * (self.E - x) - self.u_r * self.D
        disc = 1.0 - a * c
        if disc < 0.0:
            return []
        q = -(1.0 + math.sqrt(disc))
        s_lo = math.sqrt(self.C * lo + self.D)
        times = []
        for s in ((q / a, c / q) if a != 0.0 else (c / q,)):
            t = (s * s - self.D) / self.C
            if s >= s_lo and lo <= t <= hi and math.isfinite(t):
                times.append(t)
        return sorted(times)


# ---------------------------------------------------------------------------
# Classification and constant-speed closed forms

def classify(data: PseudoRiemannData) -> str:
    """The datum's case kind, one of CASE_KINDS."""
    rl, rr, ul, ur = data.rho_l, data.rho_r, data.u_l, data.u_r
    if rl == 0.0 and rr == 0.0:
        return ALL_VACUUM
    if rl == 0.0:
        return VACUUM_LEFT_SHOCK
    if rr == 0.0:
        return VACUUM_RIGHT_SHOCK
    if ul > ur:
        return DELTA_SHOCK
    if ul < ur:
        return VACUUM_FAN
    return CASE_CONTACT


def first_root_speed(rho0: float, u0: float, rho1: float, u1: float) -> float:
    """Physical constant front speed 1v0 = (u1 sqrt(rho1) + u0 sqrt(rho0)) /
    (sqrt(rho1) + sqrt(rho0)); a convex combination of u0 and u1, taken
    with the weights divided first where a product leaves float range."""
    if rho0 < 0 or rho1 < 0:
        raise DomainError("densities must be >= 0")
    if rho0 == 0.0 and rho1 == 0.0:
        raise DomainError("both densities vanish; no front speed")
    a, b = math.sqrt(rho0), math.sqrt(rho1)
    v = (u1 * b + u0 * a) / (a + b)
    if not math.isfinite(v):
        v = u1 * (b / (a + b)) + u0 * (a / (a + b))
    return v


def second_root_speed(rho0: float, u0: float, rho1: float, u1: float) -> Optional[float]:
    """Rejected second root 2v0 = (u1 sqrt(rho1) - u0 sqrt(rho0)) /
    (sqrt(rho1) - sqrt(rho0)); None when rho0 = rho1 (single root)."""
    if rho0 < 0 or rho1 < 0:
        raise DomainError("densities must be >= 0")
    if rho0 == rho1:
        return None
    a, b = math.sqrt(rho0), math.sqrt(rho1)
    return (u1 * b - u0 * a) / (b - a)


def _const_front(data: PseudoRiemannData) -> ConstSpeedSW:
    """The constant-speed shadow front; sqrt(rho_l rho_r) is taken as
    sqrt(rho_l) sqrt(rho_r) where rho_l rho_r is not a normal double.
    DomainError when amp leaves float range."""
    v0 = first_root_speed(data.rho_l, data.u_l, data.rho_r, data.u_r)
    prod = data.rho_l * data.rho_r
    root = (math.sqrt(prod) if np.finfo(float).smallest_normal <= prod < INF
            else math.sqrt(data.rho_l) * math.sqrt(data.rho_r))
    amp = root * (data.u_l - data.u_r)
    if not math.isfinite(amp):
        raise DomainError("front amplitude sqrt(rho_l rho_r) (u_l - u_r)"
                          " leaves float range")
    return ConstSpeedSW(data.R, v0, amp, data.n)


@in_float_range
def absorption_time(data: PseudoRiemannData) -> Optional[float]:
    """Time the interior vacuum edge catches the front, exhausting the left
    region: t_in = R (sqrt(rho_r)+sqrt(rho_l))/(sqrt(rho_r)(u_l-u_r)).
    None when u_l <= 0 (the interior drains at the origin instead)."""
    if classify(data) != DELTA_SHOCK:
        raise DomainError("datum is not a delta shock case")
    if data.u_l <= 0:
        return None
    a, b = math.sqrt(data.rho_l), math.sqrt(data.rho_r)
    return data.R * (b + a) / (b * (data.u_l - data.u_r))


@in_float_range
def post_absorption(data: PseudoRiemannData) -> PostAbsorptionSW:
    """The front after full absorption, with its constants C, D and E,
    valid on [t_in, t_sw0).  xi, xi-dot and the total front mass
    |S^{n-1}| xi^{n-1} sigma are continuous at t_in.  There C t + D =
    ((sqrt(rho_l) + sqrt(rho_r)) / (sqrt(rho_l) (u_l - u_r)))^2 > 0; a
    t_in that underflows to 0 can leave it < 0, where the front is
    undefined, and that raises DomainError; so does a denominator of D
    that overflows, which would round D to 0.
    """
    t_in = absorption_time(data)
    if t_in is None:
        raise DomainError("datum has no finite absorption time")
    C = 2.0 * data.rho_r / (data.R * data.rho_l * (data.u_l - data.u_r))
    den = data.rho_l * (data.u_l - data.u_r) ** 2
    D = (data.rho_l - data.rho_r) / den
    E = (data.R / data.rho_r) * (data.rho_r - data.rho_l)
    if not (0.0 < C < INF and den < INF and math.isfinite(D)
            and math.isfinite(E) and C * t_in + D >= 0.0):
        raise DomainError("post-absorption constants leave float range")
    return PostAbsorptionSW(data.u_r, C, D, E, data.rho_r, data.n)


# ---------------------------------------------------------------------------
# Plan assembly

def _ledger_slopes(inner: RegionProfile, S: float):
    """m0 and p0 rates while `inner` is the region adjacent to the origin."""
    if inner.is_vacuum:
        return 0.0, 0.0
    u = inner.velocity
    m0_slope = S * inner.coeff * max(0.0, -u)
    p0_slope = -S * inner.coeff * u * u if u != 0.0 else 0.0
    if not (math.isfinite(m0_slope) and math.isfinite(p0_slope)):
        raise DomainError("m0/p0 inflow rates leave float range")
    return m0_slope, p0_slope


def _waves(data: PseudoRiemannData, kind: str):
    """The fronts that leave R and the regions between them, innermost
    first, as lists for solve() to edit."""
    R, u_l, u_r = data.R, data.u_l, data.u_r
    left = RegionProfile.power_law(data.rho_l, u_l)
    right = RegionProfile.power_law(data.rho_r, u_r)
    vac = RegionProfile.vacuum()
    if kind == DELTA_SHOCK:
        return [_const_front(data)], [left, right]
    return {
        ALL_VACUUM: ([], [vac]),
        VACUUM_LEFT_SHOCK: ([LinearFront(SHOCK, R, u_r)], [vac, right]),
        VACUUM_RIGHT_SHOCK: ([LinearFront(SHOCK, R, u_l)], [left, vac]),
        CASE_CONTACT: ([LinearFront(CONTACT, R, u_l)], [left, right]),
        VACUUM_FAN: ([LinearFront(VACUUM_EDGE, R, u_l),
                      LinearFront(VACUUM_EDGE, R, u_r)], [left, vac, right]),
    }[kind]


def _next_event(data: PseudoRiemannData, fronts, regions, t0: float):
    """(name, time) of the event ending the phase from t0 (time None if
    never): t_in, or the innermost front's first finite crossing of r = 0
    at or after t0, inward for a linear front.  A shadow front reaches it
    only when u_r < 0: the constant-speed one when u_r < u_l <= 0, and the
    post-absorption one, slowing to u_r, never turns back otherwise."""
    if len(fronts) == 2 and isinstance(fronts[1], ConstSpeedSW):
        t = absorption_time(data)
        return "t_in", (t if math.isfinite(t) else None)
    if not fronts:
        return None, None
    f = fronts[0]
    shadow = f.kind == SHADOW_WAVE
    if shadow and data.u_r >= 0:
        return "t_sw0", None
    ts = [t for t in f.times_at(0.0, t0, INF)
          if math.isfinite(t) and (shadow or f.speed(t) < 0)]
    name = ("t_sw0" if shadow else
            "t_vacuum_close" if regions[0].is_vacuum else "t_origin_left")
    return name, (ts[0] if ts else None)


@in_float_range
def solve(data: PseudoRiemannData, t_max: float) -> WavePlan:
    """Exact global plan for the datum, one phase per event of the module
    rule; phases partition [0, inf) structurally, t_max gates sampling via
    evaluate().  An event time that rounds to the start of its phase is
    applied without a phase, an event time beyond float range counts as
    never, and closed-form constants that leave float range raise
    DomainError."""
    if not (t_max > 0):
        raise DomainError("t_max must be positive")
    kind = classify(data)
    S = surface_area(data.n)
    events, phases = {}, []
    t0 = m0 = p0 = 0.0
    fronts, regions = _waves(data, kind)
    if not regions[0].is_vacuum and data.u_l > 0:
        # the interior gas moves outward and leaves vacuum at the origin
        fronts.insert(0, LinearFront(VACUUM_EDGE, 0.0, data.u_l))
        regions.insert(0, RegionProfile.vacuum())
    while True:
        name, t1 = _next_event(data, fronts, regions, t0)
        m0s, p0s = _ledger_slopes(regions[0], S)
        if t1 != t0:  # an event at the phase start ends no phase
            phases.append(Phase(t0, INF if t1 is None else t1, tuple(fronts),
                                tuple(regions), m0_start=m0, m0_slope=m0s,
                                p0_start=p0, p0_slope=p0s))
        if t1 is None:
            break
        events[name] = t1
        m0 += m0s * (t1 - t0)
        p0 += p0s * (t1 - t0)
        if name == "t_in":
            fronts, regions = [post_absorption(data)], [regions[0], regions[2]]
        else:
            f, fronts, regions = fronts[0], fronts[1:], regions[1:]
            if f.kind == SHADOW_WAVE:
                dm = S * f.mass(t1)
                m0 += dm
                p0 += dm * f.speed(t1)
        t0 = t1
    return WavePlan(data=data, case=kind, phases=tuple(phases), events=events,
                    t_max=float(t_max))


# ---------------------------------------------------------------------------
# Sampling

def _power_or_inf(x: float, e: float) -> float:
    try:
        return x ** e
    except OverflowError:
        return INF


@dataclass(frozen=True)
class GridSample:
    """Field values on radii r and times t: rho, u and is_vacuum of shape
    (len(t), len(r)), the origin mass m0 per time, and atoms, the front
    atom at each (time index, radius index) that has one."""
    rho: np.ndarray
    u: np.ndarray
    is_vacuum: np.ndarray
    m0: np.ndarray
    atoms: dict


@in_float_range
def evaluate_grid(plan: WavePlan, r, t) -> GridSample:
    """Sample the plan at every radius of the 1-D array r and every time of
    t, a 1-D array or a float (one time): regular fields, origin mass, and
    per point the front atom when the radius lies within tolerance of a
    shadow front (the first such front).

    r^{1-n} is computed once per radius, with Python's float power rather
    than numpy's, which differs from it by an ulp on some radii; then the
    times of each phase take one broadcast for region index, rho, u, the
    vacuum-fan velocity and m0.  Every value has the bits of a call per
    time.  At r = 0 a power-law region gives rho = coeff for n = 1 and inf
    for n >= 2 (the density coeff r^{1-n} is singular there), so
    samples.csv then holds inf; so does a radius whose r^{1-n} leaves
    float range.  A front position, vacuum-fan velocity or front sigma
    that leaves float range raises DomainError."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not (r >= 0).all():
        raise DomainError("negative or nan radius")
    bad = ts[~(np.isfinite(ts) & (ts >= 0) & (ts <= plan.t_max))]
    if bad.size:
        raise DomainError("t=%r outside [0, t_max=%r]"
                          % (float(bad[0]), plan.t_max))
    n, R, S = plan.data.n, plan.data.R, surface_area(plan.data.n)
    # where Python's power overflows (a radius near the smallest double),
    # rho is inf, as at r = 0
    positive = r > 0
    rpow, rs = np.zeros(r.shape), r[positive].tolist()
    try:
        rpow[positive] = [x ** (1 - n) for x in rs]
    except OverflowError:
        rpow[positive] = [_power_or_inf(x, 1 - n) for x in rs]
    rho, u = np.zeros((ts.size, r.size)), np.zeros((ts.size, r.size))
    is_vacuum, m0, atoms = np.zeros(rho.shape, dtype=bool), np.zeros(ts.size), {}
    with np.errstate(all="ignore"):
        for ph, rows in plan.phase_groups(ts):
            T, fronts = ts[rows, None], ph.fronts
            xs = [f.xi(T) for f in fronts]
            if not all(np.isfinite(x).all() for x in xs):
                raise DomainError("front positions leave float range")
            idx = ph.region_index(r, T, xs)
            is_vacuum[rows] = np.array([p.is_vacuum for p in ph.regions])[idx]
            m0[rows] = ph.m0(T[:, 0])
            coeff = np.array([p.coeff for p in ph.regions])[idx]
            rho[rows] = np.where(is_vacuum[rows], 0.0, np.where(
                positive, coeff * rpow, coeff if n == 1 else INF))
            # vacuum: linear interpolation between the bounding front
            # speeds, the origin anchored at (position 0, speed 0)
            vel = np.array([p.velocity for p in ph.regions])[idx]
            for k, prof in enumerate(ph.regions):
                if not prof.is_vacuum:
                    continue
                x0, v0 = (xs[k - 1], fronts[k - 1].speed(T)) if k else (0.0, 0.0)
                fan = v0
                if k < len(fronts):
                    x1, v1 = xs[k], fronts[k].speed(T)
                    fan = np.where(x1 <= x0, v1,
                                   v0 + (v1 - v0) * (r - x0) / (x1 - x0))
                vel = np.where(idx == k, fan, vel)
            if not np.isfinite(vel).all():
                raise DomainError("vacuum-fan velocities leave float range")
            u[rows] = vel
            for f, x in zip(fronts, xs):
                if f.kind != SHADOW_WAVE:
                    continue
                hit = np.abs(r - x) < ATOM_POSITION_RTOL * np.where(x > R, x, R)
                for i in np.flatnonzero(hit.any(axis=1)).tolist():
                    ti, k = float(T[i, 0]), int(rows[i])
                    atom = Atom(float(x[i, 0]), f.sigma(ti), S * f.mass(ti))
                    for j in np.flatnonzero(hit[i]).tolist():
                        atoms.setdefault((k, j), atom)
    return GridSample(rho, u, is_vacuum, m0, atoms)


def evaluate(plan: WavePlan, r: float, t: float) -> SolutionSample:
    """Sample the plan at one point (r, t): the one-point view of
    evaluate_grid, with the same errors.  At r = 0 a power-law region gives
    rho = coeff for n = 1 and inf for n >= 2."""
    g = evaluate_grid(plan, [r], t)
    return SolutionSample(r=r, t=t, rho=float(g.rho[0, 0]), u=float(g.u[0, 0]),
                          is_vacuum=bool(g.is_vacuum[0, 0]), m0=float(g.m0[0]),
                          atom=g.atoms.get((0, 0)))
