"""Sticky-particle oracle for the radial system.

In the linear-mass variables lambda = |S^{n-1}| rho r^{n-1} the radial
system is exactly one-dimensional pressureless gas dynamics on the half
line, with the origin absorbing incoming mass at zero velocity.  Particles
therefore move ballistically between events, merge conserving mass and
momentum when they collide, and deposit their mass into m0 on reaching
r = 0.  Cell masses are exact integrals of the initial data, which makes
total mass plus m0 conserved to rounding.
"""
from __future__ import annotations

import heapq
from typing import Optional, Tuple

import numpy as np

from .core import DomainError, PseudoRiemannData, WavePlan, SHADOW_WAVE, surface_area
from . import verify

GROUP_TOL = 1e-12
_COLLIDE = 0
_ORIGIN = 1


class ParticleSystem:
    """Ordered sticky particles on (0, r_max] plus absorbed origin mass.

    Particle i follows r(t) = a[i] + u[i] * t until its next event; the
    intercept form keeps collision times independent of the current clock.
    """

    def __init__(self, n: int, positions, masses, velocities, time: float = 0.0):
        positions = np.asarray(positions, dtype=float)
        masses = np.asarray(masses, dtype=float)
        velocities = np.asarray(velocities, dtype=float)
        if positions.ndim != 1 or positions.shape != masses.shape \
                or positions.shape != velocities.shape:
            raise DomainError("positions, masses, velocities must align")
        if positions.size and np.any(np.diff(positions) <= 0):
            raise DomainError("positions must be strictly increasing")
        if np.any(masses < 0):
            raise DomainError("masses must be >= 0")
        self.n = n
        self.time = float(time)
        self.m0 = 0.0
        self.absorptions: list = []  # (time, mass) per origin deposit
        N = positions.size
        self._a = positions - velocities * time
        self._m = masses.copy()
        self._u = velocities.copy()
        self._alive = np.ones(N, dtype=bool)
        self._prev = np.arange(N) - 1
        self._next = np.arange(N) + 1
        self._next[-1:] = -1
        self._version = np.zeros(N, dtype=np.int64)
        self._scale = float(positions[-1]) if N else 1.0
        self._heap: list = []
        for i in range(N):
            self._push_events(i)

    # -- queries ----------------------------------------------------------

    def position(self, i: int, t: Optional[float] = None) -> float:
        t = self.time if t is None else t
        return self._a[i] + self._u[i] * t

    @property
    def alive_count(self) -> int:
        return int(self._alive.sum())

    def alive_indices(self) -> np.ndarray:
        return np.flatnonzero(self._alive)

    def radii(self) -> np.ndarray:
        idx = self.alive_indices()
        return self._a[idx] + self._u[idx] * self.time

    def masses(self) -> np.ndarray:
        return self._m[self.alive_indices()]

    def velocities(self) -> np.ndarray:
        return self._u[self.alive_indices()]

    def total_mass(self) -> float:
        return float(self._m[self._alive].sum())

    def total_momentum(self) -> float:
        mask = self._alive
        return float((self._m[mask] * self._u[mask]).sum())

    # -- event machinery --------------------------------------------------

    def _push_events(self, i: int):
        if not self._alive[i]:
            return
        j = self._next[i]
        if j >= 0 and self._alive[j] and self._u[i] > self._u[j]:
            with np.errstate(over="ignore"):
                tc = (self._a[j] - self._a[i]) / (self._u[i] - self._u[j])
            if np.isfinite(tc):
                tc = max(tc, self.time)
                heapq.heappush(self._heap, (tc, _COLLIDE, i, j,
                                            int(self._version[i]),
                                            int(self._version[j])))
        if self._u[i] < 0.0:
            # arrival times beyond float range (subnormal speeds) never fire
            with np.errstate(over="ignore"):
                to = -self._a[i] / self._u[i]
            if np.isfinite(to):
                to = max(to, self.time)
                heapq.heappush(self._heap, (to, _ORIGIN, i, -1,
                                            int(self._version[i]), 0))

    def _merge(self, i: int, j: int, t: float):
        # j is i's right neighbor; both at the same point at time t
        mi, mj = self._m[i], self._m[j]
        m = mi + mj
        x = (mi * self.position(i, t) + mj * self.position(j, t)) / m
        u = (mi * self._u[i] + mj * self._u[j]) / m
        self._alive[j] = False
        self._version[i] += 1
        self._version[j] += 1
        self._m[i] = m
        self._u[i] = u
        self._a[i] = x - u * t
        nj = self._next[j]
        self._next[i] = nj
        if nj >= 0:
            self._prev[nj] = i
        self._push_events(i)
        p = self._prev[i]
        if p >= 0:
            self._push_events(p)

    def _absorb(self, i: int, t: float):
        self.m0 += float(self._m[i])
        self.absorptions.append((t, float(self._m[i])))
        self._alive[i] = False
        self._version[i] += 1
        nxt = self._next[i]
        if nxt >= 0:
            self._prev[nxt] = self._prev[i]
        if self._prev[i] >= 0:
            self._next[self._prev[i]] = nxt

    def _valid(self, item) -> bool:
        t, kind, i, j, vi, vj = item
        if not self._alive[i] or self._version[i] != vi:
            return False
        if kind == _COLLIDE:
            return bool(self._alive[j]) and self._version[j] == vj \
                and self._next[i] == j
        return True

    def run_until(self, t_end: float) -> "ParticleSystem":
        if t_end < self.time - GROUP_TOL:
            raise DomainError("cannot run backwards")
        while self._heap and self._heap[0][0] <= t_end:
            item = heapq.heappop(self._heap)
            if not self._valid(item):
                continue
            t, kind, i, j = item[0], item[1], item[2], item[3]
            self.time = max(self.time, t)
            if kind == _COLLIDE:
                self._merge(i, j, self.time)
            else:
                self._absorb(i, self.time)
        self.time = max(self.time, float(t_end))
        # the intercept form can round distinct neighbours onto one point
        # (or past each other) with no event due; a zero gap is contact
        while True:
            idx = self.alive_indices()
            x = self._a[idx] + self._u[idx] * self.time
            touching = np.flatnonzero(np.diff(x) <= 0.0)
            if touching.size == 0:
                return self
            for k in touching[::-1]:
                self._merge(int(idx[k]), int(idx[k + 1]), self.time)


def discretize(data: PseudoRiemannData, N: int, r_max: float) -> ParticleSystem:
    """One particle per uniform cell of (0, r_max], carrying the exact cell
    mass |S^{n-1}| coeff (b - a) at the cell's mass centroid (its midpoint,
    since the linear mass density of a power-law region is constant).
    Cells straddling the jump radius split there; vacuum emits nothing."""
    if N < 2:
        raise DomainError("need N >= 2 cells")
    if not (r_max > data.R):
        raise DomainError("r_max must exceed the jump radius")
    S = surface_area(data.n)
    edges = np.linspace(0.0, r_max, N + 1)
    pos, mas, vel = [], [], []

    def emit(a, b, coeff, u):
        if coeff > 0.0 and b > a:
            pos.append(0.5 * (a + b))
            mas.append(S * coeff * (b - a))
            vel.append(u)

    for a, b in zip(edges[:-1], edges[1:]):
        if b <= data.R:
            emit(a, b, data.rho_l, data.u_l)
        elif a >= data.R:
            emit(a, b, data.rho_r, data.u_r)
        else:
            emit(a, data.R, data.rho_l, data.u_l)
            emit(data.R, b, data.rho_r, data.u_r)
    return ParticleSystem(data.n, pos, mas, vel)


def front_extract(ps: ParticleSystem, mass_fraction: float = 0.05
                  ) -> Optional[Tuple[float, float]]:
    """Position and mass of the largest merged cluster, or None while no
    cluster holds more than mass_fraction of the conserved total."""
    if not (0.0 < mass_fraction < 1.0):
        raise DomainError("mass_fraction must lie in (0, 1)")
    idx = ps.alive_indices()
    if idx.size == 0:
        return None
    total = ps.total_mass() + ps.m0
    k = idx[int(np.argmax(ps._m[idx]))]
    if ps._m[k] <= mass_fraction * total:
        return None
    return ps.position(k), float(ps._m[k])


def largest_absorption_time(ps: ParticleSystem) -> Optional[float]:
    """Time of the single heaviest origin deposit so far, if any."""
    if not ps.absorptions:
        return None
    t, _ = max(ps.absorptions, key=lambda tm: tm[1])
    return t


def compare(plan: WavePlan, ps: ParticleSystem, t: float, r_max: float) -> dict:
    """Exact-versus-oracle discrepancy report at time t.

    Front rows are None when the side has no delta front or no cluster yet.
    Q is the domain total over (0, r_max] including origin mass, with the
    influx correction on the exact side so both totals are time-invariant.
    """
    if abs(ps.time - t) > 1e-9 * max(1.0, abs(t)):
        raise DomainError("particle system is not at the requested time")
    S = surface_area(plan.data.n)
    pos_exact = mass_exact = None
    for front in plan.fronts_at(t):
        if front.kind == SHADOW_WAVE:
            pos_exact = front.xi
            mass_exact = S * front.sigma * front.xi ** (plan.data.n - 1)
            break
    got = front_extract(ps)
    pos_oracle, mass_oracle = got if got is not None else (None, None)
    report = {
        "t": t,
        "pos_exact": pos_exact, "pos_oracle": pos_oracle,
        "mass_exact": mass_exact, "mass_oracle": mass_oracle,
        "m0_exact": plan.m0(t), "m0_oracle": ps.m0,
        "Q_exact": verify.total_mass(plan, t, r_max),
        "Q_oracle": ps.total_mass() + ps.m0,
    }
    report["pos_error"] = (abs(pos_oracle - pos_exact)
                           if pos_exact is not None and pos_oracle is not None
                           else None)
    report["mass_error"] = (abs(mass_oracle - mass_exact)
                            if mass_exact is not None and mass_oracle is not None
                            else None)
    report["m0_error"] = abs(report["m0_oracle"] - report["m0_exact"])
    report["Q_error"] = abs(report["Q_oracle"] - report["Q_exact"])
    return report
