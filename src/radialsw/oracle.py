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
import math
from array import array
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
    The state lives in flat typed buffers that the event loop indexes as
    Python floats and ints; the queries read numpy views of the same memory.
    Heap entries are (t, kind, i, j, version_i, version_j) tuples, so the
    pop order depends only on which events are pending, not on push order.
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
        self._a, self._u, self._m = (array("d", [0.0]) * N for _ in range(3))
        self._prev, self._next, self._version = (array("q", [0]) * N for _ in range(3))
        self._alive = bytearray(b"\x01") * N
        a, u, m = self._av, self._uv, self._mv = [
            np.frombuffer(x, dtype=float) for x in (self._a, self._u, self._m)]
        np.subtract(positions, velocities * self.time, out=a)
        u[:], m[:] = velocities, masses
        prev, nxt = (np.frombuffer(x, dtype=np.int64) for x in (self._prev, self._next))
        prev[:] = np.arange(-1, N - 1)
        np.add(prev, 2, out=nxt)
        nxt[-1:] = -1
        self._alive_v = np.frombuffer(self._alive, dtype=bool)
        # every particle's first events at once, as _push_events would push
        # them; np.where(t < t0, t0, t) is Python's max(t, t0)
        t0 = self.time
        i = np.flatnonzero(u[:-1] > u[1:])
        k = np.flatnonzero(u < 0.0)
        with np.errstate(over="ignore"):
            tc = (a[i + 1] - a[i]) / (u[i] - u[i + 1])
            to = -a[k] / u[k]
        i, tc = i[np.isfinite(tc)], tc[np.isfinite(tc)]
        k, to = k[np.isfinite(to)], to[np.isfinite(to)]
        self._heap = [(t, _COLLIDE, ii, ii + 1, 0, 0) for t, ii in
                      zip(np.where(tc < t0, t0, tc).tolist(), i.tolist())]
        self._heap += [(t, _ORIGIN, kk, -1, 0, 0) for t, kk in
                       zip(np.where(to < t0, t0, to).tolist(), k.tolist())]
        heapq.heapify(self._heap)

    # -- queries ----------------------------------------------------------

    def position(self, i: int, t: Optional[float] = None) -> float:
        t = self.time if t is None else t
        return self._a[i] + self._u[i] * t

    @property
    def alive_count(self) -> int:
        return int(np.count_nonzero(self._alive_v))

    def alive_indices(self) -> np.ndarray:
        return np.flatnonzero(self._alive_v)

    def radii(self) -> np.ndarray:
        idx = self.alive_indices()
        return self._av[idx] + self._uv[idx] * self.time

    def masses(self) -> np.ndarray:
        return self._mv[self.alive_indices()]

    def velocities(self) -> np.ndarray:
        return self._uv[self.alive_indices()]

    def total_mass(self) -> float:
        return float(self._mv[self._alive_v].sum())

    def total_momentum(self) -> float:
        mask = self._alive_v
        return float((self._mv[mask] * self._uv[mask]).sum())

    # -- event machinery --------------------------------------------------

    def _push_events(self, i: int):
        # the divisors are nonzero (u_i > u_j, or u_i < 0); a quotient
        # beyond float range is inf, and such events never fire
        alive, a, u = self._alive, self._a, self._u
        if not alive[i]:
            return
        j = self._next[i]
        if j >= 0 and alive[j] and u[i] > u[j]:
            tc = (a[j] - a[i]) / (u[i] - u[j])
            if math.isfinite(tc):
                heapq.heappush(self._heap, (max(tc, self.time), _COLLIDE, i, j,
                                            self._version[i], self._version[j]))
        if u[i] < 0.0:
            to = -a[i] / u[i]
            if math.isfinite(to):
                heapq.heappush(self._heap, (max(to, self.time), _ORIGIN, i, -1,
                                            self._version[i], 0))

    def _merge(self, i: int, j: int, t: float):
        # j is i's right neighbor; both at the same point at time t
        a, u, m = self._a, self._u, self._m
        mi, mj = m[i], m[j]
        mass = mi + mj
        if mass == 0.0:  # two massless particles: nan, as numpy's 0/0 gave
            x = v = math.nan
        else:
            x = (mi * (a[i] + u[i] * t) + mj * (a[j] + u[j] * t)) / mass
            v = (mi * u[i] + mj * u[j]) / mass
        self._alive[j] = 0
        self._version[i] += 1
        self._version[j] += 1
        m[i] = mass
        u[i] = v
        a[i] = x - v * t
        nj = self._next[j]
        self._next[i] = nj
        if nj >= 0:
            self._prev[nj] = i
        self._push_events(i)
        p = self._prev[i]
        if p >= 0:
            self._push_events(p)

    def _absorb(self, i: int, t: float):
        mi = self._m[i]
        self.m0 += mi
        self.absorptions.append((t, mi))
        self._alive[i] = 0
        self._version[i] += 1
        nxt, p = self._next[i], self._prev[i]
        if nxt >= 0:
            self._prev[nxt] = p
        if p >= 0:
            self._next[p] = nxt

    def run_until(self, t_end: float) -> "ParticleSystem":
        if t_end < self.time - GROUP_TOL:
            raise DomainError("cannot run backwards")
        heap, alive, version, nxt = self._heap, self._alive, self._version, self._next
        pop = heapq.heappop
        while heap and heap[0][0] <= t_end:
            t, kind, i, j, vi, vj = pop(heap)
            if not alive[i] or version[i] != vi:
                continue
            if kind == _COLLIDE and (not alive[j] or version[j] != vj
                                     or nxt[i] != j):
                continue
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
            x = self._av[idx] + self._uv[idx] * self.time
            touching = np.flatnonzero(np.diff(x) <= 0.0)
            if touching.size == 0:
                return self
            for k in touching[::-1].tolist():
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
    # split the cell that straddles R there; pieces [0, k) lie left of R
    k = int(np.searchsorted(edges, data.R))
    if edges[k] != data.R:
        edges = np.insert(edges, k, data.R)
    lo, hi = edges[:-1], edges[1:]
    pos = 0.5 * (lo + hi)
    mas = hi - lo
    keep = mas > 0.0
    keep[:k] &= data.rho_l > 0.0
    keep[k:] &= data.rho_r > 0.0
    mas[:k] *= S * data.rho_l
    mas[k:] *= S * data.rho_r
    vel = np.full(pos.size, data.u_r, dtype=float)
    vel[:k] = data.u_l
    if not keep.all():
        pos, mas, vel = pos[keep], mas[keep], vel[keep]
    return ParticleSystem(data.n, pos, mas, vel)


def front_extract(ps: ParticleSystem, mass_fraction: float = 0.05
                  ) -> Optional[Tuple[float, float]]:
    """Position and mass of the largest merged cluster, or None while no
    cluster holds more than mass_fraction of the conserved total."""
    if not (0.0 < mass_fraction < 1.0):
        raise DomainError("mass_fraction must lie in (0, 1)")
    masses = ps.masses()
    if masses.size == 0:
        return None
    k = int(np.argmax(masses))
    if masses[k] <= mass_fraction * (ps.total_mass() + ps.m0):
        return None
    return ps.position(int(ps.alive_indices()[k])), float(masses[k])


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
