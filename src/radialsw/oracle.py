"""Sticky-particle oracle for the radial system.

In the linear-mass variables lambda = |S^{n-1}| rho r^{n-1} the radial
system is exactly one-dimensional pressureless gas dynamics on the half
line, with the origin absorbing incoming mass at zero velocity.  Particles
therefore move ballistically between collisions, merge conserving mass and
momentum, and deposit their mass into m0 on reaching r = 0.  Cell masses
are exact integrals of the initial data, which makes total mass plus m0
conserved to rounding.
"""
from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .core import DomainError, PseudoRiemannData, WavePlan, SHADOW_WAVE, surface_area

CLUSTER_FRACTION = 0.05  # least share of the total mass in a front cluster


def _pool(v, m, u, a, hits, t=None):
    """Pool adjacent violators of the nondecreasing order of v (memoryviews
    of floats, like m, u and a), growing a block from each k in hits
    (v[k+1] <= v[k], increasing) until it is in order with its neighbours;
    a tie counts as a violation.  v holds one trailing nan past the last
    row, which every comparison finds out of order, so v[hi + 1] and
    v[lo - 1] (v[-1] is the nan too) need no bounds check.  A block of mass
    M > 0 with sums P and Q of m u and m a has the value Q / M + P / M * t,
    its position at time t; with t None, Q / -P if P < 0 else inf, the time
    its centre of mass crosses r = 0.  Returns the blocks (lo, hi, M, P, Q,
    V) of two or more elements, hi inclusive."""
    blocks = []
    for k in hits:
        if blocks and k <= blocks[-1][1]:
            continue
        lo = hi = k
        M, P, Q, V = m[k], m[k] * u[k], m[k] * a[k], v[k]
        while True:
            if v[hi + 1] <= V:
                hi += 1
                mi = m[hi]
                M, P, Q = M + mi, P + mi * u[hi], Q + mi * a[hi]
            elif blocks and blocks[-1][1] == lo - 1:
                if blocks[-1][5] < V:
                    break
                lo, _, bM, bP, bQ, _ = blocks.pop()
                M, P, Q = bM + M, bP + P, bQ + Q
            elif v[lo - 1] >= V:
                lo -= 1
                mi = m[lo]
                M, P, Q = mi + M, mi * u[lo] + P, mi * a[lo] + Q
            else:
                break
            if t is None:
                V = Q / -P if P < 0.0 else math.inf
            else:
                V = Q / M + P / M * t
        blocks.append((lo, hi, M, P, Q, V))
    return blocks


class ParticleSystem:
    """Ordered sticky particles on (0, r_max] plus absorbed origin mass.

    One row per cluster in intercept form: cluster i sits at a[i] + u[i] t
    with mass m[i].  In 1-D the sticky state at time t is the mass-weighted
    projection of the free motion a + u t onto nondecreasing maps (Brenier &
    Grenier, SIAM J. Numer. Anal. 35, 1998; Natile & Savare, SIAM J. Math.
    Anal. 41, 2009), and clusters never split, so run_until pools adjacent
    violators of a + u t starting from the clusters it last left.

    Matter that reaches r <= 0 in the free problem moves inward and only
    meets matter with a smaller velocity, which lies at r < 0 too when they
    meet; so the absorbing half-line problem is the free problem restricted
    to r > 0, and the clusters at a + u t <= 0 hold m0.  The first of them
    to reach the origin is the prefix whose centre of mass crosses r = 0
    first, at the mean of its members' crossing times -a/u weighted by their
    inward momentum -m u; so the deposits are the pooled blocks of those
    times, one (time, mass) in absorptions each.

    run_until compacts the surviving rows in place.  Deposits are stored
    as (times, masses) arrays, one pair per snapshot; absorptions is a list
    computed from them when read, so appending to it changes nothing.
    """

    def __init__(self, positions, masses, velocities, time: float = 0.0):
        self._own(*(np.array(x, dtype=float)
                    for x in (positions, masses, velocities)), time)

    def _own(self, positions, masses, velocities, time):
        """Validate float arrays that the system then owns and changes in
        place: copies from the constructor, fresh arrays from discretize."""
        if positions.ndim != 1 or positions.shape != masses.shape \
                or positions.shape != velocities.shape:
            raise DomainError("positions, masses, velocities must align")
        if positions.size and not (positions[0] > 0
                                   and (positions[1:] > positions[:-1]).all()):
            raise DomainError("positions must be > 0 and strictly increasing")
        if not (masses >= 0).all() or not np.isfinite(masses).all():
            raise DomainError("masses must be finite and >= 0")
        if not masses.all():  # massless particles carry nothing
            keep = masses > 0
            positions, masses, velocities = (positions[keep], masses[keep],
                                             velocities[keep])
        if not math.isfinite(time):
            raise DomainError("time must be finite")
        self.time, self.m0 = float(time), 0.0
        self._deposits: list = []  # (times, masses) arrays per snapshot
        if self.time:  # intercepts; at t = 0 the positions (> 0) themselves
            positions -= velocities * self.time
        self._a, self._u, self._m = positions, velocities, masses

    # -- queries ----------------------------------------------------------

    @property
    def absorptions(self) -> list:
        """(time, mass) per origin deposit, a new list on each read."""
        return [tm for ts, ms in self._deposits
                for tm in zip(ts.tolist(), ms.tolist())]

    @property
    def alive_count(self) -> int:
        return int(self._m.size)

    def radii(self) -> np.ndarray:
        return self._a + self._u * self.time

    def masses(self) -> np.ndarray:
        return self._m.copy()

    def velocities(self) -> np.ndarray:
        return self._u.copy()

    def total_mass(self) -> float:
        return float(self._m.sum())

    def total_momentum(self) -> float:
        return float((self._m * self._u).sum())

    # -- evolution --------------------------------------------------------

    def run_until(self, t_end: float) -> "ParticleSystem":
        if not (math.isfinite(t_end) and t_end >= self.time):
            raise DomainError("time must be finite and not run backwards")
        t0, t = self.time, max(self.time, float(t_end))
        self.time = t
        a, u, m = self._a, self._u, self._m
        n = m.size
        v = np.empty(n + 1)
        v[n] = math.nan  # the sentinel _pool reads past the last row
        with np.errstate(over="ignore"):   # compare refuses an infinite u t
            y = np.multiply(u, t, out=v[:n])
            y += a
        hits = np.flatnonzero(y[1:] <= y[:-1]).tolist()
        if not hits and not (n and y[0] <= 0.0):
            return self
        mua = memoryview(m), memoryview(u), memoryview(a)
        blocks = _pool(memoryview(v), *mua, hits, t)
        for lo, hi, _, _, _, V in blocks:
            y[lo:hi + 1] = V
        K = int(np.searchsorted(y, 0.0, side="right"))
        if K:  # the first K rows reached r = 0 during (t0, t]
            ts = np.empty(K + 1)
            ts[K] = math.nan
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                ts[:K] = np.where(u[:K] < 0.0, -a[:K] / u[:K], math.inf)
            deposits = _pool(memoryview(ts), *mua,
                             np.flatnonzero(ts[1:K] <= ts[:K - 1]).tolist())
            ts, ms = ts[:K], m[:K].copy()
            if deposits:
                keep = np.ones(K, dtype=bool)
                for lo, hi, M, _, _, V in deposits:
                    ts[lo], ms[lo], keep[lo + 1:hi + 1] = V, M, False
                ts, ms = ts[keep], ms[keep]
            self._deposits.append((np.clip(ts, t0, t), ms))
            # in deposit order, one addition at a time, as m0 += mi would
            self.m0 = float(np.add.accumulate(np.concatenate(([self.m0], ms)))[-1])
        # every block lies wholly in the first K rows or wholly after them:
        # write each later block's merged row at lo and move the survivors
        # down over its rows lo+1..hi; the first K rows drop off the view
        w = src = K
        for lo, hi, M, P, Q, _ in blocks:
            if lo >= K:
                a[lo], u[lo], m[lo] = Q / M, P / M, M
                if w < src:
                    for x in (a, u, m):
                        x[w:w + lo + 1 - src] = x[src:lo + 1]
                w, src = w + lo + 1 - src, hi + 1
        if w < src:
            for x in (a, u, m):
                x[w:w + n - src] = x[src:]
        self._a, self._u, self._m = (x[K:w + n - src] for x in (a, u, m))
        return self


def discretize(data: PseudoRiemannData, N: int, r_max: float) -> ParticleSystem:
    """One particle per uniform cell of (0, r_max], carrying the exact cell
    mass |S^{n-1}| coeff (b - a) at the cell's mass centroid (its midpoint,
    since the linear mass density of a power-law region is constant).
    Cells straddling the jump radius split there; vacuum emits nothing."""
    if N < 2:
        raise DomainError("need N >= 2 cells")
    if not (r_max > data.R):
        raise DomainError("r_max must exceed the jump radius")
    if not math.isfinite(r_max):
        raise DomainError("r_max=%r is not finite" % (r_max,))
    if not (r_max / N >= np.finfo(float).smallest_normal):
        raise DomainError("grid spacing r_max/N=%r is subnormal, where cell"
                          " edges can repeat or reorder" % (r_max / N,))
    S = surface_area(data.n)
    edges = np.linspace(0.0, r_max, N + 1)
    # split the cell that straddles R there; pieces [0, k) lie left of R
    k = int(np.searchsorted(edges, data.R))
    if edges[k] != data.R:
        edges = np.insert(edges, k, data.R)
    # cut a vacuum side off the edges; _own drops other massless cells
    j = 0 if data.rho_l > 0.0 else k
    edges = edges[j:None if data.rho_r > 0.0 else k + 1]
    k -= j
    lo, hi = edges[:-1], edges[1:]
    if lo.size and not math.isfinite(lo.item(-1) + hi.item(-1)):
        raise DomainError("cell midpoints overflow for r_max=%r" % (r_max,))
    pos = lo + hi
    pos *= 0.5
    mas = hi - lo
    with np.errstate(over="ignore"):   # _own refuses the infinite masses
        mas[:k] *= S * data.rho_l
        mas[k:] *= S * data.rho_r
    vel = np.empty(pos.size)
    vel[:k] = data.u_l
    vel[k:] = data.u_r
    ps = ParticleSystem.__new__(ParticleSystem)
    ps._own(pos, mas, vel, 0.0)
    return ps


def front_extract(ps: ParticleSystem) -> Optional[Tuple[float, float]]:
    """Position and mass of the largest merged cluster, or None while no
    cluster holds more than CLUSTER_FRACTION of the conserved total
    ps.total_mass() + ps.m0."""
    masses = ps._m
    if masses.size == 0:
        return None
    k = int(np.argmax(masses))
    if masses[k] <= CLUSTER_FRACTION * (ps.total_mass() + ps.m0):
        return None
    # Python floats: a position beyond float range is inf, with no warning
    return ps._a.item(k) + ps._u.item(k) * ps.time, masses.item(k)


def largest_absorption_time(ps: ParticleSystem) -> Optional[float]:
    """Time of the single heaviest origin deposit so far, if any."""
    if not ps._deposits:
        return None
    ts, ms = (np.concatenate(x) for x in zip(*ps._deposits))
    return float(ts[np.argmax(ms)])  # the first of equal masses, as max()


def compare(plan: WavePlan, ps: ParticleSystem, t: float) -> dict:
    """Exact-versus-oracle report at time t: front position and mass, m0,
    and their absolute errors.  Front rows are None when the side has no
    delta front or no cluster yet.  DomainError unless ps is at t, or when
    a reported value is not finite."""
    if ps.time != t:
        raise DomainError("particle system is not at the requested time")
    S = surface_area(plan.data.n)
    pos_exact = mass_exact = None
    for front in plan.phase_at(t).fronts:
        if front.kind == SHADOW_WAVE:
            pos_exact = front.xi(t)
            mass_exact = S * front.mass(t)
            break
    got = front_extract(ps)
    pos_oracle, mass_oracle = got if got is not None else (None, None)
    report = {
        "t": t,
        "pos_exact": pos_exact, "pos_oracle": pos_oracle,
        "mass_exact": mass_exact, "mass_oracle": mass_oracle,
        "m0_exact": plan.m0(t), "m0_oracle": ps.m0,
    }
    report["pos_error"] = (abs(pos_oracle - pos_exact)
                           if pos_exact is not None and pos_oracle is not None
                           else None)
    report["mass_error"] = (abs(mass_oracle - mass_exact)
                            if mass_exact is not None and mass_oracle is not None
                            else None)
    report["m0_error"] = abs(report["m0_oracle"] - report["m0_exact"])
    if not all(v is None or math.isfinite(v) for v in report.values()):
        raise DomainError("oracle comparison leaves float range at t=%g" % t)
    return report
