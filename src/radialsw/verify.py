"""Admissibility and consistency checks.

Covers the dissipation (entropy) cubic, overcompressibility, exclusion of
the second constant-speed root, conserved totals Q and M on a truncated
domain, degenerate Rankine-Hugoniot speeds, and eps -> 0 weak-form
residuals of the mollified families computed by composite Gauss-Legendre
quadrature with panels split at every moving discontinuity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    ConservedPair, DomainError, SHADOW_WAVE, WavePlan,
    in_float_range, jump_brackets, linear_times, surface_area,
)
from .exact_riemann import PostAbsorptionSW

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
# time panels per numpy pass of the weak quadrature: bounds the arrays of a
# pass (2.6 MB over whole phases of the verify_ladder items)
_PANELS_PER_PASS = 16

ORDER_FIT_FLOOR = 1e-9     # quadrature noise floor of a residual
LADDER_ORDER_GATE = 0.9    # least fitted order of a passing weak ladder
EPS0 = 1e-2                # widest strip of the weak ladder
ENTROPY_TOL = 1e-12        # largest dissipation cubic of a dissipative front


# ---------------------------------------------------------------------------
# Pointwise admissibility

def entropy_lhs(rho0: float, u0: float, rho1: float, u1: float, cdot: float) -> float:
    """Dissipation cubic -cdot^3 [rho] + 3 cdot^2 [rho u] - 3 cdot [rho u^2]
    + [rho u^3]; the front is dissipative iff the value is <= 0."""
    br, bru, bru2, bru3 = jump_brackets(rho0, u0, rho1, u1)
    return -cdot ** 3 * br + 3 * cdot ** 2 * bru - 3 * cdot * bru2 + bru3


@in_float_range
def worst_entropy_lhs(plan: WavePlan) -> Optional[float]:
    """Worst dissipation cubic over shadow-wave fronts at phase midpoints;
    None when the plan carries no shadow wave.  The plan is dissipative
    when the value is <= ENTROPY_TOL."""
    cubics = []
    for ph in plan.phases:
        t_hi = ph.t_end if np.isfinite(ph.t_end) else ph.t_start + 1.0
        t_mid = 0.5 * (ph.t_start + t_hi)
        width = t_hi - ph.t_start
        t_mid = min(max(t_mid, ph.t_start + 1e-9 * width), t_hi - 1e-9 * width)
        for k, fr in enumerate(ph.fronts):
            if fr.kind != SHADOW_WAVE:
                continue
            xi = fr.xi(t_mid)
            cubics.append(entropy_lhs(
                ph.regions[k].density(xi, plan.data.n),
                ph.regions[k].velocity,
                ph.regions[k + 1].density(xi, plan.data.n),
                ph.regions[k + 1].velocity,
                fr.speed(t_mid)))
    return max(cubics, default=None)


def is_overcompressive(u0: float, v: float, u1: float) -> bool:
    """Characteristics on both sides must run into the front: u0 >= v >= u1."""
    return u0 >= v >= u1


def second_root_excluded(rho0: float, u0: float, rho1: float, u1: float) -> bool:
    """The second constant-speed root lies strictly outside
    [min(u0,u1), max(u0,u1)] for every admissible datum.

    Decided from the offsets v2 - u0 = sqrt(rho1) (u1 - u0) / g and
    v2 - u1 = sqrt(rho0) (u1 - u0) / g, with g = sqrt(rho1) - sqrt(rho0)
    = (rho1 - rho0) / (sqrt(rho0) + sqrt(rho1)), in exact rational
    arithmetic on the doubles: v2 itself, rounded, can land on an endpoint
    when u1 - u0 is an ulp (rho 1, 1/4 and u -2, -2 + 2^-52 give -2.0),
    and sqrt(rho0) = sqrt(rho1) in doubles when rho0, rho1 differ by one."""
    if not (rho0 > 0 and rho1 > 0):
        raise DomainError("both densities must be positive")
    if rho0 == rho1 or u0 == u1:
        raise DomainError("second root undefined or coincident")
    a, b = Fraction(math.sqrt(rho0)), Fraction(math.sqrt(rho1))
    g = (Fraction(rho1) - Fraction(rho0)) / (a + b)
    du = Fraction(u1) - Fraction(u0)
    off0, off1 = b * du / g, a * du / g
    return (off0 > 0 and off1 > 0) or (off0 < 0 and off1 < 0)


def rankine_hugoniot_degenerate(rho0: float, u0: float, rho1: float, u1: float) -> Optional[float]:
    """Speed of a zero-strength front (kappa1 = kappa2 = 0): u1 if the left
    state is vacuum, u0 if the right is, the common velocity for a contact;
    None when no such speed exists (or every speed works, both vacuum)."""
    if rho0 < 0 or rho1 < 0:
        raise DomainError("densities must be >= 0")
    if rho0 == 0.0 and rho1 == 0.0:
        return None
    if rho0 == 0.0:
        return u1
    if rho1 == 0.0:
        return u0
    if u0 == u1:
        return u0
    return None


# ---------------------------------------------------------------------------
# Conserved totals on (0, r_max]

@in_float_range
def conserved_pair(plan: WavePlan, t: float, r_max: float) -> ConservedPair:
    """Total mass Q and momentum M at time t in one pass: origin ledgers,
    regular power-law integrals, shadow-front atoms, and the constant
    outflow through r_max.  DomainError when Q or M leaves float range."""
    ph = plan.phase_at(t)
    bounds = [0.0] + [f.xi(t) for f in ph.fronts] + [r_max]
    if any(x > r_max for x in bounds[1:-1]):
        raise DomainError("a front lies beyond r_max=%g at t=%g" % (r_max, t))
    S = surface_area(plan.data.n)
    Q, M = ph.m0(t), ph.p0(t)
    for reg, a, b in zip(ph.regions, bounds[:-1], bounds[1:]):
        if not reg.is_vacuum:
            Q += S * reg.coeff * (b - a)
            M += S * reg.coeff * reg.velocity * (b - a)
    for f in ph.fronts:
        if f.kind == SHADOW_WAVE:
            atom = S * f.mass(t)
            Q += atom
            M += atom * f.speed(t)
    out = ph.regions[-1]
    if not out.is_vacuum:
        Q += S * out.coeff * out.velocity * t
        M += S * out.coeff * out.velocity ** 2 * t
    if not (math.isfinite(Q) and math.isfinite(M)):
        raise DomainError("conserved totals leave float range at t=%g" % t)
    return ConservedPair(Q, M)


# ---------------------------------------------------------------------------
# Test functions and quadrature

@dataclass(frozen=True)
class TestFunction:
    """Compact C^3 bump ((1-X^2)(1-T^2))^4 on the box
    [r_c - h_r, r_c + h_r] x [t_c - h_t, t_c + h_t], zero outside."""
    r_c: float
    t_c: float
    h_r: float
    h_t: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.r_c, self.t_c, self.h_r, self.h_t))):
            raise DomainError("test function fields must be finite")
        if not (self.h_r > 0 and self.h_t > 0):
            raise DomainError("half-widths must be positive")
        if self.r_lo <= 0:
            raise DomainError("support must stay inside r > 0")
        if self.t_lo < 0:
            raise DomainError("support must stay inside t >= 0")
        if not (self.r_lo < self.r_c < self.r_hi
                and self.t_lo < self.t_c < self.t_hi):
            raise DomainError("support rounds to a point")

    @property
    def r_lo(self):
        return self.r_c - self.h_r

    @property
    def r_hi(self):
        return self.r_c + self.h_r

    @property
    def t_lo(self):
        return self.t_c - self.h_t

    @property
    def t_hi(self):
        return self.t_c + self.h_t

    def jet(self, r, t):
        """(phi, phi_r, phi_t) at (r, t), from one pass over the box
        coordinates X, T clipped to [-1, 1], where all three vanish (as
        zeros of either sign)."""
        return self._jet(r, t, True)

    def _jet(self, r, t, value):
        """jet, with phi None unless value (the n = 1 weak form reads none)."""
        X = np.clip((np.asarray(r) - self.r_c) / self.h_r, -1.0, 1.0)
        T = np.clip((np.asarray(t) - self.t_c) / self.h_t, -1.0, 1.0)
        bx, bt = 1 - X ** 2, 1 - T ** 2
        return ((bx * bt) ** 4 if value else None,
                -8.0 * X * bx ** 3 * bt ** 4 / self.h_r,
                -8.0 * T * bt ** 3 * bx ** 4 / self.h_t)

    def dt(self, r, t):
        return self.jet(r, t)[2]


# ---------------------------------------------------------------------------
# Weak residuals of the mollified family

_MOMENT_POWER = {"mass": 0, "momentum": 1, "entropy": 2}


def _edges(front, eps):
    """Offsets from xi of the discontinuities a front puts in the
    eps-realized family: the strip edges of a shadow wave, else xi."""
    return (-0.5 * eps, 0.5 * eps) if front.kind == SHADOW_WAVE else (0.0,)


def _front_paths(ph, t):
    """Each front's (xi, speed, sigma) in phase ph at times t; speed and
    sigma only for a shadow wave (None otherwise), whose strip reads them."""
    return [(f.xi(t), *((f.speed(t), f.sigma(t)) if f.kind == SHADOW_WAVE
                        else (None, None))) for f in ph.fronts]


def _strip_profile(ph, eps, r, t, paths):
    """The one strip rule of the eps-realized family in phase ph, as arrays
    (c, u, strip) at radii r (an array) and times t (a float, or an array
    broadcasting with r, all in ph), where the fronts' paths are
    _front_paths(ph, t); eps is a float or an array broadcasting with
    them (one strip width per row).  Inside a strip
    [xi - eps/2, xi + eps/2] (ends included; where strips overlap, the
    innermost front's) strip is True, c = sigma/eps is the density and u
    the front speed; elsewhere c is the region's coefficient (density
    c r^{1-n}) and u its velocity, both 0 in vacuum."""
    if not ph.t_start <= np.min(t) <= np.max(t) < ph.t_end:
        raise DomainError("times span more than one phase")
    live = [(0.0, 0.0) if p.is_vacuum else (p.coeff, p.velocity)
            for p in ph.regions]
    c, u = np.array(live).T[:, ph.region_index(r, t, [x for x, _, _ in paths])]
    strip = np.zeros(c.shape, dtype=bool)
    h = 0.5 * eps
    for f, (x, speed, sigma) in zip(reversed(ph.fronts), reversed(paths)):
        if f.kind == SHADOW_WAVE:
            hit = (x - h <= r) & (r <= x + h)
            c = np.where(hit, sigma / eps, c)
            u = np.where(hit, speed, u)
            strip |= hit
    return c, u, strip


def _time_breakpoints(plan: WavePlan, eps: float, phi: TestFunction):
    """Times where a discontinuity of the eps-realized family crosses an
    r-edge of phi's support or another discontinuity, in closed form.

    Within a phase only fronts of constant speed share it with others
    (solve puts a PostAbsorptionSW alone in its phase), so every pair
    crossing is one division."""
    pts = {phi.t_lo, phi.t_hi}
    for ph in plan.phases:
        lo = max(ph.t_start, phi.t_lo)
        hi = min(ph.t_end, phi.t_hi)
        if hi <= lo:
            continue
        for e in (ph.t_start, ph.t_end):
            if phi.t_lo < e < phi.t_hi:
                pts.add(e)
        curves = [(f, o) for f in ph.fronts for o in _edges(f, eps)]
        for f, o in curves:
            for target in (phi.r_lo, phi.r_hi):
                pts.update(f.times_at(target - o, lo, hi))
        for (fa, oa), (fb, ob) in combinations(curves, 2):
            if fa is not fb:
                gap = fb.xi(lo) + ob - fa.xi(lo) - oa
                pts.update(linear_times(0.0, fa.speed(lo) - fb.speed(lo), lo,
                                        gap, lo, hi))
        turns = [f.t_turn for f in ph.fronts if isinstance(f, PostAbsorptionSW)]
        pts.update(t for t in turns if t is not None and lo < t < hi)
    return sorted(pts)


def _weak_integrals(plan: WavePlan, phi: TestFunction, ladder, powers):
    """({power: per-rung totals}, per-rung time panel counts) of the weak
    integrals of the eps-realized families against phi, one rung per eps.

    A rung adds up, in time order, a 16-node Gauss-Legendre rule in t over
    each panel between its _time_breakpoints.  The panels of all rungs in
    one phase go through _pass_integrals in passes of up to
    _PANELS_PER_PASS panels."""
    panels = [(k, a, b) for k, eps in enumerate(ladder)
              for tb in (_time_breakpoints(plan, eps, phi),)
              for a, b in zip(tb[:-1], tb[1:]) if b - a >= 1e-13]
    rung, a, b = np.array(panels, dtype=float).reshape(-1, 3).T
    rung = rung.astype(int)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    per_panel = {p: np.zeros(mid.size) for p in powers}
    for ph, rows in plan.phase_groups(mid):
        for i in range(0, rows.size, _PANELS_PER_PASS):
            part = rows[i:i + _PANELS_PER_PASS]
            for p, v in _pass_integrals(
                    ph, phi, plan.data.n, mid[part], half[part],
                    np.asarray(ladder)[rung[part]], powers).items():
                per_panel[p][part] = v
    totals = {p: [sum(v[rung == k].tolist(), 0.0) for k in range(len(ladder))]
              for p, v in per_panel.items()}
    return totals, tuple(np.bincount(rung, minlength=len(ladder)).tolist())


def _pass_integrals(ph, phi: TestFunction, n: int, mid, half, eps, powers):
    """{power: weak integral over each time panel mid +- half (strip width
    eps) against phi}, for panels in phase ph, in one numpy pass; the
    pass's arrays are freed on return.

    The fronts' paths are evaluated once at the time nodes.  Row
    (panel, k) is time node k of a panel; its r panels run between phi's
    support edges and the family's discontinuities clipped to the
    support, and only the nonempty ones go on: _strip_profile, with each
    panel's eps, decides them at their midpoints.  Every power reuses the
    cuts, the profile, TestFunction.jet and the moments rho u^k.  The r
    and t sums run per time panel, since a matrix product sums a row
    differently among other rows."""
    size = _GL_X.size
    t = mid[:, None] + half[:, None] * _GL_X
    paths = _front_paths(ph, t)
    curves = [np.full(t.shape, phi.r_lo), np.full(t.shape, phi.r_hi)] + [
        x + o for f, (x, _, _) in zip(ph.fronts, paths)
        for o in _edges(f, eps[:, None])]
    cuts = np.sort(np.clip(np.stack(curves, axis=-1), phi.r_lo, phi.r_hi))
    lo, hi = cuts[..., :-1], cuts[..., 1:]
    keep = hi - lo >= 1e-14
    pan, node, _ = np.nonzero(keep)
    lo, hi, tk = lo[keep], hi[keep], t[pan, node]
    rmid, rhalf = 0.5 * (lo + hi), 0.5 * (hi - lo)
    at = [tuple(v if v is None else v[pan, node] for v in p) for p in paths]
    c, u, strip = (v[:, None] for v in _strip_profile(
        ph, eps[pan], rmid, tk, at))
    rr = rmid[:, None] + rhalf[:, None] * _GL_X
    phi_v, phi_r, phi_t = phi._jet(rr, tk[:, None], n > 1)
    # rho = c r^{1-n} off the strips (the power taken only there), c on them
    rho = c if n == 1 else c * np.power(rr, 1 - n, out=np.ones(rr.shape),
                                        where=~strip)
    ends = np.searchsorted(pan, np.arange(mid.size + 1)).tolist()
    out, held = {}, {}   # rho u^{p+1} of one power is the next one's a_m
    for p in sorted(powers):
        a_m = held.pop(p) if p in held else rho * u ** p
        b_m = held[p + 1] = rho * u ** (p + 1)
        vals = a_m * phi_t
        vals += b_m * phi_r
        if n > 1:
            vals -= (n - 1) * b_m * phi_v / rr
        rsum = np.concatenate([vals[i:j] @ _GL_W
                               for i, j in zip(ends[:-1], ends[1:])])
        per_node = np.bincount(pan * size + node, rhalf * rsum,
                               mid.size * size).reshape(-1, size)
        out[p] = half * [float(np.dot(v, _GL_W)) for v in per_node]
    return out


def weak_residual(plan: WavePlan, eps: float, phi: TestFunction,
                  which: str) -> float:
    """Weak-form residual of the eps-realized family against phi: the
    one-rung ladder.

    mass / momentum: the weak integral that vanishes in the eps -> 0 limit
    for valid shadow waves.  entropy: the distributional pairing of
    d_t(rho u^2) + d_r(rho u^3) + (n-1) rho u^3 / r with phi, whose limit
    is <= 0 exactly when the wave is dissipative (phi >= 0).
    """
    return _residuals(plan, phi, (eps,), (which,))[0][which][0]


def _residuals(plan: WavePlan, phi: TestFunction, ladder, which):
    """({equation: per-rung residuals}, per-rung time panel counts); the
    entropy residual is the negated weak integral.  DomainError for no
    equation, an unknown one, or a strip width that is not positive."""
    which = tuple(which)
    if not which or not set(which) <= set(_MOMENT_POWER):
        raise DomainError("equations must be some of %s, got %r"
                          % (sorted(_MOMENT_POWER), which))
    if not all(eps > 0 for eps in ladder):
        raise DomainError("eps must be positive")
    totals, panels = _weak_integrals(plan, phi, ladder,
                                     {_MOMENT_POWER[eq] for eq in which})
    return {eq: tuple(-x if eq == "entropy" else x
                      for x in totals[_MOMENT_POWER[eq]])
            for eq in which}, panels


@dataclass(frozen=True)
class ResidualReport:
    """Residuals and fitted convergence order over an eps ladder, and the
    number of time panels of each rung."""
    eps: tuple
    residuals: dict
    order: dict
    panels: tuple = ()

    @property
    def passed(self) -> bool:
        """Every finite order is >= LADDER_ORDER_GATE (a nan order, fewer
        than three residuals above the floor, does not fail the ladder)."""
        return all(not math.isfinite(o) or o >= LADDER_ORDER_GATE
                   for o in self.order.values())


def fit_order(eps: Sequence[float], residuals: Sequence[float]) -> float:
    """Least-squares slope of log|residual| vs log eps, discarding values
    below the quadrature noise floor ORDER_FIT_FLOOR; nan when fewer than
    3 points remain."""
    ee, rr = [], []
    for e, r in zip(eps, residuals):
        if abs(r) >= ORDER_FIT_FLOOR:
            ee.append(math.log(e))
            rr.append(math.log(abs(r)))
    if len(ee) < 3:
        return math.nan
    return float(np.polyfit(ee, rr, 1)[0])


def residual_ladder(plan: WavePlan, phi: TestFunction,
                    which: Iterable[str] = ("mass", "momentum"),
                    eps0: float = EPS0, halvings: int = 6) -> ResidualReport:
    """Weak residuals over the ladder eps0, eps0/2, ..., eps0/2^halvings
    with fitted convergence order per equation; ResidualReport.passed
    is the verdict.  DomainError for a ladder that cannot fit an order:
    no equation, an unknown one, or fewer than three rungs."""
    if halvings < 2:
        raise DomainError("an order needs halvings >= 2, got %r" % (halvings,))
    ladder = tuple(eps0 * 0.5 ** k for k in range(halvings + 1))
    residuals, panels = _residuals(plan, phi, ladder, which)
    order = {eq: fit_order(ladder, res) for eq, res in residuals.items()}
    return ResidualReport(eps=ladder, residuals=residuals, order=order,
                          panels=panels)


def default_test_function(plan: WavePlan) -> Optional[TestFunction]:
    """Bump centered on the first delta front away from the origin and the
    phase edges, clear of the origin by the widest strip EPS0; None when
    the plan carries no such front."""
    for ph in plan.phases:
        t_hi = ph.t_end if math.isfinite(ph.t_end) else plan.t_max
        t_hi = min(t_hi, plan.t_max)
        width = t_hi - ph.t_start
        if width <= 0:
            continue
        for k, fr in enumerate(ph.fronts):
            if fr.kind != SHADOW_WAVE:
                continue
            t_c = ph.t_start + 0.4 * width
            h_t = 0.3 * width
            r_c = fr.xi(t_c)
            h_r = 0.3 * min(r_c, plan.data.R)
            # keep the support off the origin even with the widest strip
            if r_c - h_r - EPS0 <= 0:
                h_r = 0.5 * (r_c - EPS0)
            if h_r <= 0 or t_c - h_t < 0:
                continue
            return TestFunction(r_c=r_c, t_c=t_c, h_r=h_r, h_t=h_t)
    return None
