"""Domain types for the radially symmetric pressureless Euler toolkit.

The system under study is

    d_t rho   + d_r(rho u)   + (n-1)/r * rho u   = 0
    d_t(rho u)+ d_r(rho u^2) + (n-1)/r * rho u^2 = 0

on r > 0, with initial data proportional to r^{1-n} on either side of a
single jump at radius R ("pseudo-Riemann data").  Densities are stored as
coefficients of r^{1-n} throughout; pointwise values are computed on
demand.  All types here are immutable after construction.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Protocol

import numpy as np


# ---------------------------------------------------------------------------
# Errors

class RadialSWError(Exception):
    """Base class for all toolkit errors."""


class DomainError(RadialSWError, ValueError):
    """Input outside the documented domain of an operation."""


class ConfigError(RadialSWError):
    """Malformed scenario configuration."""


def in_float_range(fn):
    """Closed forms whose constants leave float range raise DomainError,
    not the ZeroDivisionError or OverflowError of the arithmetic."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ArithmeticError as exc:
            raise DomainError("closed-form constants leave float range (%s)"
                              % type(exc).__name__) from exc
    return wrapper


# ---------------------------------------------------------------------------
# Front kinds / case kinds (plain strings keep serialization trivial)

SHADOW_WAVE = "ShadowWave"
SHOCK = "Shock"
CONTACT = "Contact"
VACUUM_EDGE = "VacuumEdge"

ALL_VACUUM = "AllVacuum"
VACUUM_FAN = "VacuumFan"
CASE_CONTACT = "Contact"
DELTA_SHOCK = "DeltaShock"
VACUUM_LEFT_SHOCK = "VacuumLeftShock"
VACUUM_RIGHT_SHOCK = "VacuumRightShock"

CASE_KINDS = (ALL_VACUUM, VACUUM_FAN, CASE_CONTACT, DELTA_SHOCK,
              VACUUM_LEFT_SHOCK, VACUUM_RIGHT_SHOCK)


# ---------------------------------------------------------------------------
# Data

@dataclass(frozen=True)
class PseudoRiemannData:
    """One jump at radius R between two r^{1-n} power-law states.

    rho_l, rho_r are the density coefficients: rho(r) = coeff * r^{1-n}.
    u_l, u_r are the (constant) radial velocities on each side.  R, the
    coefficients and the velocities must be finite.
    """
    n: int
    R: float
    rho_l: float
    rho_r: float
    u_l: float
    u_r: float

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise DomainError("n must be an integer >= 1, got %r" % (self.n,))
        if not (0 < self.R < math.inf):
            raise DomainError("R must be finite and > 0, got %r" % (self.R,))
        if not (0 <= self.rho_l < math.inf and 0 <= self.rho_r < math.inf):
            raise DomainError("density coefficients must be finite and >= 0")
        if not (math.isfinite(self.u_l) and math.isfinite(self.u_r)):
            raise DomainError("velocities must be finite")
        object.__setattr__(self, "n", int(self.n))


@dataclass(frozen=True)
class RegionProfile:
    """State between two fronts: density coeff * r^{1-n} and a constant
    velocity.  Vacuum is coeff == 0, and kind ("vacuum" or "powerlaw")
    follows from it.  solve builds each vacuum region as RegionProfile(),
    at velocity 0; the vacuum-fan velocity samplers report there is a
    convenience, never used in fluxes."""
    kind: str = field(init=False)
    coeff: float = 0.0
    velocity: float = 0.0

    def __post_init__(self):
        if not self.coeff >= 0:
            raise DomainError("density coefficient must be >= 0, got %r"
                              % (self.coeff,))
        object.__setattr__(self, "coeff", float(self.coeff))
        object.__setattr__(self, "velocity", float(self.velocity))
        object.__setattr__(self, "kind",
                           "vacuum" if self.coeff == 0.0 else "powerlaw")

    @property
    def is_vacuum(self) -> bool:
        return self.coeff == 0.0

    def density(self, r, n: int):
        """Pointwise density coeff * r^{1-n}; vacuum gives 0."""
        if self.is_vacuum:
            return 0.0 * r
        return self.coeff * r ** (1 - n)


class FrontPath(Protocol):
    """Time-parameterized front: position xi, speed, mass sigma xi^{n-1} per
    solid angle, and lineal mass sigma.  Each takes a float time, or an array
    of times and gives an array of its shape with the float form's bits."""
    kind: str

    def xi(self, t: float) -> float: ...
    def speed(self, t: float) -> float: ...
    def mass(self, t: float) -> float: ...
    def sigma(self, t: float) -> float: ...

    def times_at(self, x: float, lo: float, hi: float) -> list:
        """Sorted times t in [lo, hi] with xi(t) = x, in closed form."""


def linear_times(x0: float, v: float, t0: float, x: float,
                 lo: float, hi: float) -> list:
    """The time in [lo, hi] where x0 + v (t - t0) = x, as a list of at most
    one; a path at rest has no isolated crossing."""
    if v == 0.0:
        return []
    t = t0 + (x - x0) / v
    return [t] if lo <= t <= hi else []


def path_sqrt(x):
    """math.sqrt of a float, np.sqrt of an array: both round correctly, so
    they agree bit for bit."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def path_power(x, e):
    """x ** e with Python's float power, per element of an array: numpy's
    power differs from it in the last bit on about 5 % of inputs."""
    if isinstance(x, np.ndarray):
        return np.array([v ** e for v in x.ravel().tolist()]).reshape(x.shape)
    return x ** e


def path_const(t, value):
    """value at every time t: a float, or an array of t's shape."""
    return np.full(t.shape, value) if isinstance(t, np.ndarray) else value


@dataclass(frozen=True)
class LinearFront:
    """Shock / contact / vacuum edge moving at constant speed."""
    kind: str
    xi0: float
    velocity: float
    t0: float = 0.0

    def xi(self, t):
        return self.xi0 + self.velocity * (t - self.t0)

    def speed(self, t):
        return path_const(t, self.velocity)

    def mass(self, t):
        return path_const(t, 0.0)

    def sigma(self, t):
        return path_const(t, 0.0)

    def times_at(self, x, lo, hi):
        return linear_times(self.xi0, self.velocity, self.t0, x, lo, hi)


@dataclass(frozen=True)
class Phase:
    """One time slab [t_start, t_end) of a plan.

    fronts are ordered by position; regions has len(fronts)+1 entries,
    innermost (touching the origin) first.  m0/p0 are the origin mass and
    the origin momentum tally, linear in time within the phase.
    """
    t_start: float
    t_end: float
    fronts: tuple
    regions: tuple
    m0_start: float = 0.0
    m0_slope: float = 0.0
    p0_start: float = 0.0
    p0_slope: float = 0.0

    def __post_init__(self):
        if len(self.regions) != len(self.fronts) + 1:
            raise DomainError("need len(fronts)+1 regions")
        if not (self.t_end > self.t_start):
            raise DomainError("empty phase interval")

    def m0(self, t):
        return self.m0_start + self.m0_slope * (t - self.t_start)

    def p0(self, t):
        return self.p0_start + self.p0_slope * (t - self.t_start)

    def region_index(self, r, t, xs):
        """Index into regions of the region holding radius r at time t: the
        number of fronts with xi(t) <= r, so a front belongs to its outer
        side.  Counting, unlike a sorted search, tolerates fronts out of
        order by rounding.  r and t are floats or arrays that broadcast;
        the result is an int array of their shape (0-d for floats).  xs
        holds each front's xi(t), evaluated beforehand."""
        idx = np.zeros(np.broadcast_shapes(np.shape(r), np.shape(t)), dtype=int)
        for x in xs:
            idx += x <= r
        return idx


@dataclass(frozen=True)
class WavePlan:
    """Global-in-time piecewise-exact solution of one pseudo-Riemann datum.

    phases partition [0, inf) structurally; t_max only gates sampling.
    events maps the named transitions (t_in, t_sw0, t_origin_left,
    t_vacuum_close) to times where applicable.
    """
    data: PseudoRiemannData
    case: str  # the datum's kind, one of CASE_KINDS
    phases: tuple
    events: dict
    t_max: float

    def __post_init__(self):
        if self.case not in CASE_KINDS:
            raise DomainError("unknown case kind %r" % (self.case,))

    def phase_at(self, t: float) -> Phase:
        """The phase holding t: the last one starting at or before t, if it
        ends after t, else DomainError; phase_groups' rule for one time."""
        k = bisect.bisect_right([ph.t_start for ph in self.phases], t) - 1
        if k < 0 or not t < self.phases[k].t_end:
            raise DomainError("no phase covers t=%r" % (t,))
        return self.phases[k]

    def phase_groups(self, ts):
        """[(phase, rows)] in time order for each phase holding some times
        of the float array ts, rows indexing ts in increasing order: the
        rule of phase_at, with numpy's searchsorted for bisect."""
        which = np.searchsorted([ph.t_start for ph in self.phases], ts,
                                "right") - 1
        ends = np.array([ph.t_end for ph in self.phases])[which]
        out = ts[(which < 0) | ~(ts < ends)]
        if out.size:
            raise DomainError("no phase covers t=%r" % (float(out[0]),))
        return [(self.phases[k], np.flatnonzero(which == k))
                for k in sorted(set(which.tolist()))]

    def m0(self, t: float) -> float:
        """Origin point mass m0(t): the running integral of the inflow flux
        |S^{n-1}| lim r^{n-1} rho (-u)_+ plus the front dump at t_sw0,
        assembled per phase; DomainError for t < 0."""
        return self.phase_at(t).m0(t)


@dataclass(frozen=True)
class Atom:
    """Singular sphere-supported mass carried by a shadow front."""
    radius: float
    sigma: float
    total_mass: float


@dataclass(frozen=True)
class SolutionSample:
    """Field values at one (r, t) point plus singular content."""
    r: float
    t: float
    rho: float
    u: float
    is_vacuum: bool
    m0: float
    atom: Optional[Atom] = None


@dataclass(frozen=True)
class ConservedPair:
    """Total mass and momentum of a truncated solution."""
    Q: float
    M: float


# ---------------------------------------------------------------------------
# Operations

def surface_area(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2); the coefficient turning radial
    line integrals into full-space integrals."""
    if int(n) != n or n < 1:
        raise DomainError("dimension must be an integer >= 1")
    n = int(n)
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def jump_brackets(rho0: float, u0: float, rho1: float, u1: float):
    """Jump brackets ([rho], [rho u], [rho u^2], [rho u^3]), right minus left."""
    if rho0 < 0 or rho1 < 0:
        raise DomainError("densities must be >= 0")
    return (rho1 - rho0,
            rho1 * u1 - rho0 * u0,
            rho1 * u1 ** 2 - rho0 * u0 ** 2,
            rho1 * u1 ** 3 - rho0 * u0 ** 3)


def kappa_fluxes(cdot: float, rho0: float, u0: float, rho1: float, u1: float):
    """Net mass and momentum fluxes into a front moving at speed cdot:
    kappa1 = cdot [rho] - [rho u], kappa2 = cdot [rho u] - [rho u^2]."""
    if rho0 < 0 or rho1 < 0:
        raise DomainError("densities must be >= 0")
    bru = rho1 * u1 - rho0 * u0
    return (cdot * (rho1 - rho0) - bru,
            cdot * bru - (rho1 * u1 ** 2 - rho0 * u0 ** 2))
