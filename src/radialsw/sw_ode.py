"""General shadow-wave front ODE integration and closed-form checks.

The front carries a lineal mass sigma(t) at position xi(t) obeying

    d sigma/dt = kappa1 - (n-1) xid sigma / xi
    sigma * d xid/dt = kappa2 - xid * kappa1

with kappa1 = xid [rho] - [rho u], kappa2 = xid [rho u] - [rho u^2]
evaluated from the pointwise outer states at the front.  Also provides the
closed forms of a dimension-two front with genuinely nonconstant speed
whose left state is smooth but which violates the dissipation inequality.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import (
    DomainError, SingularStartError, SingularTrajectoryError, kappa_fluxes,
)
from .exact_riemann import first_root_speed

# sigma = 0 start is stepped past algebraically over this fraction of the span
SEED_FRACTION = 1e-6
_XI_TINY = 1e-12
_SIGMA_FLOOR = 1e-30


@dataclass(frozen=True)
class FrontIVP:
    """Initial state of a front plus the outer-state provider.

    outer_states(t, xi) returns the pointwise (rho0, u0, rho1, u1) seen by
    the front at position xi.  speed0 None means: select the physical
    constant-speed root (required when sigma0 = 0).
    """
    t0: float
    xi0: float
    speed0: Optional[float]
    sigma0: float
    outer_states: Callable
    n: int

    def __post_init__(self):
        if not (self.xi0 > 0):
            raise DomainError("xi0 must be positive")
        if self.sigma0 < 0:
            raise DomainError("sigma0 must be >= 0")
        if int(self.n) != self.n or self.n < 1:
            raise DomainError("n must be an integer >= 1")


def _off_root(speed: float, k1: float, k2: float) -> bool:
    """True when speed misses the sigma = 0 root speed*kappa1 = kappa2."""
    return abs(k2 - speed * k1) > 1e-9 * (1.0 + abs(k2) + abs(speed * k1))


def front_rhs(t: float, xi: float, speed: float, sigma: float,
              outer_states: Callable, n: int) -> Tuple[float, float]:
    """(d sigma/dt, d speed/dt) of the front system.

    At sigma = 0 the speed equation is 0/0; the motion is then algebraic
    (speed solves speed*kappa1 = kappa2) and the derivative is 0 provided
    the given speed is consistent, else the start is singular.
    """
    if xi <= 0:
        raise DomainError("front position must be positive")
    rho0, u0, rho1, u1 = outer_states(t, xi)
    k1, k2 = kappa_fluxes(speed, rho0, u0, rho1, u1)
    dsigma = k1 - (n - 1) * speed * sigma / xi
    if sigma > 0.0:
        dspeed = (k2 - speed * k1) / sigma
    elif _off_root(speed, k1, k2):
        raise SingularStartError(
            "sigma = 0 with speed off the algebraic root "
            "(speed*kappa1 - kappa2 = %g)" % (speed * k1 - k2,))
    else:
        dspeed = 0.0
    return dsigma, dspeed


@dataclass
class FrontTrajectory:
    """Integrated front samples with a dense-output interpolant."""
    t: np.ndarray
    xi: np.ndarray
    speed: np.ndarray
    sigma: np.ndarray
    sol: object
    t_start: float
    t_end: float
    reached_origin: bool = False

    def __call__(self, t):
        """(xi, speed, sigma) interpolated at t (scalar or array)."""
        y = self.sol(np.clip(t, self.t_start, self.t_end))
        return y[0], y[1], y[2]


def integrate_front(ivp: FrontIVP, t_end: float, tol: float = 1e-10,
                    atol: float = 1e-12) -> FrontTrajectory:
    """Adaptive high-order integration of the front system with event
    detection for xi = 0; terminates there or at t_end."""
    if not (tol > 0):
        raise DomainError("tol must be positive")
    if not (t_end > ivp.t0):
        raise DomainError("t_end must exceed t0")
    t0, xi0, sigma0 = ivp.t0, ivp.xi0, ivp.sigma0
    speed0 = ivp.speed0
    states = ivp.outer_states
    n = ivp.n

    if sigma0 == 0.0:
        rho0, u0, rho1, u1 = states(t0, xi0)
        v = first_root_speed(rho0, u0, rho1, u1)
        if speed0 is not None:
            if _off_root(speed0, *kappa_fluxes(speed0, rho0, u0, rho1, u1)):
                raise SingularStartError("sigma0 = 0 needs the algebraic root speed")
            v = speed0
        k1, _ = kappa_fluxes(v, rho0, u0, rho1, u1)
        if k1 <= 0.0:
            raise SingularStartError("no strip mass grows from sigma = 0 here")
        delta = SEED_FRACTION * (t_end - t0)
        t0 = t0 + delta
        xi0 = xi0 + v * delta
        sigma0 = k1 * delta
        speed0 = v
    elif speed0 is None:
        raise DomainError("speed0 required when sigma0 > 0")

    # Trial stages may probe xi or sigma slightly past zero; clamp instead of
    # raising and let the terminal events handle genuine crossings.
    def rhs(t, y):
        xi, speed, sigma = y
        dsg, dsp = front_rhs(t, max(xi, _XI_TINY), speed,
                             max(sigma, _SIGMA_FLOOR), states, n)
        return [speed, dsp, dsg]

    def hit_origin(t, y):
        return y[0]
    hit_origin.terminal = True
    hit_origin.direction = -1

    def sigma_zero(t, y):
        return y[2]
    sigma_zero.terminal = True
    sigma_zero.direction = -1

    # imported here, its only use, so that the rest of the package loads
    # without scipy (most of the import time of the package)
    from scipy.integrate import solve_ivp
    out = solve_ivp(rhs, (t0, t_end), [xi0, speed0, sigma0], method="DOP853",
                    rtol=tol, atol=atol, dense_output=True,
                    events=(hit_origin, sigma_zero))
    if not out.success:
        # typical cause: lineal mass blowing up as the front reaches the
        # origin; integrate to a t_end short of the hit instead
        raise SingularTrajectoryError(
            "integration stalled at t=%g: %s" % (out.t[-1], out.message))
    if out.t_events[1].size:
        te = float(out.t_events[1][0])
        xe, ve, _ = out.y_events[1][0]
        rho0, u0, rho1, u1 = states(te, max(xe, _XI_TINY))
        if _off_root(ve, *kappa_fluxes(ve, rho0, u0, rho1, u1)):
            raise SingularTrajectoryError(
                "strip mass vanished at t=%g with incompatible fluxes" % te)
    return FrontTrajectory(t=out.t, xi=out.y[0], speed=out.y[1],
                           sigma=out.y[2], sol=out.sol,
                           t_start=float(out.t[0]), t_end=float(out.t[-1]),
                           reached_origin=bool(out.t_events[0].size))


# ---------------------------------------------------------------------------
# Nonconstant-speed example in dimension two (jump radius 1)

def nonentropic_example(t):
    """Closed forms (xi, xid, sigma, rho_l, u_l) of the dimension-two front
    with nonconstant speed whose right state is rho = 1/r at rest.

    rho_l is evaluated in the factored form with the common root of its
    raw numerator and denominator cancelled, so the spurious pole at
    t = (1+sqrt(5))/2 never appears.
    """
    t = np.asarray(t, dtype=float)
    s = np.sqrt(t + 1.0)
    xi = 1.0 + t / s
    xid = (t + 2.0) / (2.0 * s ** 3)
    sigma = t / (2.0 * (t + s))
    u_l = -2.0 / (s ** 3 * (t + 2.0))
    rho_l = (t + 2.0) ** 2 * s / (2.0 * (t + s) * (t * t + 4.0 * t + 8.0))
    return xi, xid, sigma, rho_l, u_l


def nonentropic_derivatives(t):
    """Analytic (d sigma/dt, d xid/dt) of the closed forms above."""
    t = np.asarray(t, dtype=float)
    s = np.sqrt(t + 1.0)
    sigma_dot = (t + 2.0) / (4.0 * s * (t + s) ** 2)
    xi_ddot = -(t + 4.0) / (4.0 * s ** 5)
    return sigma_dot, xi_ddot


def nonentropic_outer_states(t, xi):
    """Pointwise outer states of the example: smooth left trace, 1/xi at
    rest on the right."""
    _, _, _, rho_l, u_l = nonentropic_example(t)
    return rho_l, u_l, 1.0 / xi, 0.0


# ---------------------------------------------------------------------------
# Residual checks

def ode_residual(front, outer_states: Callable, n: int, grid,
                 derivatives: Callable):
    """Max-norm residuals of the two front equations along `grid`.

    front: callable t -> (xi, xid, sigma, ...), such as a FrontTrajectory.
    derivatives: callable t -> (d sigma/dt, d xid/dt), the analytic
    derivatives of the front.
    """
    grid = np.asarray(grid, dtype=float)
    sigma_dot, xi_ddot = derivatives(grid)
    sigma_dot = np.broadcast_to(np.asarray(sigma_dot, float), grid.shape)
    xi_ddot = np.broadcast_to(np.asarray(xi_ddot, float), grid.shape)

    res1 = np.empty_like(grid)
    res2 = np.empty_like(grid)
    for k, t in enumerate(grid):
        xi, xid, sigma = (float(v) for v in front(t)[:3])
        rho0, u0, rho1, u1 = outer_states(t, xi)
        k1, k2 = kappa_fluxes(xid, rho0, u0, rho1, u1)
        res1[k] = sigma_dot[k] + (n - 1) * xid * sigma / xi - k1
        res2[k] = sigma * xi_ddot[k] + xid * k1 - k2
    return float(np.max(np.abs(res1))), float(np.max(np.abs(res2)))
