"""General shadow-wave front ODE integration and closed-form checks.

The front of lineal mass sigma(t) at position xi(t) carries the mass
m = sigma xi^(n-1) per unit solid angle, with

    d m/dt = xi^(n-1) kappa1
    m * d xid/dt = xi^(n-1) (kappa2 - xid * kappa1)

and kappa1 = xid [rho] - [rho u], kappa2 = xid [rho u] - [rho u^2]
evaluated from the pointwise outer states at the front.  For power-law
outer states rho = c r^(1-n), xi^(n-1) kappa is kappa of the coefficients,
so the system is the n = 1 one.  `integrate_front` steps (xi, xid, m) with
Dormand & Prince's 8(5,3) pair on Python floats; the 7th-order interpolant
of its steps is built when a trajectory is first called, or on a step
where xi or m falls to 0, to locate that event.  Also provides the closed
forms of a dimension-two front with genuinely nonconstant speed whose left
state is smooth but which violates the dissipation inequality.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .core import DomainError, kappa_fluxes
from .exact_riemann import first_root_speed

# sigma = 0 start is stepped past algebraically over this fraction of the span
SEED_FRACTION = 1e-6
_XI_TINY = 1e-12
_MASS_FLOOR = 1e-30   # trial stages see m >= this fraction of the start mass
_EPS = sys.float_info.epsilon

# Dormand & Prince 8(5,3) (Hairer, Norsett & Wanner, Solving ODEs I, II.5
# and II.10), to the last bit the coefficients of scipy's DOP853: nodes C;
# stage rows A, of which row 12 holds the solution weights B and rows
# 13-15 the extra stages of the interpolant; error weights E5 and E3; and
# the rows D of the interpolant's 4 highest coefficients.
_C = (0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
      0.7777777777777778)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0, 0.08876275643042054),
    (0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
     0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0, 0, -0.00010834732869724932,
     0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_E = (
    (0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
     1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
     0.08192320648511571, -0.022355307863886294),
    (-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
     0.20136540080403034, 0.02265179219836082),
)
_D = (
    (-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894),
    (10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408),
    (19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279),
    (-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564),
)
# the same rows as (stage, weight) pairs without the zero weights
_A, _E, _D = ([tuple((j, w) for j, w in enumerate(row) if w) for row in rows]
              for rows in (_A, _E, _D))

_TINY = math.ulp(0.0)   # error scale floor: a zero scale admits zero error


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


def front_rhs(t: float, xi: float, speed: float, mass: float,
              outer_states: Callable, n: int) -> Tuple[float, float]:
    """(d mass/dt, d speed/dt) of the front system in m = sigma xi^(n-1).

    At mass = 0 the speed equation is 0/0; the motion is then algebraic
    (speed solves speed*kappa1 = kappa2) and the derivative is 0 provided
    the given speed is consistent, else the start is singular.
    """
    if xi <= 0:
        raise DomainError("front position must be positive")
    rho0, u0, rho1, u1 = outer_states(t, xi)
    k1, k2 = kappa_fluxes(speed, rho0, u0, rho1, u1)
    g = xi ** (n - 1)
    if mass > 0.0:
        return g * k1, g * (k2 - speed * k1) / mass
    if _off_root(speed, k1, k2):
        raise DomainError(
            "sigma = 0 with speed off the algebraic root "
            "(speed*kappa1 - kappa2 = %g)" % (speed * k1 - k2,))
    return g * k1, 0.0


def _dot(weights, K):
    """sum_j w_j K_j over the stage derivatives K, per component."""
    x = v = g = 0.0
    for j, w in weights:
        kx, kv, kg = K[j]
        x += w * kx
        v += w * kv
        g += w * kg
    return x, v, g


def _stage(f, t, y, h, K, s):
    """f at stage s of the step h from (t, y); K holds the earlier stages."""
    x, v, g = _dot(_A[s], K)
    return f(t + _C[s] * h, (y[0] + x * h, y[1] + v * h, y[2] + g * h))


def _rms(v, scale):
    return math.hypot(*(a / s for a, s in zip(v, scale))) / math.sqrt(3)


def _first_step(f, t, y, f0, span, rtol, atol):
    """scipy's select_initial_step (Hairer, Norsett & Wanner, II.4)."""
    sc = [atol + abs(a) * rtol or _TINY for a in y]
    d0, d1 = _rms(y, sc), _rms(f0, sc)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = f(t + h0, [a + h0 * b for a, b in zip(y, f0)])
    d2 = _rms([b - a for a, b in zip(f0, f1)], sc) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        return min(100 * h0, max(1e-6, h0 * 1e-3), span)
    return min(100 * h0, (0.01 / max(d1, d2)) ** 0.125, span)


def _error_norm(K, h, y, y_new, rtol, atol):
    """scipy's DOP853 error norm: the 5th-order estimate damped by the 3rd."""
    n5 = n3 = 0.0
    for e5, e3, a, b in zip(_dot(_E[0], K), _dot(_E[1], K), y, y_new):
        s = atol + max(abs(a), abs(b)) * rtol or _TINY
        n5 += (e5 / s) * (e5 / s)
        n3 += (e3 / s) * (e3 / s)
    if n5 == 0.0 and n3 == 0.0:
        return 0.0
    return h * n5 / math.sqrt((n5 + 0.01 * n3) * 3)


def _interpolant(f, t, h, y, y_new, K):
    """Rows of the 7th-order interpolant of one step (as scipy's
    Dop853DenseOutput), from 3 extra stages appended to K."""
    for s in (13, 14, 15):
        K.append(_stage(f, t, y, h, K, s))
    dy = [b - a for a, b in zip(y, y_new)]
    return [dy, [h * a - d for a, d in zip(K[0], dy)],
            [2 * d - h * (b + a) for d, a, b in zip(dy, K[0], K[12])],
            *([h * c for c in _dot(w, K)] for w in _D)]


def _interpolate(F, t, h, y, s):
    """The interpolant F of the step h from (t, y), at time s."""
    x = (s - t) / h
    ax = av = ag = 0.0
    for i, (fx, fv, fg) in enumerate(reversed(F)):
        w = 1.0 - x if i % 2 else x
        ax, av, ag = (ax + fx) * w, (av + fv) * w, (ag + fg) * w
    return y[0] + ax, y[1] + av, y[2] + ag


def _integrate(f, t, y, t_end, rtol, atol):
    """DOP853 from (t, y) to t_end with scipy's step-size control, or to
    where xi or m falls to 0 (>= 0 before a step, <= 0 after it).
    Returns the sample times and states, the steps, their interpolants
    built so far, the rejected steps, and the fallen component or None."""
    f0 = f(t, y)
    h_abs = _first_step(f, t, y, f0, t_end - t, rtol, atol)
    ts, ys, steps, dense, rejected = [t], [y], [], {}, 0
    while t < t_end:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs, retry = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                # typical cause: the speed blowing up as m falls to 0 off
                # the algebraic root
                raise DomainError(
                    "integration stalled at t=%g: required step size is "
                    "less than spacing between numbers" % t)
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            K = [f0]
            for s in range(1, 12):
                K.append(_stage(f, t, y, h, K, s))
            x, v, g = _dot(_A[12], K)
            y_new = (y[0] + h * x, y[1] + h * v, y[2] + h * g)
            K.append(f(t_new, y_new))
            err = _error_norm(K, h, y, y_new, rtol, atol)
            if err < 1:
                break
            h_abs, retry = h * max(0.2, 0.9 * err ** -0.125), True
            rejected += 1
        factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.125)
        h_abs = h * (min(1.0, factor) if retry else factor)
        steps.append((t, h, y, y_new, K))
        fell = [i for i in (0, 2) if y[i] >= 0 >= y_new[i]]
        if fell:
            F = dense[len(steps) - 1] = _interpolant(f, t, h, y, y_new, K)
            roots = []
            for i in fell:   # bisection to 4 eps, ending on the >= 0 side
                lo, hi = t, t_new
                while hi - lo > 4 * _EPS * max(abs(lo), abs(hi)):
                    mid = 0.5 * (lo + hi)
                    if _interpolate(F, t, h, y, mid)[i] > 0:
                        lo = mid
                    else:
                        hi = mid
                roots.append((lo, i))
            t_new, i = min(roots)
            ts.append(t_new)
            ys.append(_interpolate(F, t, h, y, t_new))
            return ts, ys, steps, dense, rejected, i
        t, y, f0 = t_new, y_new, K[12]
        ts.append(t)
        ys.append(y)
    return ts, ys, steps, dense, rejected, None


@dataclass
class FrontTrajectory:
    """Integrated front: samples at the accepted steps, the integrator's
    counters, and the steps, whose interpolant calling evaluates."""
    t: np.ndarray
    xi: np.ndarray
    speed: np.ndarray
    mass: np.ndarray   # m = sigma xi^(n-1), the stepped variable
    n: int
    t_start: float
    t_end: float
    reached_origin: bool
    nfev: int       # right-hand-side evaluations, the interpolant's included
    rejected: int   # rejected step attempts
    _rhs: Callable = field(repr=False)
    _steps: list = field(repr=False)   # (t, h, y, y_new, stages) per step
    _dense: dict = field(repr=False)   # step index -> interpolant rows

    @property
    def sigma(self) -> np.ndarray:
        return self.mass * self.xi ** (1 - self.n)

    def __call__(self, t):
        """(xi, speed, sigma) interpolated at t (scalar or array), clipped
        to [t_start, t_end], sigma from the interpolated m.  The first call
        builds the interpolant of every step, at 3 more right-hand-side
        evaluations each."""
        if len(self._dense) < len(self._steps):
            for k, step in enumerate(self._steps):
                if k not in self._dense:
                    self._dense[k] = _interpolant(self._rhs, *step)
                    self.nfev += 3
        ts = np.clip(np.asarray(t, dtype=float), self.t_start, self.t_end)
        ks = np.clip(np.searchsorted(self.t, ts) - 1, 0, len(self._steps) - 1)
        vals = [_interpolate(self._dense[k], *self._steps[k][:3], s)
                for k, s in zip(np.ravel(ks).tolist(), np.ravel(ts).tolist())]
        out = np.array(vals, dtype=float).reshape(ts.shape + (3,))
        xi, speed, mass = out[..., 0], out[..., 1], out[..., 2]
        out = xi, speed, mass * xi ** (1 - self.n)
        return tuple(map(float, out)) if ts.ndim == 0 else out


def integrate_front(ivp: FrontIVP, t_end: float, tol: float = 1e-10,
                    atol: float = 1e-12) -> FrontTrajectory:
    """Adaptive 8th-order integration of the front system (DOP853 on
    Python floats, relative tolerance tol, absolute atol); terminates at
    t_end, or where xi falls to 0 (reached_origin) or the mass does (which
    raises unless the speed is then on the algebraic root)."""
    if not (tol > 0 and atol >= 0):
        raise DomainError("tol must be positive and atol >= 0")
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
                raise DomainError("sigma0 = 0 needs the algebraic root speed")
            v = speed0
        k1, _ = kappa_fluxes(v, rho0, u0, rho1, u1)
        if k1 <= 0.0:
            raise DomainError("no strip mass grows from sigma = 0 here")
        # exact for power-law states, whose xi^(n-1) kappa1 is constant
        delta = SEED_FRACTION * (t_end - t0)
        mass0 = xi0 ** (n - 1) * k1 * delta
        t0 = t0 + delta
        xi0 = xi0 + v * delta
        speed0 = v
    elif speed0 is None:
        raise DomainError("speed0 required when sigma0 > 0")
    else:
        mass0 = sigma0 * xi0 ** (n - 1)
    floor = _MASS_FLOOR * mass0

    nfev = 0

    # Trial stages may probe xi or m slightly past zero; clamp instead of
    # raising and let the terminal events handle genuine crossings.
    def rhs(t, y):
        nonlocal nfev
        nfev += 1
        xi, speed, mass = y
        dm, dsp = front_rhs(t, max(xi, _XI_TINY), speed, max(mass, floor),
                            states, n)
        return speed, dsp, dm

    # scipy's floor on the relative tolerance
    ts, ys, steps, dense, rejected, fell = _integrate(
        rhs, float(t0), (float(xi0), float(speed0), float(mass0)),
        float(t_end), max(tol, 100 * _EPS), atol)
    if fell == 2:
        te, (xe, ve, _) = ts[-1], ys[-1]
        rho0, u0, rho1, u1 = states(te, max(xe, _XI_TINY))
        if _off_root(ve, *kappa_fluxes(ve, rho0, u0, rho1, u1)):
            raise DomainError(
                "strip mass vanished at t=%g with incompatible fluxes" % te)
    xi, speed, mass = np.array(ys).T.copy()
    return FrontTrajectory(np.array(ts), xi, speed, mass, n, ts[0], ts[-1],
                           fell == 0, nfev, rejected, rhs, steps, dense)


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
