import importlib.util
import json
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import radialsw.exact_riemann as xr
import radialsw.sw_ode as so
from radialsw.core import DomainError, PseudoRiemannData, kappa_fluxes

WORKED = PseudoRiemannData(n=2, R=1.0, rho_l=1.0, rho_r=1.0, u_l=1.0, u_r=-1.0)
# the plan's constant-speed shadow front, valid up to t_in = 1
CONST_FRONT = xr.solve(WORKED, 1.0).phases[0].fronts[-1]
# the data of an n = 3 front started off its algebraic root
PINNED = PseudoRiemannData(n=3, R=1.0, rho_l=2.0, rho_r=0.5, u_l=1.5, u_r=-0.7)


def power_law_states(d):
    """Pointwise outer states of pseudo-Riemann data at the front."""
    def states(t, xi):
        g = xi ** (1 - d.n)
        return d.rho_l * g, d.u_l, d.rho_r * g, d.u_r
    return states


def fixed_states(rho0, u0, rho1, u1):
    def states(t, xi):
        return rho0, u0, rho1, u1
    return states


# ---------------------------------------------------------------------------
# front_rhs

def test_rhs_speed_frozen_at_physical_root():
    states = power_law_states(WORKED)
    v0 = xr.first_root_speed(1.0, 1.0, 1.0, -1.0)
    _, dspeed = so.front_rhs(0.5, 1.0, v0, 1.0, states, 2)
    assert dspeed == pytest.approx(0.0, abs=1e-14)


def test_rhs_zero_jump_is_pure_geometric_decay():
    # with no jump the mass m = sigma xi^(n-1) is constant, so sigma decays
    # as xi^(1-n) alone
    states = fixed_states(2.0, 0.7, 2.0, 0.7)
    for n in (1, 2, 3):
        dmass, dspeed = so.front_rhs(1.0, 2.0, 0.7, 1.5, states, n)
        assert dmass == 0.0
        assert dspeed == 0.0


def test_rhs_one_dimensional_drops_geometry():
    states = fixed_states(3.0, 1.0, 1.0, -2.0)
    speed = 0.4
    k1, k2 = kappa_fluxes(speed, 3.0, 1.0, 1.0, -2.0)
    dmass, _ = so.front_rhs(0.3, 5.0, speed, 9.9, states, 1)
    assert dmass == pytest.approx(k1, rel=1e-14)
    # in higher dimension both rates carry xi^(n-1) and nothing else
    for n in (2, 3, 4):
        dmass, dspeed = so.front_rhs(0.3, 5.0, speed, 9.9, states, n)
        assert dmass == pytest.approx(5.0 ** (n - 1) * k1, rel=1e-14)
        assert dspeed == pytest.approx(
            5.0 ** (n - 1) * (k2 - speed * k1) / 9.9, rel=1e-14)


def test_rhs_power_law_states_are_n_free():
    # rho = c r^(1-n): the mass form is the n = 1 system of the coefficients
    want = so.front_rhs(0.2, 1.7, 0.3, 0.4,
                        power_law_states(replace(PINNED, n=1)), 1)
    for n in (2, 3, 4):
        got = so.front_rhs(0.2, 1.7, 0.3, 0.4,
                           power_law_states(replace(PINNED, n=n)), n)
        assert got == pytest.approx(want, rel=1e-14)


def test_rhs_singular_start_off_root():
    states = fixed_states(1.0, 1.0, 1.0, -1.0)
    with pytest.raises(DomainError, match="off the algebraic root"):
        so.front_rhs(0.0, 1.0, 0.5, 0.0, states, 2)  # root is 0
    dsigma, dspeed = so.front_rhs(0.0, 1.0, 0.0, 0.0, states, 2)
    assert dspeed == 0.0 and dsigma > 0


def test_ivp_sigma0_zero_needs_root_speed():
    states = fixed_states(1.0, 1.0, 1.0, -1.0)  # root speed 0
    with pytest.raises(DomainError, match="needs the algebraic root speed"):
        so.integrate_front(so.FrontIVP(0.0, 1.0, 0.5, 0.0, states, 2), 1.0)


def test_ivp_sigma0_zero_takes_an_explicit_root_speed():
    states = fixed_states(4.0, 1.0, 1.0, -1.0)
    v = xr.first_root_speed(4.0, 1.0, 1.0, -1.0)
    given = so.integrate_front(so.FrontIVP(0.0, 1.0, v, 0.0, states, 2), 1.0)
    chosen = so.integrate_front(so.FrontIVP(0.0, 1.0, None, 0.0, states, 2), 1.0)
    for name in ("t", "xi", "speed", "sigma"):
        assert getattr(given, name).tolist() == getattr(chosen, name).tolist()
    assert given.t.size > 2


def test_ivp_sigma0_zero_with_diverging_states_raises():
    # u0 < u1: the root speed 0 takes in no mass, kappa1 = -2
    states = fixed_states(1.0, -1.0, 1.0, 1.0)
    with pytest.raises(DomainError, match="no strip mass grows"):
        so.integrate_front(so.FrontIVP(0.0, 1.0, None, 0.0, states, 2), 1.0)


def test_rhs_rejects_nonpositive_position():
    with pytest.raises(DomainError):
        so.front_rhs(0.0, 0.0, 0.0, 1.0, fixed_states(1, 0, 1, 0), 2)


def test_rhs_rejects_negative_outer_density():
    for states in (fixed_states(-1.0, 0.0, 1.0, 0.0),
                   fixed_states(1.0, 0.0, -1e-300, 0.0)):
        with pytest.raises(DomainError):
            so.front_rhs(0.0, 1.0, 0.0, 1.0, states, 2)


# ---------------------------------------------------------------------------
# integrate_front vs closed forms

def test_ivp_validation():
    states = power_law_states(WORKED)
    with pytest.raises(DomainError):
        so.FrontIVP(0.0, -1.0, None, 0.0, states, 2)
    with pytest.raises(DomainError):
        so.FrontIVP(0.0, 1.0, None, -0.5, states, 2)
    with pytest.raises(DomainError):
        so.FrontIVP(0.0, 1.0, None, 0.0, states, 1.5)
    ivp = so.FrontIVP(0.0, 1.0, None, 1.0, states, 2)
    with pytest.raises(DomainError):
        so.integrate_front(ivp, 0.5, tol=-1.0)
    with pytest.raises(DomainError):
        so.integrate_front(ivp, -1.0)
    with pytest.raises(DomainError):  # speed0 required once sigma0 > 0
        so.integrate_front(ivp, 2.0)


def test_trajectory_bits_are_pinned():
    # the fixture holds the accepted samples as float.hex and the
    # right-hand-side evaluations, so a stepper change at rounding level
    # shows
    d = PINNED
    traj = so.integrate_front(
        so.FrontIVP(0.0, d.R, 0.3, 0.2, power_law_states(d), d.n), 2.0)
    want = json.loads((pathlib.Path(__file__).parent / "data"
                       / "front_trajectory_n3.json").read_text())
    for key in ("t", "xi", "speed", "mass", "sigma"):
        assert [x.hex() for x in getattr(traj, key).tolist()] == want[key]
    assert traj.nfev == want["nfev"]


def test_matches_constant_speed_closed_form():
    ivp = so.FrontIVP(0.0, 1.0, None, 0.0, power_law_states(WORKED), 2)
    traj = so.integrate_front(ivp, 1.0, tol=1e-12, atol=1e-14)
    for t in np.linspace(0.1, 0.999, 25):
        xi, speed, sigma = traj(t)
        assert xi == pytest.approx(1.0, abs=1e-8)
        assert speed == pytest.approx(0.0, abs=1e-8)
        assert sigma == pytest.approx(CONST_FRONT.sigma(t), abs=1e-8)


def test_matches_post_absorption_closed_form():
    post = xr.post_absorption(WORKED)
    xi_cf, sigma_cf = post.xi, post.sigma
    t_in, t_sw0 = 1.0, 4.0
    sigma0 = CONST_FRONT.sigma(t_in)

    def states(t, xi):
        return 0.0, 0.0, 1.0 * xi ** -1, -1.0

    ivp = so.FrontIVP(t_in, 1.0, 0.0, sigma0, states, 2)
    t_cap = t_in + 0.95 * (t_sw0 - t_in)
    traj = so.integrate_front(ivp, t_cap, tol=1e-12, atol=1e-14)
    for t in np.linspace(t_in, t_cap, 30):
        xi, speed, sigma = traj(t)
        assert xi == pytest.approx(xi_cf(t), abs=1e-8)
        assert sigma == pytest.approx(sigma_cf(t), abs=1e-8)


def test_zero_jump_homogeneous_solution():
    states = fixed_states(2.0, 0.7, 2.0, 0.7)
    n, xi0, sigma0, v = 3, 1.0, 1.5, 0.7
    ivp = so.FrontIVP(0.0, xi0, v, sigma0, states, n)
    traj = so.integrate_front(ivp, 3.0, tol=1e-12, atol=1e-14)
    for t in np.linspace(0.0, 3.0, 16):
        xi, speed, sigma = traj(t)
        assert speed == pytest.approx(v, abs=1e-12)
        assert sigma == pytest.approx(sigma0 * (xi0 / (xi0 + v * t)) ** (n - 1),
                                      abs=1e-10)


def test_accuracy_tracks_tolerance():
    # closed-form agreement within 10 * tol at a loose tolerance
    tol = 1e-6
    ivp = so.FrontIVP(0.0, 1.0, None, 0.0, power_law_states(WORKED), 2)
    traj = so.integrate_front(ivp, 1.0, tol=tol, atol=tol * 1e-2)
    for t in (0.3, 0.6, 0.95):
        xi, _, sigma = traj(t)
        assert abs(xi - 1.0) <= 10 * tol
        assert abs(sigma - CONST_FRONT.sigma(t)) <= 10 * tol


def test_origin_hit_terminates_trajectory():
    states = fixed_states(1.0, 0.0, 1.0, -2.0)  # root speed -1
    ivp = so.FrontIVP(0.0, 1.0, None, 0.0, states, 1)
    traj = so.integrate_front(ivp, 5.0, tol=1e-10)
    assert traj.reached_origin
    assert traj.t_end == pytest.approx(1.0, abs=1e-6)


def test_compatible_mass_exhaustion_terminates_cleanly():
    # symmetric outflow: sigma drains at rate 2 with the speed staying on
    # the algebraic root, so the trajectory just ends
    states = fixed_states(1.0, -1.0, 1.0, 1.0)
    ivp = so.FrontIVP(0.0, 1.0, 0.0, 0.5, states, 1)
    traj = so.integrate_front(ivp, 5.0, tol=1e-10)
    assert not traj.reached_origin
    assert traj.t_end == pytest.approx(0.25, abs=1e-6)


def test_incompatible_mass_exhaustion_raises():
    # outflow with the speed off every root: sigma -> 0 is singular (the
    # speed blows up and the steps stall before sigma reaches 0)
    states = fixed_states(4.0, -1.0, 1.0, 2.0)
    ivp = so.FrontIVP(0.0, 1.0, 0.5, 0.05, states, 1)
    with pytest.raises(DomainError,
                       match="integration stalled|incompatible fluxes"):
        so.integrate_front(ivp, 5.0, tol=1e-10)


def test_samples_are_ordered():
    ivp = so.FrontIVP(0.0, 1.0, None, 0.0, power_law_states(WORKED), 2)
    traj = so.integrate_front(ivp, 1.0)
    ts = traj.t.tolist()
    assert ts == sorted(ts)
    assert min(traj.xi) > 0


# ---------------------------------------------------------------------------
# nonconstant-speed closed-form example

def test_example_initial_values():
    xi, xid, sigma, rho_l, u_l = so.nonentropic_example(0.0)
    assert xi == 1.0
    assert u_l == pytest.approx(-1.0, rel=1e-15)
    assert sigma == 0.0


def test_example_values_at_one():
    xi, xid, sigma, rho_l, u_l = so.nonentropic_example(1.0)
    assert xid == pytest.approx(0.530330, abs=1e-6)
    assert u_l == pytest.approx(-0.235702, abs=1e-6)
    r2 = math.sqrt(2.0)
    assert rho_l == pytest.approx(9 * r2 / (2 * (1 + r2) * 13), rel=1e-12)
    assert xi == pytest.approx(1 + 1 / r2, rel=1e-14)


def test_example_regular_through_golden_ratio_time():
    # the raw rho_l quotient has a removable singularity here
    t = (1 + math.sqrt(5.0)) / 2
    _, _, _, rho_l, _ = so.nonentropic_example(t)
    assert math.isfinite(rho_l) and rho_l > 0


def test_example_physicality_and_monotone_left_velocity():
    t = np.linspace(0.01, 5.0, 400)
    _, xid, sigma, rho_l, u_l = so.nonentropic_example(t)
    assert np.all(sigma > 0)
    assert np.all(rho_l >= 0)
    assert np.all(u_l < 0)
    assert np.all(np.diff(u_l) > 0)
    # overcompressibility fails on the left at every sampled time
    assert np.all(u_l < xid)


def test_example_residuals_analytic():
    grid = np.linspace(0.1, 5.0, 200)
    r1, r2 = so.ode_residual(so.nonentropic_example,
                             so.nonentropic_outer_states, 2, grid,
                             derivatives=so.nonentropic_derivatives)
    assert r1 <= 1e-8 and r2 <= 1e-8


def test_example_derivatives_match_central_difference():
    grid = np.linspace(0.1, 5.0, 60)
    h = 1e-5
    _, xid_hi, sigma_hi, _, _ = so.nonentropic_example(grid + h)
    _, xid_lo, sigma_lo, _, _ = so.nonentropic_example(grid - h)
    sigma_dot, xi_ddot = so.nonentropic_derivatives(grid)
    np.testing.assert_allclose(sigma_dot, (sigma_hi - sigma_lo) / (2 * h),
                               rtol=1e-7)
    np.testing.assert_allclose(xi_ddot, (xid_hi - xid_lo) / (2 * h), rtol=1e-7)


# ---------------------------------------------------------------------------
# ode_residual on other closed forms

def test_residual_constant_speed_form():
    front = xr._const_front(WORKED)

    def closed(t):
        return front.xi(t), front.speed(t), front.sigma(t)

    def derivs(grid):
        grid = np.asarray(grid, float)
        # d/dt [amp t (R + v0 t)^{1-n}] with v0 = 0 here
        return np.full_like(grid, front.amp), np.zeros_like(grid)

    grid = np.linspace(0.05, 1.0, 40)
    r1, r2 = so.ode_residual(closed, power_law_states(WORKED), 2, grid,
                             derivatives=derivs)
    assert r1 <= 1e-10 and r2 <= 1e-10


def test_residual_zero_jump_form():
    states = fixed_states(2.0, 0.7, 2.0, 0.7)
    n, xi0, sigma0, v = 3, 1.0, 1.5, 0.7

    def closed(t):
        xi = xi0 + v * t
        return xi, v, sigma0 * (xi0 / xi) ** (n - 1)

    def derivs(grid):
        grid = np.asarray(grid, float)
        xi = xi0 + v * grid
        sdot = -sigma0 * (n - 1) * v * xi0 ** (n - 1) * xi ** -n
        return sdot, np.zeros_like(grid)

    grid = np.linspace(0.0, 3.0, 40)
    r1, r2 = so.ode_residual(closed, states, n, grid, derivatives=derivs)
    assert r1 <= 1e-12 and r2 <= 1e-12


# ---------------------------------------------------------------------------
# constant-velocity property of integrated fronts

@st.composite
def shock_data(draw):
    rl = draw(st.floats(min_value=0.2, max_value=3.0))
    rr = draw(st.floats(min_value=0.2, max_value=3.0))
    ur = draw(st.floats(min_value=-1.5, max_value=1.0))
    ul = ur + draw(st.floats(min_value=0.2, max_value=2.0))
    n = draw(st.integers(min_value=1, max_value=3))
    return PseudoRiemannData(n=n, R=1.0, rho_l=rl, rho_r=rr, u_l=ul, u_r=ur)


@given(shock_data())
@settings(max_examples=25, deadline=None)
def test_integrated_speed_stays_on_root(d):
    v0 = xr.first_root_speed(d.rho_l, d.u_l, d.rho_r, d.u_r)
    horizon = 1.0
    if v0 < 0:
        horizon = min(horizon, 0.8 * (-d.R / v0))
    assume(horizon > 0.05)
    ivp = so.FrontIVP(0.0, d.R, None, 0.0, power_law_states(d), d.n)
    traj = so.integrate_front(ivp, horizon, tol=1e-10, atol=1e-12)
    drift = np.max(np.abs(traj.speed - v0))
    assert drift <= 1e-6


# ---------------------------------------------------------------------------
# the in-module DOP853 against scipy's solve_ivp(DOP853)

def scipy_front(ivp, t_end):
    """integrate_front as scipy's solve_ivp(DOP853) gives it: the same
    clamped right-hand side in (xi, speed, mass), terminal events and
    off-root check, default tolerances; ivp.sigma0 > 0."""
    from scipy.integrate import solve_ivp

    mass0 = ivp.sigma0 * ivp.xi0 ** (ivp.n - 1)
    floor = so._MASS_FLOOR * mass0

    def rhs(t, y):
        dm, dsp = so.front_rhs(t, max(y[0], so._XI_TINY), y[1],
                               max(y[2], floor), ivp.outer_states, ivp.n)
        return [y[1], dsp, dm]

    def hit_origin(t, y):
        return y[0]

    def mass_zero(t, y):
        return y[2]

    for event in (hit_origin, mass_zero):
        event.terminal, event.direction = True, -1
    out = solve_ivp(rhs, (ivp.t0, t_end), [ivp.xi0, ivp.speed0, mass0],
                    method="DOP853", rtol=1e-10, atol=1e-12,
                    dense_output=True, events=(hit_origin, mass_zero))
    if not out.success:
        raise DomainError(out.message)
    if out.t_events[1].size:
        te, (xe, ve, _) = out.t_events[1][0], out.y_events[1][0]
        states = ivp.outer_states(te, max(xe, so._XI_TINY))
        if so._off_root(ve, *kappa_fluxes(ve, *states)):
            raise DomainError("off-root mass exhaustion")
    return out


def closed_form_ivp(d, t0):
    """The IVP of d's constant-speed front started from its closed form at
    time t0."""
    front = xr._const_front(d)
    return so.FrontIVP(t0, front.xi(t0), front.v0, front.sigma(t0),
                       power_law_states(d), d.n)


def shock_case(d):
    """(ivp, t_end, closed) of a delta-shock front, started from its closed
    form closed(t) = (xi, mass) at a small time; an inward front runs past
    its origin hit."""
    front = xr._const_front(d)
    t_hit = d.R / -front.v0 if front.v0 < 0 else math.inf
    horizon = min(1.5 * t_hit, 10.0 * d.R / (d.u_l - d.u_r))
    return (closed_form_ivp(d, 1e-3 * horizon), horizon,
            lambda t: (front.xi(t), front.mass(t)))


def drain_case(d, sigma0):
    """(ivp, t_end, closed) of a front at rest in symmetric outflow
    (rho_l = rho_r, u_l = -u_r < 0): its strip mass drains to 0 linearly."""
    k1, _ = kappa_fluxes(0.0, *power_law_states(d)(0.0, d.R))
    g = d.R ** (d.n - 1)
    return (so.FrontIVP(0.0, d.R, 0.0, sigma0, power_law_states(d), d.n),
            3.0 * sigma0 / -k1, lambda t: (d.R + 0.0 * t, g * (sigma0 + k1 * t)))


@st.composite
def front_ivps(draw):
    """shock_case or drain_case data, n = 1..4, decades of R, density and
    speed."""
    decade = st.floats(min_value=-2.0, max_value=2.0)
    n = draw(st.integers(1, 4))
    R, rho_l, rho_r = (10.0 ** draw(decade) for _ in range(3))
    u_r = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(decade)
    if draw(st.booleans()):
        return shock_case(PseudoRiemannData(
            n, R, rho_l, rho_r, u_r + 10.0 ** draw(decade), u_r))
    return drain_case(PseudoRiemannData(n, R, rho_l, rho_l, -abs(u_r),
                                        abs(u_r)), 10.0 ** draw(decade) * R)


@given(front_ivps())
@example(shock_case(PseudoRiemannData(1, 2.0, 3.0, 0.5, 0.5, -4.0)))
@example(shock_case(PseudoRiemannData(3, 0.3, 2.0, 40.0, 1.0, -2.5)))
@example(drain_case(PseudoRiemannData(3, 0.5, 2.0, 2.0, -3.0, 3.0), 0.1))
@settings(max_examples=40, deadline=None)
def test_matches_scipy_dop853(case):
    ivp, t_end, closed = case
    outcomes = []
    for integrate in (so.integrate_front, scipy_front):
        try:
            outcomes.append(integrate(ivp, t_end))
        except DomainError as exc:
            outcomes.append(exc)
    ours, ref = outcomes
    raised = [isinstance(out, Exception) for out in outcomes]
    assert raised[0] == raised[1], outcomes
    if raised[0]:
        return
    assert ours.reached_origin == bool(ref.t_events[0].size)
    assert ours.t_end == pytest.approx(ref.t[-1], rel=1e-9)
    # against scipy's interpolant: the samples up to the common end, and
    # ours' interpolant on a grid short of it, where sigma xi^(n-1) is
    # inf * 0 at an n >= 2 origin hit
    end = min(ours.t_end, ref.t[-1])
    grid = np.linspace(ivp.t0, end, 33)[:-1]
    xi_g, _, sigma_g = ours(grid)
    for ts, xi, mass in ((np.minimum(ours.t, end), ours.xi, ours.mass),
                         (grid, xi_g, sigma_g * xi_g ** (ivp.n - 1))):
        xi_ref, _, mass_ref = ref.sol(ts)
        xi_cf, mass_cf = closed(ts)
        xi_scale = max(float(np.max(np.abs(xi_ref))), ivp.xi0)
        assert np.max(np.abs(xi - xi_ref)) <= 1e-8 * xi_scale
        # two runs of one method agree to 1e-8, or to the global error of
        # the reference where that is larger: rounding-level differences in
        # the error estimate move the step sequence
        m_scale = np.max(np.abs(mass_ref))
        ref_err = np.max(np.abs(mass_ref - mass_cf))
        assert np.max(np.abs(mass - mass_ref)) <= 1e-8 * m_scale + 10 * ref_err


def test_front_at_rest_steps_as_scipy_dop853():
    # equal states at rest give a zero right-hand side: the first step
    # takes the flat-start rule and every error norm is exactly 0, so the
    # step grows tenfold until t_end, at scipy's accepted times
    ivp = so.FrontIVP(0.0, 1.5, 0.0, 0.3,
                      lambda t, xi: (2.0 / xi, 0.0, 2.0 / xi, 0.0), 2)
    ours, ref = so.integrate_front(ivp, 4.0), scipy_front(ivp, 4.0)
    assert ours.t.tolist() == ref.t.tolist()
    assert ours.rejected == 0 and not ours.reached_origin
    assert ours.xi.tolist() == [1.5] * ours.t.size


def test_counters_match_right_hand_side_calls():
    # the pinned n = 3 front: one of its steps rejects
    calls = []
    states = power_law_states(PINNED)

    def counting(t, xi):
        calls.append(t)
        return states(t, xi)

    ivp = so.FrontIVP(0.0, PINNED.R, 0.3, 0.2, counting, PINNED.n)
    traj = so.integrate_front(ivp, 2.0)
    steps = traj.t.size - 1
    assert traj.rejected > 0
    # the first-step guess takes 2 evaluations, each attempted step 12
    assert traj.nfev == len(calls) == 2 + 12 * (steps + traj.rejected)
    traj(1.0)   # builds the interpolant: 3 more per step
    assert traj.nfev == len(calls) == 2 + 12 * (steps + traj.rejected) + 3 * steps
    traj(1.5)
    assert traj.nfev == len(calls)


# ---------------------------------------------------------------------------
# singular ends: the origin hit of an n >= 2 front, and mass exhaustion

def test_n2_front_reaches_the_origin():
    # sigma ~ xi^(1-n) blows up at the hit, where steps in sigma stalled
    # ("integration stalled at t=0.0561225"); the mass amp t stays finite
    d = PseudoRiemannData(n=2, R=1.0, rho_l=0.0386, rho_r=3.25, u_l=0.0,
                          u_r=-19.76)
    front = xr._const_front(d)
    t_hit = d.R / -front.v0
    traj = so.integrate_front(closed_form_ivp(d, 8.4e-5), 1.5 * t_hit)
    assert traj.reached_origin
    assert traj.t_end == pytest.approx(t_hit, rel=1e-9)
    assert t_hit == pytest.approx(0.0561225353, rel=1e-9)
    assert traj.mass[-1] == pytest.approx(front.mass(t_hit), rel=1e-9)


@st.composite
def inward_fronts(draw):
    """Delta-shock data whose front moves inward, n = 2..4, decades of R,
    density and speed."""
    decade = st.floats(min_value=-2.0, max_value=2.0)
    n = draw(st.integers(2, 4))
    R, rho_l, rho_r = (10.0 ** draw(decade) for _ in range(3))
    u_r = -10.0 ** draw(decade)
    d = PseudoRiemannData(n, R, rho_l, rho_r, u_r + 10.0 ** draw(decade), u_r)
    assume(xr._const_front(d).v0 < 0)
    return d


@given(inward_fronts())
@settings(max_examples=40, deadline=None)
def test_inward_fronts_reach_the_origin(d):
    front = xr._const_front(d)
    t_hit = d.R / -front.v0
    traj = so.integrate_front(closed_form_ivp(d, 1e-3 * t_hit), 1.5 * t_hit)
    assert traj.reached_origin
    assert traj.t_end == pytest.approx(t_hit, rel=1e-8)
    # the mass rate kappa1 = v [rho] - [rho u] amplifies the speed's error
    # by |[rho] v| / amp against the rate itself
    cond = 1.0 + abs(d.rho_r - d.rho_l) * -front.v0 / front.amp
    assert traj.mass[-1] == pytest.approx(front.mass(t_hit), rel=1e-8 * cond)


def test_mass_exhaustion_off_the_root_at_the_event_raises():
    # symmetric outflow drains m to 0 at t = 0.25 with the speed on the
    # root 0, but a denser right state moves the root for an instant around
    # that time: no stage of the step that crosses m = 0 samples the
    # instant, so the step is accepted and the check at the event raises
    def states(t, xi):
        return 1.0, -1.0, 2.0 if abs(t - 0.25) < 1e-3 else 1.0, 1.0

    ivp = so.FrontIVP(0.0, 1.0, 0.0, 0.5, states, 1)
    with pytest.raises(DomainError, match="strip mass vanished at t=0.25 "
                       "with incompatible fluxes"):
        so.integrate_front(ivp, 5.0)


# ---------------------------------------------------------------------------
# the benchmark's front ODE check (perfbench/workloads.py, read only)

def test_benchmark_front_ode_check_holds():
    # the benchmark's bounds are ODE_XI_RTOL = 1e-7, ODE_SIGMA_RTOL = 1e-6
    # and ODE_RESIDUAL_RTOL = 1e-10; stepped in the mass, these items reach
    # xi_err 2.1e-12 and sigma_err 3.3e-10 (2.8e-12 and 1.5e-9 over j < 2000
    # of seeds 1..10), where steps in sigma reached 2.9e-11 and 5.0e-9
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", path / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for seed in (1, 2, 3):
        for j in range(40):
            extra = workloads.front_ode_check(
                workloads.make_verify_item(seed, j))
            assert extra["xi_err"] <= 1e-11, (seed, j, extra)
            assert extra["sigma_err"] <= 2e-9, (seed, j, extra)
            assert extra["residual"] <= 1e-10, (seed, j, extra)
