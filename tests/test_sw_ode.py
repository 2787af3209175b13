import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import radialsw.exact_riemann as xr
import radialsw.sw_ode as so
from radialsw.core import (
    DomainError, PseudoRiemannData, SingularStartError,
    SingularTrajectoryError, kappa_fluxes,
)

WORKED = PseudoRiemannData(n=2, R=1.0, rho_l=1.0, rho_r=1.0, u_l=1.0, u_r=-1.0)
# the plan's constant-speed shadow front, valid up to t_in = 1
CONST_FRONT = xr.solve(WORKED, 1.0).phases[0].fronts[-1]


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
    states = fixed_states(2.0, 0.7, 2.0, 0.7)
    for n in (1, 2, 3):
        dsigma, dspeed = so.front_rhs(1.0, 2.0, 0.7, 1.5, states, n)
        assert dsigma == pytest.approx(-(n - 1) * 0.7 * 1.5 / 2.0, abs=1e-14)
        assert dspeed == 0.0


def test_rhs_one_dimensional_drops_geometry():
    states = fixed_states(3.0, 1.0, 1.0, -2.0)
    speed = 0.4
    k1, _ = kappa_fluxes(speed, 3.0, 1.0, 1.0, -2.0)
    dsigma, _ = so.front_rhs(0.3, 5.0, speed, 9.9, states, 1)
    assert dsigma == pytest.approx(k1, rel=1e-14)


def test_rhs_singular_start_off_root():
    states = fixed_states(1.0, 1.0, 1.0, -1.0)
    with pytest.raises(SingularStartError):
        so.front_rhs(0.0, 1.0, 0.5, 0.0, states, 2)  # root is 0
    dsigma, dspeed = so.front_rhs(0.0, 1.0, 0.0, 0.0, states, 2)
    assert dspeed == 0.0 and dsigma > 0


def test_ivp_sigma0_zero_needs_root_speed():
    states = fixed_states(1.0, 1.0, 1.0, -1.0)  # root speed 0
    with pytest.raises(SingularStartError):
        so.integrate_front(so.FrontIVP(0.0, 1.0, 0.5, 0.0, states, 2), 1.0)


def test_rhs_rejects_nonpositive_position():
    with pytest.raises(DomainError):
        so.front_rhs(0.0, 0.0, 0.0, 1.0, fixed_states(1, 0, 1, 0), 2)


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
    # outflow with the speed off every root: sigma -> 0 is singular
    states = fixed_states(4.0, -1.0, 1.0, 2.0)
    ivp = so.FrontIVP(0.0, 1.0, 0.5, 0.05, states, 1)
    with pytest.raises(SingularTrajectoryError):
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
