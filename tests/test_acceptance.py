"""Acceptance suite: one test per top-level claim, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` to get the per-claim report.
Two assertions in this file are expected to fail: the positivity of the
dissipation cubic at the slower algebraic root (it is identically
nonpositive), and dissipation-violation at every time along the
nonconstant-speed front (its cubic changes sign near t = 1.108).  Both
failures carry messages explaining why the asserted property cannot hold.
"""
import math
import time

import numpy as np
import pytest

import radialsw.exact_riemann as xr
import radialsw.oracle as orc
import radialsw.sw_ode as so
import radialsw.verify as verify
from radialsw.core import PseudoRiemannData, SHADOW_WAVE, surface_area

WORKED = PseudoRiemannData(n=2, R=1.0, rho_l=1.0, rho_r=1.0, u_l=1.0, u_r=-1.0)


def close(a, b, tol=1e-10):
    # relative where the target is O(1), absolute where it vanishes
    return abs(a - b) <= tol * max(1.0, abs(b))


def power_law_states(data):
    def states(t, xi):
        c = xi ** (1 - data.n)
        return data.rho_l * c, data.u_l, data.rho_r * c, data.u_r
    return states


# ---------------------------------------------------------------------------
# 1. the fully worked delta-shock datum and its closed-form constants

def test_worked_example_reports_exact_constants():
    budget = time.monotonic() + 1.0
    v0 = xr.first_root_speed(WORKED.rho_l, WORKED.u_l, WORKED.rho_r, WORKED.u_r)
    assert abs(v0) <= 1e-10
    t_in = xr.absorption_time(WORKED)
    assert close(t_in, 1.0)
    consts = xr.post_absorption(WORKED)
    xi_fn = consts.xi
    assert close(consts.C, 1.0) and abs(consts.D) <= 1e-10 and abs(consts.E) <= 1e-10
    for t in np.linspace(1.0, 4.0, 31):
        assert close(xi_fn(float(t)), -t + 2.0 * math.sqrt(t))
    plan = xr.solve(WORKED, 5.0)
    assert close(plan.events["t_in"], 1.0)
    assert close(plan.events["t_sw0"], 4.0)
    assert plan.m0(4.0 - 1e-9) == 0.0
    assert close(plan.m0(4.0), 8.0 * math.pi)
    assert time.monotonic() < budget


# ---------------------------------------------------------------------------
# 2. exact conservation of mass and momentum in every case

def test_mass_and_momentum_conserved_across_all_cases():
    """200 random data covering all six cases; drift checked on 20+ times
    that include every event and its flanks, domain truncated beyond the
    region of influence of the jump."""
    budget = time.monotonic() + 30.0
    rng = np.random.default_rng(20260823)

    def draw(kind):
        n = int(rng.integers(1, 4))
        R = float(rng.uniform(0.5, 2.0))
        u = lambda: float(rng.uniform(-2.0, 2.0))
        rho = lambda: float(rng.uniform(0.1, 4.0))
        if kind == 0:
            return PseudoRiemannData(n, R, 0.0, 0.0, u(), u())
        if kind == 1:
            return PseudoRiemannData(n, R, 0.0, rho(), u(), u())
        if kind == 2:
            return PseudoRiemannData(n, R, rho(), 0.0, u(), u())
        ur = float(rng.uniform(-2.0, 1.0))
        gap = float(rng.uniform(0.1, 3.0))
        if kind == 3:
            return PseudoRiemannData(n, R, rho(), rho(), ur + gap, ur)
        if kind == 4:
            return PseudoRiemannData(n, R, rho(), rho(), ur, ur + gap)
        return PseudoRiemannData(n, R, rho(), rho(), ur, ur)

    tags = set()
    for k in range(200):
        data = draw(k % 6)
        plan = xr.solve(data, 5.0)
        tags.add(plan.case)
        events = [t for t in plan.events.values() if np.isfinite(t)]
        T = max([5.0] + [1.05 * t for t in events])
        ts = np.linspace(0.0, T, 20)
        for e in events:
            ts = np.append(ts, [e * (1 - 1e-9), e, min(e * (1 + 1e-9), T)])
        ts = np.unique(np.clip(ts, 0.0, T))
        speed = max(abs(data.u_l), abs(data.u_r))
        r_max = data.R + (speed + 0.1) * T + 1.0
        pairs = [verify.conserved_pair(plan, float(t), r_max) for t in ts]
        Q0, M0 = pairs[0].Q, pairs[0].M
        dq = max(abs(p.Q - Q0) for p in pairs) / max(abs(Q0), 1e-300)
        dm = max(abs(p.M - M0) for p in pairs) / max(1.0, abs(M0))
        assert dq <= 1e-9, (data, dq)
        assert dm <= 1e-9, (data, dm)
    assert len(tags) == 6, tags
    assert time.monotonic() < budget


# ---------------------------------------------------------------------------
# 3. admissibility: the fast root dissipates, is overcompressive, and the
#    slow root sits outside the data interval

def test_entropy_selects_the_first_root():
    budget = time.monotonic() + 5.0
    rng = np.random.default_rng(8151623)
    second_vals = []
    for _ in range(1000):
        rho_l = float(rng.uniform(0.1, 4.0))
        rho_r = float(rng.uniform(0.1, 4.0))
        u_r = float(rng.uniform(-2.0, 1.0))
        u_l = u_r + float(rng.uniform(1e-3, 3.0))
        v1 = xr.first_root_speed(rho_l, u_l, rho_r, u_r)
        lhs1 = verify.entropy_lhs(rho_l, u_l, rho_r, u_r, v1)
        assert lhs1 <= 1e-12, (rho_l, rho_r, u_l, u_r, lhs1)
        assert verify.is_overcompressive(u_l, v1, u_r)
        v2 = xr.second_root_speed(rho_l, u_l, rho_r, u_r)
        if v2 is not None:
            assert not (u_r <= v2 <= u_l), (v2, u_r, u_l)
            second_vals.append(verify.entropy_lhs(rho_l, u_l, rho_r, u_r, v2))
    assert time.monotonic() < budget
    worst = max(second_vals)
    assert worst > 0.0, (
        "dissipation cubic at the slower root is never positive: largest of "
        "%d sampled values is %.6e.  Algebraically the cubic there equals "
        "-(u_l-u_r)^3*rho_l*rho_r/(sqrt(rho_r)-sqrt(rho_l))^2, which is "
        "strictly negative whenever the root is defined and u_l > u_r, so "
        "this positivity clause cannot hold for any admissible datum"
        % (len(second_vals), worst))


# ---------------------------------------------------------------------------
# 4. weak residuals of the strip family vanish as the strip narrows

def test_weak_residuals_vanish_with_strip_width():
    """Five delta-shock fixtures: fitted decay order >= 0.9 for mass and
    momentum over 6 halvings from 1e-2, and residuals against test
    functions supported in smooth regions stay below 1e-9 at every width."""
    budget = time.monotonic() + 60.0
    fixtures = [
        WORKED,
        PseudoRiemannData(1, 1.0, 2.0, 1.0, 0.5, -0.5),
        PseudoRiemannData(2, 1.5, 1.0, 2.0, 0.2, -1.0),
        PseudoRiemannData(3, 1.0, 1.0, 2.0, 1.0, -0.5),
        PseudoRiemannData(3, 1.0, 1.5, 1.5, 0.5, -0.7),
    ]
    for data in fixtures:
        plan = xr.solve(data, 5.0)
        phi = verify.default_test_function(plan)
        assert phi is not None
        report = verify.residual_ladder(plan, phi)
        assert len(report.eps) == 7 and report.eps[0] == pytest.approx(1e-2)
        for which, order in report.order.items():
            assert order >= 0.9, (data, which, order)
        # smooth-region control: support beyond every front at all times
        t_c, h_t = 0.4, 0.3
        xi_max = max(f.xi(float(t)) for t in np.linspace(0.0, t_c + h_t, 30)
                     for f in plan.phase_at(float(t)).fronts)
        phi_smooth = verify.TestFunction(r_c=xi_max + 0.305, t_c=t_c,
                                         h_r=0.25, h_t=h_t)
        for eps in report.eps:
            for which in ("mass", "momentum"):
                res = verify.weak_residual(plan, float(eps), phi_smooth, which)
                assert abs(res) <= 1e-9, (data, which, eps, res)
    assert time.monotonic() < budget


# ---------------------------------------------------------------------------
# 5. the front ODE reproduces the closed forms and the constant-speed law

def test_front_ode_matches_closed_forms():
    budget = time.monotonic() + 30.0
    # sigma stays positive on these windows; the final 5% before the origin
    # hit is excluded because sigma -> 0 makes the reduced ODE singular
    W = WORKED
    A = PseudoRiemannData(2, 1.0, 4.0, 1.0, 0.0, -1.0)   # absorbs exactly at the origin
    B = PseudoRiemannData(3, 2.0, 1.0, 4.0, 1.0, 0.0)    # never reaches the origin

    def check_const(data, t_hi):
        v0 = xr.first_root_speed(data.rho_l, data.u_l, data.rho_r, data.u_r)
        closed = xr.solve(data, 1.0).phases[0].fronts[-1]
        ivp = so.FrontIVP(t0=0.0, xi0=data.R, speed0=None, sigma0=0.0,
                          outer_states=power_law_states(data), n=data.n)
        front = so.integrate_front(ivp, t_hi, tol=1e-12, atol=1e-14)
        for t in np.linspace(1e-3, t_hi, 40):
            xi, _, sigma = front(float(t))
            assert abs(xi - (data.R + v0 * t)) <= 1e-8
            assert abs(sigma - closed.sigma(float(t))) <= 1e-8

    check_const(W, xr.absorption_time(W))
    check_const(A, 0.95 * xr.solve(A, 1.0).events.get("t_sw0"))
    check_const(B, xr.absorption_time(B))

    def check_post(data):
        t_in = xr.absorption_time(data)
        sw = xr.post_absorption(data)
        xi_fn, sigma_fn = sw.xi, sw.sigma
        t_sw0 = xr.solve(data, 1.0).events.get("t_sw0")
        t_hi = t_in + 0.95 * (t_sw0 - t_in) if t_sw0 is not None else 10.0
        states = lambda t, xi: (0.0, 0.0,
                                data.rho_r * xi ** (1 - data.n), data.u_r)
        ivp = so.FrontIVP(t0=t_in, xi0=sw.xi(t_in), speed0=sw.speed(t_in),
                          sigma0=sw.sigma(t_in), outer_states=states, n=data.n)
        front = so.integrate_front(ivp, t_hi, tol=1e-12, atol=1e-14)
        for t in np.linspace(t_in, t_hi, 40):
            xi, _, sigma = front(float(t))
            assert abs(xi - xi_fn(float(t))) <= 1e-8
            assert abs(sigma - sigma_fn(float(t))) <= 1e-8

    check_post(W)
    check_post(B)

    # constant-speed property on 100 random delta-shock data
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        R = float(rng.uniform(0.5, 2.0))
        rho_l, rho_r = (float(x) for x in rng.uniform(0.1, 4.0, 2))
        u_r = float(rng.uniform(-2.0, 1.0))
        u_l = u_r + float(rng.uniform(0.1, 3.0))
        data = PseudoRiemannData(n, R, rho_l, rho_r, u_l, u_r)
        v0 = xr.first_root_speed(rho_l, u_l, rho_r, u_r)
        t_hi = 1.0 if v0 >= 0 else min(1.0, 0.8 * R / -v0)
        ivp = so.FrontIVP(t0=0.0, xi0=R, speed0=None, sigma0=0.0,
                          outer_states=power_law_states(data), n=n)
        front = so.integrate_front(ivp, t_hi)
        for t in np.linspace(0.05 * t_hi, t_hi, 12):
            assert abs(front(float(t))[1] - v0) <= 1e-6, (data, t)
    assert time.monotonic() < budget


# ---------------------------------------------------------------------------
# 6. the nonconstant-speed front: closed forms solve the ODE but violate
#    dissipation only at small times

def test_nonconstant_speed_front_closed_forms():
    budget = time.monotonic() + 5.0
    grid = np.linspace(0.1, 5.0, 200)
    res1, res2 = so.ode_residual(
        so.nonentropic_example, so.nonentropic_outer_states, 2, grid,
        derivatives=so.nonentropic_derivatives)
    assert res1 <= 1e-8 and res2 <= 1e-8, (res1, res2)

    ts = np.linspace(0.05, 5.0, 100)
    xi, xi_dot, sigma, rho_l, u_l = so.nonentropic_example(ts)
    assert np.all(sigma > 0.0)
    assert np.all(rho_l >= 0.0)

    xi1, xd1, _, _, ul1 = so.nonentropic_example(np.array([1.0]))
    assert abs(float(ul1[0]) + 0.235702) <= 1e-6
    assert abs(float(xd1[0]) - 0.530330) <= 1e-6
    assert time.monotonic() < budget

    lhs = np.array([verify.entropy_lhs(float(rho_l[k]), float(u_l[k]),
                                       1.0 / float(xi[k]), 0.0,
                                       float(xi_dot[k]))
                    for k in range(ts.size)])
    neg = int(np.count_nonzero(lhs <= 0.0))
    assert np.all(lhs > 0.0), (
        "dissipation cubic along this front is positive only before its "
        "root: it changes sign at t = 1.1075479480600738 and is negative "
        "at %d of %d sampled times, so positivity over all of (0, 5] "
        "cannot hold" % (neg, ts.size))


# ---------------------------------------------------------------------------
# 7. sticky-particle oracle converges to the exact front

def test_sticky_particle_oracle_converges():
    budget = time.monotonic() + 120.0
    plan = xr.solve(WORKED, 5.0)
    times = (0.5, 2.0, 3.9)
    errors = {t: [] for t in times}
    for N in (1000, 10000, 40000):
        ps = orc.discretize(WORKED, N, 5.3)
        for t in times:
            ps.run_until(t)
            pos, _ = orc.front_extract(ps)
            xi = [f.xi(t) for f in plan.phase_at(t).fronts
                  if f.kind == SHADOW_WAVE][0]
            errors[t].append(abs(pos - xi))
        ps.run_until(4.2)
        hit = orc.largest_absorption_time(ps)
        assert abs(hit - 4.0) <= 0.05, (N, hit)
        m0_rel = abs(ps.m0 - plan.m0(4.2)) / plan.m0(4.2)
        assert m0_rel <= 0.02, (N, m0_rel)
    for t in times:
        e = errors[t]
        assert e[0] > e[1] > e[2], (t, e)
        assert e[1] <= 0.02 * WORKED.R, (t, e[1])
    assert time.monotonic() < budget


# ---------------------------------------------------------------------------
# 8. one-dimensional reduction: constant speed and linear front mass

def test_one_dimensional_reduction_is_classical():
    budget = time.monotonic() + 5.0
    rng = np.random.default_rng(11)
    for _ in range(100):
        R = float(rng.uniform(0.5, 2.0))
        rho_l, rho_r = (float(x) for x in rng.uniform(0.1, 4.0, 2))
        u_l = float(rng.uniform(-1.5, 0.0))
        u_r = u_l - float(rng.uniform(0.1, 2.0))
        data = PseudoRiemannData(1, R, rho_l, rho_r, u_l, u_r)
        plan = xr.solve(data, 5.0)
        assert "t_in" not in plan.events
        v0 = xr.first_root_speed(rho_l, u_l, rho_r, u_r)
        kappa1 = v0 * (rho_r - rho_l) - (rho_r * u_r - rho_l * u_l)
        t_sw0 = plan.events["t_sw0"]
        for frac in (0.15, 0.4, 0.65, 0.9):
            t = frac * min(t_sw0, 10.0)
            f = [f for f in plan.phase_at(t).fronts if f.kind == SHADOW_WAVE][0]
            assert f.speed(t) == v0
            scale = max(1.0, abs(kappa1 * t))
            assert abs(f.sigma(t) - kappa1 * t) <= 1e-12 * scale, (data, t)
    assert time.monotonic() < budget
