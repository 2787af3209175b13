import hashlib
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import radialsw.exact_riemann as xr
from grid_strategies import sampled_plans
from radialsw.core import (
    ALL_VACUUM, CASE_CONTACT, CASE_KINDS, DELTA_SHOCK, SHADOW_WAVE, VACUUM_FAN,
    VACUUM_LEFT_SHOCK, VACUUM_RIGHT_SHOCK, DomainError, PseudoRiemannData,
    kappa_fluxes, surface_area,
)

WORKED = PseudoRiemannData(n=2, R=1.0, rho_l=1.0, rho_r=1.0, u_l=1.0, u_r=-1.0)


def data(n=2, R=1.0, rho_l=1.0, rho_r=1.0, u_l=1.0, u_r=-1.0):
    return PseudoRiemannData(n=n, R=R, rho_l=rho_l, rho_r=rho_r,
                             u_l=u_l, u_r=u_r)


dims = st.integers(min_value=1, max_value=3)
radii = st.floats(min_value=0.5, max_value=2.0)
rhos = st.floats(min_value=0.1, max_value=4.0)
vels = st.floats(min_value=-2.0, max_value=2.0)
gaps = st.floats(min_value=0.1, max_value=3.0)


@st.composite
def delta_shock_data(draw, u_l_sign=None):
    """Random DeltaShock datum; u_l_sign > 0 forces absorption, < 0 forbids it."""
    n = draw(dims)
    R = draw(radii)
    rl, rr = draw(rhos), draw(rhos)
    if u_l_sign is None:
        ur = draw(vels)
        ul = ur + draw(gaps)
    elif u_l_sign > 0:
        ul = draw(st.floats(min_value=0.1, max_value=2.0))
        ur = ul - draw(gaps)
    else:
        ul = draw(st.floats(min_value=-2.0, max_value=0.0))
        ur = ul - draw(gaps)
    return data(n, R, rl, rr, ul, ur)


# ---------------------------------------------------------------------------
# classify

kind_rhos = st.sampled_from([0.0, 0.5, 2.0])
kind_vels = st.sampled_from([-1.0, 0.0, 1.5])


@given(st.builds(data, dims, radii, kind_rhos, kind_rhos, kind_vels, kind_vels))
@settings(max_examples=100, deadline=None)
@example(data(rho_l=0.0, rho_r=0.0))
@example(data(rho_l=0.0))
@example(data(rho_r=0.0))
@example(data(u_l=1.0, u_r=1.0))
@example(data(u_l=-1.0, u_r=1.0))
@example(WORKED)
def test_classify_is_the_plan_case(d):
    # the six @example data are one datum of each case kind
    assert xr.classify(d) == xr.solve(d, 1.0).case

def test_classify_fan_contact_delta():
    assert xr.classify(data(u_l=-1.0, u_r=1.0)) == VACUUM_FAN
    assert xr.classify(data(u_l=1.0, u_r=1.0)) == CASE_CONTACT
    assert xr.classify(WORKED) == DELTA_SHOCK


def test_classify_vacuum_sides():
    assert xr.classify(data(rho_l=0.0, rho_r=0.0)) == ALL_VACUUM
    assert xr.classify(data(rho_l=0.0, u_r=-1.0)) == VACUUM_LEFT_SHOCK
    assert xr.classify(data(rho_r=0.0, u_l=-1.0)) == VACUUM_RIGHT_SHOCK


# ---------------------------------------------------------------------------
# root speeds

def test_first_root_speed_examples():
    assert xr.first_root_speed(1, 1, 1, -1) == 0.0
    assert xr.first_root_speed(4, 0, 1, -1) == pytest.approx(-1 / 3, abs=1e-15)
    assert xr.first_root_speed(0, 7, 1, -1) == -1.0
    # u1 sqrt(rho1) = 1e450: the speed read inf, though it is u1
    assert xr.first_root_speed(0.0, -1e-8, 1e300, 1e300) == 1e300
    assert xr.first_root_speed(1e300, 1e300, 1e300, 1e300) == 1e300
    assert xr.first_root_speed(1e300, 1e300, 1e300, -1e300) == 0.0


def test_first_root_speed_degenerate():
    with pytest.raises(DomainError, match="both densities vanish"):
        xr.first_root_speed(0.0, 1.0, 0.0, 2.0)
    with pytest.raises(DomainError):
        xr.first_root_speed(-1.0, 0.0, 1.0, 0.0)


def test_second_root_speed_examples():
    assert xr.second_root_speed(4, 0, 1, 1) == pytest.approx(-1.0)
    assert xr.second_root_speed(1, 0.3, 1, 1.7) is None
    assert xr.second_root_speed(1, 1, 4, 1) == pytest.approx(1.0)
    assert xr.second_root_speed(4, 1, 16, 3) == 5.0
    with pytest.raises(DomainError, match="densities must be >= 0"):
        xr.second_root_speed(1.0, 0.0, -1.0, 0.0)


def test_const_front_amp_where_the_density_product_is_not_normal():
    # rho_l rho_r = 1e-340 underflowed to 0, and 1e600 overflowed
    front = xr._const_front(data(rho_l=1e-170, rho_r=1e-170))
    assert front.amp == pytest.approx(2e-170, rel=1e-15)
    front = xr._const_front(data(rho_l=1e300, rho_r=1e300, u_l=1e-8))
    assert front.amp == pytest.approx(1.00000001e300, rel=1e-15)
    with pytest.raises(DomainError, match="front amplitude"):
        xr._const_front(data(rho_l=1e300, rho_r=1e300, u_l=1e300))


@given(rhos, vels, rhos, vels)
@settings(max_examples=300, deadline=None)
def test_first_root_is_convex_combination(rho0, u0, rho1, u1):
    v = xr.first_root_speed(rho0, u0, rho1, u1)
    assert min(u0, u1) - 1e-12 <= v <= max(u0, u1) + 1e-12


# ---------------------------------------------------------------------------
# constant-speed closed forms

def const_front(d):
    """The plan's constant-speed shadow front, valid on its first phase."""
    front = xr.solve(d, 1.0).phases[0].fronts[-1]
    assert isinstance(front, xr.ConstSpeedSW)
    return front


def test_sigma_const_values():
    assert const_front(WORKED).sigma(1.0) == pytest.approx(2.0, rel=1e-14)
    assert const_front(WORKED).sigma(0.0) == 0.0
    # n = 1 kills the geometric factor: sigma = kappa1 * t.  Checked up to
    # the end of the constant-speed phase (u_l = 1 data absorbs at t_in = 1)
    # and on a datum without absorption.
    assert const_front(data(n=1)).sigma(1.0) == pytest.approx(2.0, rel=1e-14)
    d1 = data(n=1, rho_l=4.0, rho_r=1.0, u_l=0.0, u_r=-1.0)
    assert const_front(d1).sigma(2.0) == pytest.approx(4.0, rel=1e-14)


@given(delta_shock_data(u_l_sign=+1))
@settings(max_examples=150, deadline=None)
def test_sigma_at_absorption_matches_left_mass(d):
    # sigma(t_in) = R sqrt(rho_l)(sqrt(rho_l)+sqrt(rho_r)) xi(t_in)^{1-n}
    t_in = xr.absorption_time(d)
    v0 = xr.first_root_speed(d.rho_l, d.u_l, d.rho_r, d.u_r)
    xi = d.R + v0 * t_in
    assume(xi > 1e-3)
    want = d.R * math.sqrt(d.rho_l) * (math.sqrt(d.rho_l) + math.sqrt(d.rho_r))
    got = const_front(d).sigma(t_in) * xi ** (d.n - 1)
    assert got == pytest.approx(want, rel=1e-9)


def test_absorption_time_examples():
    assert xr.absorption_time(WORKED) == pytest.approx(1.0)
    d = data(n=3, R=2.0, rho_l=1.0, rho_r=4.0, u_l=1.0, u_r=0.0)
    assert xr.absorption_time(d) == pytest.approx(3.0)
    assert xr.absorption_time(data(u_l=0.0, u_r=-1.0)) is None
    with pytest.raises(DomainError, match="not a delta shock"):
        xr.absorption_time(data(u_l=0.5, u_r=0.5))  # a contact


def test_post_absorption_worked_constants():
    consts = xr.post_absorption(WORKED)
    xi, sigma = consts.xi, consts.sigma
    assert (consts.C, consts.D, consts.E) == (1.0, 0.0, 0.0)
    for t in (1.0, 2.0, 3.0):
        assert xi(t) == pytest.approx(-t + 2 * math.sqrt(t), rel=1e-14)
        assert sigma(t) == pytest.approx(
            2 * math.sqrt(t) / (2 * math.sqrt(t) - t), rel=1e-13)
    # continuity with the constant-speed stretch at t_in = 1
    assert xi(1.0) == pytest.approx(1.0)
    assert sigma(1.0) == pytest.approx(2.0)


def test_post_absorption_equal_densities_kill_constants():
    d = data(n=3, R=1.7, rho_l=2.5, rho_r=2.5, u_l=0.9, u_r=-0.4)
    consts = xr.post_absorption(d)
    assert consts.D == 0.0 and consts.E == 0.0


def test_post_absorption_precondition():
    with pytest.raises(DomainError, match="no finite absorption time"):
        xr.post_absorption(data(u_l=0.0, u_r=-1.0))


def test_underflowing_absorption_time_raises_domain_error():
    # t_in = 1e-259 * ... / 2e86 underflows to 0, where C t + D = D < 0:
    # the front's sqrt(Ct+D) is undefined at its own start
    d = data(n=1, R=1e-259, rho_l=3e64, rho_r=5e89, u_l=2e86, u_r=-6e-63)
    assert xr.absorption_time(d) == 0.0
    for build in (xr.post_absorption, lambda d: xr.solve(d, 1.0)):
        with pytest.raises(DomainError, match="post-absorption constants"):
            build(d)


def test_absorption_where_the_products_overflow():
    # R (b + a) = 2e310 read t_in = inf, and R rho_l (u_l - u_r) = 2e320
    # read C = 0: the plan held one unending phase
    d = data(n=1, R=1e300, rho_l=1e20, rho_r=1e20, u_l=1.0, u_r=-1.0)
    assert xr.absorption_time(d) == pytest.approx(1e300, rel=1e-15)
    assert xr.post_absorption(d).C == pytest.approx(1e-300, rel=1e-15)
    plan = xr.solve(d, 1e301)
    assert plan.events["t_in"] == pytest.approx(1e300, rel=1e-15)
    assert isinstance(plan.phases[1].fronts[0], xr.PostAbsorptionSW)
    # b (u_l - u_r) = 5e360 read t_in = inf / inf = nan, where
    # t_in = (R / (u_l - u_r)) (1 + a / b) = 5.7e-47
    d = data(n=1, R=3e172, rho_l=5.7e-272, rho_r=1e284, u_l=5e218,
             u_r=5e-262)
    want = d.R / (d.u_l - d.u_r) * (1.0 + math.sqrt(d.rho_l / d.rho_r))
    assert xr.absorption_time(d) == pytest.approx(want, rel=1e-15)


def test_post_absorption_where_the_product_of_C_underflows():
    # R rho_l (u_l - u_r) = 2e-330 rounded to 0: solve raised
    # ZeroDivisionError, where C = 1e230 and the plan absorbs at t_in
    d = data(n=1, R=1e-200, rho_l=1e-100, rho_r=1e-100, u_l=1e-30,
             u_r=-1e-30)
    assert xr.post_absorption(d).C == pytest.approx(1e230, rel=1e-15)
    plan = xr.solve(d, 1e-169)
    assert plan.events["t_in"] == pytest.approx(1e-170, rel=1e-15)
    assert isinstance(plan.phases[1].fronts[-1], xr.PostAbsorptionSW)


def test_origin_hit_time_examples():
    t_sw0 = xr.solve(WORKED, 1.0).events.get("t_sw0")
    assert t_sw0 == pytest.approx(4.0, rel=1e-12)
    d = data(n=3, R=1.0, rho_l=1.0, rho_r=4.0, u_l=0.0, u_r=-1.0)
    assert xr.solve(d, 1.0).events.get("t_sw0") == pytest.approx(1.5, rel=1e-14)
    assert xr.solve(data(u_l=2.0, u_r=1.0), 1.0).events.get("t_sw0") is None


def test_origin_hit_time_on_cancellation_datum():
    # 1 - u_r (CE - u_r D) cancels here; the 50-digit root is 1336092.99074064172
    d = PseudoRiemannData(n=1, R=1.0860149515803998, rho_l=6111.177244764253,
                          rho_r=0.0004025373404174065,
                          u_l=0.0003356826261201586, u_r=-0.09107621258671562)
    t_sw0 = xr.solve(d, 1.0).events.get("t_sw0")
    assert t_sw0 == pytest.approx(1336092.99074064172, rel=1e-12)


def test_origin_hit_time_beyond_float_range_is_none():
    d = data(u_l=1.0, u_r=-5e-324)
    assert xr.solve(d, 1.0).events.get("t_sw0") is None
    # R (sqrt(rho_r) + sqrt(rho_l)) = inf: t_in is infinite
    d = data(R=1e300, rho_l=1e300, rho_r=1e-300)
    assert xr.absorption_time(d) == math.inf
    assert xr.solve(d, 1.0).events.get("t_sw0") is None


def test_post_absorption_times_at_matches_xi():
    f = xr.solve(data(u_l=2.0, u_r=-0.5), 20.0).phases[1].fronts[0]
    assert isinstance(f, xr.PostAbsorptionSW)
    # xi rises to its maximum 2.5 at t = 5, then falls to 0 at t = 20
    ts = f.times_at(2.0, 0.8, 20.0)
    assert len(ts) == 2 and ts[0] < 5.0 < ts[1]
    for t in ts:
        assert f.xi(t) == pytest.approx(2.0, rel=1e-14)
    assert f.times_at(2.0, 0.8, 5.0) == ts[:1]
    assert f.times_at(2.6, 0.8, 20.0) == []
    assert f.times_at(0.0, 0.8, math.inf) == [pytest.approx(20.0, rel=1e-14)]
    # u_r = 0: xi = 2 sqrt(t) has one root, c/q
    f = xr.post_absorption(data(1, 1.0, 1.0, 1.0, 2.0, 0.0))
    assert f == xr.PostAbsorptionSW(u_r=0.0, C=1.0, D=0.0, E=0.0, rho_r=1.0, n=1)
    assert f.times_at(f.xi(7.0), 1.0, 20.0) == [pytest.approx(7.0, rel=1e-14)]


magnitudes = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e)


@given(st.integers(1, 4), magnitudes, magnitudes, magnitudes, magnitudes,
       magnitudes, st.sampled_from([-1.0, 0.0, 1.0]))
@settings(max_examples=300, deadline=None)
def test_post_absorption_turns_inward_at_t_turn(n, R, rho_l, rho_r, u_l,
                                                mag, sign):
    u_r = sign * mag if sign <= 0 else u_l * mag / (1 + mag)  # u_r < u_l
    f = xr.post_absorption(data(n, R, rho_l, rho_r, u_l, u_r))
    if u_r >= 0:
        assert f.t_turn is None
        return
    t = f.t_turn
    # rounding u_r^-2 - D and adding D back scales the error with |D| u_r^2
    ulps = abs(u_r) * sys.float_info.epsilon * (1 + abs(f.D) * u_r ** 2)
    assert abs(f.speed(t)) <= 4 * ulps
    h = 1e-3 * u_r ** -2 / f.C   # C t + D moves by 1e-3 of u_r^-2
    assert f.speed(t - h) > 0 > f.speed(t + h)


def test_t_turn_beyond_float_range_is_none():
    # u_r^-2 = 1e400 raised OverflowError
    assert xr.post_absorption(data(u_l=1.0, u_r=-1e-200)).t_turn is None


@st.composite
def plans_over_decades(draw):
    """A plan of any case kind, n = 1..4, with R, densities and speeds over
    decades; gas on both sides four times in seven."""
    decade = st.floats(min_value=-1.0, max_value=1.0)
    speed = st.tuples(st.sampled_from([-1.0, 1.0]), decade).map(
        lambda v: v[0] * 10.0 ** (2 * v[1]))
    gas = draw(st.sampled_from(["lr"] * 4 + ["l", "r", ""]))
    rho_l, rho_r = (10.0 ** (3 * draw(decade)) if side in gas else 0.0
                    for side in "lr")
    return xr.solve(data(draw(st.integers(1, 4)), 10.0 ** (2 * draw(decade)),
                         rho_l, rho_r, draw(speed), draw(speed)), 1.0)


@given(plans_over_decades(), st.lists(st.floats(0.01, 0.99), min_size=1,
                                      max_size=12))
@settings(max_examples=200, deadline=None)
def test_front_paths_take_arrays_with_float_bits(plan, fractions):
    # xi, speed and mass are + - * / and sqrt, which numpy rounds like math;
    # sigma keeps Python's float power per time, which numpy's differs from
    for ph in plan.phases:
        end = ph.t_end if math.isfinite(ph.t_end) else 2 * ph.t_start + 1.0
        ts = ph.t_start + (end - ph.t_start) * np.array(fractions)
        ts = ts.reshape(1, -1)
        for f in ph.fronts:
            for path in (f.xi, f.speed, f.mass, f.sigma):
                got = path(ts)
                want = np.array([path(t) for t in ts.ravel().tolist()])
                assert isinstance(got, np.ndarray) and got.shape == ts.shape
                assert got.ravel().view(np.int64).tolist() == \
                    want.view(np.int64).tolist()
            if f.kind != SHADOW_WAVE:
                continue
            # sigma = mass xi^{1-n} keeps the bits of its closed form
            for t in ts.ravel().tolist():
                if isinstance(f, xr.ConstSpeedSW):
                    want = f.amp * t * f.xi(t) ** (1 - f.n)
                else:
                    want = ((2.0 * f.rho_r / f.C) * math.sqrt(f.C * t + f.D)
                            * f.xi(t) ** (1 - f.n))
                assert f.sigma(t).hex() == want.hex()


# ---------------------------------------------------------------------------
# origin mass

def test_origin_mass_vacuum_fan():
    plan = xr.solve(data(u_l=-1.0, u_r=1.0), 4.0)
    for t in (0.25, 0.5, 0.99):
        assert plan.m0(t) == pytest.approx(2 * math.pi * t, rel=1e-13)
    for t in (1.0, 2.5, 4.0):
        assert plan.m0(t) == pytest.approx(2 * math.pi, rel=1e-13)


def test_origin_mass_front_dump():
    d = data(n=3, R=1.0, rho_l=1.0, rho_r=4.0, u_l=0.0, u_r=-1.0)
    plan = xr.solve(d, 3.0)
    assert plan.m0(0.0) == 0.0
    assert plan.m0(1.49) == 0.0
    assert plan.m0(1.5) == pytest.approx(12 * math.pi, rel=1e-12)
    # post-dump inflow of the right state: S rho_r (-u_r) = 16 pi
    assert plan.m0(2.0) == pytest.approx(12 * math.pi + 16 * math.pi * 0.5,
                                         rel=1e-12)
    with pytest.raises(DomainError):
        plan.m0(-1.0)


# ---------------------------------------------------------------------------
# solve: plan structure

def test_solve_contact_single_front():
    plan = xr.solve(data(u_l=0.5, u_r=0.5), 5.0)
    assert plan.case == CASE_CONTACT
    ph = plan.phase_at(1.0)
    fronts = [f for f in ph.fronts if f.kind == "Contact"]
    assert len(fronts) == 1
    f = fronts[0]
    assert f.xi(2.0) == pytest.approx(1.0 + 0.5 * 2.0)
    assert f.sigma(2.0) == 0.0


def test_solve_worked_example_structure():
    plan = xr.solve(WORKED, 6.0)
    assert plan.events["t_in"] == pytest.approx(1.0)
    assert plan.events["t_sw0"] == pytest.approx(4.0)
    assert len(plan.phases) == 3
    ph0, ph1, ph2 = plan.phases
    assert (ph0.t_start, ph0.t_end) == (0.0, plan.events["t_in"])
    # interior vacuum edge rides at u_l
    edge, sw = ph0.fronts
    assert edge.kind == "VacuumEdge" and edge.xi(0.5) == pytest.approx(0.5)
    assert sw.kind == SHADOW_WAVE and sw.xi(0.5) == pytest.approx(1.0)
    post = ph1.fronts[0]
    assert post.xi(2.0) == pytest.approx(-2.0 + 2 * math.sqrt(2.0), rel=1e-14)
    assert ph2.fronts == ()
    assert ph2.m0_start == pytest.approx(8 * math.pi, rel=1e-12)
    assert ph2.m0_slope == pytest.approx(2 * math.pi, rel=1e-12)
    for t_max in (0.0, -1.0):
        with pytest.raises(DomainError, match="t_max must be positive"):
            xr.solve(WORKED, t_max)


def test_solve_all_vacuum():
    plan = xr.solve(data(rho_l=0.0, rho_r=0.0), 2.0)
    assert plan.case == ALL_VACUUM
    assert plan.phases[0].fronts == ()
    assert plan.m0(1.5) == 0.0
    s = xr.evaluate(plan, 0.7, 1.0)
    assert s.is_vacuum and s.rho == 0.0


# The sha256 of repr((plan.phases, plan.events)) pins every front, region,
# event and m0/p0 ledger start and slope bit for bit (plan.txt omits the
# ledger starts and p0).  One datum per branch of the six case kinds: the
# signs of u_l and u_r, absorb-then-dump, absorb-no-hit, inflow-hit, an
# infinite t_in and a dump beyond float range, over n = 1..4.
PLAN_DIGESTS = [
    ((1, 1.0, 0.0, 0.0, -1.0, -2.0),
     "725c7e17924de6020e0bfd8da018f21cd6ff210d62acee8f30149248bcf48305"),
    ((3, 2.0, 0.0, 0.0, 1.0, 0.5),
     "725c7e17924de6020e0bfd8da018f21cd6ff210d62acee8f30149248bcf48305"),
    ((2, 1.0, 0.0, 2.0, 0.0, -0.5),
     "e8511f693f5fd5c06f3bdbc317a69e55635eab6f341b258df126bf3cbe12d47a"),
    ((1, 1.5, 0.0, 0.3, 0.0, 0.0),
     "182ca0e37ffdd0d636426beba039c96b25bfaacb6263092cd1058d1e637f0770"),
    ((4, 0.7, 0.0, 1.0, 1.0, 2.0),
     "cdddd52a14e00a4266695a03d05befa74d95c68ce7f07becb14a5f47a4628fca"),
    ((3, 1.0, 2.0, 0.0, -0.75, 0.0),
     "211e1ef6d4c9009357ec4ef996e1d9a12ff3fa30526a2b3bb7cb054f6d12d6e6"),
    ((2, 1.0, 2.0, 0.0, 0.0, 0.0),
     "95719a301bcaa1d36b1a5a1a08e5d3f328611f82e4097b527f121f411dc60032"),
    ((1, 3.0, 0.5, 0.0, 1.25, 0.0),
     "013aaa83fe32dd9dd88d1b46906b35b848a381479a3c1c81810b9a08c46da60f"),
    ((2, 1.0, 1.0, 3.0, -0.4, -0.4),
     "faa4cf272852feaad5a4ce408aa870a19dd3748300201356b52b20aef650021e"),
    ((4, 1.0, 1.0, 3.0, 0.0, 0.0),
     "a81a01b7804cdf9d98f840df60326b235b2a5af1c5ee2bd5f334d6580773b856"),
    ((3, 1.0, 0.5, 3.0, -0.0, -0.0),
     "bcca0e20f1806e5a0f91e088448414d5397d1195becab60f75a366d16e733470"),
    ((1, 0.1, 1.0, 3.0, 2.0, 2.0),
     "f0b4c17a97ff8296840f6386c4406e460f3b91d17bc921cfcc56169b2610645f"),
    ((2, 1.0, 1.0, 2.0, -2.0, -0.5),
     "4eac344aa605b126e6cd11888bbb7c942b33272270322e90770653427455aebd"),
    ((3, 1.0, 1.0, 2.0, -2.0, 0.0),
     "b6b8144c758320b874faa832ecee7b4abdf636d4de425229c7da58f2fc7fc186"),
    ((1, 1.0, 1.0, 2.0, -1.0, 1.0),
     "f4eb21782e7e9b03e124ac92374f58d6b789941f1c1e8fccdc00b1f145eb3cb8"),
    ((4, 1.0, 1.0, 2.0, 0.0, 1.0),
     "2e9d232232a0dad327409733f92c291ad7861976727c4c17e27f5b2df19c9199"),
    ((2, 5.0, 1.0, 2.0, 0.5, 1.5),
     "fe858b687ced17fd9a9f2abb37bb3120ed154c1dddb20aee5b0a96a26f7aeae8"),
    ((2, 1.0, 1.0, 1.0, 1.0, -1.0),
     "a30a6e6b7446a186fb053aedebde61d0118ff9536f9a289b3ab69102e4116a22"),
    ((3, 1.0, 1.0, 4.0, 0.5, -2.0),
     "b7a7f3700474afce6ee7f27969275ef58b6e173e2d1b74fd9018702669be4e51"),
    ((1, 1.0860149515803998, 6111.177244764253, 0.0004025373404174065,
      0.0003356826261201586, -0.09107621258671562),
     "e9ab6bb0901184d9480d588d3982d97115468c7fb42ea958821beb40de4904dc"),
    ((3, 0.8, 1.9, 0.45, 0.6, -1.3),
     "f870772b300233c3fa58fe906e74037b85abd22647b47e18ca5bc8aa61ea46a7"),
    ((4, 2.0, 1.0, 4.0, 1.0, 0.0),
     "03b7b0fb433bdc03a9f26087086929c0c6fe93b62440f9e96a15cbd350389ea9"),
    ((2, 1.0, 3.0, 0.5, 2.0, 0.5),
     "ad80802add5d7c19f1db5d1d4305e10a38958e28fb3159b42491aad62f9c6a6b"),
    ((3, 1.0, 1.0, 4.0, 0.0, -1.0),
     "0d3b3ca43d1915c7297395f36edb927d51a910348bf3079f7cd71b8946ab7daf"),
    ((1, 2.0, 0.2, 5.0, -0.5, -1.5),
     "1d90460f1f68230f472c8e5d8b8cf6b3a3c5bbaf41949df148d78290b832cdba"),
    ((4, 1.0, 9.0, 1.0, -1.0, -3.0),
     "df596e739b3eb466c7fe9419faff466ccbbfecfa36bf95f061904d27253fd197"),
    ((2, 1.3, 0.7, 2.9, -0.3, -1.7),
     "46781efe74cb3f1eb149cc65b399670e353a03741823b94131e9e07446233b7d"),
    ((3, 1.1, 2.3, 0.6, 0.0, -0.7),
     "a7cca9fcd80ebeec89809c1bf53023169254fbdad93a08ced3b4573084208b59"),
    ((2, 1.0, 1.0, 1.0, 5e-324, 0.0),
     "4214c501c5f96b01d97a74001706cf72db8d211c13fd95d88a199bae7a75959b"),
    ((2, 1e10, 1.0, 1.0, 1e-300, -1e-300),
     "50ebd3899f57641d65eafa112bd78f13ae86c5bb44cf9044c7bcb1998a870936"),
    ((2, 1.0, 1.0, 1.0, 1.0, -5e-324),
     "5f7e356a34159be94563cba985bdfc7361153c17b7f1e2df6e1f4593ac430b2c"),
]


@pytest.mark.parametrize("d, digest", PLAN_DIGESTS,
                         ids=[repr(d) for d, _ in PLAN_DIGESTS])
def test_plan_matches_golden_digest(d, digest):
    plan = xr.solve(data(*d), 10.0)
    text = repr((plan.phases, plan.events))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("d, events", [
    ((1, 1.0, 0.0, 1.0, 0.0, -5e-324), {}),                      # VacuumLeftShock
    ((1, 1.0, 1.0, 1.0, -1.0, -5e-324), {"t_origin_left": 1.0}),  # VacuumFan
    ((1, 1.0, 1.0, 1.0, -5e-324, -5e-324), {}),                  # Contact
    ((1, 1.0, 1.0, 0.0, -5e-324, 0.0), {}),                      # VacuumRightShock
])
def test_origin_time_beyond_float_range_is_never(d, events):
    # -R/u overflows for a subnormal u: the front never reaches the origin
    plan = xr.solve(data(*d), 10.0)
    assert plan.events == events
    last = plan.phases[-1]
    assert last.t_end == math.inf and len(last.fronts) == 1
    assert last.fronts[0].xi(10.0) == 1.0


def test_origin_event_at_phase_start_ends_no_phase():
    # -R/u_r underflows to 0: the shock reaches the origin at once
    plan = xr.solve(data(1, 5e-324, 0.0, 5e-324, 0.0, -2.0), 10.0)
    assert plan.case == VACUUM_LEFT_SHOCK
    assert plan.events == {"t_vacuum_close": 0.0}
    assert [(ph.t_start, ph.t_end) for ph in plan.phases] == [(0.0, math.inf)]
    assert plan.phases[0].fronts == ()


def test_absorption_at_phase_start_builds_the_post_absorption_front():
    # t_in underflows to 0; the post-absorption front then has C = inf
    with pytest.raises(DomainError,
                       match="post-absorption constants leave float range"):
        xr.solve(data(1, 5e-324, 1.0, 1.0, 2.0, -2.0), 10.0)


@pytest.mark.parametrize("d", [
    (1, 1.0, 1.0, 1.0, 1.0, -1e300),      # (u_l - u_r)**2 overflows in D
    (1, 1.0, 1.0, 5e-324, 1e-300, 0.0),   # t_in divides by an underflowed 0
    (1, 1.0, 1.0, 5e-324, 2.0, -2.0),     # C underflows to 0
    (2, 1.0, 5e-324, 5e-324, 1.0, -1.0),  # E = inf * 0 = nan
])
def test_constants_beyond_float_range_raise_domain_error(d):
    with pytest.raises(DomainError, match="float range"):
        xr.solve(data(*d), 10.0)


@pytest.mark.parametrize("fn, d", [
    (xr.absorption_time, (1, 1.0, 1.0, 5e-324, 1e-300, 0.0)),
    (xr.post_absorption, (1, 1.0, 1.0, 1.0, 1.0, -1e300)),
    (lambda d: xr.solve(d, 1.0).events.get("t_sw0"),
     (1, 5e-324, 1.0, 5e-324, 5e-324, -1.7e308)),
    (lambda d: xr.solve(d, 1.0), (1, 5e-324, 5e-324, 5e-324, 5e-324, -1e-300)),
], ids=["absorption_time", "post_absorption", "origin_hit_time", "solve"])
def test_public_closed_forms_raise_domain_error_beyond_float_range(fn, d):
    with pytest.raises(DomainError, match="float range"):
        fn(data(*d))


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_delta_shock_left_region():
    plan = xr.solve(WORKED, 6.0)
    s = xr.evaluate(plan, 0.7, 0.5)
    assert not s.is_vacuum
    assert s.rho == pytest.approx(1.0 / 0.7, rel=1e-14)
    assert s.u == 1.0
    assert s.atom is None


def test_evaluate_fan_interior_is_vacuum():
    plan = xr.solve(data(u_l=-1.0, u_r=1.0), 4.0)
    s = xr.evaluate(plan, 1.0, 0.5)  # edges sit at 0.5 and 1.5
    assert s.is_vacuum and s.rho == 0.0


def test_evaluate_atom_on_front():
    plan = xr.solve(WORKED, 6.0)
    s = xr.evaluate(plan, 1.0, 0.5)
    assert s.atom is not None
    assert s.atom.sigma == pytest.approx(1.0, rel=1e-14)
    assert s.atom.total_mass == pytest.approx(2 * math.pi * 1.0, rel=1e-14)


def test_evaluate_range_checks():
    plan = xr.solve(WORKED, 6.0)
    with pytest.raises(DomainError):
        xr.evaluate(plan, -0.5, 1.0)
    with pytest.raises(DomainError, match="outside"):
        xr.evaluate(plan, 1.0, 6.5)


def test_evaluate_grid_range_checks():
    plan = xr.solve(WORKED, 6.0)
    with pytest.raises(DomainError):
        xr.evaluate_grid(plan, np.array([0.5, 1.0, -1e-300]), 1.0)
    with pytest.raises(DomainError, match="outside"):
        xr.evaluate_grid(plan, np.array([0.5, 1.0]), 6.5)
    with pytest.raises(DomainError, match="outside"):
        xr.evaluate_grid(plan, np.array([0.5, 1.0]), -0.5)


def test_post_absorption_rejects_overflowing_D_denominator():
    # rho_l (u_l - u_r)^2 = 4e310: D read 0 where it is 2.5e-301, and the
    # front's speed at t_in 4.46e152 where continuity gives 9.9998e149
    d = data(n=1, rho_l=1e10, u_l=1e150, u_r=-1e150)
    with pytest.raises(DomainError, match="post-absorption constants"):
        xr.post_absorption(d)
    with pytest.raises(DomainError, match="post-absorption constants"):
        xr.solve(d, 1.0)


def test_evaluate_grid_beyond_float_range_raises():
    # the atom's sigma = mass(t) xi^{1-n} at xi ~ 1e-300 overflows for n = 3
    plan = xr.solve(data(n=3, R=1e-300, rho_l=1.0, rho_r=7.3, u_l=1e-300,
                         u_r=-7.3), 1.0)
    with pytest.raises(DomainError, match="closed-form constants leave float"):
        xr.evaluate_grid(plan, np.array([1e-300]), np.array([0.0, 1e-300]))


@pytest.mark.parametrize("n, at_origin", [(1, 2.0), (3, math.inf)])
def test_density_at_origin(n, at_origin):
    # r = 0 in a power-law region: rho = coeff for n = 1, inf for n >= 2
    plan = xr.solve(data(n=n, rho_l=2.0, u_l=-1.0, u_r=-2.0), 2.0)
    s = xr.evaluate(plan, 0.0, 0.2)   # the front is at 1 - sqrt(2) t
    assert not s.is_vacuum and s.rho == at_origin and s.u == -1.0
    g = xr.evaluate_grid(plan, np.array([0.0, 0.5]), 0.2)
    assert g.rho[0, 0] == at_origin and not g.is_vacuum[0, 0]
    assert g.rho[0, 1] == 2.0 * 0.5 ** (1 - n)


def test_evaluate_grid_matches_fields_and_atoms():
    plan = xr.solve(WORKED, 6.0)
    g = xr.evaluate_grid(plan, np.array([0.25, 0.7, 1.0, 1.5]), 0.5)
    assert g.is_vacuum.tolist() == [[True, False, False, False]]
    assert g.u.tolist() == [[0.5, 1.0, -1.0, -1.0]]  # fan speed r/t, then regions
    assert g.rho[0, 1] == 1.0 / 0.7 and g.rho[0, 3] == 1.0 / 1.5
    assert list(g.atoms) == [(0, 2)]
    assert g.atoms[0, 2].radius == 1.0
    assert g.atoms[0, 2].sigma == pytest.approx(1.0, rel=1e-14)
    assert g.m0.tolist() == [0.0]


@pytest.mark.parametrize("n", [2, 3])
def test_evaluate_grid_density_bits_match_python_power(n):
    # numpy's power differs from Python's float ** by an ulp on some radii
    plan = xr.solve(data(n=n, rho_l=2.0, rho_r=3.0), 6.0)
    radii = np.linspace(0.01, 3.0, 2001)
    g = xr.evaluate_grid(plan, radii, 0.0)
    ph = plan.phase_at(0.0)
    xs = [f.xi(0.0) for f in ph.fronts]
    expected = [ph.regions[ph.region_index(r, 0.0, xs)].coeff * r ** (1 - n)
                for r in radii.tolist()]
    assert g.rho[0].tolist() == expected


def test_evaluate_grid_silent_on_overflow_and_vacuum():
    # Python's float arithmetic overflows to inf silently; so must the grid
    plan = xr.solve(data(rho_l=1e300, rho_r=1e300, u_l=-1.0, u_r=1.0), 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = xr.evaluate_grid(plan, np.array([0.0, 1e-10, 1.0, 1.5, math.inf]), 0.5)
    assert g.rho[0, :2].tolist() == [math.inf, math.inf]
    assert g.is_vacuum[0].tolist() == [False, False, True, False, False]


@pytest.mark.parametrize("n", [2, 4])
def test_evaluate_grid_subnormal_radius_gives_inf(n):
    # r^{1-n} overflows Python's float power at r = 5e-324: rho = inf
    # there, as at r = 0, and the other radii keep their bits
    plan = xr.solve(data(n=n), 6.0)
    ts = np.array([0.0, 0.5, 2.0])
    g = xr.evaluate_grid(plan, np.array([5e-324, 1e-200, 0.5, 1.5]), ts)
    ref = xr.evaluate_grid(plan, np.array([0.5, 1.5]), ts)
    assert g.rho[:, 0].tolist() == [math.inf, 0.0, 0.0]  # gas, then vacuum
    assert g.rho[0, 1] == (math.inf if n == 4 else 1e-200 ** (1 - n))
    assert _bits(g.rho[:, 2:]) == _bits(ref.rho)
    assert _bits(g.u[:, 2:]) == _bits(ref.u)


def test_evaluate_grid_needs_sigma_only_on_an_atom():
    # at t = 3.6 the front sits at xi = 0.0 exactly, one ulp before the
    # origin hit; sigma (xi^{1-n}) is undefined there, and no radius hits it
    plan = xr.solve(data(R=3.0, rho_l=2.0, rho_r=0.5, u_l=-0.5, u_r=-1.5), 4.0)
    front = plan.phase_at(3.6).fronts[0]
    assert front.kind == SHADOW_WAVE and front.xi(3.6) == 0.0
    g = xr.evaluate_grid(plan, np.array([0.5, 1.0, 2.0]), 3.6)
    assert g.atoms == {}


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@given(sampled_plans())
@settings(max_examples=300, deadline=None)
def test_time_array_matches_per_time_calls(sample):
    # the array form groups the times by phase and broadcasts; each row
    # must be the float call's, bit for bit
    plan, r, t = sample
    g = xr.evaluate_grid(plan, r, t)
    assert g.rho.shape == g.u.shape == g.is_vacuum.shape == (t.size, r.size)
    assert g.m0.shape == (t.size,)
    for k, tk in enumerate(t.tolist()):
        one = xr.evaluate_grid(plan, r, tk)
        assert _bits(g.rho[k]) == _bits(one.rho[0])
        assert _bits(g.u[k]) == _bits(one.u[0])
        assert g.is_vacuum[k].tolist() == one.is_vacuum[0].tolist()
        assert _bits(g.m0[k:k + 1]) == _bits(one.m0)
        assert {j: a for (i, j), a in g.atoms.items() if i == k} == {
            j: a for (_, j), a in one.atoms.items()}


def test_time_array_range_checks():
    plan = xr.solve(WORKED, 6.0)
    r = np.array([0.5, 1.0])
    for bad in (-0.5, 6.5, math.nan):
        with pytest.raises(DomainError, match="outside"):
            xr.evaluate_grid(plan, r, np.array([0.0, bad, 1.0]))
    with pytest.raises(DomainError, match="outside"):
        xr.evaluate_grid(xr.solve(WORKED, math.inf), r, np.array([math.inf]))
    with pytest.raises(DomainError):
        xr.evaluate_grid(plan, np.array([0.5, math.nan]), np.array([1.0]))


# ---------------------------------------------------------------------------
# shadow-wave invariants (property-based)

def _sw_front(plan, t):
    for f in plan.phase_at(t).fronts:
        if f.kind == SHADOW_WAVE:
            return f
    return None


@given(delta_shock_data())
@settings(max_examples=150, deadline=None)
def test_overcompressible_and_nonnegative_sigma(d):
    plan = xr.solve(d, 10.0)
    t_in = plan.events.get("t_in")
    t_sw0 = plan.events.get("t_sw0", math.inf)
    times = [f * min(t_sw0, 10.0) for f in (0.13, 0.47, 0.81, 0.999)]
    for t in times:
        f = _sw_front(plan, t)
        if f is None:
            continue
        sp = f.speed(t)
        assert d.u_l >= sp - 1e-10
        assert sp >= d.u_r - 1e-10
        assert f.sigma(t) >= 0.0


@given(delta_shock_data(u_l_sign=+1))
@settings(max_examples=150, deadline=None)
def test_front_continuity_at_absorption(d):
    t_in = xr.absorption_time(d)
    assume(t_in < 1e3)
    v0 = xr.first_root_speed(d.rho_l, d.u_l, d.rho_r, d.u_r)
    xi_pre = d.R + v0 * t_in
    assume(xi_pre > 1e-3)
    consts = xr.post_absorption(d)
    xi_post, sigma_post = consts.xi, consts.sigma
    assert abs(xi_post(t_in) - xi_pre) <= 1e-10 * max(1.0, abs(xi_pre))
    speed_post = d.u_r + 1.0 / math.sqrt(consts.C * t_in + consts.D)
    assert abs(speed_post - v0) <= 1e-10 * max(1.0, abs(v0))
    S = surface_area(d.n)
    mass_pre = S * xi_pre ** (d.n - 1) * const_front(d).sigma(t_in)
    mass_post = S * xi_post(t_in) ** (d.n - 1) * sigma_post(t_in)
    assert abs(mass_post - mass_pre) <= 1e-10 * max(1.0, mass_pre)


@given(delta_shock_data(u_l_sign=+1))
@settings(max_examples=150, deadline=None)
def test_post_absorption_is_the_plan_front(d):
    plan = xr.solve(d, 1.0)
    t_in = plan.events.get("t_in")
    assume(t_in is not None and plan.events.get("t_sw0", math.inf) > t_in)
    assert xr.post_absorption(d) == plan.phase_at(t_in).fronts[-1]


@given(delta_shock_data(u_l_sign=+1))
@settings(max_examples=100, deadline=None)
def test_post_speed_decays_to_outer_velocity(d):
    t_in = xr.absorption_time(d)
    assume(t_in < 1e3)
    consts = xr.post_absorption(d)
    speeds = [d.u_r + 1.0 / math.sqrt(consts.C * t + consts.D)
              for t in (t_in, 2 * t_in, 8 * t_in, 64 * t_in)]
    for a, b in zip(speeds, speeds[1:]):
        assert b < a
        assert b > d.u_r
    # gap = 1/sqrt(64 C t_in + D) with C t_in + D > 0, so 63 C t_in bounds it
    assert speeds[-1] - d.u_r <= 1.0 / math.sqrt(63 * consts.C * t_in)


@given(delta_shock_data(u_l_sign=-1))
@settings(max_examples=100, deadline=None)
def test_n1_matches_classical_delta_shock(d):
    d1 = data(1, d.R, d.rho_l, d.rho_r, d.u_l, d.u_r)
    plan = xr.solve(d1, 10.0)
    assert "t_in" not in plan.events
    v0 = xr.first_root_speed(d1.rho_l, d1.u_l, d1.rho_r, d1.u_r)
    k1, _ = kappa_fluxes(v0, d1.rho_l, d1.u_l, d1.rho_r, d1.u_r)
    t_sw0 = plan.events["t_sw0"]
    for f in (0.2, 0.6, 0.95):
        t = f * min(t_sw0, 10.0)
        fr = _sw_front(plan, t)
        assert fr.speed(t) == v0
        assert abs(fr.sigma(t) - k1 * t) <= 1e-12 * max(1.0, k1 * t)


@st.composite
def data_at_scale(draw):
    """A datum of any case kind, n = 1..4, with R, densities and speeds
    log-uniform in 1e±3 or in 1e±300 (speeds of either sign)."""
    e = draw(st.sampled_from([3.0, 300.0]))
    magnitude = st.floats(-1.0, 1.0).map(lambda v: 10.0 ** (e * v))
    kind = draw(st.sampled_from(CASE_KINDS))
    u_l, u_r = sorted(draw(st.sampled_from([-1.0, 1.0])) * draw(magnitude)
                      for _ in "lr")
    if kind == DELTA_SHOCK:
        u_l, u_r = u_r, u_l
    elif kind == CASE_CONTACT:
        u_r = u_l
    rho_l, rho_r = draw(magnitude), draw(magnitude)
    if kind in (ALL_VACUUM, VACUUM_LEFT_SHOCK):
        rho_l = 0.0
    if kind in (ALL_VACUUM, VACUUM_RIGHT_SHOCK):
        rho_r = 0.0
    return data(draw(st.integers(1, 4)), draw(magnitude), rho_l, rho_r,
                u_l, u_r)


@given(data_at_scale())
@settings(max_examples=300, deadline=None)
def test_inflow_ends_only_in_a_phase_from_0(d):
    # so wherever solve adds slope * (t1 - t0) to m0 or p0, t1 - t0 is t1
    try:
        plan = xr.solve(d, 1.0)
    except DomainError:
        return
    for ph in plan.phases:
        if (ph.m0_slope or ph.p0_slope) and ph.t_end < math.inf:
            assert ph.t_start == 0.0


@given(delta_shock_data())
@settings(max_examples=100, deadline=None)
def test_events_are_ordered(d):
    plan = xr.solve(d, 10.0)
    t_in = plan.events.get("t_in")
    t_sw0 = plan.events.get("t_sw0")
    if t_in is not None:
        assert t_in > 0
    if t_sw0 is not None:
        assert t_sw0 > 0
        if t_in is not None:
            assert t_sw0 > t_in
    starts = [p.t_start for p in plan.phases]
    assert starts == sorted(starts)
    assert plan.phases[-1].t_end == math.inf
