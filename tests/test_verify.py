import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import radialsw.exact_riemann as xr
import radialsw.sw_ode as so
import radialsw.verify as vf
from radialsw.core import (
    SHADOW_WAVE, DomainError, PseudoRiemannData,
    kappa_fluxes,
)

WORKED = PseudoRiemannData(n=2, R=1.0, rho_l=1.0, rho_r=1.0, u_l=1.0, u_r=-1.0)

rhos = st.floats(min_value=0.0, max_value=3.0)
rhos_pos = st.floats(min_value=0.05, max_value=3.0)
vels = st.floats(min_value=-2.0, max_value=2.0)


# ---------------------------------------------------------------------------
# pointwise admissibility

def test_entropy_lhs_examples():
    assert vf.entropy_lhs(1, 1, 1, -1, 0.0) == pytest.approx(-2.0)
    for c in (-1.3, 0.0, 2.2):
        assert vf.entropy_lhs(2, 0.5, 2, 0.5, c) == 0.0


def test_entropy_lhs_nonentropic_trace():
    xi, xid, _, rho_l, u_l = so.nonentropic_example(1.0)
    val = vf.entropy_lhs(rho_l, u_l, 1.0 / xi, 0.0, xid)
    assert val == pytest.approx(0.0038, abs=1e-4)
    assert val > 0


@given(rhos, vels, rhos, vels, vels)
@settings(max_examples=300, deadline=None)
def test_entropy_two_forms_agree(rho0, u0, rho1, u1, c):
    k1, k2 = kappa_fluxes(c, rho0, u0, rho1, u1)
    alt = k1 * (u0 * u1 - c * c) - k2 * (u0 + u1 - 2 * c)
    cub = vf.entropy_lhs(rho0, u0, rho1, u1, c)
    assert abs(alt - cub) <= 1e-12 * (1.0 + abs(cub))


def test_is_overcompressive():
    assert vf.is_overcompressive(1, 0, -1)
    assert not vf.is_overcompressive(1, 2, -1)
    assert vf.is_overcompressive(0.4, 0.4, 0.4)


def test_second_root_excluded_examples():
    assert vf.second_root_excluded(4, 0, 1, 1)
    assert vf.second_root_excluded(1, 0, 4, 1)
    with pytest.raises(DomainError):
        vf.second_root_excluded(1, 0, 1, 1)  # equal densities
    with pytest.raises(DomainError):
        vf.second_root_excluded(1, 1, 4, 1)  # equal velocities
    with pytest.raises(DomainError):
        vf.second_root_excluded(0, 0, 4, 1)


def test_second_root_excluded_at_ulp_gaps():
    # the rounded second root equals u0 = -2.0 here
    assert vf.second_root_excluded(1.0, -2.0, 0.25, -1.9999999999999998)
    assert vf.second_root_excluded(3.0, 0.0, 0.05, 5e-324)
    # sqrt(rho0) == sqrt(rho1) in doubles
    assert vf.second_root_excluded(1.0, 0.0, 1.0000000000000002, 1.0)


@given(rhos_pos, vels, rhos_pos, vels)
@settings(max_examples=300, deadline=None)
def test_second_root_always_outside_velocity_interval(rho0, u0, rho1, u1):
    if rho0 == rho1 or u0 == u1:
        return
    assert vf.second_root_excluded(rho0, u0, rho1, u1)


def test_rankine_hugoniot_degenerate():
    assert vf.rankine_hugoniot_degenerate(0, 5, 2, 1) == 1
    assert vf.rankine_hugoniot_degenerate(2, 1, 0, 5) == 1
    assert vf.rankine_hugoniot_degenerate(1, 1, 1, 2) is None
    assert vf.rankine_hugoniot_degenerate(0, 3, 0, 7) is None
    assert vf.rankine_hugoniot_degenerate(2, 3, 5, 3) == 3
    with pytest.raises(DomainError, match="densities must be >= 0"):
        vf.rankine_hugoniot_degenerate(-1.0, 3.0, 5.0, 3.0)


# ---------------------------------------------------------------------------
# conserved totals

def _drifts(plan, times, r_max):
    q0 = vf.conserved_pair(plan, 0.0, r_max).Q
    m0 = vf.conserved_pair(plan, 0.0, r_max).M
    dq = max(abs(vf.conserved_pair(plan, t, r_max).Q - q0) for t in times)
    dm = max(abs(vf.conserved_pair(plan, t, r_max).M - m0) for t in times)
    return q0, m0, dq, dm


def test_fan_mass_constant_with_outflow_correction():
    plan = xr.solve(PseudoRiemannData(2, 1.0, 1.0, 1.0, -1.0, 1.0), 2.0)
    q0, _, dq, dm = _drifts(plan, np.linspace(0.0, 0.99, 12), 3.0)
    assert q0 == pytest.approx(2 * math.pi * 3, rel=1e-14)
    assert dq <= 1e-10 and dm <= 1e-10


def test_contact_totals_constant():
    plan = xr.solve(PseudoRiemannData(3, 1.0, 2.0, 0.5, 0.3, 0.3), 5.0)
    _, _, dq, dm = _drifts(plan, np.linspace(0.0, 5.0, 11), 4.0)
    assert dq <= 1e-10 and dm <= 1e-10


def test_worked_example_totals_across_events():
    plan = xr.solve(WORKED, 6.0)
    times = sorted(set(np.linspace(0.0, 6.0, 25)) | {0.999, 1.0, 3.999, 4.0})
    q0, _, dq, dm = _drifts(plan, times, 3.0)
    assert dq <= 1e-10 * q0
    assert dm <= 1e-10


def test_front_beyond_truncation_radius_rejected():
    plan = xr.solve(WORKED, 6.0)
    with pytest.raises(DomainError):
        vf.conserved_pair(plan, 0.5, 0.9)


def test_conserved_totals_beyond_float_range_raise():
    # a region term S coeff (b - a) overflows at t = 0
    plan = xr.solve(PseudoRiemannData(4, 1e300, 1e-300, 1e300, 1e-3, -1e-8),
                    1e-3)
    with pytest.raises(DomainError, match="conserved totals leave float"):
        vf.conserved_pair(plan, 0.0, 1e301)
    # the outflow's velocity ** 2 * t overflows
    plan = xr.solve(PseudoRiemannData(1, 1.0, 1.0, 1.0, 1e200, 1e200), 1e3)
    with pytest.raises(DomainError, match="closed-form constants leave float"):
        vf.conserved_pair(plan, 1e3, 1e204)


def test_entropy_check_beyond_float_range_raises():
    # the shadow front sits at a subnormal radius, where r^{1-n} overflows
    plan = xr.solve(PseudoRiemannData(4, 5e-324, 5e-324, 5e-324, 0.0, -5e-324),
                    1e3)
    with pytest.raises(DomainError, match="closed-form constants leave float"):
        vf.worst_entropy_lhs(plan)


# ---------------------------------------------------------------------------
# test functions and quadrature

def test_test_function_support_rules():
    with pytest.raises(DomainError, match="inside r > 0"):
        vf.TestFunction(r_c=0.2, t_c=1.0, h_r=0.3, h_t=0.5)
    with pytest.raises(DomainError, match="inside t >= 0"):
        vf.TestFunction(r_c=1.0, t_c=0.1, h_r=0.3, h_t=0.5)
    with pytest.raises(DomainError):
        vf.TestFunction(r_c=1.0, t_c=1.0, h_r=0.0, h_t=0.5)
    # half-widths below an ulp of the centre leave a support of one point
    with pytest.raises(DomainError, match="rounds to a point"):
        vf.TestFunction(r_c=2e146, t_c=1.0, h_r=3e-4, h_t=0.5)
    with pytest.raises(DomainError, match="rounds to a point"):
        vf.TestFunction(r_c=1.0, t_c=1e300, h_r=0.5, h_t=1.0)


@pytest.mark.parametrize("field", ["r_c", "t_c", "h_r", "h_t"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_test_function_rejects_non_finite_fields(field, bad):
    fields = dict(r_c=1.0, t_c=0.5, h_r=0.3, h_t=0.3)
    fields[field] = bad
    with pytest.raises(DomainError):
        vf.TestFunction(**fields)


def test_test_function_shape_and_boundary():
    phi = vf.TestFunction(r_c=1.0, t_c=1.0, h_r=0.4, h_t=0.5)
    assert phi.jet(1.0, 1.0)[0] == 1.0
    assert np.all(phi.jet(np.array([0.59, 1.41]), 1.0)[0] == 0.0)
    assert phi.jet(1.0, 1.51)[0] == 0.0
    # phi and its gradient vanish on the support boundary (up to roundoff
    # in the edge coordinate itself)
    for r in (phi.r_lo, phi.r_hi):
        assert abs(phi.jet(r, 1.0)[0]) <= 1e-30
        assert abs(phi.jet(r, 1.0)[1]) <= 1e-30
    assert np.all(phi.jet(np.linspace(0.7, 1.3, 33), 1.2)[0] >= 0.0)


def test_test_function_derivatives_match_fd():
    phi = vf.TestFunction(r_c=1.0, t_c=1.0, h_r=0.4, h_t=0.5)
    h = 1e-6
    for r, t in ((0.9, 1.1), (1.13, 0.77), (1.3, 1.4)):
        fd_r = (phi.jet(r + h, t)[0] - phi.jet(r - h, t)[0]) / (2 * h)
        fd_t = (phi.jet(r, t + h)[0] - phi.jet(r, t - h)[0]) / (2 * h)
        assert phi.jet(r, t)[1] == pytest.approx(float(fd_r), abs=1e-8)
        assert phi.dt(r, t) == pytest.approx(float(fd_t), abs=1e-8)


def test_fit_order_recovers_slope_and_floors():
    eps = [1e-2 / 2 ** k for k in range(7)]
    res = [0.37 * e ** 2 for e in eps]
    assert vf.fit_order(eps, res) == pytest.approx(2.0, abs=1e-10)
    noisy = [1e-13] * len(eps)  # all below the floor
    assert math.isnan(vf.fit_order(eps, noisy))


@pytest.mark.parametrize("order, passed", [
    ({"mass": math.nan, "momentum": 1.0}, True),
    ({"mass": 2.0, "momentum": 0.9}, True),
    ({"mass": 2.0, "momentum": 0.89}, False),
])
def test_ladder_verdict(order, passed):
    report = vf.ResidualReport(eps=(), residuals={}, order=order)
    assert report.passed is passed


# ---------------------------------------------------------------------------
# weak residuals

def test_weak_residual_rejects_unknown_equation():
    plan = xr.solve(WORKED, 6.0)
    phi = vf.TestFunction(r_c=1.0, t_c=0.5, h_r=0.3, h_t=0.3)
    with pytest.raises(DomainError):
        vf.weak_residual(plan, 1e-3, phi, "energy")


@pytest.mark.parametrize("kwargs", [
    {"halvings": -1}, {"halvings": 0}, {"halvings": 1}, {"which": ()},
    {"which": ("mass", "energy")},
])
def test_vacuous_ladder_rejected_before_quadrature(kwargs, monkeypatch):
    plan = xr.solve(WORKED, 6.0)
    phi = vf.default_test_function(plan)

    def no_quadrature(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(vf, "_time_breakpoints", no_quadrature)
    with pytest.raises(DomainError):
        vf.residual_ladder(plan, phi, **kwargs)


@pytest.mark.parametrize("eps0", [0.0, -1e-3, math.nan])
def test_nonpositive_strip_width_rejected(eps0):
    plan = xr.solve(WORKED, 6.0)
    phi = vf.default_test_function(plan)
    with pytest.raises(DomainError):
        vf.weak_residual(plan, eps0, phi, "mass")
    with pytest.raises(DomainError):
        vf.residual_ladder(plan, phi, eps0=eps0)


def test_weak_residual_ladder_on_front():
    plan = xr.solve(WORKED, 6.0)
    phi = vf.default_test_function(plan)
    assert phi is not None
    rep = vf.residual_ladder(plan, phi, halvings=4)
    assert rep.eps == tuple(sorted(rep.eps, reverse=True))
    assert rep.order["mass"] >= 0.9
    assert rep.order["momentum"] >= 0.9


# two delta-shock data and their residual_ladder residuals with the default
# test function and ladder (eps = 1e-2 ... 1e-2/64), recorded with the
# per-node quadrature that preceded the time-panel batching
LADDER_DATA = {
    "worked": (WORKED, {
        "mass": (-0.00034884148941928918, -8.7241745086538054e-05,
                 -2.1812397395041242e-05, -5.4532219600668798e-06,
                 -1.3633131318010852e-06, -3.408288399550291e-07,
                 -8.5207123432487134e-08),
        "momentum": (0.0024354482581314539, 0.0012187166469597626,
                     0.0006094824349000764, 0.00030475673283675102,
                     0.00015238030588729843, 7.6190395378682337e-05,
                     3.8095227993931711e-05),
        "entropy": (-0.48708965162629636, -0.48748665878390984,
                    -0.48758594792005322, -0.4876107725386547,
                    -0.48761697883922189, -0.48761853042348352,
                    -0.48761891832011894)}),
    "n1": (PseudoRiemannData(n=1, R=1.0, rho_l=1.0, rho_r=3.0,
                             u_l=-0.5, u_r=-1.5), {
        "mass": (-0.00012307386973032321, -3.0779395099535192e-05,
                 -7.6955318886407651e-06, -1.9239256659010645e-06,
                 -4.8098409465483899e-07, -1.2024619192703003e-07,
                 -3.0061571537547848e-08),
        "momentum": (0.00013956264173216351, 3.4903052129997125e-05,
                     8.7265376660371715e-06, 2.1816828301689339e-06,
                     5.4542374433325606e-07, 1.3635612695810373e-07,
                     3.40890582027781e-08),
        "entropy": (-0.045641263075473996, -0.045792073072005661,
                    -0.04582979171621996, -0.045839222386552185,
                    -0.045841580117202324, -0.045842169553817723,
                    -0.045842316913203188)}),
}


def _ladder_passes(report):
    return all(not math.isfinite(o) or o >= vf.LADDER_ORDER_GATE
               for o in report.order.values())


def _scale_amplitude(plan, factor):
    """The plan with the amplitude of every constant-speed shadow front
    multiplied by factor: a wrong plan with the right fronts."""
    def scaled(f):
        if isinstance(f, xr.ConstSpeedSW):
            return dataclasses.replace(f, amp=f.amp * factor)
        return f
    return dataclasses.replace(plan, phases=tuple(
        dataclasses.replace(ph, fronts=tuple(scaled(f) for f in ph.fronts))
        for ph in plan.phases))


@pytest.mark.parametrize("name", sorted(LADDER_DATA))
def test_weak_ladder_matches_recorded_residuals(name):
    data, recorded = LADDER_DATA[name]
    plan = xr.solve(data, 6.0)
    rep = vf.residual_ladder(plan, vf.default_test_function(plan),
                             which=tuple(recorded))
    for eq, res in recorded.items():
        assert len(rep.residuals[eq]) == len(res)
        for got, want in zip(rep.residuals[eq], res):
            assert got == pytest.approx(want, rel=0, abs=1e-12)


@pytest.mark.parametrize("name", sorted(LADDER_DATA))
def test_weak_ladder_gate_fails_wrong_amplitude(name):
    plan = xr.solve(LADDER_DATA[name][0], 6.0)
    phi = vf.default_test_function(plan)
    assert _ladder_passes(vf.residual_ladder(plan, phi))
    wrong = vf.residual_ladder(_scale_amplitude(plan, 1.01), phi)
    assert not _ladder_passes(wrong)
    assert wrong.order["mass"] < 0.1


def test_ladder_reports_time_panels_per_rung():
    rep = vf.residual_ladder(*_plan_and_phi(WORKED))
    assert rep.panels == (1,) * 7  # the front at rest stays inside the box
    rep = vf.residual_ladder(*_plan_and_phi(LADDER_DATA["n1"][0]))
    assert rep.panels == (5,) * 7
    # the widest strip's outer edge crosses r_hi twice near the turning
    # point of the post-absorption front; the narrower ones stay inside
    plan = xr.solve(PseudoRiemannData(n=2, R=1.0, rho_l=1.0, rho_r=1.0,
                                      u_l=2.0, u_r=-0.5), 20.0)
    phi = vf.TestFunction(r_c=2.505 - 1e-9 - 0.3, t_c=5.0123, h_r=0.3,
                          h_t=1.68)
    assert vf.residual_ladder(plan, phi).panels == (4, 2, 2, 2, 2, 2, 2)


def _plan_and_phi(data):
    plan = xr.solve(data, 6.0)
    return plan, vf.default_test_function(plan)


# ---------------------------------------------------------------------------
# the per-panel evaluation that the batched ladder replaced, kept as a
# reference: one numpy pass per time panel and equation, with the strip
# rule calling the float front paths once per time node

def _path_at(fn, t):
    if np.ndim(t) == 0:
        return fn(t)
    return np.array([fn(s) for s in np.ravel(t).tolist()]).reshape(np.shape(t))


def _reference_profile(plan, eps, r, t):
    ph = plan.phase_at(float(np.min(t)))
    assert np.max(t) < ph.t_end
    live = [(0.0, 0.0) if p.is_vacuum else (p.coeff, p.velocity)
            for p in ph.regions]
    idx = np.zeros(np.broadcast_shapes(np.shape(r), np.shape(t)), dtype=int)
    for f in ph.fronts:
        idx += _path_at(f.xi, t) <= r
    c, u = np.array(live).T[:, idx]
    strip = np.zeros(c.shape, dtype=bool)
    h = 0.5 * eps
    for f in reversed(ph.fronts):
        if f.kind == SHADOW_WAVE:
            x = _path_at(f.xi, t)
            hit = (x - h <= r) & (r <= x + h)
            c = np.where(hit, _path_at(f.sigma, t) / eps, c)
            u = np.where(hit, _path_at(f.speed, t), u)
            strip |= hit
    return c, u, strip


def _reference_time_panel(plan, eps, phi, power, a, b):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    t = mid + half * vf._GL_X
    ts = t.tolist()
    curves = [[phi.r_lo] * t.size, [phi.r_hi] * t.size] + [
        [f.xi(s) + o for s in ts]
        for f in plan.phase_at(mid).fronts for o in vf._edges(f, eps)]
    cuts = np.sort(np.clip(np.array(curves).T, phi.r_lo, phi.r_hi), axis=1)
    lo, hi = cuts[:, :-1], cuts[:, 1:]
    keep = hi - lo >= 1e-14
    node = np.nonzero(keep)[0]
    c, u, strip = (v[keep][:, None] for v in
                   _reference_profile(plan, eps, 0.5 * (lo + hi), t[:, None]))
    rhalf = 0.5 * (hi - lo)[keep]
    rr = 0.5 * (lo + hi)[keep][:, None] + rhalf[:, None] * vf._GL_X
    phi_v, phi_r, phi_t = phi.jet(rr, t[node][:, None])
    n = plan.data.n
    rho = c * np.where(strip, 1.0, rr ** (1 - n))
    a_m = rho * u ** power
    b_m = rho * u ** (power + 1)
    vals = a_m * phi_t + b_m * phi_r
    if n > 1:
        vals = vals - (n - 1) * b_m * phi_v / rr
    per_node = np.bincount(node, rhalf * (vals @ vf._GL_W), t.size)
    return half * float(np.dot(per_node, vf._GL_W))


def _reference_weak_residual(plan, eps, phi, which):
    """(residual, number of time panels)."""
    power = {"mass": 0, "momentum": 1, "entropy": 2}[which]
    tb = vf._time_breakpoints(plan, eps, phi)
    panels = [(a, b) for a, b in zip(tb[:-1], tb[1:]) if b - a >= 1e-13]
    total = sum((_reference_time_panel(plan, eps, phi, power, a, b)
                 for a, b in panels), 0.0)
    return (-total if which == "entropy" else total), len(panels)


@st.composite
def delta_ladders(draw):
    """A delta-shock plan of any subcase (absorption then origin dump,
    absorption only, inflow to the origin), n = 1..4, with R, densities
    and speeds over decades, and a bump on the shadow front of a drawn
    phase whose support may reach into the phases around it."""
    sub = draw(st.sampled_from(["dump", "absorb", "inflow"]))
    decade = st.floats(min_value=-1.0, max_value=1.0)
    R = 10.0 ** (2 * draw(decade))
    rho_l, rho_r = (10.0 ** (3 * draw(decade)) for _ in range(2))
    a, b = (10.0 ** (2 * draw(decade)) for _ in range(2))
    u_l, u_r = {"dump": (a, -b), "absorb": (a + b, b),
                "inflow": (-a, -a - b)}[sub]
    plan = xr.solve(PseudoRiemannData(draw(st.integers(1, 4)), R, rho_l,
                                      rho_r, u_l, u_r), 1.0)
    ph = draw(st.sampled_from([p for p in plan.phases if any(
        f.kind == SHADOW_WAVE for f in p.fronts)]))
    width = (ph.t_end if math.isfinite(ph.t_end) else 2.0 * ph.t_start
             + R / max(a, b)) - ph.t_start
    frac = st.floats(min_value=0.05, max_value=0.95)
    t_c = ph.t_start + draw(frac) * width
    front = next(f for f in ph.fronts if f.kind == SHADOW_WAVE)
    r_c = front.xi(t_c)
    assume(r_c > 0.0)
    phi = vf.TestFunction(r_c, t_c, draw(frac) * r_c, draw(frac) * t_c)
    return plan, phi


def _slow_front_on_support_edge():
    """A shadow front at 3.3e-13 per unit time whose widest strip crosses
    r_lo mid-support: the nodes near the crossing drop an r panel that the
    others keep, so a time panel holds 45 rows, not a multiple of 16."""
    plan = xr.solve(PseudoRiemannData(n=2, R=1.0, rho_l=4.0, rho_r=1.0,
                                      u_l=1e-12, u_r=-1e-12), 6.0)
    r_lo = plan.phases[0].fronts[-1].xi(0.5) - 0.5e-2
    return plan, vf.TestFunction(r_lo + 0.3, 0.5, 0.3, 0.3)


@given(delta_ladders())
@example(_slow_front_on_support_edge())
@settings(max_examples=40, deadline=None)
def test_batched_ladder_matches_per_panel_reference(case):
    plan, phi = case
    which = ("mass", "momentum", "entropy")
    rep = vf.residual_ladder(plan, phi, which=which)
    for eq in which:
        for k, eps in enumerate(rep.eps):
            want, panels = _reference_weak_residual(plan, eps, phi, eq)
            assert rep.residuals[eq][k] == want
            assert rep.panels[k] == panels
    eps = rep.eps[-1]
    assert (vf.weak_residual(plan, eps, phi, "momentum")
            == _reference_weak_residual(plan, eps, phi, "momentum")[0])


@given(delta_ladders())
@example(_slow_front_on_support_edge())
@settings(max_examples=30, deadline=None)
def test_pass_size_leaves_weak_integrals_bitwise_equal(case):
    # the r and t sums run per time panel, so a panel's totals do not depend
    # on the panels that share its pass (a matrix product over a whole pass
    # may round a row differently depending on its neighbours)
    plan, phi = case
    ladder = tuple(vf.EPS0 * 0.5 ** k for k in range(7))
    totals, panels = vf._weak_integrals(plan, phi, ladder, {0, 1, 2})
    with mock.patch.object(vf, "_PANELS_PER_PASS", 1):
        one, one_panels = vf._weak_integrals(plan, phi, ladder, {0, 1, 2})
    assert one_panels == panels
    for p in (0, 1, 2):
        assert [x.hex() for x in one[p]] == [x.hex() for x in totals[p]]


def test_weak_residual_classical_region_is_quadrature_exact():
    plan = xr.solve(WORKED, 6.0)
    # support strictly inside the undisturbed right region
    phi = vf.TestFunction(r_c=2.2, t_c=0.4, h_r=0.25, h_t=0.3)
    for eps in (1e-2, 1e-3, 1e-4):
        for eq in ("mass", "momentum"):
            assert abs(vf.weak_residual(plan, eps, phi, eq)) <= 1e-9


def test_entropy_residual_converges_to_front_production():
    plan = xr.solve(WORKED, 6.0)
    phi = vf.TestFunction(r_c=1.0, t_c=0.5, h_r=0.3, h_t=0.3)
    # cubic at the front is -2 during the constant-speed phase and
    # phi(xi(t), t) = (1 - ((t - 0.5)/0.3)^2)^4, so the limit is
    # -2 * h_t * 256/315
    limit = -2.0 * 0.3 * 256 / 315
    res = vf.weak_residual(plan, 1e-3, phi, "entropy")
    assert res < 0
    assert res == pytest.approx(limit, abs=1e-4)


def test_nonconstant_front_production_positive_before_sign_change():
    # equivalent front-localized form of the entropy pairing for the
    # closed-form nonconstant-speed front: integral of cubic(t) phi(xi, t)
    phi = vf.TestFunction(r_c=1.3, t_c=0.5, h_r=0.6, h_t=0.45)

    def production(t):
        xi, xid, _, rho_l, u_l = map(float, so.nonentropic_example(t))
        cub = vf.entropy_lhs(rho_l, u_l, 1.0 / xi, 0.0, xid)
        return cub * float(phi.jet(xi, t)[0])

    from scipy.integrate import quad
    val, _ = quad(production, phi.t_lo, phi.t_hi)
    assert val > 0


def test_default_test_function_properties():
    plan = xr.solve(WORKED, 6.0)
    phi = vf.default_test_function(plan)
    assert phi.r_lo > 1e-2  # clear of the origin with the widest strip
    assert phi.t_lo >= 0.0
    assert phi.jet(phi.r_c, phi.t_c)[0] == 1.0
    contact = xr.solve(PseudoRiemannData(2, 1.0, 1.0, 1.0, 0.5, 0.5), 4.0)
    assert vf.default_test_function(contact) is None


def test_time_breakpoints_catch_two_crossings_near_turning_point():
    # the post-absorption front peaks at xi = 2.5 at t = 5; the outer strip
    # edge crosses r_hi twice, 2e-4 apart, inside one cell of a sign scan
    plan = xr.solve(PseudoRiemannData(n=2, R=1.0, rho_l=1.0, rho_r=1.0,
                                      u_l=2.0, u_r=-0.5), 20.0)
    eps = 1e-2
    r_hi = 2.5 + eps / 2 - 1e-9
    phi = vf.TestFunction(r_c=r_hi - 0.3, t_c=5.0123, h_r=0.3, h_t=1.68)
    tb = vf._time_breakpoints(plan, eps, phi)
    for t_cross in (4.9998000020, 5.0002000020):
        assert min(abs(t - t_cross) for t in tb) < 1e-9
