import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radialsw.core import (
    Atom, DomainError, LinearFront, Phase, PseudoRiemannData,
    RegionProfile, SHOCK, WavePlan, DELTA_SHOCK, jump_brackets,
    kappa_fluxes, surface_area,
)
from radialsw import core
from radialsw.verify import _front_paths, _strip_profile

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
density = st.floats(min_value=0, max_value=50, allow_nan=False)


def test_surface_area_low_dimensions():
    assert surface_area(1) == 2.0
    assert surface_area(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert surface_area(3) == pytest.approx(4 * math.pi, rel=1e-15)


def test_surface_area_rejects_bad_dimension():
    with pytest.raises(DomainError):
        surface_area(0)
    with pytest.raises(DomainError):
        surface_area(2.5)


def test_surface_area_gamma_recurrence():
    # 2 pi |S^{n-1}| / n = |S^{n+1}|
    for n in range(1, 9):
        lhs = 2 * math.pi * surface_area(n) / n
        assert lhs == pytest.approx(surface_area(n + 2), rel=1e-14)


def test_jump_brackets_examples():
    assert jump_brackets(1, 1, 1, 1) == (0, 0, 0, 0)
    assert jump_brackets(0, 5, 2, 1) == (2, 2, 2, 2)
    assert jump_brackets(1, 1, 1, -1) == (0, -2, 0, -2)


def test_jump_brackets_rejects_negative_density():
    with pytest.raises(DomainError):
        jump_brackets(-1, 0, 1, 0)


@given(density, finite, density, finite)
@settings(max_examples=200, deadline=None)
def test_jump_brackets_antisymmetric(rho0, u0, rho1, u1):
    fwd = jump_brackets(rho0, u0, rho1, u1)
    bwd = jump_brackets(rho1, u1, rho0, u0)
    for a, b in zip(fwd, bwd):
        assert a == -b


def test_kappa_fluxes_match_brackets():
    br, bru, bru2, _ = jump_brackets(2.0, 1.0, 1.0, -1.0)
    k1, k2 = kappa_fluxes(0.25, 2.0, 1.0, 1.0, -1.0)
    assert k1 == 0.25 * br - bru
    assert k2 == 0.25 * bru - bru2


wide = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)


@given(wide, st.floats(min_value=0, max_value=1e100), wide,
       st.floats(min_value=0, max_value=1e100), wide)
@settings(max_examples=300, deadline=None)
def test_kappa_fluxes_bits_equal_bracket_form(cdot, rho0, u0, rho1, u1):
    # kappa_fluxes builds its two brackets itself; the fluxes keep the bits
    # of the jump_brackets form, zeros' signs included
    br, bru, bru2, _ = jump_brackets(rho0, u0, rho1, u1)
    want = (cdot * br - bru, cdot * bru - bru2)
    got = kappa_fluxes(cdot, rho0, u0, rho1, u1)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_kappa_fluxes_reject_negative_density():
    for rho0, rho1 in ((-1.0, 1.0), (1.0, -0.5)):
        with pytest.raises(DomainError):
            kappa_fluxes(0.0, rho0, 0.0, rho1, 0.0)


def test_data_validation():
    with pytest.raises(DomainError):
        PseudoRiemannData(n=0, R=1, rho_l=1, rho_r=1, u_l=0, u_r=0)
    with pytest.raises(DomainError):
        PseudoRiemannData(n=2, R=0, rho_l=1, rho_r=1, u_l=0, u_r=0)
    with pytest.raises(DomainError):
        PseudoRiemannData(n=2, R=1, rho_l=-1, rho_r=1, u_l=0, u_r=0)
    d = PseudoRiemannData(n=2.0, R=1, rho_l=1, rho_r=1, u_l=0, u_r=0)
    assert isinstance(d.n, int)


@pytest.mark.parametrize("field", ["rho_l", "rho_r", "u_l", "u_r"])
def test_nan_data_rejected(field):
    fields = dict(n=2, R=1.0, rho_l=1.0, rho_r=1.0, u_l=1.0, u_r=-1.0)
    with pytest.raises(DomainError):
        PseudoRiemannData(**dict(fields, **{field: math.nan}))


@pytest.mark.parametrize("field, value", [
    ("R", math.inf), ("rho_l", math.inf), ("rho_r", math.inf),
    ("u_l", math.inf), ("u_r", -math.inf)])
def test_non_finite_data_rejected(field, value):
    fields = dict(n=2, R=1.0, rho_l=1.0, rho_r=1.0, u_l=1.0, u_r=-1.0)
    with pytest.raises(DomainError, match="finite"):
        PseudoRiemannData(**dict(fields, **{field: value}))


def test_plan_case_must_be_a_case_kind():
    ph = Phase(0.0, math.inf, (), (RegionProfile(),))
    data = PseudoRiemannData(n=1, R=1, rho_l=0, rho_r=0, u_l=0, u_r=0)
    with pytest.raises(DomainError):
        WavePlan(data=data, case="Vacuum", phases=(ph,), events={}, t_max=1.0)


def test_region_profile_density():
    p = RegionProfile(2.0, 0.5)
    assert p.kind == "powerlaw" and not p.is_vacuum
    assert p.density(2.0, 3) == pytest.approx(0.5)
    v = RegionProfile()
    assert v.kind == "vacuum" and v.is_vacuum and v.density(1.7, 2) == 0.0
    assert v.density(0.0, 3) == 0.0  # where coeff * r^{1-n} would raise
    for bad in (-1.0, math.nan, -math.inf):
        with pytest.raises(DomainError, match="coefficient must be >= 0"):
            RegionProfile(bad, 0.5)


def test_region_profile_kind_follows_coeff():
    # kind is derived, not an argument, and the repr (which the golden plan
    # digests hash) keeps it first, with the numbers cast to float
    assert repr(RegionProfile(1, -2)) == (
        "RegionProfile(kind='powerlaw', coeff=1.0, velocity=-2.0)")
    assert repr(RegionProfile()) == (
        "RegionProfile(kind='vacuum', coeff=0.0, velocity=0.0)")
    assert RegionProfile(0.0) == RegionProfile(-0.0) == RegionProfile()
    assert RegionProfile(5e-324).kind == "powerlaw"
    with pytest.raises(TypeError):
        RegionProfile("vacuum", 0.0, 0.0)


def test_linear_front_path():
    f = LinearFront(SHOCK, xi0=2.0, velocity=-0.5, t0=1.0)
    assert f.xi(3.0) == pytest.approx(1.0)
    assert f.speed(3.0) == -0.5
    assert f.sigma(3.0) == 0.0
    assert f.times_at(1.0, 0.0, 5.0) == [3.0]
    assert f.times_at(1.0, 3.5, 5.0) == []
    assert LinearFront(SHOCK, xi0=1.0, velocity=0.0).times_at(1.0, 0.0, 5.0) == []


def _tiny_plan():
    left = RegionProfile(1.0, 1.0)
    right = RegionProfile(1.0, -1.0)
    front = LinearFront(SHOCK, 1.0, 0.0)
    ph0 = Phase(0.0, 2.0, (front,), (left, right), m0_start=0.0, m0_slope=0.5)
    ph1 = Phase(2.0, math.inf, (front,), (left, right), m0_start=1.0, m0_slope=0.0)
    data = PseudoRiemannData(n=2, R=1, rho_l=1, rho_r=1, u_l=1, u_r=-1)
    return WavePlan(data=data, case=DELTA_SHOCK, phases=(ph0, ph1),
                    events={}, t_max=10.0)


def test_phase_needs_matching_regions():
    with pytest.raises(DomainError):
        Phase(0.0, 1.0, (LinearFront(SHOCK, 1.0, 0.0),),
              (RegionProfile(),))
    with pytest.raises(DomainError):
        Phase(1.0, 1.0, (), (RegionProfile(),))


def test_phase_lookup_half_open():
    plan = _tiny_plan()
    assert plan.phase_at(0.0).t_start == 0.0
    assert plan.phase_at(2.0).t_start == 2.0  # right-continuous at the seam
    assert plan.m0(1.0) == pytest.approx(0.5)
    assert plan.m0(2.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        plan.phase_at(-0.1)


def test_phase_groups_match_phase_at():
    plan = _tiny_plan()
    ts = np.array([3.0, 0.5, 2.0, 0.0, 1.9999999999999998, 2.0])
    groups = [(ph, rows.tolist()) for ph, rows in plan.phase_groups(ts)]
    assert groups == [(plan.phases[0], [1, 3, 4]), (plan.phases[1], [0, 2, 5])]
    for ph, rows in groups:
        assert all(plan.phase_at(float(ts[j])) is ph for j in rows)
    assert list(plan.phase_groups(np.array([]))) == []
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(DomainError, match="no phase covers t=%r" % bad):
            list(plan.phase_groups(np.array([1.0, bad])))
        with pytest.raises(DomainError, match="no phase covers t=%r" % bad):
            plan.phase_at(bad)


def test_phase_rule_on_a_gap():
    # one rule for both lookups: the last phase starting at or before t,
    # which must end after t
    region = (RegionProfile(1.0, 0.0),)
    phases = (Phase(0.0, 1.0, (), region), Phase(2.0, math.inf, (), region))
    data = PseudoRiemannData(n=1, R=1, rho_l=1, rho_r=1, u_l=0, u_r=0)
    plan = WavePlan(data=data, case="Contact", phases=phases, events={},
                    t_max=5.0)
    assert [plan.phase_at(t) for t in (0.5, 2.0)] == list(phases)
    with pytest.raises(DomainError, match="no phase covers t=1.5"):
        plan.phase_at(1.5)
    with pytest.raises(DomainError, match="no phase covers t=1.5"):
        plan.phase_groups(np.array([0.5, 1.5, 2.0]))


def test_region_index_picks_outer_side_on_front():
    plan = _tiny_plan()
    ph = plan.phase_at(0.5)
    xs = [f.xi(0.5) for f in ph.fronts]
    assert ph.regions[ph.region_index(0.5, 0.5, xs)].velocity == 1.0
    assert ph.regions[ph.region_index(1.0, 0.5, xs)].velocity == -1.0  # on the front
    assert ph.regions[ph.region_index(1.5, 0.5, xs)].velocity == -1.0
    # an array of radii gives the scalar answer at each radius; the second
    # phase has two fronts one ulp out of order, which counting still sorts
    hi, lo = 1.0, math.nextafter(1.0, 0.0)
    left, right = ph.regions
    gap = RegionProfile()
    skew = Phase(0.0, 1.0,
                 (LinearFront(SHOCK, hi, 0.0), LinearFront(SHOCK, lo, 0.0)),
                 (left, gap, right))
    radii = np.array([0.5, lo, hi, math.nextafter(hi, 2.0), 1.5])
    for phase in (ph, skew):
        xs = [f.xi(0.5) for f in phase.fronts]
        got = phase.region_index(radii, 0.5, xs)
        assert got.tolist() == [phase.region_index(float(r), 0.5, xs)
                                for r in radii]
    assert got.tolist() == [0, 1, 2, 2, 2]   # skew's
    assert Phase(0.0, 1.0, (), (left,)).region_index(radii, 0.5, []).tolist() == [0] * 5


def test_eps_family_strip_and_moments():
    import radialsw.exact_riemann as xr
    d = PseudoRiemannData(n=2, R=1.0, rho_l=1.0, rho_r=1.0, u_l=1.0, u_r=-1.0)
    plan = xr.solve(d, 6.0)
    eps = 1e-2

    def state(r, t):
        """(rho, u) of the eps-realized family at radius r, a float or an
        array, at time t; vacuum gives (0, 0)."""
        rr = np.asarray(r, dtype=float)
        ph = plan.phase_at(t)
        c, u, strip = _strip_profile(ph, eps, rr, t, _front_paths(ph, t))
        rho = np.where(strip, c, c * rr ** (1 - plan.data.n))
        return (float(rho), float(u)) if rr.ndim == 0 else (rho, u)

    rho, u = state(1.0, 0.5)  # inside the strip around xi = 1
    assert rho == pytest.approx(plan.phase_at(0.5).fronts[-1].sigma(0.5) / 1e-2)
    assert u == 0.0
    rho_out, u_out = state(1.2, 0.5)
    assert rho_out == pytest.approx(1.0 / 1.2)
    assert u_out == -1.0
    # the array form is the scalar rule at each point: strip interiors, both
    # strip ends (inclusive), one ulp outside them, regular regions and the
    # inner vacuum, in the constant-speed and the post-absorption phase
    h = 0.5 * eps
    for t in (0.5, 2.0):
        front = plan.phase_at(t).fronts[-1]
        x = front.xi(t)
        ends = (x - h, x + h)
        beyond = (np.nextafter(x - h, 0.0), np.nextafter(x + h, 9.0))
        radii = np.array((x, x - 0.3 * h, *ends, *beyond, x + 0.2, 0.1))
        rho, u = state(radii, t)
        assert rho.shape == u.shape == radii.shape
        for k, r in enumerate(radii.tolist()):
            assert (rho[k], u[k]) == state(r, t)
        in_strip = (front.sigma(t) / eps, front.speed(t))
        for r in (x, *ends):
            assert state(r, t) == in_strip
        for r in beyond:
            assert state(r, t)[0] < 0.5 * in_strip[0]
        assert state(0.1, t) == (0.0, 0.0)  # inner vacuum
    # per-point times within one phase: each row is its own time
    ph = plan.phase_at(0.5)
    times = np.array([[0.3], [0.5], [0.7]])
    c, u, strip = _strip_profile(ph, eps, np.tile(radii, (3, 1)), times,
                                 _front_paths(ph, times))
    for k, t in enumerate(times[:, 0]):
        ck, uk, sk = _strip_profile(ph, eps, radii, float(t),
                                    _front_paths(ph, float(t)))
        assert c[k].tolist() == ck.tolist() and u[k].tolist() == uk.tolist()
        assert strip[k].tolist() == sk.tolist()
    with pytest.raises(DomainError):
        times = np.array([0.5, 1.5])
        _strip_profile(ph, eps, radii[:2], times, _front_paths(ph, times))


def test_atom_mass_identity():
    a = Atom(radius=2.0, sigma=3.0, total_mass=surface_area(3) * 4.0 * 3.0)
    assert a.total_mass == pytest.approx(4 * math.pi * 4.0 * 3.0)


def test_one_error_contract():
    errors = {name for name, obj in vars(core).items()
              if isinstance(obj, type) and issubclass(obj, Exception)}
    assert errors == {"RadialSWError", "DomainError", "ConfigError"}

    @core.in_float_range
    def ratio(a, b):
        return a / b

    assert ratio(1.0, 4.0) == 0.25
    with pytest.raises(DomainError, match=r"float range \(ZeroDivisionError\)"
                       ) as info:
        ratio(1.0, 0.0)
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def test_plan_range_error_via_phase_at():
    left = RegionProfile(1.0, 0.0)
    ph = Phase(0.0, 5.0, (), (left,))
    data = PseudoRiemannData(n=1, R=1, rho_l=1, rho_r=1, u_l=0, u_r=0)
    plan = WavePlan(data=data, case="Contact", phases=(ph,),
                    events={}, t_max=5.0)
    with pytest.raises(DomainError, match="no phase covers"):
        plan.phase_at(7.0)
    with pytest.raises(DomainError, match="no phase covers t=7.0"):
        list(plan.phase_groups(np.array([1.0, 7.0, 5.0])))
