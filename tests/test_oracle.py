import hashlib
import heapq
import json
import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import radialsw.exact_riemann as xr
import radialsw.oracle as orc
import radialsw.verify as verify
from radialsw.core import (
    ALL_VACUUM, CASE_CONTACT, CASE_KINDS, DELTA_SHOCK, VACUUM_FAN,
    VACUUM_LEFT_SHOCK, VACUUM_RIGHT_SHOCK, DomainError, PseudoRiemannData,
    surface_area,
)

DATA = pathlib.Path(__file__).parent / "data"
WORKED = PseudoRiemannData(n=2, R=1.0, rho_l=1.0, rho_r=1.0, u_l=1.0, u_r=-1.0)


# ---------------------------------------------------------------------------
# construction and the two event types

def test_constructor_validation():
    with pytest.raises(DomainError):
        orc.ParticleSystem([1.0, 2.0], [1.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        orc.ParticleSystem([2.0, 1.0], [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(DomainError):
        orc.ParticleSystem([1.0, 2.0], [1.0, -1.0], [0.0, 0.0])
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="masses must be finite"):
            orc.ParticleSystem([1.0, 2.0], [1.0, bad], [0.0, 0.0])


def test_head_on_merge_conserves_momentum():
    ps = orc.ParticleSystem([1.0, 3.0], [1.0, 1.0], [1.0, -1.0])
    ps.run_until(2.0)
    assert ps.alive_count == 1
    assert ps.radii()[0] == pytest.approx(2.0, abs=1e-12)
    assert ps.velocities()[0] == pytest.approx(0.0, abs=1e-14)
    assert ps.masses()[0] == pytest.approx(2.0)
    assert ps.m0 == 0.0


def test_origin_absorption():
    ps = orc.ParticleSystem([1.0], [1.5], [-2.0])
    ps.run_until(1.0)
    assert ps.alive_count == 0
    assert ps.m0 == pytest.approx(1.5)
    assert ps.absorptions == [(pytest.approx(0.5), pytest.approx(1.5))]
    assert orc.largest_absorption_time(ps) == pytest.approx(0.5)
    # momentum change equals the absorbed momentum
    assert ps.total_momentum() == 0.0


def test_neighbours_rounded_onto_one_point_merge():
    ps = orc.ParticleSystem([0.05, 0.05000000000000001], [1, 1], [1, 1])
    ps.run_until(1.0)
    assert ps.radii().tolist() == [1.05]
    assert ps.masses().tolist() == [2.0]


def test_massless_particles_do_not_block_matter():
    # the massless pair meets at r = 1.5, t = 0.5; the massive particle
    # passes that point and reaches the origin at t = 2
    ps = orc.ParticleSystem([1.0, 2.0, 10.0], [0.0, 0.0, 1.0],
                            [1.0, -1.0, -5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ps.run_until(0.5)
        ps.run_until(3.0)
    assert ps.absorptions == [(2.0, 1.0)]
    assert ps.m0 == 1.0 and ps.alive_count == 0


def test_run_until_rejects_backwards():
    ps = orc.ParticleSystem([1.0], [1.0], [0.0])
    ps.run_until(2.0)
    with pytest.raises(DomainError):
        ps.run_until(1.0)
    # no tolerance: a step back by less than 1e-12 is refused too
    with pytest.raises(DomainError):
        ps.run_until(2.0 - 1e-13)


@pytest.mark.parametrize("t", [math.inf, math.nan], ids=["inf", "nan"])
def test_run_until_rejects_non_finite_time(t):
    # an infinite time once moved every radius to +-inf or nan (with a
    # numpy warning) and a nan time was ignored without a word
    ps = orc.ParticleSystem([1, 2, 3], [1, 1, 1], [1, 0, -1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            ps.run_until(t)
    assert ps.time == 0.0 and ps.radii().tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan],
                         ids=["inf", "minus_inf", "nan"])
def test_constructor_rejects_non_finite_time(t):
    with pytest.raises(DomainError):
        orc.ParticleSystem([1, 2, 3], [1, 1, 1], [1, 0, -1], time=t)


def test_no_absorption_yet_gives_none():
    ps = orc.ParticleSystem([1.0], [1.0], [1.0])
    ps.run_until(3.0)
    assert orc.largest_absorption_time(ps) is None


# ---------------------------------------------------------------------------
# discretize

def test_discretize_uniform_cells():
    d = PseudoRiemannData(n=2, R=0.5, rho_l=1.0, rho_r=1.0, u_l=0.2, u_r=0.2)
    ps = orc.discretize(d, 10, 1.0)  # R is a cell edge: no straddle split
    assert ps.alive_count == 10
    assert np.allclose(ps.masses(), 2 * math.pi / 10, rtol=1e-14)


def test_discretize_straddling_cell_splits_at_jump():
    d = PseudoRiemannData(n=2, R=1.0, rho_l=2.0, rho_r=1.0, u_l=1.0, u_r=-1.0)
    N = 7  # 1.0 is interior to cell (6/7, 8/7)
    ps = orc.discretize(d, N, 2.0)
    assert ps.alive_count == N + 1
    r = ps.radii()
    k = int(np.searchsorted(r, 1.0)) - 1
    a = 6.0 / 7 * 2.0 / 2  # left edge of the straddling cell
    assert r[k] == pytest.approx(0.5 * (6.0 / 7 * 2.0 / 2 + 1.0))
    exact = 2 * math.pi * (2.0 * 1.0 + 1.0 * 1.0)  # integral of S * coeff
    assert ps.total_mass() == pytest.approx(exact, rel=1e-12)


def test_discretize_total_mass_exact():
    ps = orc.discretize(WORKED, 10_000, 5.3)
    assert ps.total_mass() == pytest.approx(2 * math.pi * 5.3, rel=1e-12)


def _discretize_per_cell(data, N, r_max):
    """The per-cell discretize loop that preceded the numpy one, verbatim
    apart from returning the lists."""
    S = surface_area(data.n)
    edges = np.linspace(0.0, r_max, N + 1)
    pos, mas, vel = [], [], []

    def emit(a, b, coeff, u):
        if coeff > 0.0 and b > a:
            pos.append(0.5 * (a + b))
            mas.append(S * coeff * (b - a))
            vel.append(u)

    for a, b in zip(edges[:-1], edges[1:]):
        if b <= data.R:
            emit(a, b, data.rho_l, data.u_l)
        elif a >= data.R:
            emit(a, b, data.rho_r, data.u_r)
        else:
            emit(a, data.R, data.rho_l, data.u_l)
            emit(data.R, b, data.rho_r, data.u_r)
    return pos, mas, vel


@pytest.mark.parametrize("data, N, r_max", [
    (WORKED, 7, 2.0),                                   # R interior to a cell
    (WORKED, 1001, 5.3),
    (PseudoRiemannData(n=3, R=0.77, rho_l=0.37, rho_r=1.9, u_l=0.3, u_r=-1.1),
     1000, 3.1),
    (PseudoRiemannData(n=3, R=1.0, rho_l=2.0, rho_r=0.5, u_l=0.0, u_r=-0.0),
     256, 4.0),                                         # R on an edge, u = -0.0
    (PseudoRiemannData(n=1, R=0.3, rho_l=0.0, rho_r=3.0, u_l=0.5, u_r=-0.5),
     97, 1.0),                                          # rho_l = 0
    (PseudoRiemannData(n=4, R=0.3, rho_l=2.0, rho_r=0.0, u_l=-0.5, u_r=0.5),
     97, 1.0),                                          # rho_r = 0
    (PseudoRiemannData(n=2, R=1.0, rho_l=0.0, rho_r=0.0, u_l=1.0, u_r=-1.0),
     50, 2.0),                                          # both vacuum
    (PseudoRiemannData(n=2, R=0.5, rho_l=1.0, rho_r=3.0, u_l=-0.0, u_r=1.0),
     2, 2.0),                                           # N = 2
    (PseudoRiemannData(n=2, R=1.0, rho_l=1.0, rho_r=3.0, u_l=-1.0, u_r=2.0),
     2, 2.0),                                           # N = 2, R on the edge
], ids=["R_interior", "worked", "generic_n3", "R_on_edge_signed_zero",
        "vacuum_left", "vacuum_right", "vacuum_both", "N2", "N2_R_on_edge"])
def test_discretize_matches_per_cell_loop_bitwise(data, N, r_max):
    pos, mas, vel = _discretize_per_cell(data, N, r_max)
    ps = orc.discretize(data, N, r_max)
    for got, want in ((ps.radii(), pos), (ps.masses(), mas),
                      (ps.velocities(), vel)):
        assert got.tobytes() == np.asarray(want, dtype=float).tobytes()


def _state_bytes(ps):
    return (ps.radii().tobytes(), ps.masses().tobytes(),
            ps.velocities().tobytes(), float(ps.m0).hex(),
            np.array(ps.absorptions, dtype=float).tobytes())


@st.composite
def discretized_data(draw):
    """(data, N, r_max, times): every case kind, n = 1..4, N = 2..5000, R on
    a cell edge or inside a cell, speeds over decades (either sign, or
    signed zero), and a few snapshot times."""
    kind = draw(st.sampled_from(CASE_KINDS))
    N = draw(st.integers(2, 5000))
    r_max = 10.0 ** draw(st.floats(-2.0, 2.0))
    edges = np.linspace(0.0, r_max, N + 1)
    j = draw(st.integers(1, N - 1))
    frac = draw(st.sampled_from([0.0, 0.0]) | st.floats(0.01, 0.99))
    R = float(edges[j] + frac * (edges[j + 1] - edges[j]))
    magnitude = st.floats(-2.0, 2.0).map(lambda v: 10.0 ** v)
    speed = st.tuples(st.sampled_from([-1.0, 1.0]), magnitude | st.just(0.0))
    u_l, u_r = (s * v for s, v in (draw(speed), draw(speed)))
    if kind == DELTA_SHOCK:
        u_r = u_l - draw(magnitude)
    elif kind == VACUUM_FAN:
        u_r = u_l + draw(magnitude)
    elif kind == CASE_CONTACT:
        u_r = -u_l if u_l == 0.0 else u_l
    rho_l, rho_r = (draw(magnitude) for _ in "lr")
    if kind in (ALL_VACUUM, VACUUM_LEFT_SHOCK):
        rho_l = 0.0
    if kind in (ALL_VACUUM, VACUUM_RIGHT_SHOCK):
        rho_r = 0.0
    data = PseudoRiemannData(draw(st.integers(1, 4)), R, rho_l, rho_r,
                             u_l, u_r)
    scale = r_max / max(abs(u_l), abs(u_r), 1e-2)
    times = sorted(draw(st.lists(st.floats(0.0, 2.0), min_size=1,
                                 max_size=3)))
    return data, N, r_max, [scale * t for t in times]


@given(discretized_data())
@settings(max_examples=100, deadline=None)
def test_discretize_hands_over_what_the_constructor_builds(case):
    data, N, r_max, times = case
    ps = orc.discretize(data, N, r_max)
    ref = orc.ParticleSystem(*_discretize_per_cell(data, N, r_max))
    assert _state_bytes(ps) == _state_bytes(ref)
    for t in times:
        ps.run_until(t)
        ref.run_until(t)
        assert _state_bytes(ps) == _state_bytes(ref)


def test_discretize_keeps_the_position_check():
    # a normal grid; the split cell [0, 5e-324] has its midpoint at 0
    d = PseudoRiemannData(n=1, R=5e-324, rho_l=1e300, rho_r=1e300,
                          u_l=1.0, u_r=-1.0)
    with pytest.raises(DomainError,
                       match="positions must be > 0 and strictly increasing"):
        orc.discretize(d, 200, 1.0)


def test_discretize_names_a_subnormal_grid():
    # r_max / N rounds to 2.5e-323: np.linspace repeats and reorders
    # the edges
    d = PseudoRiemannData(n=1, R=1e-320, rho_l=1.0, rho_r=1.0,
                          u_l=1.0, u_r=-1.0)
    with pytest.raises(DomainError, match="grid spacing r_max/N=2.5e-323"):
        orc.discretize(d, 1000, 2.2816e-320)


def test_discretize_names_an_overflowing_midpoint():
    # the last cell's lo + hi overflows: at 9.5e307 it gave a particle at
    # inf, at 1.7e308 numpy warned and the position check raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # np.linspace(0, inf, N + 1) warned and built nan edges
        with pytest.raises(DomainError, match="r_max=inf is not finite"):
            orc.discretize(WORKED, 10, math.inf)
        for r_max in (9.5e307, 1.7e308):
            with pytest.raises(DomainError, match=re.escape(
                    "midpoints overflow for r_max=%r" % r_max)):
                orc.discretize(WORKED, 10, r_max)
        # just below, the last midpoint keeps its bits
        ps = orc.discretize(WORKED, 10, 8.9e307)
    assert ps._a[-1] == (8.01e307 + 8.9e307) * 0.5 == 8.455e307


def test_discretize_refuses_infinite_cell_masses():
    # (hi - lo) S rho_r overflows: the cells right of R carried mass inf,
    # with a numpy overflow warning, and compare found no front cluster
    d = PseudoRiemannData(n=1, R=1.0, rho_l=1.0, rho_r=1e300, u_l=1.0,
                          u_r=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="masses must be finite"):
            orc.discretize(d, 10, 1e300)


def test_constructor_copies_its_inputs():
    pos = np.array([0.5, 1.0, 2.0, 3.0, 4.0])
    mas = np.array([1.0, 1.0, 0.5, 1.0, 2.0])
    vel = np.array([-1.0, 0.5, 0.0, -0.5, -0.25])
    given_arrays = [x.copy() for x in (pos, mas, vel)]
    ps = orc.ParticleSystem(pos, mas, vel, time=0.25)
    # the intercepts x - u t have the bits of u * -t + x
    assert ps._a.tobytes() == (vel * -0.25 + pos).tobytes()
    ps.run_until(3.0)
    assert ps.absorptions and ps.alive_count < 4
    for x, was in zip((pos, mas, vel), given_arrays):
        assert x.tobytes() == was.tobytes()


def test_discretize_vacuum_and_errors():
    vac = PseudoRiemannData(n=2, R=1.0, rho_l=0.0, rho_r=0.0, u_l=0.0, u_r=0.0)
    assert orc.discretize(vac, 50, 2.0).alive_count == 0
    with pytest.raises(DomainError):
        orc.discretize(WORKED, 1, 2.0)
    with pytest.raises(DomainError):
        orc.discretize(WORKED, 50, 1.0)


# ---------------------------------------------------------------------------
# front extraction on the worked example

def test_front_extract_requires_cluster():
    ps = orc.discretize(WORKED, 200, 3.0)
    assert orc.front_extract(ps) is None  # pre-collision


def test_front_matches_constant_speed_phase():
    ps = orc.discretize(WORKED, 2000, 5.3)
    ps.run_until(0.5)
    pos, mass = orc.front_extract(ps)
    assert pos == pytest.approx(1.0, abs=0.01)
    assert mass == pytest.approx(2 * math.pi * 2 * 0.5, rel=0.05)


def test_front_matches_post_absorption_position():
    ps = orc.discretize(WORKED, 2000, 5.3)
    ps.run_until(2.0)
    pos, _ = orc.front_extract(ps)
    assert pos == pytest.approx(-2.0 + 2 * math.sqrt(2.0), abs=0.02)


def test_front_speed_approaches_physical_root():
    d = PseudoRiemannData(n=2, R=1.0, rho_l=4.0, rho_r=1.0, u_l=0.0, u_r=-1.0)
    v0 = xr.first_root_speed(4.0, 0.0, 1.0, -1.0)  # -1/3
    ps = orc.discretize(d, 10_000, 3.0)
    ps.run_until(0.8)
    p0, _ = orc.front_extract(ps)
    ps.run_until(1.2)
    p1, _ = orc.front_extract(ps)
    est = (p1 - p0) / 0.4
    assert abs(est - v0) <= 0.02 * abs(v0)


# ---------------------------------------------------------------------------
# compare

def test_compare_requires_matching_time():
    plan = xr.solve(WORKED, 6.0)
    ps = orc.discretize(WORKED, 100, 5.3)
    with pytest.raises(DomainError):
        orc.compare(plan, ps, 1.0)


def test_compare_on_worked_example():
    plan = xr.solve(WORKED, 6.0)
    ps = orc.discretize(WORKED, 2000, 5.3).run_until(2.0)
    rep = orc.compare(plan, ps, 2.0)
    assert rep["pos_exact"] == pytest.approx(-2.0 + 2 * math.sqrt(2.0))
    assert rep["pos_error"] <= 0.02
    assert rep["mass_error"] <= 0.05 * rep["mass_exact"]
    Q_exact = verify.conserved_pair(plan, 2.0, 5.3).Q
    assert abs(ps.total_mass() + ps.m0 - Q_exact) <= 1e-9  # so finite too


def test_compare_contact_has_no_front_rows():
    d = PseudoRiemannData(n=2, R=1.0, rho_l=2.0, rho_r=1.0, u_l=0.5, u_r=0.5)
    plan = xr.solve(d, 4.0)
    ps = orc.discretize(d, 500, 4.0).run_until(1.0)
    rep = orc.compare(plan, ps, 1.0)
    assert rep["pos_exact"] is None
    assert rep["pos_oracle"] is None
    assert rep["pos_error"] is None
    assert rep["mass_error"] is None


def test_front_mass_where_xi_power_overflows():
    # xi^{n-1} = 1e330 leaves float range; the front's mass S amp t does not
    d = PseudoRiemannData(n=4, R=1e110, rho_l=1.0, rho_r=1.0, u_l=1.0, u_r=-1.0)
    plan, mass = xr.solve(d, 1.0), 4 * math.pi ** 2
    pair = verify.conserved_pair(plan, 1.0, 3e110)
    assert pair.Q == pytest.approx(verify.conserved_pair(plan, 0.0, 3e110).Q,
                                   rel=1e-15)
    assert math.isfinite(pair.M)
    atom = xr.evaluate_grid(plan, [1e110], 1.0).atoms[0, 0]
    assert atom.radius == 1e110 and atom.total_mass == pytest.approx(mass)
    ps = orc.discretize(d, 100, 3e110).run_until(1.0)
    rep = orc.compare(plan, ps, 1.0)
    assert rep["mass_exact"] == pytest.approx(mass)
    assert abs(ps.total_mass() + ps.m0 - pair.Q) <= 1e-9  # so finite too


def test_fan_origin_mass_within_two_particles():
    d = PseudoRiemannData(n=2, R=1.0, rho_l=1.0, rho_r=1.0, u_l=-1.0, u_r=1.0)
    plan = xr.solve(d, 2.0)
    N, r_max = 800, 4.0
    cell_mass = 2 * math.pi * r_max / N
    ps = orc.discretize(d, N, r_max)
    for t in (0.3, 0.7, 1.2):
        ps.run_until(t)
        rep = orc.compare(plan, ps, t)
        assert rep["m0_error"] <= 2 * cell_mass


# ---------------------------------------------------------------------------
# event-loop invariants

@st.composite
def particle_systems(draw):
    rs = draw(st.lists(st.floats(min_value=0.05, max_value=10.0),
                       min_size=2, max_size=12, unique=True))
    rs = sorted(rs)
    ms = draw(st.lists(st.floats(min_value=0.01, max_value=5.0),
                       min_size=len(rs), max_size=len(rs)))
    us = draw(st.lists(st.floats(min_value=-3.0, max_value=3.0),
                       min_size=len(rs), max_size=len(rs)))
    return orc.ParticleSystem(rs, ms, us)


@given(particle_systems(), st.floats(min_value=0.1, max_value=30.0))
@settings(max_examples=150, deadline=None)
def test_mass_conserved_and_order_preserved(ps, t_end):
    total0 = ps.total_mass() + ps.m0
    u_lo = float(ps.velocities().min())
    u_hi = float(ps.velocities().max())
    for t in (0.25 * t_end, t_end):
        ps.run_until(t)
        assert abs(ps.total_mass() + ps.m0 - total0) <= 1e-12 * max(1.0, total0)
        r = ps.radii()
        assert np.all(np.diff(r) > 0)
        if ps.alive_count:
            v = ps.velocities()
            assert v.min() >= u_lo - 1e-12
            assert v.max() <= u_hi + 1e-12


@given(particle_systems(), st.floats(min_value=0.1, max_value=30.0))
@settings(max_examples=100, deadline=None)
def test_momentum_changes_only_by_absorption(ps, t_end):
    mom0 = ps.total_momentum()
    ps.run_until(t_end)
    if not ps.absorptions:
        assert abs(ps.total_momentum() - mom0) <= 1e-11 * max(1.0, abs(mom0))
    else:
        # every absorbed packet had u < 0, so momentum can only increase
        assert ps.total_momentum() >= mom0 - 1e-11 * max(1.0, abs(mom0))


def test_momentum_accounting_with_known_absorption():
    # left particle sinks into the origin before the right pair merges
    ps = orc.ParticleSystem([0.5, 4.0, 5.0], [2.0, 1.0, 3.0],
                            [-1.0, 1.0, -1.0])
    mom0 = ps.total_momentum()  # -2 + 1 - 3 = -4
    ps.run_until(3.0)
    # absorbed momentum: 2 * (-1) = -2 at t = 0.5
    assert ps.m0 == pytest.approx(2.0)
    assert ps.total_momentum() == pytest.approx(mom0 - 2.0 * (-1.0), abs=1e-12)


def test_simultaneous_collisions_group_merge():
    # three equally spaced particles closing symmetrically meet at once
    ps = orc.ParticleSystem([1.0, 2.0, 3.0], [1.0, 1.0, 1.0],
                            [1.0, 0.0, -1.0])
    ps.run_until(1.0)
    assert ps.alive_count == 1
    assert ps.radii()[0] == pytest.approx(2.0)
    assert ps.velocities()[0] == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# the heap event loop that preceded the projection, kept as the reference

_COLLIDE, _ORIGIN = 0, 1


class HeapParticleSystem:
    """Sticky particles advanced event by event: collisions and origin
    arrivals pop from a heap of (t, kind, i, j, version_i, version_j),
    stale entries are skipped, and neighbours left touching at the end of
    a run merge.  State in intercept form r = a + u t."""

    def __init__(self, positions, masses, velocities, time=0.0):
        self.time, self.m0, self.absorptions = float(time), 0.0, []
        self.u = [float(x) for x in velocities]
        self.m = [float(x) for x in masses]
        self.a = [float(r) - v * self.time for r, v in zip(positions, self.u)]
        N = len(self.a)
        self.prev, self.next = list(range(-1, N - 1)), list(range(1, N + 1))
        if N:
            self.next[-1] = -1
        self.alive, self.version = [True] * N, [0] * N
        self.heap = []
        for i in range(N):
            self._push_events(i)

    def _idx(self):
        return [i for i in range(len(self.a)) if self.alive[i]]

    def radii(self):
        return np.array([self.a[i] + self.u[i] * self.time for i in self._idx()])

    def masses(self):
        return np.array([self.m[i] for i in self._idx()])

    def velocities(self):
        return np.array([self.u[i] for i in self._idx()])

    def _push_events(self, i):
        a, u = self.a, self.u
        if not self.alive[i]:
            return
        j = self.next[i]
        if j >= 0 and self.alive[j] and u[i] > u[j]:
            tc = (a[j] - a[i]) / (u[i] - u[j])
            if math.isfinite(tc):
                heapq.heappush(self.heap, (max(tc, self.time), _COLLIDE, i, j,
                                           self.version[i], self.version[j]))
        if u[i] < 0.0:
            to = -a[i] / u[i]
            if math.isfinite(to):
                heapq.heappush(self.heap, (max(to, self.time), _ORIGIN, i, -1,
                                           self.version[i], 0))

    def _merge(self, i, j, t):
        a, u, m = self.a, self.u, self.m
        mi, mj = m[i], m[j]
        mass = mi + mj
        x = (mi * (a[i] + u[i] * t) + mj * (a[j] + u[j] * t)) / mass
        v = (mi * u[i] + mj * u[j]) / mass
        self.alive[j] = False
        self.version[i] += 1
        self.version[j] += 1
        m[i], u[i], a[i] = mass, v, x - v * t
        nj = self.next[j]
        self.next[i] = nj
        if nj >= 0:
            self.prev[nj] = i
        self._push_events(i)
        if self.prev[i] >= 0:
            self._push_events(self.prev[i])

    def _absorb(self, i, t):
        self.m0 += self.m[i]
        self.absorptions.append((t, self.m[i]))
        self.alive[i] = False
        self.version[i] += 1
        nxt, p = self.next[i], self.prev[i]
        if nxt >= 0:
            self.prev[nxt] = p
        if p >= 0:
            self.next[p] = nxt

    def run_until(self, t_end):
        while self.heap and self.heap[0][0] <= t_end:
            t, kind, i, j, vi, vj = heapq.heappop(self.heap)
            if not self.alive[i] or self.version[i] != vi:
                continue
            if kind == _COLLIDE and (not self.alive[j] or self.version[j] != vj
                                     or self.next[i] != j):
                continue
            self.time = max(self.time, t)
            if kind == _COLLIDE:
                self._merge(i, j, self.time)
            else:
                self._absorb(i, self.time)
        self.time = max(self.time, float(t_end))
        while True:
            idx = self._idx()
            x = self.radii()
            touching = np.flatnonzero(np.diff(x) <= 0.0)
            if touching.size == 0:
                return self
            for k in touching[::-1].tolist():
                self._merge(idx[k], idx[k + 1], self.time)


def _fuse(r, m, u, tol):
    """Clusters within tol of their left neighbour joined: (position of the
    leftmost, total mass, total momentum) rows."""
    out = []
    for ri, mi, ui in zip(r, m, u):
        if out and ri - out[-1][3] <= tol:
            out[-1][1:] = out[-1][1] + mi, out[-1][2] + mi * ui, ri
        else:
            out.append([ri, mi, mi * ui, ri])
    return np.array([row[:3] for row in out]).reshape(-1, 3)


def _fuse_deposits(absorptions, tol):
    """Origin deposits within tol in time joined: (time, mass) rows."""
    out = []
    for t, m in absorptions:
        if out and t - out[-1][0] <= tol:
            out[-1][1] += m
        else:
            out.append([t, m])
    return np.array(out).reshape(-1, 2)


def _settle(state, tol):
    """The state with the clusters at r <= tol, on the origin to rounding at
    time t, moved into m0 as deposits at t."""
    r, m, u, m0, absorptions, t = state
    k = int(np.searchsorted(r, tol, side="right"))
    return (r[k:], m[k:], u[k:], m0 + float(np.sum(m[:k])),
            absorptions + [(t, mi) for mi in m[:k]])


def _assert_same_state(got, want, rel=1e-11):
    """got and want (radii, masses, velocities, m0, absorptions, time) agree
    after fusing clusters that lie within 1e-12 of the largest radius of
    each other or of the origin, and deposits within 1e-12 of the latest
    deposit time."""
    assert got[5] == want[5]
    scale = max([1.0, *np.abs(want[0]), *np.abs(got[0])])
    tol = 1e-12 * scale
    r_got, m_got, u_got, m0_got, ab_got = _settle(got, tol)
    r_want, m_want, u_want, m0_want, ab_want = _settle(want, tol)
    f_got = _fuse(r_got, m_got, u_got, tol)
    f_want = _fuse(r_want, m_want, u_want, tol)
    assert f_got.shape == f_want.shape
    for col in range(3):
        size = max([1.0, *np.abs(f_want[:, col])])
        assert np.all(np.abs(f_got[:, col] - f_want[:, col]) <= rel * size), col
    mass = max(1.0, float(np.sum(m_want)) + m0_want)
    assert abs(m0_got - m0_want) <= rel * mass
    t_scale = max([1.0] + [t for t, _ in ab_want])
    d_got = _fuse_deposits(ab_got, 1e-12 * t_scale)
    d_want = _fuse_deposits(ab_want, 1e-12 * t_scale)
    assert d_got.shape == d_want.shape
    assert np.all(np.abs(d_got[:, 0] - d_want[:, 0]) <= rel * t_scale)
    assert np.all(np.abs(d_got[:, 1] - d_want[:, 1]) <= rel * mass)


def _observe(ps):
    return (ps.radii(), ps.masses(), ps.velocities(), ps.m0,
            list(ps.absorptions), ps.time)


@st.composite
def reference_systems(draw):
    """(positions, masses, velocities, start time, snapshot times) of up to
    ten particles: integer lattices (simultaneous events and exact ties) or
    random floats with zero masses and subnormal speeds, some of them
    restarted at a time > 0."""
    size = draw(st.integers(min_value=1, max_value=10))
    t0 = draw(st.sampled_from([0.0, 0.0, 0.5, 1.25]))
    if draw(st.booleans()):
        gaps = draw(st.lists(st.integers(1, 3), min_size=size, max_size=size))
        r = np.cumsum(gaps).astype(float)
        u = draw(st.lists(st.integers(-4, 3), min_size=size, max_size=size))
        m = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
        steps = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0]),
                              min_size=1, max_size=4))
    else:
        r = sorted(draw(st.lists(st.floats(min_value=0.05, max_value=10.0),
                                 min_size=size, max_size=size, unique=True)))
        u = draw(st.lists(st.floats(min_value=-3.0, max_value=3.0)
                          | st.sampled_from([5e-324, -5e-324, 1e-323, -0.0]),
                          min_size=size, max_size=size))
        m = draw(st.lists(st.floats(min_value=0.01, max_value=5.0) | st.just(0.0),
                          min_size=size, max_size=size))
        steps = draw(st.lists(st.floats(min_value=0.0, max_value=8.0),
                              min_size=1, max_size=4))
    return r, m, u, t0, t0 + np.cumsum(steps)


@given(reference_systems())
@settings(max_examples=300, deadline=None)
def test_projection_matches_heap_event_loop(system):
    r, m, u, t0, times = system
    ps = orc.ParticleSystem(r, m, u, time=t0)
    # the heap loop merges massless particles into a cluster with no
    # centre, which lets matter pass through other clusters: it is a
    # reference for the massive particles only, which is all ParticleSystem
    # keeps
    massive = np.asarray(m, dtype=float) > 0
    ref = HeapParticleSystem(*(np.asarray(x, dtype=float)[massive]
                               for x in (r, m, u)), time=t0)
    for t in times:
        ps.run_until(t)
        ref.run_until(t)
        _assert_same_state(_observe(ps), _observe(ref))


def test_meeting_behind_the_origin_changes_nothing():
    # A (r 1, u -2) and B (r 2, u -3) cross r = 0 at t = 1/2 and 2/3 and
    # meet at r = -1 at t = 1 in free motion; C moves outward untouched
    ps = orc.ParticleSystem([1.0, 2.0, 3.0], [2.0, 5.0, 1.0],
                            [-2.0, -3.0, 1.0])
    ps.run_until(3.0)
    assert ps.absorptions == [(0.5, 2.0), (pytest.approx(2.0 / 3.0), 5.0)]
    assert ps.m0 == 7.0
    assert ps.radii().tolist() == [6.0] and ps.masses().tolist() == [1.0]
    # snapshots before, between and after the crossings and the meeting
    # give the same deposits and state
    stepped = orc.ParticleSystem([1.0, 2.0, 3.0], [2.0, 5.0, 1.0],
                                 [-2.0, -3.0, 1.0])
    for t in (0.4, 0.6, 0.9, 1.0, 1.1, 3.0):
        stepped.run_until(t)
    assert stepped.absorptions == ps.absorptions
    assert stepped.radii().tolist() == [6.0]


def test_m0_adds_deposits_in_order_one_at_a_time():
    # 20,000 particles at one speed reach the origin one by one, with masses
    # over six decades: 12,000 in the first run, 8,000 in the second
    rng = np.random.default_rng(20261019)
    r = np.arange(1, 20_001) * 1e-3
    m = 10.0 ** rng.uniform(-3.0, 3.0, r.size)
    ps = orc.ParticleSystem(r, m, np.full(r.size, -1.0))
    for t, deposited in ((12.0, 12_000), (30.0, 20_000)):
        ps.run_until(t)
        masses = [mi for _, mi in ps.absorptions]
        assert len(masses) == deposited and ps.alive_count == 20_000 - deposited
        want = 0.0
        for mi in masses:
            want += mi
        assert ps.m0 == want
    # a pairwise or a compensated sum would give other bits
    assert float(np.sum(masses)) != want and math.fsum(masses) != want


# A step that deposits two rows of equal mass (at t = 0.2 and 0.4) and
# forms three merged blocks after them, with survivors between the blocks:
# pairs meeting at t = 0.5 near r = 10.5 and 20.5, and a triple at r = 31
# at t = 1
SEVERAL_BLOCKS = ([1.0, 2.0, 10.0, 11.0, 15.0, 20.0, 21.0, 25.0, 30.0, 31.0,
                   32.0, 40.0],
                  [2.0, 2.0, 1.0, 3.0, 1.0, 0.5, 1.5, 1.0, 1.0, 1.0, 1.0, 1.0],
                  [-5.0, -5.0, 1.0, -1.0, 0.0, 1.0, -1.0, 0.0, 1.0, 0.0, -1.0,
                   0.0])


def test_several_blocks_in_one_step_match_heap_event_loop():
    ps = orc.ParticleSystem(*SEVERAL_BLOCKS)
    ref = HeapParticleSystem(*SEVERAL_BLOCKS)
    ps.run_until(1.0)
    ref.run_until(1.0)
    assert ps.absorptions == [(0.2, 2.0), (0.4, 2.0)]
    assert ps.masses().tolist() == [4.0, 1.0, 2.0, 1.0, 3.0, 1.0]
    assert ps.radii().tolist() == [10.25, 15.0, 20.25, 25.0, 31.0, 40.0]
    _assert_same_state(_observe(ps), _observe(ref))
    # the first of two equal-mass deposits
    assert orc.largest_absorption_time(ps) == 0.2
    for t in (5.0, 40.0):
        ps.run_until(t)
        ref.run_until(t)
        _assert_same_state(_observe(ps), _observe(ref))


# Every particle ends in one cluster, built up over several snapshots: a
# block that spans the first and the last row
ONE_CLUSTER = ([1.0, 2.0, 4.0, 5.0, 7.0, 8.0], [1.0, 2.0, 1.0, 3.0, 1.0, 1.0],
               [2.0, 1.0, 0.5, -0.5, -1.0, -1.0])


@pytest.mark.parametrize("times", [(0.5, 1.0, 2.0, 3.0, 4.0, 20.0), (20.0,)],
                         ids=["stepped", "one_step"])
def test_one_cluster_matches_heap_event_loop(times):
    ps = orc.ParticleSystem(*ONE_CLUSTER)
    ref = HeapParticleSystem(*ONE_CLUSTER)
    for t in times:
        ps.run_until(t)
        ref.run_until(t)
        _assert_same_state(_observe(ps), _observe(ref))
    assert ps.masses().tolist() == [9.0]
    assert ps.m0 == 0.0 and ps.absorptions == []


def test_state_does_not_leak_through_queries():
    ps = orc.ParticleSystem(*SEVERAL_BLOCKS)
    twin = orc.ParticleSystem(*SEVERAL_BLOCKS)
    for t in (1.0, 5.0, 40.0):
        ps.run_until(t)
        twin.run_until(t)
        deposits = ps.absorptions
        deposits.append((0.0, 1e9))
        deposits[0] = (99.0, 99.0)
        for arr in (ps.masses(), ps.radii(), ps.velocities()):
            arr[:] = -7.0
        for got, want in zip(_observe(ps), _observe(twin)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert ps.absorptions == twin.absorptions
        assert orc.largest_absorption_time(ps) == \
            orc.largest_absorption_time(twin)


# ---------------------------------------------------------------------------
# _pool against the form that preceded the inline block value and the nan
# sentinel: a value callback, and bounds checks at both ends of v

def _pool_callback(v, m, u, a, hits, value):
    n, blocks = len(v), []
    for k in hits:
        if blocks and k <= blocks[-1][1]:
            continue
        lo = hi = k
        M, P, Q, V = m[k], m[k] * u[k], m[k] * a[k], v[k]
        while True:
            if hi + 1 < n and v[hi + 1] <= V:
                hi += 1
                mi = m[hi]
                M, P, Q = M + mi, P + mi * u[hi], Q + mi * a[hi]
            elif blocks and blocks[-1][1] == lo - 1:
                if blocks[-1][5] < V:
                    break
                lo, _, bM, bP, bQ, _ = blocks.pop()
                M, P, Q = bM + M, bP + P, bQ + Q
            elif lo > 0 and v[lo - 1] >= V:
                lo -= 1
                mi = m[lo]
                M, P, Q = mi + M, mi * u[lo] + P, mi * a[lo] + Q
            else:
                break
            V = value(M, P, Q)
        blocks.append((lo, hi, M, P, Q, V))
    return blocks


@st.composite
def pool_rows(draw):
    """(a, u, m, t) of 1..12 rows: small integers, which tie often, or
    floats; t None (deposit times) or a snapshot time."""
    size = draw(st.integers(min_value=1, max_value=12))

    def column(elements):
        return np.asarray(draw(st.lists(elements, min_size=size,
                                        max_size=size)), dtype=float)

    if draw(st.booleans()):
        a, u, m = (column(st.integers(lo, hi))
                   for lo, hi in ((-3, 3), (-3, 3), (1, 3)))
    else:
        a = column(st.floats(min_value=-10.0, max_value=10.0))
        u = column(st.floats(min_value=-3.0, max_value=3.0))
        m = column(st.floats(min_value=0.01, max_value=5.0))
    t = draw(st.none() | st.sampled_from([0.0, 0.5, 2.0])
             | st.floats(min_value=0.0, max_value=8.0))
    return a, u, m, t


# with u = 0 at t = 0, and with u = -1 as deposit times, v = a: the second
# block pools to the first one's value (a tie) or below it and merges into
# it, and [1, 1, 1] is one tie across every row
@example((np.array([2.0, 1.0, 3.0, 0.0]), np.zeros(4), np.ones(4), 0.0))
@example((np.array([2.0, 1.0, 3.0, -1.0]), np.full(4, -1.0), np.ones(4), None))
@example((np.ones(3), np.zeros(3), np.array([1.0, 2.0, 3.0]), 0.0))
@given(pool_rows())
@settings(max_examples=300, deadline=None)
def test_pool_matches_callback_form_bitwise(rows):
    a, u, m, t = rows
    if t is None:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            v = np.where(u < 0.0, -a / u, math.inf)
        value = lambda M, P, Q: Q / -P if P < 0.0 else math.inf  # noqa: E731
    else:
        v = a + u * t
        value = lambda M, P, Q: Q / M + P / M * t  # noqa: E731
    hits = np.flatnonzero(v[1:] <= v[:-1]).tolist()
    mua = memoryview(m), memoryview(u), memoryview(a)
    want = _pool_callback(memoryview(v), *mua, hits, value)
    got = orc._pool(memoryview(np.append(v, math.nan)), *mua, hits, t)
    assert np.array(got).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# golden states: the heap event loop's states of three 200-particle systems
# (tests/data/particle_states.json); the digests pin today's bits

def _golden_system(kind):
    rng = np.random.default_rng(20261018)
    if kind == "lattice":
        # integer spacing and speeds: many simultaneous collisions and
        # deposits, and exact ties
        r = np.arange(1.0, 201.0)
        u = rng.integers(-4, 3, r.size).astype(float)
        m = rng.integers(1, 5, r.size).astype(float)
        return orc.ParticleSystem(r, m, u)
    r = np.cumsum(rng.uniform(0.01, 0.5, 200))
    u = rng.normal(-0.5, 1.0, r.size)
    m = rng.uniform(0.1, 2.0, r.size)
    if kind == "random":
        return orc.ParticleSystem(r, m, u)
    return orc.ParticleSystem(r, m, u, time=0.7)  # "restart"


GOLDEN_STATES = [
    ("lattice", "a80c4b26f4aa88d2bd6ddebadc998dd00ab05c5aeefb7d2fc0c9dbc1403cb8ed"),
    ("random", "03064a356803473f0be247937cacb9c516d34d26fd10e99a14a88b7628e730cb"),
    ("restart", "6c6c041833b1b213e0d04070bdc02289343fe478e5d1e8535ed488c8a3e889fc"),
]
GOLDEN_TIMES = (0.25, 0.5, 1.0, 1.0, 3.7, 50.0)


def _state_digest(ps, times):
    h = hashlib.sha256()
    t0 = ps.time
    for t in times:
        ps.run_until(t0 + t)
        for arr in (ps.radii(), ps.masses(), ps.velocities(),
                    np.array([ps.m0, ps.time, ps.alive_count]),
                    np.array(ps.absorptions, dtype=float)):
            h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind, digest", GOLDEN_STATES,
                         ids=[g[0] for g in GOLDEN_STATES])
def test_particle_states_match_golden_bits(kind, digest):
    assert _state_digest(_golden_system(kind), GOLDEN_TIMES) == digest
    with open(DATA / "particle_states.json", encoding="utf-8") as fh:
        want = json.load(fh)[kind]
    ps = _golden_system(kind)
    t0 = ps.time
    for t, w in zip(GOLDEN_TIMES, want):
        ps.run_until(t0 + t)
        _assert_same_state(_observe(ps), (
            np.array(w["radii"]), np.array(w["masses"]),
            np.array(w["velocities"]), w["m0"],
            [tuple(x) for x in w["absorptions"]], w["time"]))
    assert ps.absorptions and ps.alive_count < 200


# ---------------------------------------------------------------------------
# float edges: a crossing beyond float range never happens, and computing
# it warns of nothing

def test_subnormal_inward_speed_is_never_absorbed():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ps = orc.ParticleSystem([1.0, 2.0, 3.0], [1.0, 1.0, 1.0],
                                [-5e-324, 1.0, -1.0])
        ps.run_until(1e300)
    assert ps.alive_count == 2
    assert ps.m0 == 0.0 and ps.absorptions == []
    assert ps.radii().tolist() == [1.0, 2.5]


def test_subnormal_relative_speed_gets_no_collision_event():
    # one such pair at the start, one after the right pair merges; neither
    # closes its gap in float time, before or after that merge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ps = orc.ParticleSystem([1.0, 2.0, 4.0, 5.0, 6.0],
                                [1.0, 1.0, 1.0, 1.0, 1.0],
                                [1e-323, 0.0, 1e-323, 1.0, -1.0])
        ps.run_until(0.25)
        assert ps.alive_count == 5
        ps.run_until(1e300)
    assert ps.alive_count == 4
    assert ps.radii().tolist() == [1.0, 2.0, 4.0, 5.5]
    assert ps.masses().tolist() == [1.0, 1.0, 1.0, 2.0]
    assert ps.velocities().tolist() == [1e-323, 0.0, 1e-323, 0.0]
    assert ps.m0 == 0.0 and ps.absorptions == []
