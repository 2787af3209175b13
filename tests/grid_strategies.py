"""Hypothesis strategy shared by the sampling tests of test_exact_riemann.py
and test_cli.py: a plan with the radii and times to sample it at."""
import math

import numpy as np
from hypothesis import strategies as st

import radialsw.exact_riemann as xr
from radialsw.core import (
    ALL_VACUUM, CASE_CONTACT, CASE_KINDS, DELTA_SHOCK, VACUUM_FAN,
    VACUUM_LEFT_SHOCK, VACUUM_RIGHT_SHOCK, PseudoRiemannData,
)


@st.composite
def sampled_plans(draw):
    """(plan, r, t): a plan of every case kind, n = 1..4, with R, densities
    and speeds over decades (speeds of either sign, or zero); sorted
    radii that include 0, inf and points within ATOM_POSITION_RTOL of each
    front at each time; sorted times that include every event time exactly
    and span the phases up to t_max = 1.5 times the last event."""
    kind = draw(st.sampled_from(CASE_KINDS))
    decade = st.floats(min_value=-1.0, max_value=1.0)
    magnitude = decade.map(lambda v: 10.0 ** (2 * v))
    speed = st.tuples(st.sampled_from([-1.0, 1.0]), magnitude | st.just(0.0))
    u_l, u_r = (s * v for s, v in (draw(speed), draw(speed)))
    if kind == DELTA_SHOCK:
        u_r = u_l - draw(magnitude)
    elif kind == VACUUM_FAN:
        u_r = u_l + draw(magnitude)
    elif kind == CASE_CONTACT:
        u_r = -u_l if u_l == 0.0 else u_l   # u = 0.0 against -0.0
    rho_l, rho_r = (10.0 ** (3 * draw(decade)) for _ in "lr")
    if kind in (ALL_VACUUM, VACUUM_LEFT_SHOCK):
        rho_l = 0.0
    if kind in (ALL_VACUUM, VACUUM_RIGHT_SHOCK):
        rho_r = 0.0
    data = PseudoRiemannData(draw(st.integers(1, 4)), 10.0 ** (2 * draw(decade)),
                             rho_l, rho_r, u_l, u_r)
    events = list(xr.solve(data, 1.0).events.values())
    t_max = 1.5 * max(events) if events else 3.0 * data.R / max(
        abs(u_l), abs(u_r), 1e-2)
    plan = xr.solve(data, t_max)
    fraction = st.floats(min_value=1e-6, max_value=1.0) | st.just(0.0)
    t = sorted(events + [t_max * f for f in draw(
        st.lists(fraction, min_size=1, max_size=8))])
    fronts = [f.xi(s) for s in t for f in plan.phase_at(s).fronts]
    r_hi = 1.25 * max([data.R] + fronts)
    r = [0.0, math.inf] + [r_hi * f for f in draw(
        st.lists(fraction, min_size=1, max_size=24))]
    r += [x * (1.0 + d) for x in fronts if 1e-100 < x < math.inf
          for d in (-3e-10, 0.0, 3e-10)]
    return plan, np.array(sorted(r)), np.array(t)
