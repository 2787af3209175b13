"""Walk the fully worked delta-shock datum from cold start to origin dump.

Prints the plan structure, the closed-form constants, and a time sweep of
front position, front mass, and origin mass.  Every number here has a
closed form, so the table doubles as a quick regression snapshot.
"""
import argparse
import math

import numpy as np

import radialsw as rs

DATA = rs.PseudoRiemannData(n=2, R=1.0, rho_l=1.0, rho_r=1.0, u_l=1.0, u_r=-1.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t-max", type=float, default=5.0)
    ap.add_argument("--steps", type=int, default=21)
    args = ap.parse_args()

    plan = rs.solve(DATA, args.t_max)
    v0 = rs.first_root_speed(DATA.rho_l, DATA.u_l, DATA.rho_r, DATA.u_r)
    post = rs.post_absorption(DATA)
    print("case      %s" % plan.case)
    print("v0        %.17g" % v0)
    print("t_in      %.17g" % rs.absorption_time(DATA))
    print("C, D, E   %.17g %.17g %.17g" % (post.C, post.D, post.E))
    print("t_sw0     %.17g" % plan.events["t_sw0"])
    print("m0 jump   %.17g  (= 8*pi = %.17g)" % (plan.m0(4.0), 8 * math.pi))
    print()
    for k, ph in enumerate(plan.phases):
        t_end = "inf" if not np.isfinite(ph.t_end) else "%g" % ph.t_end
        print("phase %d [%g, %s)  m0_slope=%.6g  fronts=%d" % (
            k, ph.t_start, t_end, ph.m0_slope, len(ph.fronts)))
    print()

    S = rs.surface_area(DATA.n)
    print("%8s %12s %12s %14s %12s" % ("t", "xi", "xi_dot", "front_mass", "m0"))
    for t in np.linspace(0.05, args.t_max, args.steps):
        t = float(t)
        sws = [f for f in plan.phase_at(t).fronts if f.kind == "ShadowWave"]
        if sws:
            print("%8.3f %12.8f %12.8f %14.8f %12.8f" % (
                t, sws[0].xi(t), sws[0].speed(t), S * sws[0].mass(t),
                plan.m0(t)))
        else:
            print("%8.3f %12s %12s %14s %12.8f" % (
                t, "-", "-", "-", plan.m0(t)))


if __name__ == "__main__":
    main()
