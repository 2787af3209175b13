"""Sticky-particle oracle versus exact front over an N ladder.

Discretizes the jump datum into N ballistic shells, runs the merge
simulation, and tabulates front-position/mass/origin-mass errors against
the exact plan at the requested times.
"""
import argparse
import time

import radialsw as rs
from radialsw import oracle


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--R", type=float, default=1.0)
    ap.add_argument("--rho-l", type=float, default=1.0)
    ap.add_argument("--rho-r", type=float, default=1.0)
    ap.add_argument("--u-l", type=float, default=1.0)
    ap.add_argument("--u-r", type=float, default=-1.0)
    ap.add_argument("--N", type=int, nargs="+", default=[1000, 10000, 40000])
    ap.add_argument("--times", type=float, nargs="+", default=[0.5, 2.0, 3.9])
    ap.add_argument("--r-max", type=float, default=5.3)
    ap.add_argument("--run-to", type=float, default=None,
                    help="keep simulating past the last sample time to catch "
                         "the origin dump (default: last sample time)")
    args = ap.parse_args()

    data = rs.PseudoRiemannData(args.n, args.R, args.rho_l, args.rho_r,
                                args.u_l, args.u_r)
    plan = rs.solve(data, max(args.times) + 1.0)
    print("%8s %8s %14s %14s %14s %10s" % (
        "N", "t", "pos_err", "mass_rel_err", "m0_abs_err", "wall_s"))
    for N in args.N:
        ps = oracle.discretize(data, N, args.r_max)
        t0 = time.perf_counter()
        for t in sorted(args.times):
            ps.run_until(t)
            rep = oracle.compare(plan, ps, t)
            mass_rel = (rep["mass_error"] / rep["mass_exact"]
                        if rep["mass_error"] is not None else float("nan"))
            pos = rep["pos_error"] if rep["pos_error"] is not None else float("nan")
            print("%8d %8.3f %14.3e %14.3e %14.3e %10.2f" % (
                N, t, pos, mass_rel, rep["m0_error"],
                time.perf_counter() - t0))
        if args.run_to is not None:
            ps.run_until(args.run_to)
        hit = oracle.largest_absorption_time(ps)
        if hit is not None:
            print("%8d origin-hit time %.9f  m0 %.9f" % (N, hit, ps.m0))


if __name__ == "__main__":
    main()
