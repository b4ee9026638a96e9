#!/usr/bin/env python3
"""Solitary-wave propagation benchmark.

gamma = 0 uses the closed-form profile; any other admissible gamma first
computes the wave by the stabilized fixed-point iteration and then
propagates it, reporting measured speed, realigned shape error, and
invariant drifts.

    python scripts/run_soliton.py --gamma 0.5 --c 0.75 --t-star 5
"""

import argparse
import sys
import warnings

from benj.harness import IntegratorPolicy, soliton_propagation_test
from benj.initdata import gaussian, kdv_soliton, petviashvili
from benj.model import ModelParams


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--c", type=float, default=0.5, help="wave speed")
    ap.add_argument("--gamma", type=float, default=0.0)
    ap.add_argument("--delta", type=float, default=1.0)
    ap.add_argument("--n-modes", type=int, default=256)
    ap.add_argument("--domain-scale", type=float, default=8.0)
    ap.add_argument("--t-star", type=float, default=10.0)
    ap.add_argument("--dt", type=float, default=None)
    ap.add_argument("--tol", type=float, default=1e-12, help="wave-solve tolerance")
    args = ap.parse_args()

    params = ModelParams(
        m=1, r=0.5, gamma=args.gamma, delta=args.delta, q=1,
        domain_scale=args.domain_scale,
    )
    if args.gamma != 0.0:
        guess = gaussian(1.0, 1.0, 0.0, args.n_modes, args.domain_scale)
        profile, rep = petviashvili(params, args.c, guess, tol=args.tol, max_iter=500)
        print(
            f"wave solve: {rep.iterations} sweeps, residual {rep.final_residual:.3e}",
            file=sys.stderr,
        )

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        if args.gamma == 0.0:
            profile = kdv_soliton(args.c, 0.0, params, args.n_modes)
        report = soliton_propagation_test(
            args.c, params, profile, args.t_star, IntegratorPolicy(dt=args.dt),
        )

    print("quantity,value")
    print(f"speed_target,{args.c:.17g}")
    print(f"speed_estimate,{report.speed_estimate:.17g}")
    print(f"speed_error,{abs(report.speed_estimate - args.c):.6e}")
    print(f"shape_error_linf,{report.shape_error_linf:.6e}")
    print(f"rel_drift_C,{report.drifts.rel_drift_C:.6e}")
    print(f"rel_drift_I,{report.drifts.rel_drift_I:.6e}")
    print(f"rel_drift_E,{report.drifts.rel_drift_E:.6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
