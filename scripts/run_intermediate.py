#!/usr/bin/env python3
"""Linearized intermediate-problem diagnostic.

Evolves, for each bandwidth N, the companion system whose advection
coefficient is frozen at a fine reference solution, and reports the decay
of the error against that reference together with the sup-norm of each
run (which should stay bounded uniformly in N).

    python scripts/run_intermediate.py --mu 4 --seed 0
"""

import argparse
import sys
from math import nan

from benj.harness import IntegratorPolicy, intermediate_problem_study
from benj.initdata import InitialDataSpec
from benj.model import ModelParams


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mu", type=float, default=4.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-values", type=int, nargs="+", default=[32, 64, 128, 256])
    ap.add_argument("--n-ref", type=int, default=1024)
    ap.add_argument("--t-star", type=float, default=0.5)
    ap.add_argument("--dt", type=float, default=4e-4,
                    help="policy step; the runs use a quarter of it")
    ap.add_argument("--method", default="ifrk4", choices=["etdrk4", "ifrk4"])
    ap.add_argument("--gamma", type=float, default=1.0)
    args = ap.parse_args()

    params = ModelParams(m=1, r=0.5, gamma=args.gamma, delta=1.0, q=1)
    spec = InitialDataSpec(kind="random_sobolev", regularity=args.mu, seed=args.seed)
    report = intermediate_problem_study(
        params, spec, args.n_values, args.n_ref, args.t_star,
        IntegratorPolicy(method=args.method, dt=args.dt),
    )

    print("N,error,w_linf_max")
    for n, err, wmax in zip(report.n_values, report.errors, report.w_linf_max):
        print(f"{n},{err:.17g},{wmax:.17g}")
    rate, r2 = (nan if x is None else x for x in (report.fitted_rate, report.fit_r2))
    print(f"rate,{rate:.6g},{r2:.6g}")
    spread = max(report.w_linf_max) / min(report.w_linf_max) - 1.0
    print(f"sup-norm spread across N: {spread * 100:.4f}%", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
