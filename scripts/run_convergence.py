#!/usr/bin/env python3
"""Bandwidth self-convergence study for the Benjamin instance.

Reproduces the regularity-limited rate measurement and also supports the
exploratory low-regularity range (mu between 3/2 and 5/2), where the
theory gives no rate guarantee.

    python scripts/run_convergence.py --mu 4 --seeds 0 1 2 --out rates.csv
"""

import argparse
import sys
from math import nan

from benj.harness import IntegratorPolicy, self_convergence
from benj.initdata import InitialDataSpec
from benj.model import ModelParams


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mu", type=float, default=4.0, help="data regularity order")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--n-values", type=int, nargs="+", default=[32, 64, 128, 256])
    ap.add_argument("--n-ref", type=int, default=1024)
    ap.add_argument("--t-star", type=float, default=0.5)
    ap.add_argument("--dt", type=float, default=1e-4,
                    help="policy step of the members; the reference uses a quarter of it")
    ap.add_argument("--method", default="ifrk4", choices=["etdrk4", "ifrk4"])
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--out", default=None, help="CSV path (default: stdout)")
    args = ap.parse_args()

    params = ModelParams(m=1, r=0.5, gamma=args.gamma, delta=1.0, q=1)
    policy = IntegratorPolicy(method=args.method, dt=args.dt)

    lines = ["seed,N,error,fitted_rate,fit_r2"]
    for seed in args.seeds:
        spec = InitialDataSpec(kind="random_sobolev", regularity=args.mu, seed=seed)
        report = self_convergence(
            params, spec, args.n_values, args.n_ref, args.t_star, policy
        )
        for n, err in zip(report.n_values, report.errors):
            lines.append(f"{seed},{n},{err:.17g},,")
        rate, r2 = (nan if x is None else x for x in (report.fitted_rate, report.fit_r2))
        lines.append(f"{seed},summary,,{rate:.6g},{r2:.6g}")
        print(
            f"mu={args.mu} seed={seed}: rate {rate:.3f} (r2 {r2:.4f})",
            file=sys.stderr,
        )

    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
