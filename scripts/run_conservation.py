#!/usr/bin/env python3
"""Invariant-drift study: mass, L2, and energy drift against step size.

The semidiscrete system conserves all three exactly, so the measured
drifts isolate the time integrator; with a 4th-order scheme each halving
of dt should divide the drifts by about 16.

    python scripts/run_conservation.py --dts 1e-3 5e-4 2.5e-4
"""

import argparse
import sys

from benj.initdata import gaussian
from benj.invariants import record_invariants
from benj.model import ModelParams
from benj.timestep import IntegratorConfig, evolve


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-modes", type=int, default=128)
    ap.add_argument("--t-end", type=float, default=1.0)
    ap.add_argument("--dts", type=float, nargs="+", default=[1e-3, 5e-4, 2.5e-4])
    ap.add_argument("--method", default="etdrk4", choices=["etdrk4", "ifrk4"])
    ap.add_argument("--gamma", type=float, default=1.0)
    args = ap.parse_args()

    params = ModelParams(m=1, r=0.5, gamma=args.gamma, delta=1.0, q=1)
    u0 = gaussian(1.0, 0.5, 0.0, args.n_modes, 1.0)

    print("dt,rel_drift_C,rel_drift_I,rel_drift_E")
    previous = None
    for dt in args.dts:
        stride = max(1, int(round(args.t_end / dt / 100)))
        result = evolve(u0, params, IntegratorConfig(args.method, dt, args.t_end, stride))
        rec = record_invariants(result.snapshots, params)
        print(f"{dt:g},{rec.rel_drift_C:.6e},{rec.rel_drift_I:.6e},{rec.rel_drift_E:.6e}")
        if previous is not None:
            print(
                f"  halving ratios: I {previous.rel_drift_I / rec.rel_drift_I:.1f}, "
                f"E {previous.rel_drift_E / rec.rel_drift_E:.1f}",
                file=sys.stderr,
            )
        previous = rec
    return 0


if __name__ == "__main__":
    sys.exit(main())
