"""Layer sweep: median cost per call of each kernel at fixed bandwidths.

Sizes map to workloads: N=256 is solve-io's bandwidth and the finest
member of both studies, N=1024 is the studies' reference run, N=64 a
coarse member, and N=4096 shows how each kernel scales past them.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from benj.initdata import random_sobolev
from benj.invariants import e_pi
from benj.semidiscrete import linear_multipliers, nonlinear_term
from benj.snapshots import read_snapshot, write_snapshot
from benj.spectral import analyze_coeffs, next_fast_len, synth_values
from benj.timestep import IntegratorConfig, etd_coefficients, evolve

from workloads import BENJAMIN, REGULARITY

SIZES = (64, 256, 1024, 4096)
KERNELS = (
    "spectral.synth_values",
    "spectral.analyze_coeffs",
    "semidiscrete.nonlinear_term",
    "timestep.step_etdrk4",
    "timestep.step_ifrk4",
    "timestep.etd_coefficients",
    "invariants.e_pi",
    "snapshots.write_snapshot",
    "snapshots.read_snapshot",
)
SWEEP_DT = 5e-4
STEPS = 8  # evolves of STEPS and 2*STEPS steps; their difference is per-step cost
BATCH_S = 0.004
BATCHES = 7


def metric_names(sizes=SIZES) -> list[str]:
    return [f"{k}.us.N{n}" for k in KERNELS for n in sizes]


def _per_call_us(fn) -> float:
    """Median over batches of the per-call time, each batch >= BATCH_S."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    count = max(1, int(BATCH_S / max(once, 1e-7)))
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(count):
            fn()
        samples.append((time.perf_counter() - t0) / count)
    return 1e6 * statistics.median(samples)


def _step_us(u0, method: str) -> float:
    """Per-step cost of ``evolve``, fixed set-up (weights) differenced out."""
    short = IntegratorConfig(method, SWEEP_DT, STEPS * SWEEP_DT, STEPS)
    long = IntegratorConfig(method, SWEEP_DT, 2 * STEPS * SWEEP_DT, 2 * STEPS)
    t_short = _per_call_us(lambda: evolve(u0, BENJAMIN, short))
    t_long = _per_call_us(lambda: evolve(u0, BENJAMIN, long))
    return (t_long - t_short) / STEPS


def layer_sweep(seed: int, workdir: Path, sizes=SIZES) -> dict[str, float]:
    workdir.mkdir(parents=True, exist_ok=True)
    out = {}
    for n in sizes:
        u = random_sobolev(REGULARITY, seed, n, 1.0)
        m = next_fast_len(3 * n + 1)  # the q=1 nonlinear term's padded grid
        values = synth_values(u.coeffs, n, m)
        term = nonlinear_term(BENJAMIN, n)
        mult = linear_multipliers(BENJAMIN, n)
        path = workdir / f"sweep_N{n}.txt"
        write_snapshot(path, u, 0.0)
        out[f"spectral.synth_values.us.N{n}"] = _per_call_us(lambda: synth_values(u.coeffs, n, m))
        out[f"spectral.analyze_coeffs.us.N{n}"] = _per_call_us(lambda: analyze_coeffs(values, n))
        out[f"semidiscrete.nonlinear_term.us.N{n}"] = _per_call_us(lambda: term(u.coeffs))
        out[f"timestep.step_etdrk4.us.N{n}"] = _step_us(u, "etdrk4")
        out[f"timestep.step_ifrk4.us.N{n}"] = _step_us(u, "ifrk4")
        out[f"timestep.etd_coefficients.us.N{n}"] = _per_call_us(
            lambda: etd_coefficients(mult, SWEEP_DT))
        out[f"invariants.e_pi.us.N{n}"] = _per_call_us(lambda: e_pi(u, BENJAMIN))
        out[f"snapshots.write_snapshot.us.N{n}"] = _per_call_us(lambda: write_snapshot(path, u, 0.0))
        out[f"snapshots.read_snapshot.us.N{n}"] = _per_call_us(lambda: read_snapshot(path))
        path.unlink()
    workdir.rmdir()
    return out
