#!/usr/bin/env python3
"""benj benchmark: one workload, one fresh process, one JSON result.

    python3 perfbench/run.py --workload solve-io --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; benj is imported from ``src/``.  The
operation of the workload repeats until ``--seconds`` have passed (at
least three times) and every repetition's outputs are checked.  With
``--trace 0`` the last stdout line carries the end-to-end metrics listed
in BENCHMARK.json, times scaled to the box's unloaded speed (see
calibrate.py); with ``--trace 1`` one more repetition runs under the
span tracer and the last line carries the per-layer metrics, the layer
sweep, and the tracing overhead.  The line before it holds the full
record: environment, every sample, and the check failures.  Run files go
to ``.bench_out/<workload>/<run>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 11
SETUP_TIMEOUT_S = 60
CALIBRATION_SAMPLES = 5  # kernel runs after each repetition


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0 (it seeds numpy generators)")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, n_members: int) -> dict:
    import numpy

    threads = os.environ.get("BENJ_THREADS", "").strip()
    workers = int(threads) if threads else 0
    workers = workers if workers > 0 else (os.cpu_count() or 1)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "BENJ_THREADS": threads or "unset",
        "study_pool_workers": max(1, min(workers, n_members)),
        "git_commit": _git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_samples(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, calibration seconds) from SETUP_SAMPLES fresh
    interpreters, one at a time."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        setup, calib = done.stdout.split()[-2:]
        samples.append((float(setup), float(calib)))
    return samples


def measure(args, outdir: Path, sizes=None) -> dict:
    """Run the workload and return the full record (see module docstring)."""
    import calibrate
    import tracer as tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(args.seed, outdir, sizes or workloads.Sizes())

    setup = [] if args.trace else setup_samples(args.workload, args.seed)
    samples = []
    calibrate.kernel_seconds()  # warm-up: numpy's FFT plan set-up
    calib = []
    t_start = time.perf_counter()
    while len(samples) < wl.min_reps or time.perf_counter() - t_start < args.seconds:
        samples.append(wl.run(len(samples)))
        calib.extend(calibrate.kernel_seconds() for _ in range(CALIBRATION_SAMPLES))
    wall = [s["wall_s"] for s in samples]
    rates = [s["mode_steps"] / s["wall_s"] for s in samples]
    speed = calibrate.REFERENCE_S / statistics.fmean(calib)

    if args.trace:
        import sweep

        tr = tracing.Tracer()
        installed = tracing.Installation(tr)
        try:
            traced = wl.run(len(samples), traced=True)
        finally:
            installed.remove()
        values = tracing.layer_metrics(tr)
        values["trace.overhead_s"] = traced["wall_s"] - statistics.median(wall)
        values["fail_ratio"] = len(wl.checks.failures) / wl.checks.attempted
        values.update(sweep.layer_sweep(args.seed, outdir / "sweep"))
        tr.dump(outdir / "spans.jsonl.gz")
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(wall) * speed,
            "setup_s": statistics.median(t * calibrate.REFERENCE_S / c for t, c in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "mode_steps_per_s": statistics.median(rates) / speed,
            "pass_ratio": 1.0 - len(wl.checks.failures) / wl.checks.attempted,
            **wl.accuracy(),
        }
        declared = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           "are not declared in BENCHMARK.json, or not measured")
    checks = wl.checks
    return {
        "environment": environment(args, len(wl.sizes.study_n)),
        "raw_samples": {"wall_s": wall, "mode_steps_per_s": rates, "calibration_s": calib,
                        "setup_s": [t for t, _ in setup],
                        "setup_calibration_s": [c for _, c in setup]},
        "speed_scale": speed,
        "sample_count": {"wall_s": len(wall), "setup_s": len(setup)},
        "failures": checks.failures,
        "result": {
            "correct": not checks.failures and checks.attempted > 0,
            "attempted": checks.attempted,
            "failed": len(checks.failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        },
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import benj from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    outdir = (ROOT / ".bench_out" / args.workload
              / f"seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}")
    outdir.mkdir(parents=True)
    record = measure(args, outdir)
    (outdir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
