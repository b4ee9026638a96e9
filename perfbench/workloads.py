"""The three benchmark workloads, driven through benj's public entry points.

All use the Benjamin instance m=1, r=1/2, gamma=delta=1, q=1 on random
data of Sobolev order 4 whose seeds derive from the benchmark seed.  Each
workload exposes ``run(rep, traced)``, which times one operation and then
checks its outputs, and ``setup(seed)``, the set-up a user pays before
that operation (timed in a fresh process by ``setup_probe.py``).

Calls go through module attributes (``benj.cli.main``,
``benj.harness.self_convergence``) so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import benj.cli
import benj.harness
from benj.harness import IntegratorPolicy, estimate_rate
from benj.initdata import InitialDataSpec, build_field, gaussian
from benj.invariants import record_invariants
from benj.model import ModelParams
from benj.semidiscrete import linear_multipliers
from benj.snapshots import read_snapshot
from benj.timestep import IntegratorConfig, etd_coefficients, evolve

BENJAMIN = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=1)
REGULARITY = 4.0


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark's, tests shrink them."""

    solve_n: int = 256
    solve_dt: float = 5e-4
    solve_t_end: float = 0.5
    solve_stride: int = 5
    tail_n: tuple = (32, 64, 128)
    study_n: tuple = (32, 64, 128, 256)
    study_n_ref: int = 1024
    converge_dt: float = 1e-4
    converge_t_star: float = 0.05
    linearized_dt: float = 4e-4
    linearized_t_star: float = 0.1
    guard_n: int = 128
    guard_dt: float = 1e-3
    guard_t_end: float = 1.0


class Checks:
    """Correctness checks; each call to ``expect`` is one attempt."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Workload:
    name = ""
    min_reps = 3

    def __init__(self, seed: int, outdir: Path, sizes: Sizes = Sizes()):
        self.seed = seed
        self.outdir = outdir
        self.sizes = sizes
        self.checks = Checks()

    def run(self, rep: int, traced: bool = False) -> dict:
        """Time one operation, check it; returns wall_s and mode_steps."""
        raise NotImplementedError

    def accuracy(self) -> dict:
        """rel_drift_E and fitted_rate over the operations run so far."""
        raise NotImplementedError


def _guard_drift_e(method: str, sizes: Sizes) -> float:
    """Energy drift of criterion 3's Gaussian under the workload's integrator.

    The studies' own drifts sit at rounding level, where a change in the
    last bits moves them arbitrarily; this fixed problem has a drift set by
    the time step, so it moves only when the integrator's accuracy does.
    """
    u0 = gaussian(1.0, 0.5, 0.0, sizes.guard_n, 1.0)
    result = evolve(u0, BENJAMIN, IntegratorConfig(method, sizes.guard_dt, sizes.guard_t_end, 10))
    return record_invariants([(0.0, u0)] + result.snapshots, BENJAMIN).rel_drift_E


# --------------------------------------------------------------------------
# solve-io

class SolveIO(Workload):
    """``benj solve`` with dense snapshots, then ``benj invariants`` on them.

    Rep 0 and rep 1 solve the same input, so their outputs must hash alike;
    every later rep draws a fresh input, so the accuracy figures average
    over many data sets (a single input's energy drift varies by tens of
    percent from seed to seed).  Each rep writes into a new directory,
    which is removed once checked.
    """

    name = "solve-io"

    def __init__(self, seed, outdir, sizes=Sizes()):
        super().__init__(seed, outdir, sizes)
        self.digests: dict[int, str] = {}
        self.drifts: dict[int, float] = {}
        self.rates: dict[int, float] = {}

    def data_seed(self, rep: int) -> int:
        return self.seed * 1000 + max(0, rep - 1)

    @staticmethod
    def config_text(seed: int, sizes: Sizes, outputs) -> str:
        return (
            "model.m = 1\nmodel.r = 0.5\nmodel.gamma = 1.0\nmodel.delta = 1.0\nmodel.q = 1\n"
            f"n_modes = {sizes.solve_n}\nseed = {seed}\ninitial.kind = random_sobolev\n"
            f"initial.regularity = {REGULARITY}\nintegrator.method = etdrk4\n"
            f"integrator.dt = {sizes.solve_dt!r}\nintegrator.t_end = {sizes.solve_t_end!r}\n"
            f"integrator.snapshot_stride = {sizes.solve_stride}\noutputs = {outputs}\n"
        )

    def run(self, rep, traced=False):
        s = self.sizes
        data_seed = self.data_seed(0 if traced else rep)
        repdir = self.outdir / f"rep{rep:03d}{'-traced' if traced else ''}"
        repdir.mkdir()
        out = repdir / "out"
        cfg = repdir / "run.cfg"
        cfg.write_text(self.config_text(data_seed, s, out))
        stdout = io.StringIO()

        t0 = time.perf_counter()
        rc_solve = benj.cli.main(["solve", "--config", str(cfg), "--quiet"])
        snaps = sorted(str(p) for p in out.glob("snap_*.txt"))
        with contextlib.redirect_stdout(stdout):
            rc_inv = benj.cli.main(["invariants", "--config", str(cfg), "--quiet", *snaps])
        wall = time.perf_counter() - t0

        c = self.checks
        c.expect(rc_solve == 0, f"rep {rep}: solve exit code {rc_solve}")
        c.expect(rc_inv == 0, f"rep {rep}: invariants exit code {rc_inv}")
        results = json.loads((out / "manifest.json").read_text()).get("results", {})
        drift = {k: results.get(f"rel_drift_{k}", math.inf) for k in "CIE"}
        c.expect(drift["C"] <= 1e-14, f"rep {rep}: mass drift {drift['C']:.3e}")
        c.expect(drift["I"] <= 1e-8, f"rep {rep}: L2 drift {drift['I']:.3e}")
        c.expect(drift["E"] <= 1e-8, f"rep {rep}: energy drift {drift['E']:.3e}")
        csv = (out / "invariants.csv").read_bytes()
        c.expect(stdout.getvalue().encode() == csv,
                 f"rep {rep}: invariants stdout differs from invariants.csv")
        digest = hashlib.sha256(csv)
        for path in snaps:
            digest.update(Path(path).read_bytes())
        digest = digest.hexdigest()
        if data_seed in self.digests:
            c.expect(digest == self.digests[data_seed],
                     f"rep {rep}: outputs of seed {data_seed} differ from an earlier run")
        else:
            self.digests[data_seed] = digest
            self.drifts[data_seed] = drift["E"]
            final, _ = read_snapshot(snaps[-1])
            self.rates[data_seed] = _tail_rate(final.coeffs, s.solve_n, s.tail_n)
        shutil.rmtree(repdir)

        steps = round(s.solve_t_end / s.solve_dt)
        return {"wall_s": wall, "mode_steps": (2 * s.solve_n + 1) * steps}

    def accuracy(self):
        return {
            "rel_drift_E": statistics.fmean(self.drifts.values()),
            "fitted_rate": statistics.median(self.rates.values()),
        }

    @staticmethod
    def setup(seed: int, sizes: Sizes = Sizes()) -> None:
        config = benj.cli.parse_config(SolveIO.config_text(seed * 1000, sizes, "unused"))
        build_field(config.initial, config.model, config.n_modes)
        etd_coefficients(linear_multipliers(config.model, config.n_modes), config.integrator.dt)


def _tail_rate(coeffs: np.ndarray, n_modes: int, cutoffs) -> float:
    """Algebraic decay rate in n of the truncation error ||u - P_n u||.

    For the solve's final field this is the same quantity the convergence
    studies fit, taken on the computed solution instead of against a
    reference: it drops if the run loses the data's regularity.
    """
    power = np.abs(coeffs) ** 2
    k = np.abs(np.arange(-n_modes, n_modes + 1))
    tails = [math.sqrt(2.0 * math.pi * float(np.sum(power[k > n]))) for n in cutoffs]
    return estimate_rate(list(cutoffs), tails)[0]


# --------------------------------------------------------------------------
# The two studies

def _rough_spec(seed: int) -> InitialDataSpec:
    return InitialDataSpec(kind="random_sobolev", regularity=REGULARITY, seed=seed)


def _study_setup(specs, sizes: Sizes) -> None:
    """Data at the reference bandwidth and the IFRK4 multipliers of every run."""
    for spec in specs:
        build_field(spec, BENJAMIN, sizes.study_n_ref)
    for n in (*sizes.study_n, sizes.study_n_ref):
        linear_multipliers(BENJAMIN, n)


class ConvergeRough(Workload):
    """``harness.self_convergence`` for two seeds on criterion 5's config."""

    name = "converge-rough"

    def __init__(self, seed, outdir, sizes=Sizes()):
        super().__init__(seed, outdir, sizes)
        self.specs = self.inputs(seed)
        self.rates: list[float] = []

    @staticmethod
    def inputs(seed: int) -> list:
        return [_rough_spec(2 * seed + i) for i in range(2)]

    def run(self, rep, traced=False):
        s = self.sizes
        policy = IntegratorPolicy(method="ifrk4", dt=s.converge_dt)
        t0 = time.perf_counter()
        reports = [benj.harness.self_convergence(BENJAMIN, spec, list(s.study_n), s.study_n_ref,
                                                 s.converge_t_star, policy)
                   for spec in self.specs]
        wall = time.perf_counter() - t0

        mode_steps = 0
        for spec, report in zip(self.specs, reports):
            tag = f"rep {rep}, data seed {spec.seed}"
            self.checks.expect(report.fitted_rate is not None and report.fitted_rate >= 2.5,
                               f"{tag}: rate {report.fitted_rate}")
            self.checks.expect(report.fit_r2 is not None and report.fit_r2 >= 0.95,
                               f"{tag}: r2 {report.fit_r2}")
            self.checks.expect(not report.failures, f"{tag}: failures {report.failures}")
            self.rates.append(report.fitted_rate)
            steps = round(report.t_star / report.dt)
            mode_steps += steps * sum(2 * n + 1 for n in report.n_values)
            mode_steps += 4 * steps * (2 * report.reference_n + 1)
        return {"wall_s": wall, "mode_steps": mode_steps}

    def accuracy(self):
        return {
            "rel_drift_E": _guard_drift_e("ifrk4", self.sizes),
            "fitted_rate": statistics.median(self.rates),
        }

    @staticmethod
    def setup(seed: int, sizes: Sizes = Sizes()) -> None:
        _study_setup(ConvergeRough.inputs(seed), sizes)


# --------------------------------------------------------------------------
# linearized

class Linearized(Workload):
    """``harness.intermediate_problem_study`` on criterion 6's config."""

    name = "linearized"

    def __init__(self, seed, outdir, sizes=Sizes()):
        super().__init__(seed, outdir, sizes)
        self.spec = _rough_spec(seed)
        self.rates: list[float] = []

    def run(self, rep, traced=False):
        s = self.sizes
        policy = IntegratorPolicy(method="ifrk4", dt=s.linearized_dt)
        t0 = time.perf_counter()
        report = benj.harness.intermediate_problem_study(
            BENJAMIN, self.spec, list(s.study_n), s.study_n_ref, s.linearized_t_star, policy)
        wall = time.perf_counter() - t0

        spread = max(report.w_linf_max) / min(report.w_linf_max)
        self.checks.expect(report.fitted_rate is not None and report.fitted_rate >= 2.5,
                           f"rep {rep}: rate {report.fitted_rate}")
        self.checks.expect(spread <= 1.10, f"rep {rep}: sup-norm spread {spread:.4f}")
        self.checks.expect(not report.failures, f"rep {rep}: failures {report.failures}")
        self.rates.append(report.fitted_rate)
        steps = round(report.t_star / report.dt)
        modes = sum(2 * n + 1 for n in report.n_values) + 2 * report.reference_n + 1
        return {"wall_s": wall, "mode_steps": steps * modes}

    def accuracy(self):
        return {
            "rel_drift_E": _guard_drift_e("ifrk4", self.sizes),
            "fitted_rate": statistics.median(self.rates),
        }

    @staticmethod
    def setup(seed: int, sizes: Sizes = Sizes()) -> None:
        _study_setup([_rough_spec(seed)], sizes)


WORKLOADS = {w.name: w for w in (SolveIO, ConvergeRough, Linearized)}
