"""Acceptance suite: the eight verification criteria, one test each.

Every test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in captured output) before asserting, so a full run yields a one-line
verdict per criterion.  Tolerances are fixed here, not configurable.
"""

import json

import numpy as np
import pytest

from benj.cli import EXIT_OK, main
from benj.harness import (
    IntegratorPolicy,
    intermediate_problem_study,
    self_convergence,
    soliton_propagation_test,
)
from benj.initdata import InitialDataSpec, gaussian, kdv_soliton, petviashvili
from benj.invariants import record_invariants
from benj.model import ModelParams
from benj.semidiscrete import rhs
from benj.spectral import SpectralField, derivative, l2_norm, linf_norm
from benj.timestep import IntegratorConfig, evolve

from oracles import rand_field, rhs_direct

BENJAMIN = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=1)
GAUSS = InitialDataSpec(kind="gaussian", amplitude=1.0, width=0.5, center=0.0)

pytestmark = pytest.mark.filterwarnings("ignore:soliton tail")


def verdict(ok: bool, name: str, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return ok


def test_criterion_1_oracle_equivalence():
    """rhs matches a direct convolution implementation to 1e-12."""
    worst = 0.0
    for q in (1, 2, 3):
        params = ModelParams(m=1, r=0.5, gamma=1.0, delta=1.0, q=q)
        for i in range(50):
            n = 1 + i % 16
            u = rand_field(n, seed=10_000 * q + i)
            diff = np.max(np.abs(rhs(params, u).coeffs - rhs_direct(params, u)))
            worst = max(worst, diff)
    ok = worst <= 1e-12
    assert verdict(ok, "criterion 1 (oracle equivalence)",
                   f"max |coeff diff| = {worst:.3e} (tol 1e-12, 150 fields, N<=16, q in 1..3)")


def test_criterion_2_spectral_accuracy_smooth_data():
    """Gaussian data: error(2N) <= 0.1*error(N) until errors reach 1e-11."""
    report = self_convergence(
        BENJAMIN, GAUSS, [16, 32, 64, 128], 512, 1.0,
        IntegratorPolicy(method="ifrk4", dt=1e-4),
    )
    e = report.errors
    checks = []
    for e1, e2 in zip(e, e[1:]):
        checks.append(e2 <= 0.1 * e1 or e2 <= 1e-11)
    ok = all(checks) and not report.failures
    detail = ", ".join(f"{x:.2e}" for x in e)
    assert verdict(ok, "criterion 2 (spectral accuracy)",
                   f"errors [{detail}] vs ratio 0.1 / floor 1e-11")


def test_criterion_3_conservation():
    """Mass exact; L2 and energy drifts <= 1e-8 and 4th-order in dt."""
    u0 = gaussian(1.0, 0.5, 0.0, 128, 1.0)
    records = {}
    for dt in (1e-3, 5e-4, 2.5e-4):
        stride = max(1, int(round(0.01 / dt)))
        result = evolve(u0, BENJAMIN, IntegratorConfig("etdrk4", dt, 1.0, stride))
        records[dt] = record_invariants(result.snapshots, BENJAMIN)
    base = records[1e-3]
    ratios = []
    for a, b in ((1e-3, 5e-4), (5e-4, 2.5e-4)):
        ratios.append(records[a].rel_drift_I / records[b].rel_drift_I)
        ratios.append(records[a].rel_drift_E / records[b].rel_drift_E)
    ok = (
        base.rel_drift_C <= 1e-14
        and base.rel_drift_I <= 1e-8
        and base.rel_drift_E <= 1e-8
        and all(8.0 <= r <= 32.0 for r in ratios)
    )
    assert verdict(
        ok, "criterion 3 (conservation)",
        f"drift C={base.rel_drift_C:.1e} I={base.rel_drift_I:.2e} "
        f"E={base.rel_drift_E:.2e}; halving ratios "
        + ", ".join(f"{r:.1f}" for r in ratios) + " (need [8, 32])",
    )


def test_criterion_4_soliton_propagation():
    """Closed-form soliton: speed to 1e-4, shape to 1e-6, residual to 1e-8."""
    params = ModelParams(m=1, r=0.5, gamma=0.0, delta=1.0, q=1, domain_scale=8.0)
    c = 0.5
    profile = kdv_soliton(c, 0.0, params, 256)
    flow = rhs(params, profile)
    dx = derivative(profile)
    residual = l2_norm(SpectralField(256, 8.0, flow.coeffs + c * dx.coeffs)) / l2_norm(dx)
    report = soliton_propagation_test(c, params, profile, 10.0)
    speed_err = abs(report.speed_estimate - c)
    ok = speed_err <= 1e-4 and report.shape_error_linf <= 1e-6 and residual <= 1e-8
    assert verdict(
        ok, "criterion 4 (soliton propagation)",
        f"|speed-c|={speed_err:.2e} (tol 1e-4), shape={report.shape_error_linf:.2e} "
        f"(tol 1e-6), residual={residual:.2e} (tol 1e-8)",
    )


def test_criterion_5_sobolev_limited_rate():
    """Rough (order-4) data: fitted rate >= 2.5 with r2 >= 0.95, 3 seeds."""
    outcomes = []
    ok = True
    for seed in (0, 1, 2):
        spec = InitialDataSpec(kind="random_sobolev", regularity=4.0, seed=seed)
        report = self_convergence(
            BENJAMIN, spec, [32, 64, 128, 256], 1024, 0.5,
            IntegratorPolicy(method="ifrk4", dt=1e-4),
        )
        outcomes.append((seed, report.fitted_rate, report.fit_r2))
        ok = ok and report.fitted_rate >= 2.5 and report.fit_r2 >= 0.95
    detail = "; ".join(f"seed {s}: rate {r:.2f}, r2 {q:.4f}" for s, r, q in outcomes)
    assert verdict(ok, "criterion 5 (regularity-limited rate)",
                   detail + " (need rate >= 2.5, r2 >= 0.95)")


def test_criterion_6_intermediate_problem():
    """Linearized companion runs: error rate >= 2.5, sup norms uniform."""
    spec = InitialDataSpec(kind="random_sobolev", regularity=4.0, seed=0)
    report = intermediate_problem_study(
        BENJAMIN, spec, [32, 64, 128, 256], 1024, 0.5,
        IntegratorPolicy(method="ifrk4", dt=4e-4),
    )
    spread = max(report.w_linf_max) / min(report.w_linf_max)
    ok = report.fitted_rate >= 2.5 and spread <= 1.10 and not report.failures
    assert verdict(
        ok, "criterion 6 (intermediate problem)",
        f"rate {report.fitted_rate:.2f} (need >= 2.5), sup-norm spread "
        f"{(spread - 1) * 100:.3f}% (need <= 10%)",
    )


def test_criterion_7_petviashvili_validation():
    """Fixed-point waves: closed-form match, residual, and propagation."""
    kdv = ModelParams(m=1, r=0.5, gamma=0.0, delta=1.0, q=1, domain_scale=8.0)
    guess = gaussian(1.0, 1.0, 0.0, 256, 8.0)
    wave_kdv, _ = petviashvili(kdv, 0.5, guess, tol=1e-12, max_iter=400)
    exact = kdv_soliton(0.5, 0.0, kdv, 256)
    mismatch = linf_norm(SpectralField(256, 8.0, wave_kdv.coeffs - exact.coeffs))

    benj = ModelParams(m=1, r=0.5, gamma=0.5, delta=1.0, q=1, domain_scale=8.0)
    wave, report = petviashvili(benj, 0.75, guess, tol=1e-10, max_iter=400)
    stab_gap = abs(report.stabilizers[-1] - 1.0)
    # a converged stabilizer sits a few ulps from 1, where any rounding-level
    # change moves it; below this floor the line prints the floor, not the value
    gap_floor = 1e-12
    gap_text = f"< {gap_floor:.0e}" if stab_gap < gap_floor else f"{stab_gap:.1e}"

    prop = soliton_propagation_test(0.75, benj, wave, 5.0)
    ok = (
        mismatch <= 1e-8
        and report.final_residual <= 1e-10
        and stab_gap < 1e-8
        and prop.shape_error_linf <= 1e-4
    )
    assert verdict(
        ok, "criterion 7 (fixed-point waves)",
        f"closed-form mismatch {mismatch:.2e} (tol 1e-8), residual "
        f"{report.final_residual:.2e} (tol 1e-10), |s-1| {gap_text} (tol 1e-8), "
        f"propagated shape error {prop.shape_error_linf:.2e} (tol 1e-4)",
    )


def test_criterion_8_determinism_and_io(tmp_path):
    """Byte-identical reruns and exact snapshot round trips."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model.m = 1\nmodel.r = 0.5\nmodel.gamma = 1\nmodel.delta = 1\nmodel.q = 1\n"
        "n_modes = 48\nseed = 11\ninitial.kind = random_sobolev\n"
        "integrator.dt = 1e-3\nintegrator.t_end = 0.05\nintegrator.snapshot_stride = 10\n"
    )
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        code = main(["solve", "--config", str(cfg), "--quiet",
                     "--override", f"outputs={out}"])
        assert code == EXIT_OK
    identical = (
        (outs[0] / "invariants.csv").read_bytes() == (outs[1] / "invariants.csv").read_bytes()
    )
    snaps = sorted(p.name for p in outs[0].glob("snap_*.txt"))
    for name in snaps:
        identical = identical and (
            (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        )

    from benj.snapshots import read_snapshot, write_snapshot

    field = rand_field(33, seed=77, domain_scale=2.0)
    write_snapshot(tmp_path / "rt.txt", field, t=0.125)
    loaded, t = read_snapshot(tmp_path / "rt.txt")
    round_trip = t == 0.125 and loaded.coeffs.tobytes() == field.coeffs.tobytes()

    manifest = json.loads((outs[0] / "manifest.json").read_text())
    ok = identical and round_trip and manifest["status"] == "ok"
    assert verdict(
        ok, "criterion 8 (determinism and I/O)",
        f"{len(snaps)} snapshots byte-identical across reruns; "
        f"round trip exact: {round_trip}",
    )
