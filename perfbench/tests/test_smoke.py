"""Tiny-size runs of every workload, untraced and traced: no check fails."""

import argparse
import json

import pytest

import run
import workloads

TINY = workloads.Sizes(
    solve_n=32, solve_dt=1e-3, solve_t_end=0.02, tail_n=(4, 8, 16),
    study_n=(8, 16, 32), study_n_ref=128,
    converge_dt=1e-3, converge_t_star=0.01,
    linearized_dt=4e-3, linearized_t_star=0.02,
    guard_n=32, guard_t_end=0.1,
)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_every_check(workload, trace, tmp_path):
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.0, trace=trace)
    record = run.measure(args, tmp_path, TINY)
    result = record["result"]
    json.dumps(record)
    assert result["failed"] == 0, record["failures"]
    assert result["correct"] and result["attempted"] > 0
    metrics = result["metrics"]
    if trace:
        assert metrics["fail_ratio"]["value"] == 0
        assert metrics["timestep.evolve.calls"]["value"] > 0
        assert (tmp_path / "spans.jsonl.gz").exists()
    else:
        assert metrics["pass_ratio"]["value"] == 1
        assert metrics["wall_s"]["value"] > 0 and metrics["setup_s"]["value"] > 0
    assert record["environment"]["seed"] == 3
