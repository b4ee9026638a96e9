"""BENCHMARK.json lists exactly the metrics the benchmark produces."""

import json
import re

import sweep
import tracer
from conftest import BENCH

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25


def test_setup_time_is_declared_with_the_largest_bound():
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_list_matches_what_the_traced_run_reports():
    produced = set(tracer.layer_metrics(tracer.Tracer()))
    produced |= set(sweep.metric_names()) | {"trace.overhead_s", "fail_ratio"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}
