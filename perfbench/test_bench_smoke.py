"""Smoke test: every workload at a tiny size, untraced and traced."""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
from workloads import SPECS, TINY  # noqa: E402


def test_metric_names_match_benchmark_json():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert bench.E2E_UNITS == {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert bench.LAYER_UNITS == {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert sorted(SPECS) == sorted(w["name"] for w in doc["workloads"])
    assert sorted(TINY) == sorted(SPECS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload(name, trace):
    result, lines = bench.run(TINY[name], seed=3, seconds=0.0, trace=trace)
    assert result["correct"], lines
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    units = bench.LAYER_UNITS if trace else bench.E2E_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        counts = result["metrics"]
        assert counts["dynamics.trial_steps"]["value"] == \
            bench.unit_size(TINY[name]) * TINY[name].steps
        # one standard_normal(n) draw per trial per step
        assert counts["dynamics.rng_calls"]["value"] == \
            counts["dynamics.trial_steps"]["value"]
    json.dumps(result)
