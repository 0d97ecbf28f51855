"""Tiny runs of every workload: the correctness gate passes on honest
output and trips on one doctored prediction; traced runs attribute the
layers the workloads are built to stress."""

import copy

import pytest

from perfbench import workloads
from perfbench.workloads import run_workload

NAMES = ("inproc-heavy", "served-light", "fleet-cold", "fleet-warm")


@pytest.fixture
def tiny(monkeypatch):
    spec = copy.deepcopy(workloads.SPEC)
    spec["setup_repeats"] = {"inproc": 1, "served": 1, "fleet": 1}
    spec["workloads"]["inproc-heavy"].update(pool=["b15", "b40"], session_cap=6)
    spec["workloads"]["served-light"].update(pool=["b1", "b4"], session_cap=3)
    # the fleet checks need rows in the cache tier: b75 whole (16
    # actions) leaves some; three actions of a session leave none
    for name in NAMES[2:]:
        spec["workloads"][name].update(pool=["b75"], session_cap=None)
    monkeypatch.setattr(workloads, "SPEC", spec)
    monkeypatch.setattr(workloads, "MIN_BEYOND", 0)


@pytest.mark.parametrize("name", NAMES)
def test_gate_trips_on_a_doctored_prediction(tiny, name):
    honest = run_workload(name, 1, 0.0, trace=False)
    assert honest.correct, honest.lines
    assert honest.failed == 0 and honest.attempted > 0
    assert set(honest.metrics) == {
        "setup_s", "action_p50_ms", "action_p95_ms", "actions_per_s",
        "prediction_hit_rate", "peak_rss_mb", "cpu_ms_per_action",
    }
    doctored = run_workload(name, 1, 0.0, trace=False, doctored=True)
    assert not doctored.correct
    assert any("1 differ" in line for line in doctored.lines)


def _ms_layers(metrics):
    return {
        name: value for name, (value, unit) in metrics.items()
        if unit == "ms" and name != "unattributed_ms"
    }


def test_traced_served_run_names_the_wire(tiny):
    result = run_workload("served-light", 1, 0.0, trace=True)
    assert result.correct, result.lines
    layers = _ms_layers(result.metrics)
    assert max(layers, key=layers.get) == "service.wire_ms"
    assert "largest layer at p50: service.wire" in result.lines
    assert abs(result.metrics["unattributed_ms"][0]) < 0.1 * layers["service.wire_ms"]
    assert result.metrics["trace_overhead"][0] > 0


def test_traced_inproc_run_spends_the_action_in_synthesis(tiny):
    result = run_workload("inproc-heavy", 1, 0.0, trace=True)
    assert result.correct, result.lines
    layers = _ms_layers(result.metrics)
    compute = sum(
        value for name, value in layers.items()
        if name.split(".")[0] in ("synth", "engine", "analysis")
        and name not in ("synth.speculate_ms", "synth.validate_ms")
    )
    assert compute > 0.5 * sum(
        value for name, value in layers.items()
        if name not in ("synth.speculate_ms", "synth.validate_ms")
    )
    assert layers["service.wire_ms"] == 0.0


@pytest.mark.parametrize("name", NAMES[2:])
def test_fleet_run_fails_when_the_cache_tier_is_not_used(tiny, name):
    # three actions a session cost at most three, below the tier cost:
    # nothing is written, so worker B finds nothing to read
    workloads.SPEC["workloads"][name].update(pool=["b1"], session_cap=3, whole=[])
    result = run_workload(name, 1, 0.0, trace=False)
    assert not result.correct
    assert any(line.startswith("cache tier: ") for line in result.lines)
