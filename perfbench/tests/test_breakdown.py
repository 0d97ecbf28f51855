"""Self time under nested and overlapping child spans, across processes."""

import pytest

from perfbench.breakdown import (
    action_groups,
    covered_ns,
    layer_metrics,
    link,
    p50_breakdown,
    self_ns,
)


def span(name, start, end, sid, parent=None, trace="t1", leaf_ns=0, leaf_calls=0, note=None):
    return (name, start, end, sid, parent, trace, leaf_ns, leaf_calls, note)


def by_name(spans):
    return {s.name: s for s in spans}


def test_union_of_overlapping_intervals():
    assert covered_ns(0, 100, [(10, 30), (20, 40), (50, 60)]) == 40
    # clipped to the parent; disjoint and empty intervals
    assert covered_ns(0, 100, [(-10, 5), (95, 120), (70, 70)]) == 10
    assert covered_ns(0, 100, []) == 0


def test_self_time_nested_children():
    spans = link([(1, [
        span("service.handle", 0, 100, 1),
        span("synth.synthesize", 10, 90, 2, parent=1),
        span("engine.execute", 20, 50, 3, parent=2, leaf_ns=10, leaf_calls=4),
    ])], 0, 1000)
    named = by_name(spans)
    assert self_ns(named["service.handle"]) == 20
    assert self_ns(named["synth.synthesize"]) == 50
    # the leaf calls are the engine span's own keys time, not its self time
    assert self_ns(named["engine.execute"]) == 20
    groups = action_groups(spans)["t1"]
    assert sum(groups.values()) == pytest.approx(100 / 1e6)
    assert groups["engine.keys"] == pytest.approx(10 / 1e6)


def test_self_time_overlapping_children_subtracts_union_once():
    # two children of one span overlap (a drain thread beside the
    # coordinating thread): only their union is subtracted
    spans = link([(1, [
        span("synth.synthesize", 0, 100, 1),
        span("synth.speculate", 10, 60, 2, parent=1),
        span("synth.validate", 40, 80, 3, parent=1),
    ])], 0, 1000)
    assert self_ns(by_name(spans)["synth.synthesize"]) == 30


def test_children_in_another_process_link_by_wire_id():
    client = [span("service.client", 0, 100, "abcd0123")]
    worker = [
        span("protocol.codec", 10, 20, 1, parent="abcd0123", note=300),
        span("service.handle", 25, 70, 2, parent="abcd0123"),
        span("synth.synthesize", 30, 60, 3, parent=2),
    ]
    spans = link([(1, client), (2, worker)], 0, 1000)
    named = by_name(spans)
    # the client's own time is the wire: round trip minus worker spans
    assert self_ns(named["service.client"]) == 45
    assert self_ns(named["service.handle"]) == 15
    # a local id of one process never matches another process's span
    assert named["synth.synthesize"] in named["service.handle"].children


def test_window_drops_spans_started_outside():
    spans = link([(1, [span("engine.execute", 5, 10, 1), span("engine.execute", 50, 60, 2)])], 20, 100)
    assert [s.start for s in spans] == [50]


def test_unattributed_and_layer_totals():
    spans = link([(1, [
        span("service.handle", 0, 1_000_000, 1, trace="a"),
        span("synth.synthesize", 0, 600_000, 2, parent=1, trace="a", note=[5, 0, 3, 1, 0]),
        span("service.handle", 2_000_000, 3_000_000, 3, trace="b"),
    ])], 0, 10_000_000)
    actions = [("a", 1.5), ("b", 1.0)]
    metrics = layer_metrics(spans, actions, [{}], 2.0, 1.0)
    assert metrics["synth.calls"][0] == 0.5
    assert metrics["synth.self_ms"][0] == pytest.approx(0.3)
    assert metrics["service.handle_ms"][0] == pytest.approx(0.7)
    assert metrics["engine.hit_ratio"][0] == 0.75
    # action a: 1.5 ms seen, 1.0 ms attributed; action b: all attributed
    assert metrics["unattributed_ms"][0] == pytest.approx(0.25)
    assert metrics["trace_overhead"][0] == 2.0
    breakdown = p50_breakdown(actions, action_groups(spans))
    assert breakdown["action"] == pytest.approx(1.25)


def test_only_gets_over_the_wire_count_as_cache_tier_lookups():
    spans = link([(1, [
        # a hit and a miss that went to the cache server
        span("fleet.remote.get", 0, 100, 1, note=1),
        span("fleet.pool.acquire", 1, 2, 2, parent=1, note=1),
        span("fleet.remote.get", 200, 300, 3, note=0),
        span("fleet.pool.acquire", 201, 202, 4, parent=3, note=1),
        # two hits the worker's own write buffer answered
        span("fleet.remote.get", 400, 401, 5, note=1),
        span("fleet.remote.get", 500, 501, 6, note=1),
    ])], 0, 1000)
    metrics = layer_metrics(spans, [("t1", 1.0), ("t2", 1.0)], [{}], 1.0, 1.0)
    assert metrics["fleet.remote.get.calls"][0] == 1.0
    assert metrics["fleet.remote.hit_ratio"][0] == 0.5
    assert metrics["fleet.remote.buffer_hits"][0] == 1.0
