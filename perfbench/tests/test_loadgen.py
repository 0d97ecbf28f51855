"""Failure counting: errors and timed-out proposals are failed actions."""

from types import SimpleNamespace

import pytest

from perfbench.loadgen import drive
from perfbench.workloads import Unit, end_to_end, record


class FakeClient:
    """Session 0 times out on its second action; session 1 dies on its
    third (the service lost it)."""

    def __init__(self):
        self.closed = []
        self.counts = {}

    def create(self, snapshot):
        sid = f"s{len(self.counts)}"
        self.counts[sid] = 0
        return sid

    def record(self, sid, action, snapshot):
        index = self.counts[sid]
        self.counts[sid] += 1
        if sid == "s1" and index == 2:
            raise ConnectionError("worker died")
        return SimpleNamespace(
            predictions=(), stats=SimpleNamespace(timed_out=sid == "s0" and index == 1)
        )

    def close(self, sid):
        self.closed.append(sid)


def test_timeouts_and_lost_sessions_count_as_failed():
    plans = record(["b1", "b4"])
    client = FakeClient()
    region = drive(lambda: client, plans, 1, 60.0, limits=[4, 4])
    failed = [o for o in region.outcomes if o.failed]
    # session 1 dies at its third action; its fourth is lost with it
    assert len(region.outcomes) == 8
    assert [(o.session, o.index) for o in failed] == [(0, 1), (1, 2), (1, 3)]
    assert failed[0].timed_out and failed[0].error is None
    assert "worker died" in failed[1].error
    assert failed[2].error.endswith("session lost")
    assert region.done == [4, 4]
    # only the session that ran to its limit was closed in the region
    assert len(client.closed) == 1

    metrics, lines = end_to_end([Unit(plans, region, cpu_s=0.01, rss_mb=10.0)], setup_s=0.5)
    assert metrics["actions_per_s"][0] == pytest.approx(5 / region.wall_s)
    assert metrics["cpu_ms_per_action"][0] == pytest.approx(10.0 / 5)
    # a failed action is charged its whole unit: it lands in the tail
    assert metrics["action_p95_ms"][0] == pytest.approx(region.wall_s * 1000.0)
    assert any(line.startswith("failed_frac: 0.3750") for line in lines)
    # no predictions at all: every judged action is a miss
    assert metrics["prediction_hit_rate"][0] == 0.0


def test_each_client_replays_whole_sessions_in_draw_order():
    plans = record(["b1", "b4", "b7"])

    class Recording(FakeClient):
        def record(self, sid, action, snapshot):
            return SimpleNamespace(predictions=(), stats=SimpleNamespace(timed_out=False))

    region = drive(Recording, plans, 1, 60.0, limits=[3, 2, 3])
    assert region.done == [3, 2, 3]
    assert [(o.session, o.index) for o in region.outcomes] == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)
    ]

    shared = drive(Recording, plans, 2, 60.0, limits=[3, 2, 3])
    assert shared.done == [3, 2, 3]
    for session in range(3):
        indices = [o.index for o in shared.outcomes if o.session == session]
        assert indices == sorted(indices)
