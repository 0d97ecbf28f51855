"""Per-layer metrics from the spans of a traced run.

A layer's time is the *self time* of its spans: a span's duration minus
the part of it that its child spans cover (the union of their intervals,
so overlapping children are not subtracted twice) minus the leaf calls
folded into it.  Self times of one action's spans therefore add up to
the action's time, and whatever the client saw beyond them is
``unattributed_ms``.

Every ``*_ms`` and ``*.calls`` metric is per completed action: the
layer's total over the traced region divided by the actions completed
in it.  The cache server records no trace id (the worker sends it no
header), so its layers enter only these totals, never an action's
attribution, and their time lies inside ``fleet.remote.*_ms``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Optional, Sequence

from perfbench.stats import percentile

#: The group leaf calls (engine key hashing, see
#: :meth:`perfbench.tracer.Recorder.leaf`) are reported under.
LEAF_GROUP = "engine.keys"

#: Breakdown group of each span name (the rows of the p50 breakdown).
GROUP = {
    "synth.synthesize": "synth",
    "synth.speculate": "synth",
    "synth.validate": "synth",
    "analysis.infeasible": "analysis",
    "analysis.summary": "analysis",
    "engine.execute": "engine.execute",
    "protocol.codec": "protocol.codec",
    "service.handle": "service.handle",
    "service.session": "service.handle",
    "service.client": "service.wire",
    "service.client_session": "service.wire",
    "fleet.pool.acquire": "fleet.pool",
    "fleet.remote.get": "fleet.remote",
    "fleet.remote.put": "fleet.remote",
    "fleet.cache_server.handle": "fleet.cache_server",
    "backends.fetch": "backends",
    "backends.write": "backends",
}

#: Groups the in-process workload should spend most of an action in.
COMPUTE_GROUPS = ("synth", "analysis", "engine.execute", "engine.keys")


class Span:
    """One recorded span with its process-qualified ids."""

    __slots__ = (
        "name", "start", "end", "key", "parent", "trace", "leaf_ns",
        "leaf_calls", "note", "children",
    )

    def __init__(self, raw: Sequence, pid: int) -> None:
        (self.name, self.start, self.end, span_id, parent_id, self.trace,
         self.leaf_ns, self.leaf_calls, self.note) = raw
        self.key = _qualify(span_id, pid)
        self.parent = _qualify(parent_id, pid)
        self.children: list["Span"] = []

    @property
    def duration(self) -> int:
        return self.end - self.start


def _qualify(span_id, pid: int):
    """Integer ids are per process; 8-hex wire ids are global."""
    if span_id is None or isinstance(span_id, str):
        return span_id
    return (pid, span_id)


def covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals if min(e, end) > max(s, start)
    )
    total = 0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_ns(span: Span) -> int:
    """The span's duration minus its children's union and its leaf calls."""
    covered = covered_ns(span.start, span.end, ((c.start, c.end) for c in span.children))
    return max(0, span.duration - covered - span.leaf_ns)


def link(processes: Sequence[tuple[int, Sequence]], start: int, end: int) -> list[Span]:
    """Spans of every process that started inside ``[start, end]``, with
    each one's children attached."""
    spans = [
        Span(raw, pid)
        for pid, raws in processes
        for raw in raws
        if start <= raw[1] <= end
    ]
    by_key = {span.key: span for span in spans}
    for span in spans:
        parent = by_key.get(span.parent)
        if parent is not None:
            parent.children.append(span)
    return spans


def action_groups(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per trace id: milliseconds of self time by breakdown group."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span.trace is None:
            continue
        groups = out[span.trace]
        groups[GROUP.get(span.name, span.name)] += self_ns(span) / 1e6
        if span.leaf_calls:
            groups[LEAF_GROUP] += span.leaf_ns / 1e6
    return out


def p50_breakdown(
    actions: Sequence[tuple[str, float]], groups: dict[str, dict[str, float]]
) -> dict[str, float]:
    """Mean self time by group over the actions between p40 and p60.

    ``actions`` are ``(trace_id, client-observed ms)``; the result adds an
    ``unattributed`` row and the band's mean ``action`` time.
    """
    if not actions:
        return {}
    latencies = [ms for _, ms in actions]
    low, high = percentile(latencies, 40), percentile(latencies, 60)
    band = [(trace, ms) for trace, ms in actions if low <= ms <= high]
    totals: dict[str, float] = defaultdict(float)
    for trace, ms in band:
        attributed = 0.0
        for group, value in groups.get(trace, {}).items():
            totals[group] += value
            attributed += value
        totals["unattributed"] += ms - attributed
    out = {group: value / len(band) for group, value in totals.items()}
    out["action"] = sum(ms for _, ms in band) / len(band)
    return out


def largest_group(breakdown: dict[str, float]) -> Optional[str]:
    """The group with the most time in a breakdown (``action`` excluded)."""
    rows = {k: v for k, v in breakdown.items() if k != "action"}
    return max(rows, key=rows.get) if rows else None


def layer_metrics(
    spans: Sequence[Span],
    actions: Sequence[tuple[str, float]],
    counters: Sequence[dict],
    traced_wall_s: float,
    untraced_wall_s: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    completed = max(1, len(actions))
    calls: dict[str, int] = defaultdict(int)
    self_ms: dict[str, float] = defaultdict(float)
    errors = 0
    notes: dict[str, list] = defaultdict(list)
    leaf_calls = 0
    leaf_ms = 0.0
    put_calls = put_bytes = retries = 0
    wire_gets = wire_hits = buffer_hits = 0
    for span in spans:
        calls[span.name] += 1
        self_ms[span.name] += self_ns(span) / 1e6
        leaf_calls += span.leaf_calls
        leaf_ms += span.leaf_ns / 1e6
        if span.note == "error":
            errors += 1
        elif span.note is not None:
            notes[span.name].append(span.note)
        if span.name == "fleet.remote.put":
            encoded = [c for c in span.children if c.name == "protocol.codec"]
            if encoded:
                put_calls += 1
                put_bytes += sum(c.note for c in encoded if isinstance(c.note, int))
        if span.name in ("fleet.remote.get", "fleet.remote.put"):
            attempts = sum(1 for c in span.children if c.name == "fleet.pool.acquire")
            retries += max(0, attempts - 1)
        if span.name == "fleet.remote.get":
            hit = span.note if isinstance(span.note, int) else 0
            # a get is a cache-tier lookup only when it went over the wire;
            # one the worker's own write buffer answered never left it
            if any(c.name == "fleet.pool.acquire" for c in span.children):
                wire_gets += 1
                wire_hits += hit
            else:
                buffer_hits += hit

    def per_action(value: float) -> float:
        return value / completed

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    synth = notes["synth.synthesize"]
    hits = sum(n[2] for n in synth)
    misses = sum(n[3] for n in synth)
    refuted = sum(notes["analysis.infeasible"])
    acquires = notes["fleet.pool.acquire"]
    attributed = action_groups(spans)
    unattributed = [
        ms - sum(attributed.get(trace, {}).values()) for trace, ms in actions
    ]
    session_calls = calls["service.handle"] + calls["service.session"]
    ms, count, per, share = "ms", "count", "count/action", "ratio"
    return {
        "synth.calls": (per_action(calls["synth.synthesize"]), per),
        "synth.self_ms": (per_action(sum(
            self_ms[n] for n in ("synth.synthesize", "synth.speculate", "synth.validate")
        )), ms),
        "synth.speculate_ms": (per_action(self_ms["synth.speculate"]), ms),
        "synth.validate_ms": (per_action(self_ms["synth.validate"]), ms),
        "synth.pops": (per_action(sum(n[0] for n in synth)), per),
        "synth.timeouts": (sum(n[1] for n in synth), count),
        "analysis.infeasible.calls": (per_action(calls["analysis.infeasible"]), per),
        "analysis.infeasible_ms": (per_action(self_ms["analysis.infeasible"]), ms),
        "analysis.refuted_ratio": (ratio(refuted, calls["analysis.infeasible"]), share),
        "analysis.summary_ms": (per_action(self_ms["analysis.summary"]), ms),
        "engine.execute.calls": (per_action(calls["engine.execute"]), per),
        "engine.execute_ms": (per_action(self_ms["engine.execute"]), ms),
        "engine.hit_ratio": (ratio(hits, hits + misses), share),
        "engine.keys.calls": (per_action(leaf_calls), per),
        "engine.keys_ms": (per_action(leaf_ms), ms),
        "engine.index_builds": (per_action(sum(n[4] for n in synth)), per),
        "protocol.codec.calls": (per_action(calls["protocol.codec"]), per),
        "protocol.codec_ms": (per_action(self_ms["protocol.codec"]), ms),
        "protocol.codec.bytes": (per_action(sum(
            n for n in notes["protocol.codec"] if isinstance(n, int)
        )), "B/action"),
        "service.requests": (per_action(session_calls), per),
        "service.errors": (errors, count),
        "service.handle_ms": (per_action(self_ms["service.handle"]), ms),
        "service.wire_ms": (per_action(self_ms["service.client"]), ms),
        "fleet.pool.acquire_ms": (per_action(self_ms["fleet.pool.acquire"]), ms),
        "fleet.pool.reuse_ratio": (ratio(sum(acquires), len(acquires)), share),
        "fleet.remote.get.calls": (per_action(wire_gets), per),
        "fleet.remote.get_ms": (per_action(self_ms["fleet.remote.get"]), ms),
        "fleet.remote.hit_ratio": (ratio(wire_hits, wire_gets), share),
        "fleet.remote.buffer_hits": (per_action(buffer_hits), per),
        "fleet.remote.put.calls": (per_action(put_calls), per),
        "fleet.remote.put_ms": (per_action(self_ms["fleet.remote.put"]), ms),
        "fleet.remote.put.bytes": (per_action(put_bytes), "B/action"),
        "fleet.remote.failures": (
            retries + sum(c.get("remote_failures", 0) for c in counters), count
        ),
        "fleet.cache_server.handle_ms": (
            per_action(self_ms["fleet.cache_server.handle"]), ms
        ),
        "backends.fetch_ms": (per_action(self_ms["backends.fetch"]), ms),
        "backends.write_ms": (per_action(self_ms["backends.write"]), ms),
        "backends.decode_hits": (sum(c.get("decode_hits", 0) for c in counters), count),
        "unattributed_ms": (
            sum(unattributed) / len(unattributed) if unattributed else 0.0, ms
        ),
        "trace_overhead": (ratio(traced_wall_s, untraced_wall_s), share),
    }
