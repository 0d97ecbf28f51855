"""Plain-text table rendering for the experiment harnesses."""

from __future__ import annotations

from typing import Sequence


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned monospace table."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = [
        "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)),
        "  ".join("-" * width for width in widths),
    ]
    for row in cells:
        lines.append("  ".join(value.ljust(widths[index]) for index, value in enumerate(row)))
    return "\n".join(lines)


def quartiles(values: Sequence[float]) -> tuple[float, float, float, float, float]:
    """(min, q1, median, q3, max) with linear interpolation."""
    if not values:
        return (0.0, 0.0, 0.0, 0.0, 0.0)
    ordered = sorted(values)

    def at(fraction: float) -> float:
        position = fraction * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        weight = position - low
        return ordered[low] * (1 - weight) + ordered[high] * weight

    return (ordered[0], at(0.25), at(0.5), at(0.75), ordered[-1])


def fmt_ms(seconds: float) -> str:
    """Milliseconds with sensible precision."""
    ms = seconds * 1000.0
    if ms >= 100:
        return f"{ms:.0f}ms"
    if ms >= 10:
        return f"{ms:.1f}ms"
    return f"{ms:.2f}ms"


def fmt_pct(fraction: float) -> str:
    """A percentage out of a 0..1 fraction."""
    return f"{fraction * 100:.0f}%"


def fmt_bytes(count: int) -> str:
    """A byte count with a binary-unit suffix."""
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024 or unit == "GiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024
    raise AssertionError("unreachable")


def render_synthesis_stats(stats) -> str:
    """Engine/search telemetry of one ``synthesize`` call as a table.

    ``stats`` is a :class:`repro.synth.synthesizer.SynthesisStats`; the
    cache and index rows surface the execution engine's per-call deltas.
    """
    rows = [
        ["trace length", stats.trace_length],
        ["worklist pops", stats.pops],
        ["speculated", stats.speculated],
        ["statically pruned", stats.pruned],
        ["validations run", stats.validations],
        ["validated", stats.validated],
        ["store tuples", stats.tuples],
        ["cache backend", stats.cache_backend],
        ["exec cache hits", stats.cache_hits],
        ["  exact hits", stats.cache_exact_hits],
        ["  prefix hits", stats.cache_prefix_hits],
        ["  consistency hits", stats.cache_consistency_hits],
        ["  cross-session hits", stats.cache_cross_session_hits],
        ["  warm-start hits", stats.cache_warm_hits],
        ["loop resume hits", stats.cache_resume_hits],
        ["decoded-cache hits", stats.cache_decode_hits],
        ["decoded-cache bytes", fmt_bytes(stats.cache_decode_bytes)],
        ["exec cache misses", stats.cache_misses],
        ["exec cache hit rate", fmt_pct(stats.cache_hit_rate)],
        ["exec cache evictions", stats.cache_evictions],
        ["exec cache bytes", fmt_bytes(stats.cache_bytes)],
        ["persisted bytes", fmt_bytes(stats.persisted_bytes)],
        ["interned snapshots", stats.interned_snapshots],
        ["interned bytes", fmt_bytes(stats.interned_bytes)],
        ["DOM index builds", stats.index_builds],
        # phase times are wall-clock per phase; the phases run one
        # after another, so their sum is at most ``elapsed``
        ["speculate time", fmt_ms(stats.speculate_s)],
        ["validate time", fmt_ms(stats.validate_s)],
        ["extend time", fmt_ms(stats.extend_s)],
        ["elapsed", fmt_ms(stats.elapsed)],
        ["timed out", "yes" if stats.timed_out else "no"],
    ]
    return render_table(["metric", "value"], rows)
