"""The four workloads: set-up, timed units, correctness gate, metrics.

Each workload draws its subjects from a fixed pool in an order made from
the seed, records their ground-truth demonstrations, and replays them
through one public entry point of the system:

* ``inproc``: :class:`repro.service.sessions.SessionManager` in this
  process;
* ``served``: :class:`repro.service.client.ServiceClient` against one
  ``repro serve --backend memory`` worker;
* ``fleet``: the same client against ``repro cache-serve`` plus ``repro
  serve --workers 2 --backend remote://...``.

The timed region is made of *units*: one unit replays the first
``session_cap`` actions of every session of the draw (all of them when
the cap is null) on a freshly set-up system.  Units run back to back
until ``--seconds`` of timed work have passed and the pooled actions put
at least :data:`~perfbench.stats.MIN_BEYOND` samples beyond p95.  Every
unit is the same work, so where the clock stops changes how many units
ran, never the mix of actions the metrics describe.

With ``trace`` one more unit runs on a system set up afresh with the
span wrappers installed in every process.  Per-layer metrics come from
that unit; end-to-end metrics only ever come from untraced units.
"""

from __future__ import annotations

import json
import math
import os
import random
import tempfile
import time
import urllib.request
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

from perfbench import breakdown, procs
from perfbench.loadgen import (
    Drive,
    HttpClient,
    InprocClient,
    Plan,
    doctor,
    drive,
    mismatches,
    prediction_hits,
    reference_predictions,
)
from perfbench.stats import MIN_BEYOND, percentile, samples_beyond
from perfbench.tracer import Recorder, install

SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())

#: No unit may run longer than this (a safety cut: the run must end
#: within three minutes even on a pathologically slow commit).
UNIT_DEADLINE_S = 60.0

#: No unit starts after this much wall time of timed units (the same
#: safety cut, for the units a run pools).
REPEAT_LIMIT_S = 100.0


@dataclass
class Result:
    """One run's verdict and metrics (``name -> (value, unit)``)."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str] = field(default_factory=list)


@dataclass
class Unit:
    """One timed unit of work and what it cost."""

    plans: list[Plan]
    region: Drive
    cpu_s: float
    rss_mb: float


def draw(name: str, seed: int) -> list[str]:
    """The workload's pool in the order the seed gives.  Subjects the
    spec replays ``whole`` (the unit's longest sessions) start the
    queue, in their own seeded order, so the clients end together
    whatever the seed."""
    subjects = list(SPEC["workloads"][name]["pool"])
    random.Random(f"{name}/{seed}").shuffle(subjects)
    whole = SPEC["workloads"][name].get("whole", [])
    return [s for s in subjects if s in whole] + [s for s in subjects if s not in whole]


def record(subjects: Sequence[str]) -> list[Plan]:
    """Fresh ground-truth recordings (nothing memoized on their DOMs)."""
    from repro.benchmarks.suite import benchmark_by_id

    return [
        Plan(bid, replace(benchmark_by_id(bid), _recording=None).record())
        for bid in subjects
    ]


def unit_limits(name: str, plans: Sequence[Plan]) -> list[int]:
    """Actions each session replays in one unit: its first
    ``session_cap``, or all of them (no cap, or a subject the spec
    replays ``whole``)."""
    spec = SPEC["workloads"][name]
    cap, whole = spec["session_cap"], spec.get("whole", [])
    return [
        len(plan.recording.actions) if cap is None or plan.subject in whole
        else min(cap, len(plan.recording.actions))
        for plan in plans
    ]


def effective_clients(name: str) -> int:
    """The workload's client count, never above the machine's CPUs."""
    return max(1, min(SPEC["workloads"][name]["clients"], os.cpu_count() or 1))


def _budget() -> float:
    return float(SPEC["synthesis_budget_s"])


def _manager(share_cache: bool = True):
    from repro.service.sessions import SessionManager
    from repro.synth.config import DEFAULT_CONFIG

    return SessionManager(
        replace(DEFAULT_CONFIG, cache_backend="memory"),
        timeout=_budget(),
        share_cache=share_cache,
    )


def _repeat(seconds: float, run_unit: Callable[[], Unit]) -> list[Unit]:
    """Units back to back: one, then more while another still ends
    within ``seconds`` of timed work or the pooled actions leave fewer
    than ``MIN_BEYOND`` samples beyond p95 (none after
    ``REPEAT_LIMIT_S``)."""
    started = time.perf_counter()
    units = [run_unit()]
    while time.perf_counter() - started < REPEAT_LIMIT_S:
        timed = sum(u.region.wall_s for u in units)
        samples = sum(len(u.region.outcomes) for u in units)
        if timed + timed / len(units) > seconds and samples_beyond(samples, 95) >= MIN_BEYOND:
            break
        units.append(run_unit())
    return units


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def end_to_end(units: Sequence[Unit], setup_s: float) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """The end-to-end metrics over every action of every unit.  Units are
    the same work, so pooling them estimates the same percentiles
    whatever their number, from more samples."""
    latencies: list[float] = []
    hits = judged = completed = 0
    wall = cpu = 0.0
    for unit in units:
        region = unit.region
        # a failed action misses every latency limit: it is charged its
        # whole unit, longer than any action that completed
        latencies.extend(
            (region.wall_s if o.failed else o.latency) * 1000.0 for o in region.outcomes
        )
        wall += region.wall_s
        cpu += unit.cpu_s
        unit_hits, unit_judged = prediction_hits(region.outcomes, unit.plans)
        hits += unit_hits
        judged += unit_judged
        completed += sum(not o.failed for o in region.outcomes)
    count = len(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "action_p50_ms": (percentile(latencies, 50), "ms"),
        "action_p95_ms": (percentile(latencies, 95), "ms"),
        "actions_per_s": (completed / wall, "1/s"),
        "prediction_hit_rate": (hits / judged if judged else 0.0, "ratio"),
        "peak_rss_mb": (max(u.rss_mb for u in units), "MB"),
        "cpu_ms_per_action": (cpu * 1000.0 / max(1, completed), "ms"),
    }
    first = units[0]
    beyond = samples_beyond(count, 95)
    lines = [
        f"units: {len(units)} of {len(first.region.outcomes)} actions, {wall:.2f} s of timed work; "
        f"{count} samples, {beyond} beyond p95"
        + ("" if beyond >= MIN_BEYOND else f" (fewer than {MIN_BEYOND}: p95 is not supported)"),
        f"failed_frac: {(count - completed) / max(1, count):.4f} "
        f"({count - completed} of {count} attempted)",
        "sessions: " + " ".join(
            f"{plan.subject}:{done}/{len(plan.recording.actions)}"
            for plan, done in zip(first.plans, first.region.done)
        ),
    ]
    return metrics, lines


def _verdict(region: Drive, reference: dict, lines: list[str], doctored: bool) -> bool:
    outcomes = list(region.outcomes)
    if doctored:
        doctor(outcomes, reference)
    wrong = mismatches(outcomes, reference)
    checked = sum(1 for o in outcomes if (o.session, o.index) in reference)
    lines.append(
        f"correctness: {checked} actions compared with the in-process reference, "
        f"{len(wrong)} differ" + (f" (first: {wrong[0]})" if wrong else "")
    )
    return not wrong and checked > 0


def _failures(units: Sequence[Unit], lines: list[str]) -> int:
    failed = [o for unit in units for o in unit.region.outcomes if o.failed]
    for outcome in failed[:5]:
        lines.append(
            "failed: " + (outcome.error or f"session {outcome.session} action {outcome.index} timed out")
        )
    return len(failed)


def _fastest(units: Sequence[Unit]) -> Drive:
    """The untraced unit the traced one is compared with."""
    return min((u.region for u in units), key=lambda region: region.wall_s)


def _traced_metrics(
    name: str,
    untraced: Drive,
    traced: Drive,
    processes: Sequence[tuple[int, Sequence]],
    counters: Sequence[dict],
    lines: list[str],
) -> tuple[bool, dict[str, tuple[float, str]]]:
    """Per-layer metrics of the traced unit, and whether it proposed
    exactly what the untraced unit did."""
    before = {(o.session, o.index): o.predictions for o in untraced.outcomes if not o.failed}
    wrong = mismatches(traced.outcomes, before)
    lines.append(
        f"traced unit: {len(traced.outcomes)} actions, {len(wrong)} differ from the untraced unit"
    )
    spans = breakdown.link(processes, int(traced.started * 1e9), int(traced.finished * 1e9))
    actions = [(o.trace, o.latency * 1000.0) for o in traced.outcomes if not o.failed]
    metrics = breakdown.layer_metrics(spans, actions, counters, traced.wall_s, untraced.wall_s)
    p50 = breakdown.p50_breakdown(actions, breakdown.action_groups(spans))
    if p50:
        total = p50["action"]
        rows = sorted(((v, k) for k, v in p50.items() if k != "action"), reverse=True)
        lines.append(f"p50 breakdown of {name} (mean over actions between p40 and p60, {total:.2f} ms):")
        lines.extend(f"  {k:<20} {v:9.3f} ms  {100.0 * v / total:5.1f}%" for v, k in rows)
        compute = sum(p50.get(group, 0.0) for group in breakdown.COMPUTE_GROUPS)
        lines.append(f"largest layer at p50: {breakdown.largest_group(p50)}")
        lines.append(f"synth + analysis + engine share at p50: {100.0 * compute / total:.1f}%")
    return not wrong and len(traced.outcomes) == len(before), metrics


# ----------------------------------------------------------------------
# inproc
# ----------------------------------------------------------------------
def run_inproc(name: str, seed: int, seconds: float, trace: bool, doctored: bool = False) -> Result:
    from repro.engine.cache import reset_process_cache

    subjects = draw(name, seed)
    setups: list[float] = []

    def fresh() -> list[Plan]:
        # every unit starts from nothing memoized: no process cache, and
        # recordings whose DOMs carry no caches from an earlier unit
        reset_process_cache()
        started = time.perf_counter()
        plans = record(subjects)
        setups.append(time.perf_counter() - started)
        return plans

    for _ in range(SPEC["setup_repeats"]["inproc"] - 1):
        fresh()

    def run_unit() -> Unit:
        plans = fresh()
        manager = _manager(share_cache=False)
        cpu_before = procs.cpu_seconds()
        region = drive(
            lambda: InprocClient(manager), plans, 1, UNIT_DEADLINE_S,
            limits=unit_limits(name, plans),
        )
        return Unit(plans, region, procs.cpu_seconds() - cpu_before, procs.peak_rss_mb())

    units = _repeat(seconds, run_unit)
    metrics, lines = end_to_end(units, min(setups))
    failed = _failures(units, lines)

    # the gate: a seeded quarter of the first unit's sessions, replayed
    # from fresh recordings through a manager sharing one process cache
    # across sessions (the service's setting), must propose exactly what
    # the timed unit proposed with a cache per session
    first = units[0].region
    rng = random.Random(f"{name}/{seed}/reference")
    sample = set(rng.sample(range(len(first.done)), math.ceil(len(first.done) / 4)))
    limits = [done if i in sample else 0 for i, done in enumerate(first.done)]
    reset_process_cache()
    reference = reference_predictions(_manager(), record(subjects), limits)
    correct = _verdict(first, reference, lines, doctored)

    if trace:
        plans = fresh()
        manager = _manager(share_cache=False)
        recorder = install(Recorder())
        try:
            traced = drive(
                lambda: InprocClient(manager), plans, 1, UNIT_DEADLINE_S,
                limits=unit_limits(name, plans), traced=True,
            )
        finally:
            recorder.uninstall()
        same, metrics = _traced_metrics(
            name, _fastest(units), traced, [(os.getpid(), recorder.spans)],
            [recorder.counters()], lines,
        )
        correct = correct and same
    return Result(correct, sum(len(u.region.outcomes) for u in units), failed, metrics, lines)


# ----------------------------------------------------------------------
# served and fleet
# ----------------------------------------------------------------------
class _System:
    """One booted service (and cache tier): its processes and URLs."""

    def __init__(self, processes: procs.Processes, mode: str, trace_out: Optional[str] = None) -> None:
        self.processes = processes
        self.spawned: list[procs.Spawned] = []
        self.cache_url: Optional[str] = None
        serve = ["serve", "--host", "127.0.0.1", "--port", "0", "--timeout", str(_budget())]
        if mode == "fleet":
            # a fresh, empty store per system: every unit starts cold
            store = tempfile.mkdtemp(prefix="store-", dir=processes.run.path)
            cache = processes.spawn(
                "cache",
                ["cache-serve", "--host", "127.0.0.1", "--port", "0", "--cache-dir", store],
                trace_out,
            )
            self.spawned.append(cache)
            self.cache_url = cache.urls(1)[0]
            serve += ["--workers", "2", "--backend", "remote://" + self.cache_url.split("//", 1)[1]]
        else:
            serve += ["--backend", "memory"]
        service = processes.spawn("serve", serve, trace_out)
        self.spawned.append(service)
        self.urls = service.urls(2 if mode == "fleet" else 1)

    def tier_stats(self) -> dict:
        """The cache server's store counters (``GET /v1/stats``)."""
        request = urllib.request.Request(
            self.cache_url + "/v1/stats", headers={"Accept": "application/json"}
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.loads(response.read())

    def pids(self) -> list[int]:
        return [pid for spawned in self.spawned for pid in spawned.tree()]

    def stop(self) -> None:
        for spawned in reversed(self.spawned):
            self.processes.stop(spawned)


def _load_spans(run_dir: Path) -> tuple[list[tuple[int, list]], list[dict]]:
    processes, counters = [], []
    for path in sorted(run_dir.glob("spans-*.json")):
        payload = json.loads(path.read_text())
        processes.append((payload["pid"], payload["spans"]))
        counters.append(payload["counters"])
    return processes, counters


def _tier_verdict(warm: bool, seeded: Optional[dict], after: dict, lines: list[str]) -> bool:
    """Whether a fleet unit used the cache tier as its workload says:
    ``fleet-cold`` writes rows to it; in ``fleet-warm`` worker B's timed
    actions get more hits from it (lookups the cache server answered)
    than worker A's seeding run of the same actions over the empty tier,
    which is ``fleet-cold``'s work."""
    if not warm:
        lines.append(
            f"cache tier: {after['stores']} rows written, "
            f"{after['load_hits']} of {after['loads']} lookups hit"
        )
        return after["stores"] > 0
    cold = seeded["load_hits"]
    hits = after["load_hits"] - cold
    lines.append(
        f"cache tier: {hits} of {after['loads'] - seeded['loads']} lookups hit on worker B, "
        f"{cold} of {seeded['loads']} while seeding on worker A ({seeded['stores']} rows written)"
    )
    return hits > cold


def run_remote(name: str, seed: int, seconds: float, trace: bool, doctored: bool = False) -> Result:
    spec = SPEC["workloads"][name]
    mode = spec["mode"]
    warm = bool(spec.get("warm"))
    clients = effective_clients(name)
    subjects = draw(name, seed)
    boots: list[float] = []
    seedings: list[float] = []
    lines_reference: list[str] = []
    verdicts: list[bool] = []
    tier_used: list[bool] = []
    run = procs.RunDir()

    def client_for(url: str):
        return lambda: HttpClient(url, 3 * _budget())

    def boot(processes: procs.Processes, trace_out: Optional[str] = None):
        """Record, boot, and (warm) run the unit on worker A untimed.
        Returns the plans, the system, the unit's limits, and (warm) the
        cache tier's counters after seeding."""
        started = time.perf_counter()
        plans = record(subjects)
        system = _System(processes, mode, trace_out)
        boots.append(time.perf_counter() - started)
        limits = unit_limits(name, plans)
        seeded = None
        if warm:
            started = time.perf_counter()
            drive(client_for(system.urls[0]), plans, clients, UNIT_DEADLINE_S, limits=limits)
            seedings.append(time.perf_counter() - started)
            seeded = system.tier_stats()
        return plans, system, limits, seeded

    def target(system: _System) -> str:
        return system.urls[-1] if warm else system.urls[0]

    try:
        with procs.Processes(run) as processes:
            def extra_boot() -> None:
                started = time.perf_counter()
                record(subjects)
                system = _System(processes, mode)
                boots.append(time.perf_counter() - started)
                system.stop()

            # the repeated set-ups straddle the timed units, so their
            # minimum does not rest on one stretch of machine speed
            extra = SPEC["setup_repeats"][mode] - 1
            for _ in range(extra // 2):
                extra_boot()

            def run_unit() -> Unit:
                plans, system, limits, seeded = boot(processes)
                pids = system.pids()
                cpu_before = procs.cpu_seconds() + sum(procs.cpu_seconds(p) for p in pids)
                region = drive(client_for(target(system)), plans, clients, UNIT_DEADLINE_S, limits=limits)
                cpu_s = procs.cpu_seconds() + sum(procs.cpu_seconds(p) for p in pids) - cpu_before
                rss = sum(procs.peak_rss_mb(p) for p in pids)
                if mode == "fleet":
                    tier_used.append(_tier_verdict(warm, seeded, system.tier_stats(), lines_reference))
                system.stop()
                reference = reference_predictions(_manager(), plans, region.done)
                verdicts.append(_verdict(region, reference, lines_reference, doctored and not verdicts))
                return Unit(plans, region, cpu_s, rss)

            units = _repeat(seconds, run_unit)
            for _ in range(extra - extra // 2):
                extra_boot()
            # contention on a shared machine only ever adds time: the
            # fastest set-up is the steadiest estimate of its cost
            setup_s = min(boots) + (min(seedings) if warm else 0.0)
            metrics, lines = end_to_end(units, setup_s)
            lines.insert(0, f"clients: {clients}")
            lines.extend(lines_reference)
            failed = _failures(units, lines)
            correct = all(verdicts) and all(tier_used)

            if trace:
                plans, system, limits, seeded = boot(processes, str(run.path / "spans-{pid}.json"))
                recorder = install(Recorder())
                try:
                    traced = drive(
                        client_for(target(system)), plans, clients, UNIT_DEADLINE_S,
                        limits=limits, traced=True,
                    )
                finally:
                    recorder.uninstall()
                if mode == "fleet":
                    correct = _tier_verdict(warm, seeded, system.tier_stats(), lines) and correct
                system.stop()
                spawned, counters = _load_spans(run.path)
                same, metrics = _traced_metrics(
                    name, _fastest(units), traced,
                    [(os.getpid(), recorder.spans), *spawned],
                    [recorder.counters(), *counters], lines,
                )
                correct = correct and same
    finally:
        run.remove()
    return Result(correct, sum(len(u.region.outcomes) for u in units), failed, metrics, lines)


def run_workload(name: str, seed: int, seconds: float, trace: bool, doctored: bool = False) -> Result:
    """Run one workload; ``doctored`` alters one timed prediction before
    the correctness gate (the gate must then fail)."""
    mode = SPEC["workloads"][name]["mode"]
    runner = run_inproc if mode == "inproc" else run_remote
    return runner(name, seed, seconds, trace, doctored)
