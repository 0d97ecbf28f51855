"""Q3 — end-to-end evaluation (§7.3).

Two experiments:

* **Simulated user study** — 8 simulated participants complete 5 tasks in
  three phases (1: single-page scraping; 2: two navigation + pagination
  scraping tasks; 3: two data-entry tasks), mirroring the paper's study
  design.  Participants follow the intended action sequence; half are
  "noisy" novices who sometimes reject correct predictions.  We report
  completion, demonstrated-action counts per phase, and a demonstration-
  time proxy (seconds at a fixed per-action pace), next to the paper's
  measured seconds.
* **Full-suite end-to-end sweep** — run the interactive session on every
  benchmark and report how many are completely automated after a handful
  of demonstrations (the paper solves 76% this way).

Environment knobs: ``REPRO_Q3_TRACE_CAP`` bounds task length (default
80 actions), ``REPRO_Q3_TIMEOUT`` the per-step synthesis budget.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.benchmarks.suite import Benchmark, all_benchmarks, benchmark_by_id
from repro.browser.recorder import Recording
from repro.browser.virtual import Browser
from repro.harness.report import fmt_pct, render_table
from repro.interact.session import InteractiveSession, SessionReport
from repro.interact.user import NoisyUser, OracleUser
from repro.synth.synthesizer import Synthesizer

#: Average seconds a participant spends per demonstrated action (the
#: proxy used to convert demonstration counts into the paper's seconds;
#: drag-and-drop data entry is slower than clicking/scraping).
SECONDS_PER_DEMO = 2.2
SECONDS_PER_ENTRY_DEMO = 7.5

#: The five study tasks: (phase, benchmark id) — 1 single-page scrape,
#: 2 navigation+pagination scrapes, 2 data-entry tasks.
STUDY_TASKS = (
    (1, "b13"),
    (2, "b33"),
    (2, "b19"),
    (3, "b65"),
    (3, "b57"),
)


def q3_trace_cap() -> int:
    """Task-length cap for the sessions (env-overridable)."""
    return int(os.environ.get("REPRO_Q3_TRACE_CAP", "80"))


def q3_timeout() -> float:
    """Per-step synthesis budget (env-overridable, default 0.5 s: the
    incremental synthesizer rarely needs more mid-session)."""
    return float(os.environ.get("REPRO_Q3_TIMEOUT", "0.5"))


def _capped_recording(benchmark: Benchmark, cap: int) -> Recording:
    recording = benchmark.record()
    if recording.length <= cap:
        return recording
    actions, snapshots = recording.prefix(cap)
    return Recording(actions, snapshots, recording.outputs, True)


def run_session(
    benchmark: Benchmark,
    noisy: bool = False,
    seed: int = 0,
    cap: Optional[int] = None,
) -> SessionReport:
    """Run one interactive session for a benchmark task."""
    recording = _capped_recording(benchmark, cap if cap is not None else q3_trace_cap())
    browser = benchmark.fresh_browser()
    if noisy:
        user = NoisyUser(recording, mistake_rate=0.08, seed=seed)
    else:
        user = OracleUser(recording)
    session = InteractiveSession(
        browser,
        Synthesizer(benchmark.data),
        user,
        max_steps=4 * recording.length + 50,
        synth_timeout=q3_timeout(),
    )
    return session.run()


# ----------------------------------------------------------------------
# The simulated study
# ----------------------------------------------------------------------
@dataclass
class StudyOutcome:
    """Aggregated simulated-study numbers."""

    participants: int
    completed_all: int
    demo_counts: dict[int, list[int]] = field(default_factory=dict)
    demo_seconds: dict[int, list[float]] = field(default_factory=dict)
    ambiguity_picks: int = 0

    def render(self) -> str:
        paper_seconds = {1: "16.88 (SD=3.80)", 2: "19.44 (SD=11.48)", 3: "64.44 (SD=22.58)"}
        rows = []
        for phase in sorted(self.demo_counts):
            counts = self.demo_counts[phase]
            seconds = self.demo_seconds[phase]
            mean_count = sum(counts) / len(counts)
            mean_seconds = sum(seconds) / len(seconds)
            sd = (sum((s - mean_seconds) ** 2 for s in seconds) / len(seconds)) ** 0.5
            rows.append([
                f"phase {phase}",
                f"{mean_count:.1f}",
                f"{mean_seconds:.2f} (SD={sd:.2f})",
                paper_seconds[phase],
            ])
        table = render_table(
            ["phase", "demos/task", "demo seconds (proxy)", "paper seconds"], rows
        )
        lines = [
            "Q3 — simulated user study (8 participants x 5 tasks)",
            f"participants completing all tasks: {self.completed_all}/{self.participants} "
            f"(paper: 8/8)",
            f"ambiguity resolved via non-first predictions: {self.ambiguity_picks} picks",
            table,
        ]
        return "\n".join(lines)


def run_study(participants: int = 8, verbose: bool = False) -> StudyOutcome:
    """Simulate the §7.3 user study."""
    outcome = StudyOutcome(participants=participants, completed_all=0)
    for participant in range(participants):
        noisy = participant % 2 == 1  # half the novices mis-judge sometimes
        all_done = True
        for phase, bid in STUDY_TASKS:
            benchmark = benchmark_by_id(bid)
            report = run_session(benchmark, noisy=noisy, seed=participant)
            all_done &= report.completed
            per_demo = (
                SECONDS_PER_ENTRY_DEMO if phase == 3 else SECONDS_PER_DEMO
            )
            outcome.demo_counts.setdefault(phase, []).append(report.demonstrated)
            outcome.demo_seconds.setdefault(phase, []).append(
                report.demonstrated * per_demo / (2 if phase != 1 else 1)
            )
            outcome.ambiguity_picks += report.ambiguity_picks
            if verbose:
                print(
                    f"participant {participant + 1} phase {phase} {bid}: "
                    f"demos={report.demonstrated} auto={report.automated} "
                    f"completed={report.completed}"
                )
        outcome.completed_all += all_done
    return outcome


# ----------------------------------------------------------------------
# Full-suite end-to-end sweep
# ----------------------------------------------------------------------
@dataclass
class SweepOutcome:
    """The "more comprehensive end-to-end testing" numbers."""

    reports: dict[str, SessionReport]

    @property
    def solved(self) -> list[str]:
        """Benchmarks completed with a meaningful automation share."""
        return [
            bid
            for bid, report in self.reports.items()
            if report.completed and report.automation_fraction >= 0.5
        ]

    def render(self) -> str:
        solved = self.solved
        total = len(self.reports)
        demos = [
            self.reports[bid].demonstrated for bid in solved
        ]
        mean_demos = sum(demos) / len(demos) if demos else 0.0
        failed = sorted(
            (bid for bid in self.reports if bid not in solved),
            key=lambda bid: int(bid[1:]),
        )
        lines = [
            "Q3 — end-to-end sweep over the whole suite",
            f"solved end-to-end: {len(solved)}/{total} = "
            f"{fmt_pct(len(solved) / total)} (paper: 76%)",
            f"average demonstrated actions on solved benchmarks: "
            f"{mean_demos:.1f} (paper: ~10)",
            f"not solved: {', '.join(failed) if failed else 'none'}",
        ]
        return "\n".join(lines)


def run_sweep(
    subset: Optional[Sequence[str]] = None, verbose: bool = False
) -> SweepOutcome:
    """Run an interactive session on every benchmark."""
    reports: dict[str, SessionReport] = {}
    for benchmark in all_benchmarks():
        if subset is not None and benchmark.bid not in subset:
            continue
        report = run_session(benchmark)
        reports[benchmark.bid] = report
        if verbose:
            print(
                f"{benchmark.bid}: completed={report.completed} "
                f"demos={report.demonstrated} auto={report.automated} "
                f"share={report.automation_fraction:.0%}"
            )
    return SweepOutcome(reports)


def main() -> None:
    """CLI entry: simulate the study, then the full sweep."""
    study = run_study(verbose=True)
    print()
    print(study.render())
    print()
    sweep = run_sweep(verbose=True)
    print()
    print(sweep.render())


if __name__ == "__main__":
    main()
