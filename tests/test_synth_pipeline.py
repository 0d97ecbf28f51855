"""Resumable loop execution and per-call phase timing.

1. **Resumable-loop correctness** — continuation entries are a pure
   optimization: a session with ``resumable_loops`` on must produce
   exactly the output of the same session with it off, while actually
   taking resume hits; and the engine-level stitched result must equal
   a from-scratch execution on every growing window.

2. **Phase times** — speculation, validation and store extension run
   one after another, so their recorded times sum to at most the
   call's wall clock.
"""

from dataclasses import replace

from repro.lang import EMPTY_DATA
from repro.lang.ast import canonical_program
from repro.semantics import evaluator
from repro.semantics.trace import DOMTrace
from repro.engine.engine import ExecutionEngine
from repro.synth.config import DEFAULT_CONFIG, serial_validation_config
from repro.synth.synthesizer import Synthesizer

from helpers import cards_page, scrape_cards_trace

TIMEOUT = 30.0


class TestPhaseTimes:
    def test_phase_times_are_recorded(self):
        dom = cards_page(5)
        actions, snapshots = scrape_cards_trace(dom, 4)
        synthesizer = Synthesizer(EMPTY_DATA, DEFAULT_CONFIG)
        for cut in range(1, len(actions) + 1):
            stats = synthesizer.synthesize(
                actions[:cut], snapshots[: cut + 1], timeout=TIMEOUT
            ).stats
            assert stats.speculate_s + stats.validate_s + stats.extend_s <= stats.elapsed
        assert stats.speculate_s > 0.0
        assert stats.validate_s >= 0.0
        assert stats.extend_s >= 0.0


class TestResumableLoops:
    def test_session_output_identical_with_resume_off(self):
        """Continuations are invisible: byte-identical ranked output."""
        dom = cards_page(6)
        actions, snapshots = scrape_cards_trace(dom, 5)
        resuming = Synthesizer(EMPTY_DATA, DEFAULT_CONFIG)
        baseline = Synthesizer(
            EMPTY_DATA, replace(DEFAULT_CONFIG, resumable_loops=False)
        )
        resume_total = 0
        for cut in range(1, len(actions) + 1):
            grown = resuming.synthesize(
                actions[:cut], snapshots[: cut + 1], timeout=TIMEOUT
            )
            flat = baseline.synthesize(
                actions[:cut], snapshots[: cut + 1], timeout=TIMEOUT
            )
            resume_total += grown.stats.cache_resume_hits
            assert flat.stats.cache_resume_hits == 0
            assert [canonical_program(p) for p in grown.programs] == [
                canonical_program(p) for p in flat.programs
            ]
            assert [str(a) for a in grown.predictions] == [
                str(a) for a in flat.predictions
            ]
        # the optimization actually engaged on this loop-heavy trace
        assert resume_total > 0

    def test_growing_session_matches_from_scratch(self):
        """One-action-at-a-time growth vs a fresh synthesizer per cut.

        The incremental store retains rewrites a one-shot call would
        not rediscover, so the ranked *lists* may differ in length —
        but the winning program and every prediction must agree.
        """
        dom = cards_page(6)
        actions, snapshots = scrape_cards_trace(dom, 5)
        session = Synthesizer(EMPTY_DATA, DEFAULT_CONFIG)
        resume_total = 0
        for cut in range(1, len(actions) + 1):
            grown = session.synthesize(
                actions[:cut], snapshots[: cut + 1], timeout=TIMEOUT
            )
            resume_total += grown.stats.cache_resume_hits
            scratch = Synthesizer(EMPTY_DATA, DEFAULT_CONFIG).synthesize(
                actions[:cut], snapshots[: cut + 1], timeout=TIMEOUT
            )
            grown_best = grown.best_program
            scratch_best = scratch.best_program
            assert (grown_best is None) == (scratch_best is None)
            if grown_best is not None:
                assert canonical_program(grown_best) == canonical_program(
                    scratch_best
                )
            assert [str(a) for a in grown.predictions] == [
                str(a) for a in scratch.predictions
            ]
        assert resume_total > 0

    def test_engine_resume_matches_fresh_execution(self):
        """The stitched resume equals from-scratch on every window."""
        dom = cards_page(6)
        actions, snapshots = scrape_cards_trace(dom, 5)
        synthesizer = Synthesizer(EMPTY_DATA, serial_validation_config())
        program = synthesizer.synthesize(actions, snapshots, timeout=TIMEOUT).best_program
        assert program is not None
        statement = program.statements[0]

        engine = ExecutionEngine.for_config(EMPTY_DATA, DEFAULT_CONFIG)
        for end in range(1, len(snapshots) + 1):
            window = DOMTrace(snapshots, 0, end)
            resumed = engine.execute(
                [statement], window, max_actions=len(window), resumable=True
            )
            fresh = evaluator.execute([statement], window, EMPTY_DATA)
            assert resumed.actions == fresh.actions
            assert resumed.env.fingerprint() == fresh.env.fingerprint()
        assert engine.counters().resume_hits > 0
