"""Suite self-analysis goldens: every expected program analyzes clean.

The benchmark suite's ground-truth programs are the programs the
synthesizer is supposed to produce — so the analysis layer must bless
every one of them: a terminating (or progress-making) verdict, no
error findings against the program's own recording, and a recorded
action count inside the statically computed cost interval.  A
regression in any abstract domain that starts flagging known-good
programs shows up here before it ever reaches ``repro analyze`` users.

The tail also pins the synthesis hot path: on a validation-pressure
subject, pruning on vs off must synthesize byte-identical per-call
programs while executing strictly fewer engine validations.
"""

from dataclasses import replace

import pytest

from repro.analysis import UNKNOWN, analyze_program
from repro.benchmarks.suite import all_benchmarks, benchmark_by_id
from repro.lang.ast import Program
from repro.lang.pretty import format_program
from repro.synth.config import serial_validation_config
from repro.synth.synthesizer import Synthesizer


def _program_benchmarks():
    return [b for b in all_benchmarks() if isinstance(b.ground_truth, Program)]


@pytest.mark.parametrize(
    "bench", _program_benchmarks(), ids=lambda b: b.bid
)
class TestSuiteSelfAnalysis:
    def test_ground_truth_analyzes_clean(self, bench):
        recording = bench.record()
        analysis = analyze_program(
            bench.ground_truth, bench.data, recording.snapshots
        )
        assert analysis.termination != UNKNOWN, (
            f"{bench.bid}: expected program got an unknown-termination verdict"
        )
        errors = [f for f in analysis.findings if f.severity == "error"]
        assert not errors, f"{bench.bid}: {[str(f) for f in errors]}"

    def test_recorded_length_inside_cost_interval(self, bench):
        recording = bench.record()
        cost = analyze_program(bench.ground_truth, bench.data).cost
        assert cost.contains(recording.length), (
            f"{bench.bid}: {recording.length} recorded actions outside {cost}"
        )


class TestPruneParity:
    def test_pruning_preserves_programs_and_saves_validations(self):
        bench = benchmark_by_id("b16")
        recording = bench.record()
        length = recording.length - 1
        actions, snapshots = recording.prefix(length)
        outcomes = {}
        for flag in (False, True):
            config = replace(serial_validation_config(), static_prune=flag)
            synthesizer = Synthesizer(bench.data, config)
            programs, validations, pruned = [], 0, 0
            for cut in range(1, length + 1):
                result = synthesizer.synthesize(
                    actions[:cut], snapshots[: cut + 1], timeout=10.0
                )
                validations += result.stats.validations
                pruned += result.stats.pruned
                programs.append(
                    tuple(format_program(p) for p in result.programs)
                )
            outcomes[flag] = (programs, validations, pruned)
        off_programs, off_validations, off_pruned = outcomes[False]
        on_programs, on_validations, on_pruned = outcomes[True]
        assert off_programs == on_programs
        assert off_pruned == 0
        assert on_pruned > 0
        assert on_validations < off_validations
