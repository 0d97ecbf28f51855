"""The unified session core every surface drives.

One :class:`Session` is one user's interactive PBD loop (the paper's
§5/§6 per-action round trip): a trace of demonstrated actions with
their snapshots, an incremental
:class:`~repro.synth.synthesizer.Synthesizer` carrying the rewrite
store across calls, and the latest proposal.  The three historical
surfaces are all drivers over it:

* the service's :class:`~repro.service.sessions.SessionManager` holds
  one per live demonstration and speaks protocol messages over it;
* the paper-loop simulator (:class:`repro.interact.InteractiveSession`)
  drives one against a virtual browser via :meth:`synthesize_over`;
* worker migration serializes one with :meth:`export_snapshot` and
  resumes it elsewhere with :meth:`Session.from_snapshot`.

Export/import exactness: a snapshot stores the full trace, and import
*replays* it through a fresh synthesizer — the same incremental calls
the original worker made, over value-addressed state — so the resumed
session produces byte-identical subsequent candidate lists.  (As
always, determinism assumes the per-call synthesis budget was not the
binding constraint; the migration tests and bench run with generous
timeouts.)
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields as dataclass_fields
from typing import Optional, Sequence

from repro.analysis.report import analyze_program
from repro.dom.node import DOMNode
from repro.lang.actions import Action
from repro.lang.ast import Program
from repro.lang.data import DataSource, EMPTY_DATA
from repro.lang.pretty import format_program
from repro.protocol.messages import (
    Accepted,
    AnalysisSummary,
    CallStats,
    Candidate,
    CandidateList,
    ProgramProposed,
    Rejected,
    SessionClosed,
    SessionSnapshot,
    SessionTotals,
)
from repro.synth.config import DEFAULT_CONFIG, SynthesisConfig
from repro.synth.synthesizer import SynthesisResult, Synthesizer
from repro.util.errors import ReproError


class SessionError(ReproError):
    """Bad trace shape or an operation the session state cannot serve."""


class UnknownSessionError(SessionError):
    """The session id names no live session on this worker."""


class SessionClosedError(SessionError):
    """The session was closed, migrated away, or evicted."""


@dataclass
class SessionStats:
    """Aggregated telemetry of one session (or a whole manager)."""

    calls: int = 0
    actions: int = 0
    elapsed: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    cross_session_hits: int = 0
    warm_start_hits: int = 0
    timed_out_calls: int = 0
    rejections: int = 0

    def absorb(self, result: SynthesisResult, elapsed: float) -> None:
        self.calls += 1
        self.elapsed += elapsed
        self.cache_hits += result.stats.cache_hits
        self.cache_misses += result.stats.cache_misses
        self.cross_session_hits += result.stats.cache_cross_session_hits
        self.warm_start_hits += result.stats.cache_warm_hits
        self.timed_out_calls += result.stats.timed_out

    def merge(self, other: "SessionStats") -> None:
        for field in dataclass_fields(SessionStats):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))

    # ------------------------------------------------------------------
    def totals(self) -> SessionTotals:
        """The wire form (:class:`~repro.protocol.messages.SessionTotals`)."""
        return SessionTotals(
            calls=self.calls,
            actions=self.actions,
            elapsed=round(self.elapsed, 6),
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            cross_session_hits=self.cross_session_hits,
            warm_start_hits=self.warm_start_hits,
            timed_out_calls=self.timed_out_calls,
            rejections=self.rejections,
        )

    @classmethod
    def from_totals(cls, totals: SessionTotals) -> "SessionStats":
        return cls(
            calls=totals.calls,
            actions=totals.actions,
            elapsed=totals.elapsed,
            cache_hits=totals.cache_hits,
            cache_misses=totals.cache_misses,
            cross_session_hits=totals.cross_session_hits,
            warm_start_hits=totals.warm_start_hits,
            timed_out_calls=totals.timed_out_calls,
            rejections=totals.rejections,
        )

    def to_json(self) -> dict:
        return {
            "calls": self.calls,
            "actions": self.actions,
            "elapsed": round(self.elapsed, 6),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cross_session_hits": self.cross_session_hits,
            "warm_start_hits": self.warm_start_hits,
            "timed_out_calls": self.timed_out_calls,
            "rejections": self.rejections,
        }


def _analysis_summary(program: Program, data: DataSource) -> AnalysisSummary:
    """The wire analysis block for one candidate program.

    Structural domains only — no snapshot-resolution checks: the block
    rides every proposal, so it must stay O(program size), never
    O(trace size).
    """
    analysis = analyze_program(program, data)
    return AnalysisSummary(
        effect=analysis.effect.classification,
        safe_replay=analysis.effect.safe_to_replay,
        termination=analysis.termination,
        cost_min=analysis.cost.lo,
        cost_max=analysis.cost.hi,
        fragility=analysis.fragility,
    )


class Session:
    """One live demonstration: trace so far + the synthesizer serving it."""

    def __init__(
        self,
        sid: str,
        data: DataSource,
        config: SynthesisConfig = DEFAULT_CONFIG,
        timeout: Optional[float] = None,
        synthesizer: Optional[Synthesizer] = None,
    ) -> None:
        self.sid = sid
        self.data = data
        self.config = config
        self.timeout = timeout
        self.lock = threading.Lock()
        self.synthesizer = synthesizer if synthesizer is not None else Synthesizer(data, config)
        self.actions: list[Action] = []
        self.snapshots: list[DOMNode] = []
        self.last_result: Optional[SynthesisResult] = None
        self.accepted_index: Optional[int] = None
        self.stats = SessionStats()
        self.created = time.time()
        # idle tracking is monotonic: a wall-clock step (NTP, VM
        # resume) must not mass-evict live sessions — only `created`
        # (serialized in snapshots) needs wall time
        self.last_used = time.monotonic()
        self.closed = False
        #: Set while a migration is in flight: the session refuses new
        #: work (409) but is not torn down yet — an aborted migration
        #: clears it and the session resumes serving.
        self.migrating = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, snapshot: DOMNode) -> None:
        """Install the initial page snapshot (``π₁``)."""
        if self.snapshots:
            raise SessionError(f"session {self.sid} already has its initial snapshot")
        self.snapshots.append(snapshot)

    def touch(self) -> None:
        """Refresh the idle clock (any successful interaction)."""
        self.last_used = time.monotonic()

    def _require_open(self) -> None:
        if self.closed:
            raise SessionClosedError(f"session {self.sid} is closed")
        if self.migrating:
            raise SessionClosedError(
                f"session {self.sid} is being migrated; retry against its new home"
            )

    def close(self) -> SessionClosed:
        """Close the session; returns its final telemetry."""
        self.closed = True
        return SessionClosed(session=self.sid, stats=self.stats.totals())

    # ------------------------------------------------------------------
    # The per-action round trip
    # ------------------------------------------------------------------
    def record(self, action: Action, snapshot: DOMNode) -> SynthesisResult:
        """Append one demonstrated step and re-synthesize incrementally.

        ``snapshot`` is the page *after* the action (the recorder ships
        ``π_{k+1}``); the initial snapshot arrived via :meth:`start`.
        """
        self._require_open()
        if not self.snapshots:
            raise SessionError(f"session {self.sid} has no initial snapshot")
        self.actions.append(action)
        self.snapshots.append(snapshot)
        started = time.perf_counter()
        try:
            result = self.synthesizer.synthesize(
                self.actions, self.snapshots, timeout=self.timeout
            )
        except Exception:
            # the step was not recorded: roll the trace back so a retry
            # (or the next action) does not synthesize over a
            # demonstration containing a step the caller saw rejected
            self.actions.pop()
            self.snapshots.pop()
            raise
        self._absorb(result, time.perf_counter() - started)
        return result

    def synthesize_over(
        self, actions: Sequence[Action], snapshots: Sequence[DOMNode]
    ) -> SynthesisResult:
        """Adopt an externally grown trace and synthesize over it.

        The browser-driven path (:mod:`repro.interact`): the browser
        owns the recorded trace, the session owns the synthesizer and
        the telemetry.  Called with the same trace twice, it behaves
        exactly like calling the synthesizer twice — which is what the
        paper loop's per-phase re-query does.
        """
        self._require_open()
        started = time.perf_counter()
        result = self.synthesizer.synthesize(actions, snapshots, timeout=self.timeout)
        self.actions = list(actions)
        self.snapshots = list(snapshots)
        self._absorb(result, time.perf_counter() - started)
        return result

    def _absorb(self, result: SynthesisResult, elapsed: float) -> None:
        self.stats.absorb(result, elapsed)
        self.stats.actions = len(self.actions)
        self.last_result = result
        self.touch()

    # ------------------------------------------------------------------
    # Protocol views of the current state
    # ------------------------------------------------------------------
    def proposal(self) -> ProgramProposed:
        """The :class:`ProgramProposed` for the latest synthesis call."""
        result = self.last_result
        stats = result.stats if result is not None else None
        return ProgramProposed(
            session=self.sid,
            actions=len(self.actions),
            programs=len(result.programs) if result is not None else 0,
            predictions=tuple(self.predictions()),
            stats=CallStats(
                elapsed=round(stats.elapsed, 6) if stats else 0.0,
                timed_out=bool(stats.timed_out) if stats else False,
                cache_hits=stats.cache_hits if stats else 0,
                cache_misses=stats.cache_misses if stats else 0,
                cross_session_hits=stats.cache_cross_session_hits if stats else 0,
                warm_start_hits=stats.cache_warm_hits if stats else 0,
                backend=stats.cache_backend if stats else "memory",
            ),
            analysis=(
                _analysis_summary(result.programs[0], self.data)
                if result is not None and result.programs
                else None
            ),
        )

    def candidate_list(self) -> CandidateList:
        """The current ranked candidates as a :class:`CandidateList`."""
        programs = self.last_result.programs if self.last_result is not None else []
        return CandidateList(
            session=self.sid,
            candidates=tuple(
                Candidate(
                    index=index,
                    program=format_program(program),
                    statements=len(program),
                    analysis=_analysis_summary(program, self.data),
                )
                for index, program in enumerate(programs)
            ),
        )

    def predictions(self) -> list[str]:
        """The distinct predicted next actions, rendered, in rank order."""
        if self.last_result is None:
            return []
        return [str(action) for action in self.last_result.predictions]

    def accept(self, index: int = 0, require_safe_replay: bool = False) -> Accepted:
        """Mark one candidate accepted; returns its rendered program.

        With ``require_safe_replay``, a candidate whose static effect
        summary says replay mutates page or user state (keystrokes,
        form entries, downloads) is refused — the caller must replay it
        under explicit supervision instead of accepting it for
        automatic re-runs.
        """
        self._require_open()
        if self.last_result is None or not self.last_result.programs:
            raise SessionError(f"session {self.sid} has no candidate programs")
        programs = self.last_result.programs
        if not 0 <= index < len(programs):
            raise SessionError(
                f"candidate index {index} out of range (0..{len(programs) - 1})"
            )
        if require_safe_replay:
            summary = _analysis_summary(programs[index], self.data)
            if not summary.safe_replay:
                raise SessionError(
                    f"candidate {index} is {summary.effect}: refusing "
                    "auto-replay of a side-effecting program "
                    "(accept without require_safe_replay to override)"
                )
        self.accepted_index = index
        self.touch()
        return Accepted(
            session=self.sid, index=index, program=format_program(programs[index])
        )

    def reject(self) -> Rejected:
        """The user rejected every current proposal (back to demo)."""
        self._require_open()
        self.stats.rejections += 1
        self.touch()
        return Rejected(session=self.sid, rejections=self.stats.rejections)

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def export_snapshot(self) -> SessionSnapshot:
        """The session's full serializable state (see module docstring)."""
        return SessionSnapshot(
            session=self.sid,
            created=self.created,
            timeout=self.timeout,
            # only the empty-dict default collapses to null: falsy but
            # meaningful sources ([], 0, "") must survive migration or
            # replay resolves value paths differently
            data=None if self.data.value == {} else self.data.value,
            actions=tuple(self.actions),
            snapshots=tuple(self.snapshots),
            accepted_index=self.accepted_index,
            stats=self.stats.totals(),
        )

    @classmethod
    def from_snapshot(
        cls,
        snapshot: SessionSnapshot,
        sid: str,
        config: SynthesisConfig = DEFAULT_CONFIG,
    ) -> "Session":
        """Resume an exported session under a (possibly new) local id.

        Replays the trace through a fresh synthesizer — the identical
        sequence of incremental calls the exporting worker made — so the
        rewrite store, the latest proposal, and every *subsequent*
        candidate list are byte-identical to never having migrated.
        The imported telemetry is restored as-is; the replay's own
        engine counters are deliberately dropped (they describe
        migration overhead, not the user's demonstration).
        """
        if (snapshot.actions or snapshot.snapshots) and len(
            snapshot.snapshots
        ) != len(snapshot.actions) + 1:
            raise SessionError(
                f"snapshot needs m+1 DOMs for m actions, got "
                f"{len(snapshot.snapshots)} for {len(snapshot.actions)}"
            )
        data = DataSource(snapshot.data) if snapshot.data is not None else EMPTY_DATA
        session = cls(sid, data, config, timeout=snapshot.timeout)
        session.created = snapshot.created
        if snapshot.snapshots:
            session.start(snapshot.snapshots[0])
            for position, action in enumerate(snapshot.actions):
                session.record(action, snapshot.snapshots[position + 1])
        session.stats = SessionStats.from_totals(snapshot.stats)
        session.accepted_index = snapshot.accepted_index
        session.touch()
        return session
