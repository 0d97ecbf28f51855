"""The top-level synthesis algorithm (Algorithm 1) with incrementality (§5.4).

The synthesizer maintains a *store* of rewrite tuples across calls.  Each
``synthesize`` call receives the full demonstration so far (actions plus
one more DOM snapshot); stored tuples are first *extended* to cover the
new suffix — trailing loops absorb the new actions they correctly predict,
everything else is appended as singleton statements, and tuples whose
trailing loop mispredicted are dropped.  The worklist then pops tuples
smallest-program-first, records the ones that generalize, and grows the
store through speculate-and-validate.

The per-call wall-clock budget mirrors the paper's 1-second timeout per
prediction test.

Each pop's candidate list is validated by
:func:`repro.synth.scheduler.process_pop`, one candidate at a time on
the calling thread.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.dom.node import DOMNode
from repro.engine import index as dom_index
from repro.engine.engine import ExecutionEngine
from repro.lang.actions import Action
from repro.lang.ast import Program
from repro.lang.data import DataSource
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.semantics.trace import DOMTrace
from repro.synth.alternatives import SelectorSearch
from repro.synth.config import DEFAULT_CONFIG, SynthesisConfig, resolved_shared_cache
from repro.synth.ranking import Candidate, rank
from repro.synth.rewrite import RewriteTuple, extend_with_singletons, initial_tuple
from repro.synth.scheduler import process_pop
from repro.synth.speculate import SpeculationContext, speculate
from repro.util.errors import SynthesisError
from repro.util.timer import Deadline


class _SynthMetrics:
    """Lazy handles on the synthesis registry families.

    :class:`SynthesisStats` keeps its shape (the harnesses depend on
    it); these families are where each call's finished stats *also*
    land, at the same absorb point that reconciles the engine counter
    deltas — so ``GET /v1/metrics`` serves exactly the numbers the
    harness tables would.
    """

    _instance = None

    def __init__(self):
        registry = obs_metrics.registry()
        self.calls = registry.counter(
            "repro_synth_calls_total", "synthesize() calls completed."
        )
        self.timeouts = registry.counter(
            "repro_synth_timeouts_total", "Calls that hit their deadline."
        )
        self.pops = registry.counter(
            "repro_synth_pops_total", "Worklist tuples popped."
        )
        self.speculated = registry.counter(
            "repro_synth_speculated_total", "Candidates emitted by speculation."
        )
        self.validations = registry.counter(
            "repro_synth_validations_total",
            "Engine validation executions run (Algorithm 3 calls).",
        )
        self.validated = registry.counter(
            "repro_synth_validated_total", "Candidates that passed validation."
        )
        self.pruned = registry.counter(
            "repro_synth_pruned_total",
            "Speculated candidates refuted statically before dispatch.",
        )
        self.phase_seconds = registry.histogram(
            "repro_synth_phase_seconds",
            "Per-call wall clock by synthesis phase (phases never overlap, "
            "so they sum to at most the call's wall clock).",
            ("phase",),
        )
        self.call_seconds = registry.histogram(
            "repro_synth_call_seconds", "synthesize() wall clock per call."
        )
        self.cache_hits = registry.counter(
            "repro_cache_hits_total",
            "Execution-cache hits by kind.  exact/prefix/consistency "
            "partition the reconciling hits; cross_session, warm, resume "
            "and decode are overlay counts of the same lookups.",
            ("kind",),
        )
        self.cache_misses = registry.counter(
            "repro_cache_misses_total", "Execution-cache misses."
        )
        self.cache_evictions = registry.counter(
            "repro_cache_evictions_total", "In-memory cache entries evicted."
        )
        self.decode_bytes = registry.counter(
            "repro_cache_decode_bytes_total",
            "Encoded bytes the decoded-entry cache never re-read.",
        )
        self.cache_bytes = registry.gauge(
            "repro_cache_bytes", "Approximate in-memory cache footprint."
        )
        self.interned_bytes = registry.gauge(
            "repro_cache_interned_bytes",
            "Approximate bytes held by the snapshot-interning table.",
        )

    @classmethod
    def get(cls) -> "_SynthMetrics":
        if cls._instance is None:
            cls._instance = cls()
        return cls._instance

    def publish(self, stats: "SynthesisStats") -> None:
        self.calls.inc()
        if stats.timed_out:
            self.timeouts.inc()
        self.pops.inc(stats.pops)
        self.speculated.inc(stats.speculated)
        self.validations.inc(stats.validations)
        self.validated.inc(stats.validated)
        self.pruned.inc(stats.pruned)
        self.phase_seconds.labels(phase="speculate").observe(stats.speculate_s)
        self.phase_seconds.labels(phase="validate").observe(stats.validate_s)
        self.phase_seconds.labels(phase="extend").observe(stats.extend_s)
        self.call_seconds.observe(stats.elapsed)
        hits = self.cache_hits
        hits.labels(kind="exact").inc(stats.cache_exact_hits)
        hits.labels(kind="prefix").inc(stats.cache_prefix_hits)
        hits.labels(kind="consistency").inc(stats.cache_consistency_hits)
        hits.labels(kind="cross_session").inc(stats.cache_cross_session_hits)
        hits.labels(kind="warm").inc(stats.cache_warm_hits)
        hits.labels(kind="resume").inc(stats.cache_resume_hits)
        hits.labels(kind="decode").inc(stats.cache_decode_hits)
        self.cache_misses.inc(stats.cache_misses)
        self.cache_evictions.inc(stats.cache_evictions)
        self.decode_bytes.inc(stats.cache_decode_bytes)
        self.cache_bytes.set(stats.cache_bytes)
        self.interned_bytes.set(stats.interned_bytes)


@dataclass
class SynthesisStats:
    """Bookkeeping for the experiment harnesses.

    The ``cache_*`` fields are per-call deltas of the execution engine's
    telemetry: how many simulated executions were served from memo,
    recomputed, or evicted, with the hit breakdown satisfying
    ``cache_hits == cache_exact_hits + cache_prefix_hits +
    cache_consistency_hits``.  ``index_builds`` counts the per-snapshot
    DOM indexes *this* call forced to be built (scoped via
    :func:`repro.engine.index.track_builds`, so interleaved sessions do
    not steal each other's builds).

    Sharing telemetry: ``cache_cross_session_hits`` is the per-call
    delta of hits served from entries *other* sessions of a shared
    cache recorded; ``cache_warm_hits`` the per-call delta of hits
    served from a *persistent backend* — executions recorded by a prior
    process (``cache_backend`` names the backend).  ``cache_bytes``,
    ``interned_snapshots``, ``interned_bytes`` and ``persisted_bytes``
    are end-of-call gauges (not deltas) of the backing cache's
    approximate footprint, its snapshot-interning table, and the
    persistent store.
    """

    trace_length: int = 0
    pops: int = 0
    speculated: int = 0
    validated: int = 0
    #: Engine validation executions actually run (Algorithm 3 calls) —
    #: ``validated`` counts only the successes.  ``pruned`` counts the
    #: speculated candidates the static feasibility analysis
    #: (:mod:`repro.analysis.feasibility`) refuted before dispatch;
    #: every pruned candidate is a validation execution saved.
    validations: int = 0
    pruned: int = 0
    tuples: int = 0
    elapsed: float = 0.0
    #: Phase timings (seconds).  ``speculate_s`` covers Algorithm 2 runs;
    #: ``validate_s`` covers each pop's validation — static prune,
    #: ranking, validation, cap accounting, and the pushes'
    #: generalization checks; ``extend_s`` covers the cross-call store
    #: extension (§5.4).  The phases run one after another on the
    #: calling thread, so ``speculate_s + validate_s + extend_s`` never
    #: exceeds ``elapsed``.
    speculate_s: float = 0.0
    validate_s: float = 0.0
    extend_s: float = 0.0
    timed_out: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_exact_hits: int = 0
    cache_prefix_hits: int = 0
    cache_consistency_hits: int = 0
    cache_cross_session_hits: int = 0
    cache_warm_hits: int = 0
    #: Executions answered by resuming a stored loop continuation over
    #: the window suffix instead of re-executing from the window start
    #: (``resumable_loops``); not part of the hit/miss reconciliation.
    cache_resume_hits: int = 0
    #: Warm-start probes served by the backend's decoded-entry cache
    #: (SQLite read and payload decode both skipped) and the encoded
    #: bytes those hits never re-read; not part of the hit/miss
    #: reconciliation.
    cache_decode_hits: int = 0
    cache_decode_bytes: int = 0
    cache_bytes: int = 0
    interned_snapshots: int = 0
    interned_bytes: int = 0
    persisted_bytes: int = 0
    cache_backend: str = "memory"
    index_builds: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Execution-cache hits over all lookups this call."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@dataclass
class SynthesisResult:
    """Outcome of one ``synthesize`` call.

    ``programs`` are the generalizing programs ranked smallest-first;
    ``predictions`` are their distinct next actions in rank order (the
    front end shows these for authorization).
    """

    programs: list[Program] = field(default_factory=list)
    predictions: list[Action] = field(default_factory=list)
    stats: SynthesisStats = field(default_factory=SynthesisStats)

    @property
    def best_program(self) -> Optional[Program]:
        """The top-ranked generalizing program, if any."""
        return self.programs[0] if self.programs else None

    @property
    def best_prediction(self) -> Optional[Action]:
        """The top-ranked predicted next action, if any."""
        return self.predictions[0] if self.predictions else None


class Synthesizer:
    """Interactive web RPA program synthesizer.

    One instance serves one demonstration session: call
    :meth:`synthesize` after every recorded action with the full trace so
    far.  With ``config.incremental`` (default) the rewrite store is
    shared across calls; otherwise every call starts from scratch.

    With ``shared_cache`` resolved on, the engine joins the process-level
    :class:`~repro.engine.cache.SharedExecutionCache` and every call's
    snapshots are interned there, so concurrent sessions over the same
    site reuse each other's executions and DOM indexes.
    """

    def __init__(self, data: DataSource, config: SynthesisConfig = DEFAULT_CONFIG) -> None:
        self.data = data
        self.config = config
        self._actions: list[Action] = []
        self._snapshots: list[DOMNode] = []
        self._store: dict[tuple, RewriteTuple] = {}
        self._search = SelectorSearch.for_config(self.config)
        self._engine = ExecutionEngine.for_config(data, config)
        # interning only pays when the cache is actually shared between
        # sessions; a private sharded cache skips the structural keys
        self._use_shared_cache = resolved_shared_cache(config)

    @property
    def engine(self) -> ExecutionEngine:
        """The memoizing execution engine serving this session."""
        return self._engine

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget all state from previous calls."""
        self._actions = []
        self._snapshots = []
        self._store = {}
        self._search = SelectorSearch.for_config(self.config)
        self._engine = ExecutionEngine.for_config(self.data, self.config)

    def synthesize(
        self,
        actions: Sequence[Action],
        snapshots: Sequence[DOMNode],
        timeout: Optional[float] = None,
    ) -> SynthesisResult:
        """Find programs that generalize the demonstration (Definition 4.3).

        Parameters
        ----------
        actions:
            The recorded action trace ``A = [a₁, ··, a_m]``.
        snapshots:
            The recorded DOM trace ``Π = [π₁, ··, π_{m+1}]``.
        timeout:
            Optional per-call override of ``config.timeout`` seconds.
        """
        if len(snapshots) != len(actions) + 1:
            raise SynthesisError(
                f"need m+1 snapshots for m actions, got {len(snapshots)} for {len(actions)}"
            )
        deadline = Deadline(self.config.timeout if timeout is None else timeout)
        if self._use_shared_cache:
            shared = self._engine.shared_cache
            if shared is not None:
                # structurally equal snapshots from other sessions over
                # the same site collapse onto one canonical root, making
                # the id-keyed cache entries and SnapshotIndexes shared;
                # re-interning the same objects is an O(1) id lookup
                snapshots = shared.intern_snapshots(snapshots)
        if not self.config.incremental:
            self.reset()
        old_length = len(self._actions)
        if old_length and (
            len(actions) < old_length
            or list(actions[:old_length]) != self._actions
        ):
            # Not a continuation of the stored demonstration.
            self.reset()
            old_length = 0
        had_store = bool(self._store)
        self._actions = list(actions)
        self._snapshots = list(snapshots)
        trace_length = len(actions)
        stats = SynthesisStats(trace_length=trace_length)
        result = SynthesisResult(stats=stats)
        if trace_length == 0:
            return result
        engine_before = self._engine.counters()

        with obs_tracing.span(
            "synthesize", actions=trace_length
        ) as call_span, dom_index.track_builds() as built:
            context = SpeculationContext(
                self._actions,
                self._snapshots,
                self.data,
                self.config,
                self._search,
                engine=self._engine,
            )
            generalizing: list[Candidate] = []
            heap: list[tuple[int, int, RewriteTuple]] = []
            sequence = itertools.count()
            store: dict[tuple, RewriteTuple] = {}

            def push(tuple_: RewriteTuple) -> None:
                key = tuple_.key(self._engine.statement_key)
                if key in store:
                    return
                store[key] = tuple_
                heapq.heappush(heap, (tuple_.length, next(sequence), tuple_))
                prediction = self._try_generalize(tuple_, context)
                if prediction is not None and len(generalizing) < self.config.max_generalizing_programs:
                    generalizing.append(
                        Candidate.of(tuple_.program(), prediction, tuple_.length)
                    )

            extend_started = time.perf_counter()
            with obs_tracing.span("extend", stored=len(self._store)):
                if had_store:
                    for stored in self._store.values():
                        extended = self._extend(stored, old_length, trace_length, context)
                        if extended is not None:
                            push(extended)
                else:
                    push(initial_tuple(self._actions))
            stats.extend_s += time.perf_counter() - extend_started
            self._store = store

            # ----------------------------------------------------------
            # Algorithm 1 main loop.
            # ----------------------------------------------------------
            while heap:
                if deadline.expired():
                    stats.timed_out = True
                    break
                if (
                    self.config.max_worklist_pops is not None
                    and stats.pops >= self.config.max_worklist_pops
                ):
                    break
                _, _, current = heapq.heappop(heap)
                if current.processed:
                    continue
                current.processed = True
                stats.pops += 1
                spec_started = time.perf_counter()
                with obs_tracing.span("speculate", pop=stats.pops):
                    candidates = speculate(current, context)
                stats.speculate_s += time.perf_counter() - spec_started
                stats.speculated += len(candidates)
                # validated in rank order (smallest statements first
                # within a span); survivors are pushed as they pass
                validate_started = time.perf_counter()
                with obs_tracing.span(
                    "validate", pop=stats.pops, candidates=len(candidates)
                ):
                    process_pop(current, candidates, context, deadline, stats, push)
                stats.validate_s += time.perf_counter() - validate_started

            self._prune_store()
            self._collect(result, generalizing)
            call_span.note(
                pops=stats.pops,
                speculated=stats.speculated,
                programs=len(result.programs),
                timed_out=stats.timed_out,
            )
        stats.tuples = len(self._store)
        stats.elapsed = deadline.elapsed()
        engine_after = self._engine.counters()
        stats.cache_hits = engine_after.hits - engine_before.hits
        stats.cache_misses = engine_after.misses - engine_before.misses
        stats.cache_evictions = engine_after.evictions - engine_before.evictions
        stats.cache_exact_hits = engine_after.exact_hits - engine_before.exact_hits
        stats.cache_prefix_hits = engine_after.prefix_hits - engine_before.prefix_hits
        stats.cache_consistency_hits = (
            engine_after.consistency_hits - engine_before.consistency_hits
        )
        stats.cache_cross_session_hits = (
            engine_after.cross_session_hits - engine_before.cross_session_hits
        )
        stats.cache_warm_hits = engine_after.warm_hits - engine_before.warm_hits
        stats.cache_resume_hits = engine_after.resume_hits - engine_before.resume_hits
        stats.cache_decode_hits = engine_after.decode_hits - engine_before.decode_hits
        stats.cache_decode_bytes = (
            engine_after.decode_bytes - engine_before.decode_bytes
        )
        stats.cache_bytes = engine_after.cache_bytes
        stats.interned_snapshots = engine_after.interned_snapshots
        stats.interned_bytes = engine_after.interned_bytes
        stats.persisted_bytes = engine_after.persisted_bytes
        stats.cache_backend = engine_after.backend
        stats.index_builds = built.count
        _SynthMetrics.get().publish(stats)
        return result

    def _prune_store(self) -> None:
        """Bound the tuples carried into the next incremental call.

        Smaller programs are both the ranking winners and the cheapest to
        extend, so the largest tuples are dropped first.  P₀'s extension
        is always preserved through the all-singleton tuple, which has the
        largest statement count but is the ancestor of every rewrite —
        drop everything else first.
        """
        cap = self.config.max_store_tuples
        if len(self._store) <= cap:
            return
        entries = sorted(self._store.items(), key=lambda item: item[1].length)
        keep = dict(entries[: cap - 1])
        # the all-singleton tuple (maximal length) must survive: it seeds
        # spans no rewritten tuple can express
        tail_key, tail_tuple = entries[-1]
        keep[tail_key] = tail_tuple
        self._store = keep

    # ------------------------------------------------------------------
    # Extension across calls (§5.4)
    # ------------------------------------------------------------------
    def _extend(
        self,
        stored: RewriteTuple,
        old_length: int,
        new_length: int,
        context: SpeculationContext,
    ) -> Optional[RewriteTuple]:
        """Re-fit a stored tuple to the grown trace.

        A trailing loop absorbs exactly the actions its continued execution
        reproduces; if it produces an action inconsistent with what the
        user actually did, the tuple's program no longer satisfies the
        trace and the tuple dies.  Remaining new actions are appended as
        singleton statements.
        """
        if old_length == new_length:
            return stored
        absorbed_end = old_length
        base = stored
        if stored.ends_with_loop():
            slice_start = stored.bounds[-2]
            window = DOMTrace(self._snapshots, slice_start, new_length)
            # Execute over the generalization window (one snapshot past
            # the trace) and truncate: when the loop consumes the whole
            # extension window its behaviour there is a prefix of the
            # lookahead run, and ``_try_generalize`` on the extended
            # tuple then reuses this execution from the engine cache.
            lookahead = DOMTrace(self._snapshots, slice_start, new_length + 1)
            produced = self._engine.execute(
                [stored.statements[-1]],
                lookahead,
                max_actions=len(lookahead),
                resumable=self.config.resumable_loops,
            ).actions[: len(window)]
            reference = self._actions[slice_start : slice_start + len(produced)]
            consistent = self._engine.consistent_prefix_length(
                produced, reference, window
            )
            if consistent < len(produced):
                return None  # the trailing loop mispredicted: program is dead
            if len(produced) < old_length - slice_start:
                return None  # defensive: the loop no longer covers its slice
            absorbed_end = slice_start + len(produced)
            spec_start = stored.length if stored.processed else stored.spec_start
            base = RewriteTuple(
                stored.statements,
                stored.bounds[:-1] + (absorbed_end,),
                spec_start=spec_start,
                processed=stored.processed,
            )
        remaining = self._actions[absorbed_end:new_length]
        if not remaining:
            extended = base
            extended.processed = False
            return extended
        return extend_with_singletons(base, remaining, absorbed_end)

    # ------------------------------------------------------------------
    # Generalization check (Algorithm 1 line 5)
    # ------------------------------------------------------------------
    def _try_generalize(
        self, tuple_: RewriteTuple, context: SpeculationContext
    ) -> Optional[Action]:
        """Tail-based generalization check.

        Invariant I2 guarantees every statement reproduces its slice
        exactly, and statements are closed terms, so only the *final*
        statement can extend past the demonstration.  It is re-executed on
        its slice plus the latest snapshot; producing one extra action is
        exactly Definition 4.2.
        """
        if not tuple_.ends_with_loop():
            return None
        trace_length = len(self._actions)
        slice_start = tuple_.bounds[-2]
        needed = trace_length - slice_start
        window = DOMTrace(self._snapshots, slice_start, trace_length + 1)
        produced = self._engine.execute(
            [tuple_.statements[-1]],
            window,
            max_actions=needed + 1,
            resumable=self.config.resumable_loops,
        ).actions
        if len(produced) <= needed:
            return None
        reference = self._actions[slice_start:trace_length]
        if self._engine.consistent_prefix_length(produced, reference, window) != needed:
            return None
        return produced[needed]

    # ------------------------------------------------------------------
    # Ranking (Algorithm 1 line 8)
    # ------------------------------------------------------------------
    def _collect(
        self,
        result: SynthesisResult,
        generalizing: list[Candidate],
    ) -> None:
        """Rank generalizing programs (Algorithm 1 line 8); dedup predictions.

        The strategy is ``config.ranking`` (default: the paper's
        smallest-program heuristic — see :mod:`repro.synth.ranking`).
        Predictions are deduplicated by the node they address on the
        latest snapshot (plus non-selector arguments), so semantically
        identical predictions from different programs collapse into one
        authorization option.
        """
        last_dom = self._snapshots[-1] if self._snapshots else None
        seen_predictions: set = set()
        for candidate in rank(generalizing, self.config.ranking):
            result.programs.append(candidate.program)
            key = self._prediction_key(candidate.prediction, last_dom)
            if key not in seen_predictions:
                seen_predictions.add(key)
                result.predictions.append(candidate.prediction)

    def _prediction_key(self, action: Action, dom: Optional[DOMNode]) -> tuple:
        node_id = None
        if action.selector is not None and dom is not None:
            node = self._engine.resolve(action.selector, dom)
            node_id = id(node) if node is not None else str(action.selector)
        return (action.kind, node_id, action.text, action.path)
