"""The memoizing execution engine: one seam for all simulated execution.

:class:`ExecutionEngine` fronts the trace semantics
(:mod:`repro.semantics.evaluator`), consistency checking, and selector
resolution behind a single object.  The synthesizer stack
(:mod:`repro.synth.synthesizer`, :mod:`repro.synth.validate`,
:mod:`repro.synth.speculate`, :mod:`repro.synth.problem`) and the
replayer go through an engine instead of reaching into the evaluator
directly, which buys three things:

* **Memoization.**  Identical ``(statements, window, env, data,
  budget)`` executions — across worklist pops and across incremental
  calls — are computed once (see :mod:`repro.engine.cache`).
* **Indexing.**  Engine-resolved selectors ride the per-snapshot DOM
  indexes of :mod:`repro.engine.index`.
* **Sharing.**  The engine is where execution sharing happens: backed
  by a :class:`~repro.engine.cache.SharedExecutionCache` it joins the
  process-level cache as one session, with its own counters.

A cached :meth:`execute` replays the actions and remaining-window shape
of the first structurally equivalent execution.  Statement keys are
alpha-canonical, so the returned environment's *loop-variable names* may
come from that first execution; the bindings' values, the action trace,
and the consumed-snapshot count — everything the synthesizer consumes —
are identical for alpha-equivalent programs.

Thread-safety contract: engines of concurrent sessions (the HTTP
service runs one per session thread) may share the process-level,
lock-striped cache — the remaining engine-level memos (canonical
statements, lazily filled snapshot-index layers) are id-keyed,
idempotent writes of deterministic values, so a lost race recomputes
but never corrupts.  One engine serves one session at a time, and a
plain private ``ExecutionCache`` is single-threaded.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.dom.node import DOMNode
from repro.dom.xpath import ConcreteSelector, resolve as _resolve
from repro.engine import index as dom_index
from repro.engine.cache import (
    CacheCounters,
    ExecutionCache,
    SharedCacheSession,
    SharedExecutionCache,
)
from repro.engine.keys import action_digest, data_key
from repro.lang.actions import Action
from repro.lang.ast import Program, Statement, canonical_statement
from repro.lang.data import DataSource
from repro.semantics import evaluator
from repro.semantics.consistency import (
    consistent_prefix_length as _consistent_prefix_length,
)
from repro.semantics.env import Env
from repro.semantics.evaluator import EvalResult
from repro.semantics.trace import DOMTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.synth.config import SynthesisConfig

#: Sentinel distinguishing "not memoized yet" from a memoized ``None``
#: (= unbounded cost) in the tier-policy hint table.
_COST_UNKNOWN = object()


@dataclass(frozen=True)
class EngineCounters:
    """A point-in-time snapshot of one engine's telemetry.

    ``hits == exact_hits + prefix_hits + consistency_hits`` — the full
    breakdown is carried so downstream telemetry can reconcile the
    aggregate.  ``cross_session_hits`` counts hits served from entries
    another session of a shared cache recorded.  ``index_builds`` counts
    process-wide snapshot-index constructions (indexes live on
    snapshots, not engines); for attributing builds to one caller use
    :func:`repro.engine.index.track_builds`, which the synthesizer
    wraps around each call — raw deltas of this field misattribute
    builds when two sessions interleave in one process.

    ``warm_hits`` counts hits served from a *persistent backend* —
    executions recorded by a prior process over the same store (always 0
    for the default in-process backend); ``backend`` names the backend
    behind the cache.

    ``cache_bytes``, ``interned_snapshots``, ``interned_bytes`` and
    ``persisted_bytes`` are *gauges*, not counters: the approximate byte
    footprint of the backing cache's tables, the shared cache's
    snapshot-interning table (0 for private caches), and the persistent
    store, all at snapshot time.  Deltas of gauges are meaningless —
    report them as-is.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    exact_hits: int = 0
    prefix_hits: int = 0
    consistency_hits: int = 0
    cross_session_hits: int = 0
    warm_hits: int = 0
    #: Executions answered by resuming a stored loop continuation over
    #: the window suffix (resumable loops); counted alongside the miss
    #: the preceding full-result probe recorded, so they are *not* part
    #: of the ``hits`` reconciliation above.
    resume_hits: int = 0
    #: Warm-start probes served by the persistent backend's
    #: decoded-entry cache (the store read and the payload decode were
    #: both skipped) and the encoded payload bytes those hits never
    #: re-read.  Not part of the ``hits`` reconciliation.
    decode_hits: int = 0
    decode_bytes: int = 0
    index_builds: int = 0
    cache_bytes: int = 0
    interned_snapshots: int = 0
    interned_bytes: int = 0
    persisted_bytes: int = 0
    backend: str = "memory"

    @property
    def hit_rate(self) -> float:
        """Cache hits over all lookups."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ExecutionEngine:
    """Facade owning all simulated execution for one data source."""

    def __init__(
        self,
        data: Optional[DataSource] = None,
        *,
        cache_size: int = 4096,
        use_cache: bool = True,
        shared_cache: Optional[SharedExecutionCache] = None,
        backend=None,
    ) -> None:
        self.data = data
        if not use_cache or cache_size <= 0:
            self._cache = None
        elif shared_cache is not None:
            # one session view per engine: shared tables, private counters
            # (the shared cache owns its own backend)
            self._cache = shared_cache.session()
        else:
            self._cache = ExecutionCache(cache_size, backend=backend)
        # canonical-statement memo: statement objects are shared between
        # tuples and their rewrites, so id-keyed lookup hits constantly;
        # the pin list keeps referenced statements alive.  Writes (and
        # the occasional flush) are lock-guarded so the "memoized ⇒
        # pinned" invariant holds under concurrent callers.
        self._canon: dict[int, tuple] = {}
        self._canon_pins: list[Statement] = []
        self._canon_lock = threading.Lock()
        # id-memoized per-action content digests for the consistency
        # memo's value-addressed keys (same discipline as _canon: the
        # digest is a pure function of the action value, and pinning
        # keeps memoized ids valid)
        self._action_keys: dict[int, int] = {}
        self._action_pins: list[Action] = []
        # recompute-cost hints for the store tier policy, keyed by the
        # statements' canonical key (a value, so collisions are
        # impossible); None = unbounded/unknown = always persist
        self._cost_hints: dict[tuple, Optional[int]] = {}

    @classmethod
    def for_config(
        cls, data: Optional[DataSource], config: "SynthesisConfig"
    ) -> "ExecutionEngine":
        """An engine honouring the config's cache knobs.

        With ``shared_cache`` resolved on, the engine joins the
        process-level cache (:func:`repro.engine.cache.process_cache`);
        otherwise it gets a private :class:`ExecutionCache`.  The
        config's ``cache_backend`` (default: ``REPRO_CACHE_BACKEND``)
        attaches the resolved persistent backend behind whichever cache
        is chosen — the process-level cache resolves its backend from
        the environment at first creation.
        """
        from repro.engine.cache import process_cache
        from repro.service.backends import resolve_backend
        from repro.synth.config import resolved_cache_backend, resolved_shared_cache

        shared: Optional[SharedExecutionCache] = None
        backend = None
        if config.max_cache_entries > 0:
            backend_name = resolved_cache_backend(config)
            backend = resolve_backend(backend_name)
            if resolved_shared_cache(config):
                shared = process_cache(backend_name)
                if data is not None:
                    # keys address the source by content digest already;
                    # interning shares the wrapper object (and its
                    # memoized digest) between equal-content sessions
                    data = shared.intern_data(data)
        return cls(
            data,
            cache_size=config.max_cache_entries,
            shared_cache=shared,
            backend=backend,
        )

    @property
    def cache_enabled(self) -> bool:
        """Whether execution memoization is active."""
        return self._cache is not None

    @property
    def shared_cache(self) -> Optional[SharedExecutionCache]:
        """The shared cache behind this engine, if it is backed by one."""
        if isinstance(self._cache, SharedCacheSession):
            return self._cache.shared
        return None

    def counters(self) -> EngineCounters:
        """Current telemetry (cache counters + global index builds)."""
        cache = self._cache.counters if self._cache is not None else CacheCounters()
        shared = self.shared_cache
        return EngineCounters(
            hits=cache.hits,
            misses=cache.misses,
            evictions=cache.evictions,
            exact_hits=cache.exact_hits,
            prefix_hits=cache.prefix_hits,
            consistency_hits=cache.consistency_hits,
            cross_session_hits=cache.cross_session_hits,
            warm_hits=cache.warm_hits,
            resume_hits=cache.resume_hits,
            decode_hits=cache.decode_hits,
            decode_bytes=cache.decode_bytes,
            index_builds=dom_index.build_count(),
            cache_bytes=self._cache.approx_bytes if self._cache is not None else 0,
            interned_snapshots=shared.interned_snapshots if shared is not None else 0,
            interned_bytes=shared.interned_bytes if shared is not None else 0,
            persisted_bytes=(
                self._cache.persisted_bytes if self._cache is not None else 0
            ),
            backend=(
                self._cache.backend_name if self._cache is not None else "memory"
            ),
        )

    # ------------------------------------------------------------------
    # Simulated execution
    # ------------------------------------------------------------------
    def execute(
        self,
        program: Program | Sequence[Statement],
        doms: DOMTrace,
        env: Optional[Env] = None,
        max_actions: Optional[int] = None,
        data: Optional[DataSource] = None,
        resumable: bool = False,
    ) -> EvalResult:
        """Memoized :func:`repro.semantics.evaluator.execute`.

        ``data`` overrides the engine's data source for this call (used
        by the problem-level helpers, which carry their own source).

        ``resumable`` opts a *single closed statement* into resumable
        loop execution: a run that absorbs its whole window mid-loop
        records the evaluator's continuation in the cache, and a later
        call over an extended window re-enters the loop at the recorded
        iteration instead of re-executing from the window start — the
        synthesizer's extension/generalization path uses this to keep
        per-call cost proportional to the *new* actions.  The stitched
        result is identical to a from-scratch execution by construction
        (the iteration-top state fully determines the remainder).
        """
        source = self.data if data is None else data
        window_length = len(doms)
        budget = (
            window_length
            if max_actions is None
            else min(max_actions, window_length)
        )
        if self._cache is None or window_length == 0 or budget <= 0:
            return evaluator.execute(program, doms, source, env, max_actions)
        statements = tuple(program)
        # every component is a value (see repro.engine.keys): canonical
        # statement forms, the env fingerprint, the data source's content
        # digest, and the window's snapshot content digests — so the key
        # addresses the same outcome in any process
        base = (self._statements_key(statements), _env_key(env), _data_key(source))
        window_keys = doms.value_key()
        hit = self._cache.get(base, window_keys, budget)
        if hit is not None:
            actions, final_env = hit
            return EvalResult(list(actions), doms.window(len(actions)), final_env)
        resumable = resumable and len(statements) == 1
        if resumable:
            cont = self._cache.get_continuation(base, window_keys, budget)
            if cont is not None:
                prefix_actions, cont_env, state = cont
                consumed = len(prefix_actions)
                suffix = evaluator.resume_statement(
                    statements[0],
                    state,
                    doms.window(consumed),
                    source,
                    cont_env,
                    max_actions=budget - consumed,
                )
                actions = list(prefix_actions) + suffix.actions
                result = EvalResult(
                    actions,
                    doms.window(len(actions)),
                    suffix.env,
                    # the stitched last-action env is only known when the
                    # suffix emitted; otherwise stay conservative (None
                    # can never satisfy `is env`)
                    suffix.env_at_last_action if suffix.actions else None,
                    _shift_continuation(suffix.continuation, consumed),
                )
                self._record_result(base, window_keys, budget, result, statements)
                return result
        result = evaluator.execute(
            statements, doms, source, env, max_actions,
            record_continuation=resumable,
        )
        self._record_result(base, window_keys, budget, result, statements)
        return result

    def _record_result(
        self,
        base: tuple,
        window_keys: tuple[int, ...],
        budget: int,
        result: EvalResult,
        statements: Optional[tuple] = None,
    ) -> None:
        cost = None
        if statements is not None:
            cost = self._cost_hint(base[0], statements)
            if cost is None:
                # the static bound is unbounded (a loop) — but the entry
                # is value-addressed to these exact snapshots, so its
                # recompute cost is exactly the execution it records
                cost = len(result.actions)
        self._cache.put(
            base,
            window_keys,
            budget,
            tuple(result.actions),
            result.env,
            exact_budget_ok=result.env_at_last_action is result.env,
            continuation=result.continuation,
            cost=cost,
        )

    def _cost_hint(
        self, statements_key: tuple, statements: Optional[tuple]
    ) -> Optional[int]:
        """A static upper bound on this fragment's recompute cost.

        Feeds the store tier policy: a *bounded* cheap cost means the
        entry is faster to re-simulate than to read back, so the file
        backend may skip persisting it.  Computed with ``data=None``
        (loops stay unbounded; :meth:`_record_result` then falls back
        to the entry's recorded action count, which is exact for a
        value-addressed entry) and memoized per canonical statements
        key.
        """
        if statements is None:
            return None
        hint = self._cost_hints.get(statements_key, _COST_UNKNOWN)
        if hint is not _COST_UNKNOWN:
            return hint
        try:
            from repro.analysis.cost import statement_cost

            total: Optional[int] = 0
            for statement in statements:
                interval = statement_cost(statement, None)
                if interval.hi is None:
                    total = None
                    break
                total += interval.hi
        except Exception:  # stub statements outside the analysis vocabulary
            total = None
        if len(self._cost_hints) >= 4096:
            self._cost_hints.clear()
        self._cost_hints[statements_key] = total
        return total

    # ------------------------------------------------------------------
    # Consistency and resolution (delegates — index-accelerated)
    # ------------------------------------------------------------------
    def consistent_prefix_length(
        self,
        produced: Sequence[Action],
        reference: Sequence[Action],
        doms: DOMTrace,
    ) -> int:
        """Memoized :func:`repro.semantics.consistency.consistent_prefix_length`.

        Validation re-checks the same produced trace against the same
        recorded slice whenever the underlying execution repeats; the
        memo is keyed by the actions' content digests and the window's
        snapshot digests — values, so equal checks from any session (or
        any process, through a persistent backend) share one entry.
        The digests themselves are id-memoized per action object
        (:meth:`action_key`), keeping the hot path a tuple of dict hits.
        """
        if self._cache is None or not produced:
            return _consistent_prefix_length(produced, reference, doms)
        key = (
            tuple(self.action_key(action) for action in produced),
            tuple(self.action_key(action) for action in reference),
            doms.value_key(),
        )
        hit = self._cache.get_consistency(key)
        if hit is not None:
            return hit
        value = self._incremental_prefix_length(key, produced, reference, doms)
        if value is None:
            value = _consistent_prefix_length(produced, reference, doms)
        self._cache.put_consistency(key, value)
        return value

    #: How many trailing actions the incremental consistency path will
    #: look back over for a settled prefix entry (extension adds at most
    #: a handful of actions between checks; past that, rescanning whole
    #: is no worse than probing).
    _CONSISTENCY_LOOKBACK = 4

    def _incremental_prefix_length(
        self, key, produced, reference, doms
    ) -> Optional[int]:
        """Extend a settled shorter check instead of rescanning.

        Incremental synthesis re-checks the same growing traces after
        every recorded action; the full-sequence memo misses (the key
        grew) but the previous call's entry is this call's *prefix*.
        Finding a fully-consistent settled prefix of length ``cut``
        reduces the scan to the tail beyond it — per-call consistency
        cost stays O(new actions) on long demonstrations.  A settled
        prefix that was already inconsistent is the answer outright.
        """
        produced_keys, reference_keys, window_keys = key
        limit = min(len(produced), len(reference), len(doms))
        floor = max(limit - self._CONSISTENCY_LOOKBACK, 1)
        for cut in range(limit - 1, floor - 1, -1):
            prefix_key = (
                produced_keys[:cut],
                reference_keys[:cut],
                window_keys[:cut],
            )
            prior = self._cache.get_consistency(prefix_key)
            if prior is None:
                continue
            if prior < cut:
                return prior
            tail = _consistent_prefix_length(
                produced[cut:limit], reference[cut:limit], doms.window(cut)
            )
            return cut + tail
        return None

    def resolve(self, selector: ConcreteSelector, dom: DOMNode) -> Optional[DOMNode]:
        """Delegate to :func:`repro.dom.xpath.resolve`."""
        return _resolve(selector, dom)

    def valid(self, selector: ConcreteSelector, dom: DOMNode) -> bool:
        """The paper's ``valid(ρ, π)`` through the engine seam."""
        return _resolve(selector, dom) is not None

    # ------------------------------------------------------------------
    def _statements_key(self, statements: tuple[Statement, ...]) -> tuple:
        return tuple(self.statement_key(stmt) for stmt in statements)

    #: Flush threshold for the canonical-statement memo: keeps the pin
    #: list from growing without bound over very long sessions (a flush
    #: only costs recomputation, never correctness).
    _CANON_LIMIT = 1 << 16

    def statement_key(self, stmt: Statement) -> tuple:
        """Id-memoized :func:`repro.lang.ast.canonical_statement`.

        Statement objects are shared between worklist tuples and their
        rewrites, so identity-keyed lookups hit constantly; referents
        are pinned so their ids stay valid while memoized.  The hot
        lookup is lockless; the write side (including the occasional
        flush) takes a lock so a flush can never separate an entry from
        its pin — an unpinned entry whose statement got collected would
        let a recycled id alias another statement's key.  Concurrent
        cold misses both compute the same canonical form, so the double
        insert is idempotent.
        """
        key = self._canon.get(id(stmt))
        if key is None:
            key = canonical_statement(stmt)  # pure; computed unlocked
            with self._canon_lock:
                if len(self._canon) >= self._CANON_LIMIT:
                    self._canon.clear()
                    self._canon_pins.clear()
                self._canon[id(stmt)] = key
                self._canon_pins.append(stmt)
        return key

    def action_key(self, action: Action) -> int:
        """Id-memoized content digest of one action (a pure value).

        Actions are shared between executions and consistency checks of
        the same trace slice, so identity-keyed lookups hit constantly;
        the same locking discipline as :meth:`statement_key` keeps the
        "memoized ⇒ pinned" invariant under concurrent callers.
        """
        key = self._action_keys.get(id(action))
        if key is None:
            key = action_digest(action)  # pure; computed unlocked
            with self._canon_lock:
                if len(self._action_keys) >= self._CANON_LIMIT:
                    self._action_keys.clear()
                    self._action_pins.clear()
                self._action_keys[id(action)] = key
                self._action_pins.append(action)
        return key


def _shift_continuation(
    continuation: Optional[tuple], consumed: int
) -> Optional[tuple]:
    """Rebase a resumed run's continuation onto the full window.

    The suffix run records consumed-action counts relative to its own
    (suffix) window; adding the stitched prefix length makes the state
    valid for the full window's cache entry.
    """
    if continuation is None:
        return None
    offset, cont_env, state = continuation
    return (consumed + offset, cont_env, state)


def _env_key(env: Optional[Env]) -> tuple:
    if env is None or len(env) == 0:
        return ()
    return env.fingerprint()


def _data_key(source: Optional[DataSource]) -> int:
    if source is None:
        return 0
    return data_key(source)
