"""Memoization of simulated execution results.

The speculate-and-validate loop executes the *same* statements over the
*same* DOM windows many times: every popped worklist tuple re-validates
candidates its siblings already produced, every pushed tuple re-runs its
trailing loop for the generalization check, and each incremental
``synthesize`` call re-executes stored tuples over windows that extend
the previous call's.  :class:`ExecutionCache` makes each distinct
execution happen once, through two tables:

Exact table
    Keyed on ``(statements, env, data, window snapshots, action
    budget)``.  Hits replay the recorded outcome verbatim.

Terminal table
    An execution that ends with snapshots *and* budget to spare
    terminated on its own terms — every loop-continuation and validity
    decision was made on a snapshot it actually examined, namely the
    first ``len(actions) + 1`` of its window.  Its outcome is therefore
    identical on **any** window extending that examined prefix, which is
    exactly what the next incremental call presents.  The terminal table
    keys such results by ``(statements, env, data, first snapshot)`` and
    matches by examined-prefix comparison.

Every key component is a **value** (see :mod:`repro.engine.keys`):
statements by alpha-canonical form, environments by fingerprint, data
sources and snapshots by structural content digest.  Entries therefore
need no pinning — a key can never alias recycled object ids — and a key
computed in one process addresses the same outcome in any other, which
is what the persistent backends below and the multi-process service
(:mod:`repro.service`) are built on.  Both tables are bounded LRUs with
byte-accounted footprints and optional byte-based eviction thresholds;
hit/miss/eviction counters feed
:class:`repro.synth.synthesizer.SynthesisStats`.

Backends
--------
An optional :class:`~repro.service.backends.CacheBackend` adds a second
level behind the in-memory tables: lookups that miss in memory consult
the backend (a hit *warm-starts* the entry back into memory and counts
as ``warm_hits``), and every recorded outcome is written through,
addressed by the :func:`~repro.engine.keys.stable_digest` of its full
value key.  The default in-process backend is a no-op — byte-for-byte
legacy behavior; the file backend persists executions across process
boundaries and restarts, and several worker processes pointing at one
store share each other's work.

Process-level sharing
---------------------
:class:`SharedExecutionCache` promotes the per-engine cache to a
process-level one: the three tables are *lock-striped* across shards
(keyed by the same value-addressed keys, so a key always lands on the
same shard), and a *snapshot-interning* table maps structurally equal
snapshots from different sessions onto one canonical root — sessions
over the same site then share the per-snapshot :class:`~repro.engine.
index.SnapshotIndex` (with its ``enum_memo``) as well as every memoized
execution.  Engines join through :meth:`SharedExecutionCache.session`,
which hands out a :class:`SharedCacheSession` view with per-session
counters (so interleaved sessions never steal each other's telemetry)
and a cross-session hit count.  :func:`process_cache` holds the
process-wide instance behind ``SynthesisConfig.shared_cache`` /
``REPRO_SHARED_CACHE=1``.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass, fields
from typing import Optional, Sequence

from repro.dom.node import DOMNode
from repro.engine.keys import stable_digest
from repro.obs import metrics as obs_metrics
from repro.semantics.env import Env

_promotions = None


def _promotion_counter():
    """Lazy family handle: entries promoted from the persistent backend
    into the in-memory tables (the store's half of a warm hit)."""
    global _promotions
    if _promotions is None:
        _promotions = obs_metrics.registry().counter(
            "repro_store_promotions_total",
            "Backend payloads promoted into the in-memory cache tables.",
            ("kind",),
        )
    return _promotions

#: Backend entry kinds (mirrors :mod:`repro.service.backends`).
_EXACT, _TERMINAL, _CONSISTENCY = 0, 1, 2


@dataclass
class CacheCounters:
    """Hit/miss/eviction telemetry.

    ``hits = exact_hits + prefix_hits + consistency_hits`` — the first
    two are execution lookups, the third is the consistency-check memo
    that rides the same cache.  ``cross_session_hits`` counts hits whose
    entry was recorded by a *different* session of a shared cache (it is
    always 0 for a private cache); ``warm_hits`` counts hits served from
    a persistent backend — entries recorded by a prior process (they
    are included in the exact/prefix/consistency breakdown, never in
    ``cross_session_hits``).  A shared cache's shards each keep their
    own instance, folded into one snapshot with :meth:`merge`.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    exact_hits: int = 0
    prefix_hits: int = 0
    consistency_hits: int = 0
    cross_session_hits: int = 0
    warm_hits: int = 0
    #: Lookups answered by *resuming* a stored loop continuation instead
    #: of re-executing from the window start.  Not part of ``hits`` (the
    #: evaluator still runs, over the suffix) and not part of the
    #: hit/miss reconciliation — a resumed lookup was already counted as
    #: a miss by the preceding full-result probe.
    resume_hits: int = 0
    #: Backend probes served by the backend's decoded-entry cache — the
    #: store read *and* the payload decode were skipped — and the
    #: encoded payload bytes those hits never re-read.  A subset of
    #: ``warm_hits``-eligible traffic, not part of the hit/miss
    #: reconciliation.
    decode_hits: int = 0
    decode_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over all lookups (0.0 when the cache was never consulted)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def merge(self, other: "CacheCounters") -> None:
        """Fold another counter set into this one."""
        for field in fields(CacheCounters):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))


class _Entry:
    """One memoized outcome.

    ``exact_budget_ok`` marks terminal entries whose recorded run made
    no environment binding after its last emitted action, so the
    outcome also stands in for a run whose budget *equals* the action
    count (such a run halts right after that action and can never bind
    again).  ``owner`` is the session token that recorded the entry
    (0 for private caches and for entries restored from a persistent
    backend) — hits from other sessions count as cross-session reuse.

    ``continuation`` distinguishes the terminal table's second entry
    kind: a run that *absorbed* its window mid-loop (nothing to spare,
    so no terminated-prefix reuse is possible) instead records the
    evaluator's resume state (:attr:`repro.semantics.evaluator.
    EvalResult.continuation`).  For such entries ``actions`` is the
    prefix emitted before the last started iteration, ``examined`` its
    consumed window keys, and ``env`` the iteration-top environment.
    Continuation entries are in-memory only — their env/state hold live
    objects, so they are never written through to a backend.
    """

    __slots__ = ("actions", "env", "examined", "exact_budget_ok", "owner", "continuation")

    def __init__(
        self,
        actions: tuple,
        env: Env,
        examined: Optional[tuple[int, ...]],
        exact_budget_ok: bool = False,
        owner: int = 0,
        continuation: Optional[tuple] = None,
    ) -> None:
        self.actions = actions
        self.env = env
        self.examined = examined
        self.exact_budget_ok = exact_budget_ok
        self.owner = owner
        self.continuation = continuation


class _BackendProbe:
    """A phase-1 miss's pending backend follow-up.

    Carries everything phase 2 needs so the backend read can run with
    no lock held: the lookup coordinates for the in-memory re-check and
    the store digests (computed under the lock — the base-digest memo
    is shard state).  ``terminal_digest`` is ``None`` when an
    inapplicable in-memory terminal entry already rules the store's
    terminal copy out.
    """

    __slots__ = (
        "window_keys",
        "budget",
        "exact_key",
        "terminal_key",
        "exact_digest",
        "terminal_digest",
    )

    def __init__(
        self,
        window_keys: tuple[int, ...],
        budget: int,
        exact_key: tuple,
        terminal_key: tuple,
        exact_digest: bytes,
        terminal_digest: Optional[bytes],
    ) -> None:
        self.window_keys = window_keys
        self.budget = budget
        self.exact_key = exact_key
        self.terminal_key = terminal_key
        self.exact_digest = exact_digest
        self.terminal_digest = terminal_digest


#: Fixed per-entry overhead estimate: the ``_Entry`` object, its dict
#: slot, and the key tuple's skeleton.
_ENTRY_OVERHEAD = 200
#: Approximate bytes per element of the variable-length parts (an action
#: object share, a statement-key share).
_PER_ITEM = 56
#: Approximate bytes per content-digest int (the 128-bit snapshot keys
#: making up window tuples and examined prefixes).
_KEY_INT = 44


def _entry_bytes(key: tuple, entry: _Entry) -> int:
    """Deterministic size estimate of one execution entry (bytes).

    Window and examined components scale with the *window length*, so
    long-window terminal entries weigh proportionally more — the
    byte-based threshold therefore pressures exactly the entries the
    old count-based policy undercounted.
    """
    size = _ENTRY_OVERHEAD + _PER_ITEM * len(entry.actions)
    if entry.examined is not None:
        size += _KEY_INT * len(entry.examined)
    for part in key:
        if type(part) is tuple:
            size += _KEY_INT * len(part)
    return size


def _consistency_bytes(key: tuple, value: tuple) -> int:
    """Deterministic size estimate of one consistency-memo entry."""
    size = _ENTRY_OVERHEAD
    for part in key:
        if type(part) is tuple:
            size += _KEY_INT * len(part)
    return size


class ExecutionCache:
    """Bounded LRU over execution outcomes (see the module docstring).

    ``base`` below is the window-independent part of the key:
    ``(statements key, env key, data key)``.  ``window_keys`` is the
    window's snapshots by content digest; ``budget`` the effective
    action budget (already clamped to the window length by the engine).

    ``max_entries`` bounds each table by count; ``max_bytes`` (optional)
    bounds the *summed* approximate footprint of all three tables —
    when exceeded, oldest entries are evicted table by table until back
    under, so many small entries and few huge ones meet the same
    ceiling.  ``backend`` is an optional persistent second level
    (:mod:`repro.service.backends`), consulted on in-memory misses and
    written through on every insert.

    Lookups and inserts accept an optional per-caller ``counters`` —
    shared-cache session views pass their own — and a
    ``session`` token identifying the caller of a shared cache.  The
    cache's own :attr:`counters` *always* record (they are the
    shard-level aggregate); a passed recorder records additionally, so
    per-session and global telemetry stay reconciled.  A *plain*
    ``ExecutionCache`` is single-threaded by design — concurrent access
    must go through :class:`SharedExecutionCache`, whose shards wrap
    each instance in a lock.
    """

    def __init__(
        self,
        max_entries: int = 4096,
        max_bytes: Optional[int] = None,
        backend=None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("cache size must be positive")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("byte threshold must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        # a non-persistent backend is a no-op by contract: drop it so the
        # hot path never computes store digests for nothing
        self._backend = backend if backend is not None and backend.persistent else None
        self.backend_name = backend.name if backend is not None else "memory"
        # optional backend seams, resolved once: duck-typed backends
        # (test stubs, third parties) may predate fetch_entry (a
        # load_entry that also reports decoded-cache telemetry) and
        # should_persist (the store tier policy)
        if self._backend is not None:
            resolved = self._backend
            self._fetch_entry = getattr(
                resolved,
                "fetch_entry",
                lambda kind, key: (resolved.load_entry(kind, key), 0),
            )
            self._should_persist = getattr(
                resolved, "should_persist", lambda kind, cost: True
            )
        # recency reordering only pays off once a table could actually
        # evict something hot; below half capacity a hit is left in place
        self._touch_floor = max(1, max_entries // 2)
        self.counters = CacheCounters()
        #: Approximate bytes held by all three tables.
        self.approx_bytes = 0
        # memo of stable_digest(base): the same base (statements, env,
        # data) is probed against hundreds of windows, and re-hashing
        # canonical statement forms per probe would dominate backend
        # lookups.  Value-keyed, so it is correct by construction.
        self._base_digests: dict[tuple, bytes] = {}
        # dicts preserve insertion order: pop + reinsert makes them LRUs
        self._exact: dict[tuple, _Entry] = {}
        self._terminal: dict[tuple, _Entry] = {}
        self._consistency: dict[tuple, tuple[int, int]] = {}
        self._tables = {
            "exact": self._exact,
            "terminal": self._terminal,
            "consistency": self._consistency,
        }

    def __len__(self) -> int:
        return len(self._exact) + len(self._terminal) + len(self._consistency)

    @property
    def backend(self):
        """The persistent backend behind this cache, if any."""
        return self._backend

    @property
    def persisted_bytes(self) -> int:
        """Approximate bytes held by the persistent backend (0 without one)."""
        return self._backend.persisted_bytes if self._backend is not None else 0

    # ------------------------------------------------------------------
    def get(
        self,
        base: tuple,
        window_keys: tuple[int, ...],
        budget: int,
        counters: Optional[CacheCounters] = None,
        session: int = 0,
    ) -> Optional[tuple[tuple, Env]]:
        """The memoized ``(actions, final env)``, or ``None`` on a miss.

        Single-threaded composition of the two-phase lookup below —
        callers that hold a lock around the whole cache
        (:class:`SharedCacheSession`) instead call the phases directly
        and drop the lock for the backend I/O in between.
        """
        result, probe = self.lookup_memory(base, window_keys, budget, counters, session)
        if result is not None or probe is None:
            return result
        exact_payload, terminal_payload, served_bytes = self.probe_backend(probe)
        return self.promote_backend(
            probe, exact_payload, terminal_payload, counters, session, served_bytes
        )

    def lookup_memory(
        self,
        base: tuple,
        window_keys: tuple[int, ...],
        budget: int,
        counters: Optional[CacheCounters] = None,
        session: int = 0,
    ) -> tuple[Optional[tuple[tuple, Env]], Optional["_BackendProbe"]]:
        """Phase 1 (under the shard lock): the in-memory probe.

        Returns ``(result, probe)``: a non-``None`` result is a counted
        hit; a non-``None`` probe means the persistent backend must
        still be consulted — the miss is *not* counted yet, that is
        :meth:`promote_backend`'s job, so each lookup counts exactly one
        hit or one miss whichever phase settles it.  Both ``None`` is a
        counted miss (no backend).
        """
        recorders = self._recorders(counters)
        exact_key = (base, window_keys, budget)
        entry = self._exact.get(exact_key)
        if entry is not None:
            if len(self._exact) >= self._touch_floor:
                self._touch(self._exact, exact_key)
            self._record_hit(recorders, "exact_hits", entry.owner, session)
            return (entry.actions, entry.env), None
        terminal_key = (base, window_keys[0])
        entry = self._terminal.get(terminal_key)
        if entry is not None and self._terminal_applies(entry, window_keys, budget):
            if len(self._terminal) >= self._touch_floor:
                self._touch(self._terminal, terminal_key)
            self._record_hit(recorders, "prefix_hits", entry.owner, session)
            return (entry.actions, entry.env), None
        if self._backend is None:
            for recorder in recorders:
                recorder.misses += 1
            return None, None
        # full in-memory miss: the backend may hold either kind from a
        # prior process.  An *inapplicable* in-memory terminal entry
        # only rules out the store's terminal copy (write-through keeps
        # them equal) — a persisted exact entry for this very window may
        # still exist, so only the terminal probe is skipped in that
        # case.  Digests are computed here, under the lock, because the
        # base-digest memo is shard state.
        probe = _BackendProbe(
            window_keys,
            budget,
            exact_key,
            terminal_key,
            self._store_digest("exact", base, window_keys, budget),
            None if entry is not None else self._store_digest("terminal", base, window_keys[0]),
        )
        return None, probe

    def probe_backend(self, probe: "_BackendProbe") -> tuple:
        """Phase 2a (no lock): read the store for a phase-1 miss.

        Touches only the backend (which synchronizes itself), never the
        tables — safe to run while other threads hold the shard lock.
        Returns ``(exact_payload, terminal_payload, served_bytes)``;
        ``served_bytes`` is nonzero when the returned payload came from
        the backend's decoded-entry cache (see
        :meth:`~repro.service.backends.CacheBackend.fetch_entry`).
        """
        exact_payload, served_bytes = self._fetch_entry(_EXACT, probe.exact_digest)
        if exact_payload is not None:
            return exact_payload, None, served_bytes
        if probe.terminal_digest is None:
            return None, None, 0
        terminal_payload, served_bytes = self._fetch_entry(
            _TERMINAL, probe.terminal_digest
        )
        return None, terminal_payload, served_bytes

    def promote_backend(
        self,
        probe: "_BackendProbe",
        exact_payload: Optional[tuple],
        terminal_payload: Optional[tuple],
        counters: Optional[CacheCounters] = None,
        session: int = 0,
        served_bytes: int = 0,
    ) -> Optional[tuple[tuple, Env]]:
        """Phase 2b (under the shard lock): promote and settle counting.

        Re-checks the in-memory tables first — while the lock was
        released another thread may have promoted (or recorded) the very
        entry, and a hit served from memory counts as a plain hit, not a
        warm one.  Otherwise the probed payload is promoted exactly as a
        locked warm start would have, or the miss is finally counted.
        ``served_bytes`` is the decoded-cache telemetry the probe
        reported; it counts here, where the recorders are known.
        """
        recorders = self._recorders(counters)
        if served_bytes:
            for recorder in recorders:
                recorder.decode_hits += 1
                recorder.decode_bytes += served_bytes
        entry = self._exact.get(probe.exact_key)
        if entry is not None:
            if len(self._exact) >= self._touch_floor:
                self._touch(self._exact, probe.exact_key)
            self._record_hit(recorders, "exact_hits", entry.owner, session)
            return entry.actions, entry.env
        entry = self._terminal.get(probe.terminal_key)
        if entry is not None and self._terminal_applies(
            entry, probe.window_keys, probe.budget
        ):
            if len(self._terminal) >= self._touch_floor:
                self._touch(self._terminal, probe.terminal_key)
            self._record_hit(recorders, "prefix_hits", entry.owner, session)
            return entry.actions, entry.env
        if exact_payload is not None:
            actions, env, _, _ = exact_payload
            self._insert(self._exact, probe.exact_key, _Entry(actions, env, None), ())
            self._record_hit(recorders, "exact_hits", 0, session, warm=True)
            _promotion_counter().labels(kind="exact").inc()
            return actions, env
        if terminal_payload is not None:
            actions, env, examined, exact_budget_ok = terminal_payload
            if examined is not None:  # corrupt/foreign payload: ignore
                promoted = _Entry(actions, env, examined, exact_budget_ok)
                # promote even when unusable for *this* lookup: the entry
                # is exactly what a local put would have recorded
                self._insert(self._terminal, probe.terminal_key, promoted, ())
                _promotion_counter().labels(kind="terminal").inc()
                if self._terminal_applies(promoted, probe.window_keys, probe.budget):
                    self._record_hit(recorders, "prefix_hits", 0, session, warm=True)
                    return actions, env
        for recorder in recorders:
            recorder.misses += 1
        return None

    @staticmethod
    def _terminal_applies(
        entry: _Entry, window_keys: tuple[int, ...], budget: int
    ) -> bool:
        # a budget exactly equal to the action count also replays
        # identically — but only when the recorded run bound nothing
        # after its last action (exact_budget_ok), since a capped run
        # halts there and its final env is the last-action env.
        # Continuation entries are not terminated runs — their recorded
        # prefix is mid-loop, so they never answer a full-result lookup.
        return (
            entry.continuation is None
            and len(entry.examined) <= len(window_keys)
            and (
                budget > len(entry.actions)
                or (budget == len(entry.actions) and entry.exact_budget_ok)
            )
            and window_keys[: len(entry.examined)] == entry.examined
        )

    def _store_digest(self, tag: str, base: tuple, *rest) -> bytes:
        """The backend address of a key, with the base digest memoized."""
        base_digest = self._base_digests.get(base)
        if base_digest is None:
            if len(self._base_digests) >= 4 * self.max_entries:
                self._base_digests.clear()
            base_digest = self._base_digests[base] = stable_digest(base)
        return stable_digest((tag, base_digest) + rest)

    @staticmethod
    def _record_hit(
        recorders: tuple,
        kind: str,
        owner: int,
        session: int,
        warm: bool = False,
    ) -> None:
        cross = owner and owner != session
        for recorder in recorders:
            recorder.hits += 1
            setattr(recorder, kind, getattr(recorder, kind) + 1)
            if cross:
                recorder.cross_session_hits += 1
            if warm:
                recorder.warm_hits += 1

    def put(
        self,
        base: tuple,
        window_keys: tuple[int, ...],
        budget: int,
        actions: tuple,
        env: Env,
        exact_budget_ok: bool = False,
        counters: Optional[CacheCounters] = None,
        session: int = 0,
        continuation: Optional[tuple] = None,
        cost: Optional[int] = None,
    ) -> None:
        """Record one execution outcome in both applicable tables.

        ``exact_budget_ok`` asserts the final env equals the env as of
        the last emitted action (see :class:`_Entry`); only the engine,
        which sees the evaluator's ``env_at_last_action``, can vouch for
        it, so it defaults to the conservative ``False``.

        ``continuation`` — ``(consumed, env, state)`` from the evaluator
        — marks a run that absorbed its window mid-loop.  It lands in
        the terminal slot (the run cannot also qualify as terminated)
        so later lookups over extended windows can resume instead of
        re-executing; see :meth:`get_continuation`.

        ``cost`` is an upper bound on the simulated actions needed to
        recompute this outcome (``None`` = unbounded/unknown).  It only
        feeds the backend's tier policy
        (:meth:`~repro.service.backends.CacheBackend.should_persist`) —
        the in-memory tables always record.
        """
        recorders = self._recorders(counters)
        self._insert(
            self._exact,
            (base, window_keys, budget),
            _Entry(actions, env, None, owner=session),
            recorders,
        )
        if self._backend is not None and self._should_persist(_EXACT, cost):
            self._backend.store_entry(
                _EXACT,
                self._store_digest("exact", base, window_keys, budget),
                actions,
                env,
                None,
                False,
            )
        count = len(actions)
        if count < len(window_keys) and count < budget:
            # terminated on its own terms: reusable on any extension of
            # the examined prefix (consumed snapshots + the final head)
            examined = window_keys[: count + 1]
            self._insert(
                self._terminal,
                (base, window_keys[0]),
                _Entry(actions, env, examined, exact_budget_ok, owner=session),
                recorders,
            )
            if self._backend is not None and self._should_persist(_TERMINAL, None):
                self._backend.store_entry(
                    _TERMINAL,
                    self._store_digest("terminal", base, window_keys[0]),
                    actions,
                    env,
                    examined,
                    exact_budget_ok,
                )
        elif continuation is not None and continuation[0] > 0:
            # absorbed mid-loop: record the resume point.  In-memory
            # only — the state tuple holds live Env/selector objects
            # that value-addressed backends cannot round-trip.
            consumed, cont_env, state = continuation
            self._insert(
                self._terminal,
                (base, window_keys[0]),
                _Entry(
                    actions[:consumed],
                    cont_env,
                    window_keys[:consumed],
                    owner=session,
                    continuation=state,
                ),
                recorders,
            )

    # ------------------------------------------------------------------
    def get_continuation(
        self,
        base: tuple,
        window_keys: tuple[int, ...],
        budget: int,
        counters: Optional[CacheCounters] = None,
        session: int = 0,
    ) -> Optional[tuple[tuple, Env, tuple]]:
        """The stored resume point for this base/window, if usable.

        Returns ``(prefix actions, iteration-top env, state)`` when the
        terminal slot holds a continuation entry whose consumed prefix
        is a prefix of ``window_keys`` and whose prefix length leaves
        budget to spare — i.e. the caller can re-enter the loop over
        ``window[len(prefix):]`` instead of executing from scratch.
        Probed only *after* a full-result lookup missed (the miss is
        counted there; a resume adds to ``resume_hits`` alone).
        """
        entry = self._terminal.get((base, window_keys[0]))
        if entry is None or entry.continuation is None:
            return None
        consumed = len(entry.actions)
        if (
            consumed >= budget
            or len(window_keys) < consumed
            or window_keys[:consumed] != entry.examined
        ):
            return None
        if len(self._terminal) >= self._touch_floor:
            self._touch(self._terminal, (base, window_keys[0]))
        for recorder in self._recorders(counters):
            recorder.resume_hits += 1
        return entry.actions, entry.env, entry.continuation

    # ------------------------------------------------------------------
    def get_consistency(
        self,
        key: tuple,
        counters: Optional[CacheCounters] = None,
        session: int = 0,
    ) -> Optional[int]:
        """Memoized ``consistent_prefix_length`` result, or ``None``."""
        value, digest = self.lookup_consistency_memory(key, counters, session)
        if value is not None or digest is None:
            return value
        return self.promote_consistency(
            key, self._backend.load_consistency(digest), counters, session
        )

    def lookup_consistency_memory(
        self,
        key: tuple,
        counters: Optional[CacheCounters] = None,
        session: int = 0,
    ) -> tuple[Optional[int], Optional[bytes]]:
        """Phase 1 of the consistency lookup (same contract as
        :meth:`lookup_memory`): ``(value, pending store digest)``."""
        recorders = self._recorders(counters)
        hit = self._consistency.get(key)
        if hit is None:
            if self._backend is not None:
                return None, stable_digest(("consistency", key))
            for recorder in recorders:
                recorder.misses += 1
            return None, None
        if len(self._consistency) >= self._touch_floor:
            self._touch(self._consistency, key)
        self._record_hit(recorders, "consistency_hits", hit[1], session)
        return hit[0], None

    def promote_consistency(
        self,
        key: tuple,
        value: Optional[int],
        counters: Optional[CacheCounters] = None,
        session: int = 0,
    ) -> Optional[int]:
        """Phase 2 (under the shard lock): promote and settle counting."""
        recorders = self._recorders(counters)
        hit = self._consistency.get(key)
        if hit is not None:  # promoted by a racing thread meanwhile
            if len(self._consistency) >= self._touch_floor:
                self._touch(self._consistency, key)
            self._record_hit(recorders, "consistency_hits", hit[1], session)
            return hit[0]
        if value is not None:
            self._insert_value("consistency", key, (value, 0), ())
            self._record_hit(recorders, "consistency_hits", 0, session, warm=True)
            return value
        for recorder in recorders:
            recorder.misses += 1
        return None

    def put_consistency(
        self,
        key: tuple,
        value: int,
        counters: Optional[CacheCounters] = None,
        session: int = 0,
    ) -> None:
        """Record one consistency-check outcome."""
        self._insert_value(
            "consistency", key, (value, session), self._recorders(counters)
        )
        if self._backend is not None:
            self._backend.store_consistency(
                stable_digest(("consistency", key)), value
            )

    # ------------------------------------------------------------------
    def _recorders(self, counters: Optional[CacheCounters]) -> tuple:
        """The cache's own counters, plus the caller's when distinct."""
        if counters is None or counters is self.counters:
            return (self.counters,)
        return (self.counters, counters)

    @staticmethod
    def _touch(table: dict, key: tuple) -> None:
        table[key] = table.pop(key)

    def _insert(
        self, table: dict, key: tuple, entry: _Entry, recorders: tuple
    ) -> None:
        name = "exact" if table is self._exact else "terminal"
        self._insert_value(name, key, entry, recorders)

    def _insert_value(
        self, name: str, key: tuple, value, recorders: Optional[tuple] = None
    ) -> None:
        # an explicitly empty recorder tuple (backend promotions) counts
        # nothing: the entry was not this process's traffic
        if recorders is None:
            recorders = (self.counters,)
        table = self._tables[name]
        if key in table:
            self.approx_bytes -= self._value_bytes(key, table.pop(key))
        elif len(table) >= self.max_entries:
            old_key = next(iter(table))
            self.approx_bytes -= self._value_bytes(old_key, table.pop(old_key))
            for recorder in recorders:
                recorder.evictions += 1
        table[key] = value
        self.approx_bytes += self._value_bytes(key, value)
        if self.max_bytes is not None and self.approx_bytes > self.max_bytes:
            self._enforce_bytes(name, key, recorders)

    def _enforce_bytes(self, fresh_name: str, fresh_key: tuple, recorders) -> None:
        """Evict until the byte threshold is respected.

        Deliberately per-table priority order, oldest within each: the
        exact table drains first (its entries are the most redundant —
        terminal entries cover their extensions), then terminal, then
        the cheap-to-recompute consistency memos.  Cross-table age is
        not tracked, so this is not a global LRU; under a byte budget
        dominated by one table, the earlier tables bear the eviction
        pressure first by design.

        The just-inserted entry is never the victim: an entry larger
        than the whole budget parks the cache one entry over threshold
        until the next insert ages it out, instead of turning the cache
        into a sieve that drops everything it is handed.
        """
        while self.approx_bytes > self.max_bytes:
            victim = None
            for name, table in self._tables.items():
                for key in table:  # first = oldest inserted
                    if name == fresh_name and key == fresh_key:
                        continue  # spare the entry being inserted
                    victim = (name, key)
                    break
                if victim is not None:
                    break
            if victim is None:
                return  # only the fresh entry remains
            name, key = victim
            table = self._tables[name]
            self.approx_bytes -= self._value_bytes(key, table.pop(key))
            for recorder in recorders:
                recorder.evictions += 1

    @staticmethod
    def _value_bytes(key: tuple, value) -> int:
        if isinstance(value, _Entry):
            return _entry_bytes(key, value)
        return _consistency_bytes(key, value)


# ----------------------------------------------------------------------
# Process-level shared cache
# ----------------------------------------------------------------------

#: Approximate bytes per interned DOM node: the node object, its attrs
#: dict, text, child list slot, and its share of the snapshot's index
#: buckets (interned snapshots and their indexes dominate the shared
#: cache's resident footprint, so this coarse figure is what the
#: eviction telemetry reports on).
_NODE_BYTES = 320


def _freeze_json(value) -> tuple:
    """A hashable, exact canonical form of a JSON-like value."""
    if isinstance(value, dict):
        return ("d", tuple((key, _freeze_json(item)) for key, item in sorted(value.items())))
    if isinstance(value, list):
        return ("l", tuple(_freeze_json(item) for item in value))
    return ("v", value)

_session_tokens = itertools.count(1)


class _Shard:
    """One lock-striped slice of a shared cache."""

    __slots__ = ("lock", "cache")

    def __init__(
        self, max_entries: int, max_bytes: Optional[int], backend
    ) -> None:
        self.lock = threading.Lock()
        self.cache = ExecutionCache(max_entries, max_bytes=max_bytes, backend=backend)


class SharedExecutionCache:
    """A process-level execution cache shared by concurrent sessions.

    The three memo tables are striped over ``shards`` independent
    :class:`ExecutionCache` instances, each behind its own lock; a key
    always hashes to the same shard, so the per-table LRU discipline and
    byte accounting carry over per shard (``max_bytes``, when given, is
    split evenly across shards).  Value-addressed keys (alpha-canonical
    statements, env fingerprints, snapshot content digests) make entries
    session-agnostic — the only per-session piece is telemetry, which
    lives on the :class:`SharedCacheSession` views handed out by
    :meth:`session`.  An optional persistent ``backend`` is shared by
    all shards, extending the same sharing across worker processes.

    Snapshot interning
        :meth:`intern_snapshots` maps structurally equal snapshot roots
        onto one canonical root per structure, so sessions recording the
        same site share ``SnapshotIndex`` instances (with their
        ``enum_memo``).  The interning table is keyed by
        :meth:`repro.dom.node.DOMNode.content_key` — the same
        value-addressed digest the execution keys use (collisions are
        cryptographically negligible) — and a bounded LRU: evicting a
        canonical root only forfeits future index sharing, since
        execution entries reference snapshots by digest, never by
        object.
    """

    def __init__(
        self,
        max_entries: int = 65536,
        shards: int = 8,
        max_snapshots: int = 512,
        max_bytes: Optional[int] = None,
        backend=None,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        per_shard = max(1, max_entries // shards)
        per_shard_bytes = None if max_bytes is None else max(1, max_bytes // shards)
        self._shards = tuple(
            _Shard(per_shard, per_shard_bytes, backend) for _ in range(shards)
        )
        self._backend = backend
        self.backend_name = backend.name if backend is not None else "memory"
        self.max_snapshots = max_snapshots
        self._intern_lock = threading.Lock()
        # content key -> canonical root (insertion-ordered: an LRU)
        self._canonical: dict[int, DOMNode] = {}
        # id(root) -> (root pinned so its id stays valid, canonical);
        # bounded separately — a fast path around re-keying structures
        self._known: dict[int, tuple[DOMNode, DOMNode]] = {}
        self._known_limit = max(64, 8 * max_snapshots)
        self._node_counts: dict[int, int] = {}
        # data-source interning (same discipline as snapshots): frozen
        # JSON value -> canonical DataSource, plus an id fast path
        self._data_canonical: dict[tuple, object] = {}
        self._data_known: dict[int, tuple] = {}
        #: Approximate bytes held by the interned (canonical) snapshots.
        self.interned_bytes = 0
        #: Interning calls answered with an *already canonical* root
        #: recorded by some other snapshot object — cross-session reuse.
        self.intern_hits = 0
        #: Canonical snapshots dropped by the interning LRU.
        self.snapshot_evictions = 0

    # ------------------------------------------------------------------
    def session(self) -> "SharedCacheSession":
        """A per-session view with its own counters and session token."""
        return SharedCacheSession(self, next(_session_tokens))

    def _shard_for(self, key: tuple) -> _Shard:
        return self._shards[hash(key) % len(self._shards)]

    # ------------------------------------------------------------------
    # Aggregate telemetry
    # ------------------------------------------------------------------
    def counters(self) -> CacheCounters:
        """Global shard-level counters merged into one snapshot."""
        merged = CacheCounters()
        for shard in self._shards:
            with shard.lock:
                merged.merge(shard.cache.counters)
        return merged

    @property
    def approx_bytes(self) -> int:
        """Approximate bytes held by all shards' tables, plus the
        enumeration memos pinned on the interned snapshots' indexes
        (they are cache state with the same lifetime concerns, so they
        count toward the same footprint)."""
        return (
            sum(shard.cache.approx_bytes for shard in self._shards)
            + self.enum_bytes
        )

    @property
    def enum_bytes(self) -> int:
        """Approximate bytes of the interned snapshots' enumeration memos."""
        total = 0
        with self._intern_lock:
            roots = list(self._canonical.values())
        for root in roots:
            index = root._snapshot_index
            if index is not None:
                total += index.enum_memo.approx_bytes
        return total

    @property
    def backend(self):
        """The persistent backend shared by the shards, if any."""
        return self._backend

    @property
    def persisted_bytes(self) -> int:
        """Approximate bytes held by the persistent backend (0 without one)."""
        backend = self._backend
        if backend is None or not backend.persistent:
            return 0
        return backend.persisted_bytes

    @property
    def interned_snapshots(self) -> int:
        """Number of canonical snapshots currently interned."""
        return len(self._canonical)

    def __len__(self) -> int:
        return sum(len(shard.cache) for shard in self._shards)

    def clear(self) -> None:
        """Drop every entry and interned snapshot (telemetry included)."""
        for shard in self._shards:
            with shard.lock:
                fresh = ExecutionCache(
                    shard.cache.max_entries,
                    max_bytes=shard.cache.max_bytes,
                    backend=self._backend,
                )
                shard.cache = fresh
        with self._intern_lock:
            self._canonical.clear()
            self._known.clear()
            self._node_counts.clear()
            self._data_canonical.clear()
            self._data_known.clear()
            self.interned_bytes = 0
            self.intern_hits = 0
            self.snapshot_evictions = 0

    # ------------------------------------------------------------------
    # Snapshot interning
    # ------------------------------------------------------------------
    def intern_snapshot(self, root: DOMNode) -> DOMNode:
        """The canonical root structurally equal to ``root``.

        The first caller's root becomes canonical; later structurally
        equal roots — typically other sessions recording the same site —
        are mapped onto it.  Unfrozen snapshots are returned unchanged
        (they may still mutate, so sharing would be unsound).
        """
        if not root.frozen:
            return root
        known = self._known.get(id(root))
        if known is not None and known[0] is root:
            return known[1]
        key = root.content_key()  # pure; computed outside the lock
        with self._intern_lock:
            canonical = self._canonical.get(key)
            if canonical is None:
                if len(self._canonical) >= self.max_snapshots:
                    old_key = next(iter(self._canonical))
                    del self._canonical[old_key]
                    self.interned_bytes -= _NODE_BYTES * self._node_counts.pop(old_key, 0)
                    self.snapshot_evictions += 1
                canonical = root
                self._canonical[key] = canonical
                nodes = sum(1 for _ in root.iter_subtree())
                self._node_counts[key] = nodes
                self.interned_bytes += _NODE_BYTES * nodes
            else:
                self._canonical[key] = self._canonical.pop(key)  # LRU touch
                if canonical is not root:
                    self.intern_hits += 1
            if len(self._known) >= self._known_limit:
                del self._known[next(iter(self._known))]
            self._known[id(root)] = (root, canonical)
        return canonical

    def intern_snapshots(self, snapshots: Sequence[DOMNode]) -> list[DOMNode]:
        """Intern a whole recorded DOM trace (one canonical root each)."""
        return [self.intern_snapshot(root) for root in snapshots]

    # ------------------------------------------------------------------
    # Data-source interning
    # ------------------------------------------------------------------
    def intern_data(self, source):
        """The canonical :class:`~repro.lang.data.DataSource` equal to ``source``.

        Execution keys already address the source by content digest
        (:func:`repro.engine.keys.data_key`), so interning is purely a
        memory optimization: sessions that each loaded the same JSON
        share one wrapper object (and its memoized digest) instead of
        keeping duplicates alive.
        """
        known = self._data_known.get(id(source))
        if known is not None and known[0] is source:
            return known[1]
        key = _freeze_json(source.value)  # pure; computed outside the lock
        with self._intern_lock:
            canonical = self._data_canonical.get(key)
            if canonical is None:
                if len(self._data_canonical) >= self.max_snapshots:
                    del self._data_canonical[next(iter(self._data_canonical))]
                canonical = source
                self._data_canonical[key] = canonical
            if len(self._data_known) >= self._known_limit:
                del self._data_known[next(iter(self._data_known))]
            self._data_known[id(source)] = (source, canonical)
        return canonical


class SharedCacheSession:
    """One session's view of a :class:`SharedExecutionCache`.

    Implements the same lookup surface as :class:`ExecutionCache` (the
    engine cannot tell them apart) but routes every call through the
    owning shard's lock and records telemetry into this session's
    :attr:`counters`.
    """

    __slots__ = ("_shared", "_token", "counters")

    def __init__(self, shared: SharedExecutionCache, token: int) -> None:
        self._shared = shared
        self._token = token
        self.counters = CacheCounters()

    @property
    def shared(self) -> SharedExecutionCache:
        """The process-level cache behind this view."""
        return self._shared

    def __len__(self) -> int:
        return len(self._shared)

    @property
    def approx_bytes(self) -> int:
        """Approximate bytes of the shared tables (all sessions)."""
        return self._shared.approx_bytes

    @property
    def backend_name(self) -> str:
        """Name of the backend behind the shared cache."""
        return self._shared.backend_name

    @property
    def persisted_bytes(self) -> int:
        """Approximate bytes held by the shared cache's backend."""
        return self._shared.persisted_bytes

    # ------------------------------------------------------------------
    def get(
        self,
        base: tuple,
        window_keys: tuple[int, ...],
        budget: int,
    ) -> Optional[tuple[tuple, Env]]:
        shard = self._shared._shard_for(base)
        with shard.lock:
            result, probe = shard.cache.lookup_memory(
                base, window_keys, budget, counters=self.counters, session=self._token
            )
        if result is not None or probe is None:
            return result
        # two-phase backend lookup: the SQLite read + JSON decode runs
        # with *no* shard lock held, so cold-phase same-shard lookups
        # overlap their I/O instead of serializing behind it; the
        # promote step re-takes the lock, re-checks memory (a racing
        # thread may have promoted first), and settles hit/miss counting
        # exactly once per lookup.
        exact_payload, terminal_payload, served_bytes = shard.cache.probe_backend(probe)
        with shard.lock:
            return shard.cache.promote_backend(
                probe,
                exact_payload,
                terminal_payload,
                counters=self.counters,
                session=self._token,
                served_bytes=served_bytes,
            )

    def put(
        self,
        base: tuple,
        window_keys: tuple[int, ...],
        budget: int,
        actions: tuple,
        env: Env,
        exact_budget_ok: bool = False,
        continuation: Optional[tuple] = None,
        cost: Optional[int] = None,
    ) -> None:
        shard = self._shared._shard_for(base)
        with shard.lock:
            shard.cache.put(
                base,
                window_keys,
                budget,
                actions,
                env,
                exact_budget_ok,
                counters=self.counters,
                session=self._token,
                continuation=continuation,
                cost=cost,
            )

    def get_continuation(
        self,
        base: tuple,
        window_keys: tuple[int, ...],
        budget: int,
    ) -> Optional[tuple[tuple, Env, tuple]]:
        shard = self._shared._shard_for(base)
        with shard.lock:
            return shard.cache.get_continuation(
                base,
                window_keys,
                budget,
                counters=self.counters,
                session=self._token,
            )

    def get_consistency(self, key: tuple) -> Optional[int]:
        shard = self._shared._shard_for(key)
        with shard.lock:
            value, digest = shard.cache.lookup_consistency_memory(
                key, counters=self.counters, session=self._token
            )
        if value is not None or digest is None:
            return value
        # same two-phase discipline as `get`: store I/O outside the lock
        loaded = shard.cache.backend.load_consistency(digest)
        with shard.lock:
            return shard.cache.promote_consistency(
                key, loaded, counters=self.counters, session=self._token
            )

    def put_consistency(self, key: tuple, value: int) -> None:
        shard = self._shared._shard_for(key)
        with shard.lock:
            shard.cache.put_consistency(
                key,
                value,
                counters=self.counters,
                session=self._token,
            )


# ----------------------------------------------------------------------
# The process-wide instance
# ----------------------------------------------------------------------
_PROCESS_CACHE: Optional[SharedExecutionCache] = None
_PROCESS_LOCK = threading.Lock()


def process_cache(backend_name: Optional[str] = None) -> SharedExecutionCache:
    """The lazily created process-wide :class:`SharedExecutionCache`.

    Sized by ``REPRO_SHARED_CACHE_ENTRIES`` (default 65536 across all
    shards), ``REPRO_CACHE_SHARDS`` (default 8),
    ``REPRO_SHARED_CACHE_SNAPSHOTS`` (default 512 interned snapshots),
    and ``REPRO_SHARED_CACHE_BYTES`` (optional byte threshold across all
    shards; unset = count-bounded only).  The persistent backend is
    resolved at *first creation* — from ``backend_name`` when the first
    caller passes one (the engine passes its config's resolved backend),
    else from ``REPRO_CACHE_BACKEND`` (see
    :func:`repro.service.backends.resolve_backend`).  Later callers
    share the instance as-is: one process, one backend.
    """
    global _PROCESS_CACHE
    with _PROCESS_LOCK:
        if _PROCESS_CACHE is None:
            from repro.service.backends import resolve_backend

            raw_bytes = os.environ.get("REPRO_SHARED_CACHE_BYTES", "").strip()
            _PROCESS_CACHE = SharedExecutionCache(
                max_entries=int(os.environ.get("REPRO_SHARED_CACHE_ENTRIES", "65536")),
                shards=int(os.environ.get("REPRO_CACHE_SHARDS", "8")),
                max_snapshots=int(os.environ.get("REPRO_SHARED_CACHE_SNAPSHOTS", "512")),
                max_bytes=int(raw_bytes) if raw_bytes else None,
                backend=resolve_backend(backend_name),
            )
        return _PROCESS_CACHE


def reset_process_cache() -> None:
    """Drop the process-wide cache (benchmark/test isolation)."""
    global _PROCESS_CACHE
    with _PROCESS_LOCK:
        _PROCESS_CACHE = None
