"""Synthesizer configuration.

The defaults correspond to the full-fledged WebRobot configuration used in
Q1; the ablation variants of Table 1 are obtained through
:func:`no_selector_config` and :func:`no_incremental_config`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class SynthesisConfig:
    """Tunable knobs of the synthesis engine.

    Attributes
    ----------
    timeout:
        Wall-clock budget per ``synthesize`` call in seconds (the paper
        uses 1 second per prediction test).
    use_alternative_selectors:
        When False, ``AlternativeSelectors`` degenerates to the identity —
        the "No selector" ablation of Table 1.
    use_token_predicates:
        Opt-in extension beyond the paper: whitespace-token class
        predicates (``div[@class~='match']``), which solve the paper's
        "disjunctive selector" failure case b6.  Off by default to match
        the published system.
    use_numbered_pagination:
        Opt-in extension beyond the paper: speculate
        :class:`~repro.lang.ast.PaginateLoop` rewrites for numbered
        pagers (counter-templated page clicks plus an optional
        next-block button), the paper's b9 failure case.  Off by
        default to match the published system.
    max_paginate_advance_alternatives:
        Cap on advance-button selector candidates per paginate span.
    incremental:
        When False, every call rebuilds the worklist from scratch — the
        "No incremental" ablation of Table 1 (§5.4).
    max_body:
        Maximum number of statements in a speculated first iteration
        (bounds the span enumeration in Algorithm 2).
    max_loop_bodies_per_span:
        Cap on the Cartesian product of parametrized bodies generated for
        one ``(i, p, j, q)`` span.
    max_decompositions:
        Cap on selector decompositions considered per concrete selector.
    max_suffix_child_steps:
        Longest child-step chain allowed after a descendant anchor step in
        generated suffixes.
    max_pivot_unifications:
        Cap on anti-unification results per pivot pair.
    max_parametrize_variants:
        Cap on parametrized variants per non-pivot statement (the
        unchanged statement is always among them).
    max_rewrites_per_span:
        Per popped tuple, keep only this many validated rewrites covering
        the same trace slice (smallest statements win).
    max_while_click_alternatives:
        Cap on the common alternative selectors tried for a while loop's
        terminating click.
    max_generalizing_programs:
        Stop collecting once this many generalizing programs are known.
    max_store_tuples:
        Upper bound on tuples carried across incremental calls; the
        largest programs are dropped first when the cap is hit.
    max_worklist_pops:
        Safety valve on worklist processing per call (None = unbounded,
        the deadline is then the only stop).
    max_cache_entries:
        Bound on entries per execution-cache table; least-recently-used
        outcomes are evicted first.  ``0`` turns execution memoization
        off (and with it resumable loops, whose continuations live in
        the cache).
    shared_cache:
        Back the engine with the *process-level*
        :class:`repro.engine.cache.SharedExecutionCache` instead of a
        private cache: concurrent sessions over the same site reuse
        each other's executions and interned snapshots.  ``None`` (the
        default) resolves from ``REPRO_SHARED_CACHE=1``.  Behaviour-
        preserving — cache hits replay recorded outcomes verbatim, so
        this is a throughput knob, not a semantics knob.
    cache_backend:
        Name of the execution-cache persistence backend
        (:mod:`repro.service.backends`): ``"memory"`` keeps today's
        in-process-only tables; ``"file"`` adds a persistent SQLite
        store so a cold process warm-starts from prior sessions and
        worker processes share one store.  ``None`` (the default)
        resolves from ``REPRO_CACHE_BACKEND``.  Behaviour-preserving
        for the same reason as ``shared_cache``: the cache keys are
        value-addressed end to end, and hits replay recorded outcomes
        verbatim.
    resumable_loops:
        Let the execution cache record *continuations* for loop runs
        that absorb their whole window, so the synthesizer's extension
        and generalization checks resume the trailing loop at its last
        started iteration instead of re-executing it over the grown
        window — per-call extension cost becomes O(new actions), the
        §5.4 interactivity requirement.  Behaviour-preserving: the
        iteration-top state fully determines the remainder, so resumed
        runs are identical to from-scratch runs.  On by default; the
        incremental-pipeline bench measures the ablation.
    ranking:
        Name of the ranking strategy applied to generalizing programs
        (see :mod:`repro.synth.ranking`); the default is the paper's
        smallest-program heuristic.
    use_shape_gates:
        Skip anti-unification of pivot pairs whose statement *shapes*
        differ (see :mod:`repro.synth.periodicity`).  Shape inequality
        is a necessary condition of the Figure 10 rules, so this is a
        behaviour-preserving speedup; on by default.
    use_window_periodicity:
        Additionally require a span's whole first iteration to repeat
        shape-wise one period later before speculating on it.  Prunes
        harder but changes the exploration order on tuples whose two
        exhibited iterations are in different rewriting states; off by
        default (the ablation bench measures the trade).
    static_prune:
        Statically refute speculated candidates before dispatching
        validation (:mod:`repro.analysis.feasibility`): a candidate
        whose emission NFA cannot prefix-match the recorded slice it
        must reproduce is dropped without an engine execution.  The
        refutation only fires where Algorithm 3 would certainly
        reject, so synthesized programs are byte-identical either way
        (``benchmarks/bench_static_prune.py`` pins identity and
        measures the saved executions).  ``None`` (the default)
        resolves from ``REPRO_STATIC_PRUNE`` — on unless it is ``0``.
    """

    timeout: float = 1.0
    use_alternative_selectors: bool = True
    use_token_predicates: bool = False
    use_numbered_pagination: bool = False
    max_paginate_advance_alternatives: int = 4
    incremental: bool = True
    max_body: int = 8
    max_loop_bodies_per_span: int = 16
    max_decompositions: int = 64
    max_suffix_child_steps: int = 2
    max_pivot_unifications: int = 6
    max_parametrize_variants: int = 4
    max_rewrites_per_span: int = 3
    max_while_click_alternatives: int = 4
    max_generalizing_programs: int = 128
    max_store_tuples: int = 256
    max_worklist_pops: int | None = None
    max_cache_entries: int = 4096
    shared_cache: Optional[bool] = None
    cache_backend: Optional[str] = None
    resumable_loops: bool = True
    ranking: str = "size"
    use_shape_gates: bool = True
    use_window_periodicity: bool = False
    static_prune: Optional[bool] = None


#: The full-fledged configuration (Table 1 row 1).
DEFAULT_CONFIG = SynthesisConfig()


def no_selector_config(base: SynthesisConfig = DEFAULT_CONFIG) -> SynthesisConfig:
    """Table 1's "No selector" ablation: raw XPaths only."""
    return replace(base, use_alternative_selectors=False)


def token_predicate_config(base: SynthesisConfig = DEFAULT_CONFIG) -> SynthesisConfig:
    """The disjunctive-selector extension switched on (beyond the paper)."""
    return replace(base, use_token_predicates=True)


def numbered_pagination_config(base: SynthesisConfig = DEFAULT_CONFIG) -> SynthesisConfig:
    """The numbered-pagination extension switched on (beyond the paper)."""
    return replace(base, use_numbered_pagination=True)


def no_incremental_config(base: SynthesisConfig = DEFAULT_CONFIG) -> SynthesisConfig:
    """Table 1's "No incremental" ablation: fresh worklist per call."""
    return replace(base, incremental=False)


def resolved_shared_cache(config: SynthesisConfig) -> bool:
    """Whether the engine should join the process-level shared cache."""
    if config.shared_cache is not None:
        return config.shared_cache
    return os.environ.get("REPRO_SHARED_CACHE", "").strip() == "1"


def resolved_cache_backend(config: SynthesisConfig) -> str:
    """The effective backend name: the config knob, else the environment.

    ``REPRO_CACHE_BACKEND=file`` flips every synthesizer in the process
    to the persistent store (the CI parity gate runs tier-1 this way);
    an explicit config value always wins.
    """
    if config.cache_backend is not None:
        return config.cache_backend
    return os.environ.get("REPRO_CACHE_BACKEND", "").strip() or "memory"


def resolved_static_prune(config: SynthesisConfig) -> bool:
    """Whether static candidate refutation is in effect (default: on).

    ``REPRO_STATIC_PRUNE=0`` disables the pruning pass process-wide (an
    A/B lever for benches and parity suites); an explicit config value
    always wins.
    """
    if config.static_prune is not None:
        return config.static_prune
    return os.environ.get("REPRO_STATIC_PRUNE", "").strip() != "0"


def no_static_prune_config(base: SynthesisConfig = DEFAULT_CONFIG) -> SynthesisConfig:
    """Static candidate refutation off (ablation/bench baseline)."""
    return replace(base, static_prune=False)


def file_backend_config(base: SynthesisConfig = DEFAULT_CONFIG) -> SynthesisConfig:
    """The persistent file backend switched on (service/warm-start runs)."""
    return replace(base, cache_backend="file")


def serial_validation_config(base: SynthesisConfig = DEFAULT_CONFIG) -> SynthesisConfig:
    """Resumable loops off, over a private in-memory cache.

    The ablation baseline the incremental-pipeline bench compares
    resumable loops against; the cache is pinned so that
    ``REPRO_SHARED_CACHE`` and ``REPRO_CACHE_BACKEND`` cannot reach it.
    """
    return replace(
        base,
        shared_cache=False,
        cache_backend="memory",
        resumable_loops=False,
    )


def ranking_config(strategy: str, base: SynthesisConfig = DEFAULT_CONFIG) -> SynthesisConfig:
    """A configuration using the named ranking strategy (ablation helper)."""
    return replace(base, ranking=strategy)


def no_shape_gates_config(base: SynthesisConfig = DEFAULT_CONFIG) -> SynthesisConfig:
    """Pivot shape gate disabled (ablation: measures its speedup)."""
    return replace(base, use_shape_gates=False)


def window_periodicity_config(base: SynthesisConfig = DEFAULT_CONFIG) -> SynthesisConfig:
    """Window-periodicity span gate enabled (ablation: harder pruning)."""
    return replace(base, use_window_periodicity=True)
