"""Validation of one worklist pop's candidate list (Algorithm 1's inner loop).

Algorithm 1 pops a worklist tuple, speculates candidate rewrites,
validates each against the trace, and pushes the survivors.
:func:`process_pop` is the validation half: statically refute what
Algorithm 3 provably rejects, rank the rest smallest-statement-first
within each span, then validate them in that order on the calling
thread, keeping at most ``max_rewrites_per_span`` successes per span.
The loop is sequential, so the pushes — and through them the
synthesized programs — follow one deterministic order.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.feasibility import infeasible
from repro.synth.config import resolved_static_prune
from repro.synth.rewrite import RewriteTuple
from repro.synth.speculate import SpeculationContext, SRewrite
from repro.synth.validate import validate
from repro.util.timer import Deadline

#: ``push(rewritten)`` — the synthesizer's worklist/store insertion.
PushFn = Callable[[RewriteTuple], None]


def _static_prune(
    current: RewriteTuple,
    candidates: list[SRewrite],
    context: SpeculationContext,
    stats,
) -> None:
    """Drop candidates Algorithm 3 provably rejects, before validation.

    Two sound refutations (see :mod:`repro.analysis.feasibility`): the
    tuple has no statement boundary ``>= end + 2`` for the matched
    slice to end on, or the candidate's emission NFA cannot
    prefix-match the ``bounds[end + 2] - bounds[start]`` recorded
    actions a successful validation must reproduce.  Both only fire
    where ``validate`` would certainly return ``None``, so the pushed
    tuples — and the synthesized programs — are byte-identical with
    pruning on or off; only the engine executions saved differ
    (``stats.pruned`` counts them).

    Runs in place, before ranking — a pruned candidate costs no rank
    key.
    """
    if not candidates or not resolved_static_prune(context.config):
        return
    bounds = current.bounds
    last = len(bounds) - 1
    kept: list[SRewrite] = []
    for candidate in candidates:
        boundary = candidate.end + 2
        if boundary > last:
            stats.pruned += 1
            continue
        start_action = bounds[candidate.start]
        min_count = bounds[boundary] - start_action
        if infeasible(
            candidate.stmt,
            context.actions,
            context.snapshots,
            context.data,
            start_action,
            min_count,
        ):
            stats.pruned += 1
            continue
        kept.append(candidate)
    if len(kept) != len(candidates):
        candidates[:] = kept


def _rank_order(candidates: list[SRewrite], context: SpeculationContext) -> None:
    """Sort candidates smallest-statements-first within each span.

    Validating smallest statements first makes the per-span cap keep
    the most-parametrized (hence smallest) true rewrites — e.g. a loop
    whose body fully uses the loop variable beats one that kept a raw
    first-iteration selector.
    """
    candidates.sort(
        key=lambda item: (item.start, item.end, context.statement_size(item.stmt))
    )


def process_pop(
    current: RewriteTuple,
    candidates: list[SRewrite],
    context: SpeculationContext,
    deadline: Deadline,
    stats,
    push: PushFn,
) -> None:
    """Validate ``candidates`` against ``current``; push survivors.

    Mutates ``candidates`` (pruned and ranked in place) and ``stats``
    (``validated``, ``validations``, ``pruned``, ``timed_out``).
    """
    _static_prune(current, candidates, context, stats)
    _rank_order(candidates, context)
    max_per_span = context.config.max_rewrites_per_span
    per_span: dict[tuple, int] = {}
    for candidate in candidates:
        if deadline.expired():
            stats.timed_out = True
            break
        span_key = (candidate.start, candidate.end)
        if per_span.get(span_key, 0) >= max_per_span:
            continue
        stats.validations += 1
        rewritten = validate(candidate, current, context)
        if rewritten is not None:
            per_span[span_key] = per_span.get(span_key, 0) + 1
            stats.validated += 1
            push(rewritten)
