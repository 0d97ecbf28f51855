"""Anti-unification of statements (Figure 10 of the paper).

Given two statements ``S_p`` and ``S_q`` — conjectured to come from the
first and second iteration of the same loop — anti-unification produces a
parametrized statement ``S'_p`` together with the loop variable and the
collection the loop iterates over.

The selector rules follow Figure 10 rule (4): the two concrete selectors
must admit *alternative* readings ``prefix/φ[1]/suffix`` and
``prefix/φ[2]/suffix`` (indices exactly 1 and 2 — the paper's loops always
iterate their collections from the first element).  The value-path rule
(3) is the analogue over accessor sequences.  Rule (2) lifts two already
rewritten selector loops with alpha-equivalent bodies by anti-unifying
their collection bases, which is how nested loops grow from the inside
out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.dom.node import DOMNode
from repro.dom.xpath import CHILD, ConcreteSelector
from repro.lang.ast import (
    ENTER_DATA,
    EXTRACT_URL,
    GO_BACK,
    SEL_VAR,
    VAL_VAR,
    ActionStmt,
    ChildrenOf,
    DescendantsOf,
    ForEachSelector,
    ForEachValue,
    Selector,
    SelectorCollection,
    Statement,
    ValuePath,
    ValuePathsOf,
    Var,
    alpha_equivalent_bodies,
    fresh_var,
    selector_of,
)
from repro.synth.alternatives import SelectorSearch
from repro.synth.config import SynthesisConfig

Accessors = tuple[Union[str, int], ...]


@dataclass(frozen=True)
class SelectorAU:
    """Result of anti-unifying two concrete selectors (rules (4)/(5)).

    ``general`` is the symbolic selector ``n`` mentioning ``var``;
    ``collection`` is the N the target loop iterates over; ``first`` is
    ``FirstSelector(N)`` — the binding of ``var`` in iteration one, which
    parametrization of the surrounding statements is performed against.
    """

    var: Var
    general: Selector
    collection: SelectorCollection
    first: ConcreteSelector


@dataclass(frozen=True)
class StatementAU:
    """Result of anti-unifying two statements: ``(S'_p, variable, N/V)``."""

    stmt: Statement
    var: Var
    collection: Union[SelectorCollection, ValuePathsOf]
    first: Union[ConcreteSelector, ValuePath]


def anti_unify_selectors(
    first_sel: ConcreteSelector,
    first_dom: DOMNode,
    second_sel: ConcreteSelector,
    second_dom: DOMNode,
    config: SynthesisConfig,
    search: Optional["SelectorSearch"] = None,
) -> list[SelectorAU]:
    """All loop readings of two selectors at collection indices 1 and 2.

    Decomposes both selectors (on their own snapshots) and pairs readings
    that agree on prefix, axis, predicate and suffix while sitting at
    indices 1 and 2 respectively.  Fresh loop variables are allocated per
    call, so results are never shared between spans.
    """
    if search is None:
        search = SelectorSearch.for_config(config)
    pairings = search.loop_pairings(
        first_sel, first_dom, second_sel, second_dom, config.max_pivot_unifications
    )
    results: list[SelectorAU] = []
    for item in pairings:
        var = fresh_var(SEL_VAR)
        base = selector_of(item.prefix)
        if item.axis == CHILD:
            collection: SelectorCollection = ChildrenOf(base, item.pred)
            first_binding = item.prefix.child(item.pred, 1)
        else:
            collection = DescendantsOf(base, item.pred)
            first_binding = item.prefix.desc(item.pred, 1)
        results.append(
            SelectorAU(var, Selector(var, item.suffix), collection, first_binding)
        )
    return results


def anti_unify_accessors(first: Accessors, second: Accessors) -> list[tuple[Accessors, Accessors]]:
    """Rule (3) over accessor sequences: split as ``prefix·[1/2]·suffix``.

    Returns every ``(prefix, suffix)`` such that
    ``first == prefix + (1,) + suffix`` and ``second == prefix + (2,) + suffix``.
    """
    if len(first) != len(second):
        return []
    splits: list[tuple[Accessors, Accessors]] = []
    for position in range(len(first)):
        if first[position] == 1 and second[position] == 2:
            if (
                first[:position] == second[:position]
                and first[position + 1 :] == second[position + 1 :]
            ):
                splits.append((first[:position], first[position + 1 :]))
    return splits


def _concrete_target(stmt: ActionStmt) -> Optional[ConcreteSelector]:
    if stmt.target is None or not stmt.target.is_concrete:
        return None
    return ConcreteSelector(stmt.target.steps)


def _anti_unify_actions(
    first_stmt: ActionStmt,
    first_dom: DOMNode,
    second_stmt: ActionStmt,
    second_dom: DOMNode,
    config: SynthesisConfig,
    search: Optional[SelectorSearch] = None,
) -> list[StatementAU]:
    if first_stmt.kind != second_stmt.kind:
        return []
    if first_stmt.kind in (GO_BACK, EXTRACT_URL):
        return []  # nothing varies between iterations
    first_target = _concrete_target(first_stmt)
    second_target = _concrete_target(second_stmt)
    if first_target is None or second_target is None:
        return []
    results: list[StatementAU] = []

    # Value-path pivot (rule (3)): same field, consecutive data rows.
    if first_stmt.kind == ENTER_DATA and first_target == second_target:
        value_a, value_b = first_stmt.value, second_stmt.value
        if value_a.is_concrete and value_b.is_concrete:
            for prefix, suffix in anti_unify_accessors(value_a.accessors, value_b.accessors):
                var = fresh_var(VAL_VAR)
                stmt = ActionStmt(
                    first_stmt.kind, first_stmt.target, value=ValuePath(var, suffix)
                )
                collection = ValuePathsOf(ValuePath(None, prefix))
                first_binding = ValuePath(None, prefix + (1,))
                results.append(StatementAU(stmt, var, collection, first_binding))

    # Selector pivot (rule (1) and its per-kind analogues): the non-selector
    # arguments must agree across the two iterations.
    if first_stmt.text == second_stmt.text and first_stmt.value == second_stmt.value:
        for unified in anti_unify_selectors(
            first_target, first_dom, second_target, second_dom, config, search
        ):
            stmt = ActionStmt(
                first_stmt.kind,
                unified.general,
                text=first_stmt.text,
                value=first_stmt.value,
            )
            results.append(
                StatementAU(stmt, unified.var, unified.collection, unified.first)
            )
    return results


def _anti_unify_selector_loops(
    first_loop: ForEachSelector,
    first_dom: DOMNode,
    second_loop: ForEachSelector,
    second_dom: DOMNode,
    config: SynthesisConfig,
    search: Optional[SelectorSearch] = None,
) -> list[StatementAU]:
    """Rule (2): lift two sibling loops by anti-unifying their bases."""
    if type(first_loop.collection) is not type(second_loop.collection):
        return []
    if first_loop.collection.pred != second_loop.collection.pred:
        return []
    if not alpha_equivalent_bodies(
        first_loop.body, first_loop.var, second_loop.body, second_loop.var
    ):
        return []
    base_a, base_b = first_loop.collection.base, second_loop.collection.base
    if not (base_a.is_concrete and base_b.is_concrete):
        return []
    results: list[StatementAU] = []
    for unified in anti_unify_selectors(
        ConcreteSelector(base_a.steps),
        first_dom,
        ConcreteSelector(base_b.steps),
        second_dom,
        config,
        search,
    ):
        collection_type = type(first_loop.collection)
        lifted = ForEachSelector(
            first_loop.var,
            collection_type(unified.general, first_loop.collection.pred),
            first_loop.body,
        )
        results.append(
            StatementAU(lifted, unified.var, unified.collection, unified.first)
        )
    return results


def _anti_unify_value_loops(
    first_loop: ForEachValue,
    second_loop: ForEachValue,
) -> list[StatementAU]:
    """Value analogue of rule (2): nested data iteration (rows × cells)."""
    if not alpha_equivalent_bodies(
        first_loop.body, first_loop.var, second_loop.body, second_loop.var
    ):
        return []
    path_a = first_loop.collection.path
    path_b = second_loop.collection.path
    if not (path_a.is_concrete and path_b.is_concrete):
        return []
    results: list[StatementAU] = []
    for prefix, suffix in anti_unify_accessors(path_a.accessors, path_b.accessors):
        var = fresh_var(VAL_VAR)
        lifted = ForEachValue(
            first_loop.var,
            ValuePathsOf(ValuePath(var, suffix)),
            first_loop.body,
        )
        collection = ValuePathsOf(ValuePath(None, prefix))
        first_binding = ValuePath(None, prefix + (1,))
        results.append(StatementAU(lifted, var, collection, first_binding))
    return results


def anti_unify_statements(
    first_stmt: Statement,
    first_dom: DOMNode,
    second_stmt: Statement,
    second_dom: DOMNode,
    config: SynthesisConfig,
    search: Optional[SelectorSearch] = None,
) -> list[StatementAU]:
    """Anti-unify a conjectured (first-iteration, second-iteration) pair.

    Dispatches on statement shape; returns the empty list when the two
    statements cannot come from consecutive iterations of any loop the
    rules cover.
    """
    if isinstance(first_stmt, ActionStmt) and isinstance(second_stmt, ActionStmt):
        return _anti_unify_actions(
            first_stmt, first_dom, second_stmt, second_dom, config, search
        )
    if isinstance(first_stmt, ForEachSelector) and isinstance(second_stmt, ForEachSelector):
        return _anti_unify_selector_loops(
            first_stmt, first_dom, second_stmt, second_dom, config, search
        )
    if isinstance(first_stmt, ForEachValue) and isinstance(second_stmt, ForEachValue):
        return _anti_unify_value_loops(first_stmt, second_stmt)
    return []
