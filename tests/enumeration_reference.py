"""Reference selector enumeration: the plain ancestor walk.

The test oracle for :mod:`repro.synth.alternatives`, whose production
enumeration reads a frozen snapshot's bucket layer
(:class:`repro.engine.index.SnapshotIndex`).  This module enumerates the
same ``prefix / step(φ, k) / suffix`` readings by walking ancestor
chains and sibling lists per query, the direct transcription of the
paper's ``AlternativeSelectors``.  Both must produce the *same*
candidate lists in the *same* order: anything else would change
speculation order and, through the per-span caps, the synthesized
programs.

Run on a :func:`linear_copy` of a snapshot, every rank and resolution
here takes the linear walk of :mod:`repro.dom.xpath`, so the oracle
shares no index code with the path under test.
"""

from __future__ import annotations

from repro.dom.node import DOMNode
from repro.dom.xpath import (
    CHILD,
    DESC,
    EPSILON,
    ConcreteSelector,
    Predicate,
    Step,
    index_among_children,
    index_among_descendants,
    raw_path,
    resolve,
)
from repro.synth.alternatives import Decomposition, node_predicates


def linear_copy(dom: DOMNode) -> DOMNode:
    """A deep copy of ``dom`` with parent pointers that is never indexed.

    :meth:`DOMNode.clone` leaves the copy unfrozen (so no snapshot index
    is ever built for it) but also without parent pointers, which the
    ancestor walk needs; this links them without freezing.
    """
    copy = dom.clone()
    stack = [copy]
    while stack:
        node = stack.pop()
        for child in node.children:
            child.parent = node
            stack.append(child)
    return copy


def _raw_chain(base: DOMNode, target: DOMNode) -> tuple[Step, ...]:
    """The child-axis tag/index steps from ``base`` down to ``target``."""
    chain: list[DOMNode] = []
    node = target
    while node is not base:
        chain.append(node)
        if node.parent is None:
            raise ValueError("base is not an ancestor of target")
        node = node.parent
    chain.reverse()
    return tuple(
        Step(CHILD, Predicate(item.tag), item.child_index_by_tag()) for item in chain
    )


def relative_step_candidates(
    base: DOMNode,
    target: DOMNode,
    use_alternatives: bool = True,
    max_suffix_child_steps: int = 2,
    token_predicates: bool = False,
) -> list[tuple[Step, ...]]:
    """Bounded step sequences that reach ``target`` from ``base``."""
    if base is target:
        return [()]
    if not (base.is_ancestor_of(target)):
        return []
    root = base.root()
    candidates: list[tuple[Step, ...]] = []
    seen: set[tuple[Step, ...]] = set()

    def add(steps: tuple[Step, ...]) -> None:
        if steps not in seen:
            seen.add(steps)
            candidates.append(steps)

    if use_alternatives:
        # Descendant-anchored forms first: they generalize across pages.
        chain_nodes: list[DOMNode] = []
        node = target
        while node is not base:
            chain_nodes.append(node)
            node = node.parent
        chain_nodes.reverse()  # base's child ... target
        for position, mid in enumerate(chain_nodes):
            remaining = len(chain_nodes) - 1 - position
            if remaining > max_suffix_child_steps:
                continue
            tail = _raw_chain(mid, target)
            for pred in node_predicates(mid, True, token_predicates):
                position_index = index_among_descendants(base, mid, pred, root)
                if position_index is not None:
                    add((Step(DESC, pred, position_index),) + tail)
    add(_raw_chain(base, target))
    return candidates


def decompositions(
    selector: ConcreteSelector,
    dom: DOMNode,
    use_alternatives: bool = True,
    max_suffix_child_steps: int = 2,
    max_results: int = 128,
    token_predicates: bool = False,
) -> list[Decomposition]:
    """All bounded ``prefix/step/suffix`` readings of ``selector`` on ``dom``."""
    target = resolve(selector, dom)
    if target is None:
        return []
    root = dom
    results: list[Decomposition] = []
    element: DOMNode | None = target
    while element is not None and len(results) < max_results:
        suffixes = relative_step_candidates(
            element,
            target,
            use_alternatives,
            max_suffix_child_steps,
            token_predicates,
        )
        for suffix in suffixes:
            preds = node_predicates(element, use_alternatives, token_predicates)
            # Child axis from the element's parent.
            parent_prefix = raw_path(element.parent) if element.parent else EPSILON
            for pred in preds:
                child_index = index_among_children(element, pred)
                if child_index is not None:
                    results.append(
                        Decomposition(parent_prefix, CHILD, pred, child_index, suffix)
                    )
            if use_alternatives:
                # Descendant axis, anchored at the document and at the
                # element's parent.  (Intermediate ancestors are possible
                # anchors too, but the paper's programs use the document —
                # Dscts(ε, φ) — or the parent, and every extra anchor
                # multiplies the candidate space.)
                anchors: list[DOMNode | None] = [None]
                if element.parent is not None:
                    anchors.append(element.parent)
                for anchor in anchors:
                    anchor_prefix = EPSILON if anchor is None else raw_path(anchor)
                    for pred in preds:
                        desc_index = index_among_descendants(anchor, element, pred, root)
                        if desc_index is not None:
                            results.append(
                                Decomposition(anchor_prefix, DESC, pred, desc_index, suffix)
                            )
            if len(results) >= max_results:
                break
        element = element.parent
    return results[:max_results]


def alternative_selectors(
    selector: ConcreteSelector,
    dom: DOMNode,
    use_alternatives: bool = True,
    max_results: int = 24,
) -> list[ConcreteSelector]:
    """Whole-selector alternatives denoting the same node on ``dom``."""
    target = resolve(selector, dom)
    if target is None:
        return []
    raw = raw_path(target)
    results = [raw]
    if not use_alternatives:
        return results
    seen = {raw, selector}
    if selector != raw:
        results.insert(0, selector)
    for decomposition in decompositions(selector, dom, use_alternatives=True):
        candidate = decomposition.assemble()
        if candidate in seen:
            continue
        seen.add(candidate)
        if resolve(candidate, dom) is target:
            results.append(candidate)
        if len(results) >= max_results:
            break
    return results
