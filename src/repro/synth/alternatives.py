"""Selector search: the paper's ``AlternativeSelectors`` (§2, Figures 10/11).

Recorded actions use absolute child-axis XPaths; intended programs usually
need *other* selectors for the same nodes (attribute-anchored descendant
steps like ``//div[@class='locatorPhone'][1]``).  This module enumerates,
with bounds, the alternative ways a node can be addressed:

* :func:`node_predicates` — the predicates φ a node satisfies;
* :func:`relative_step_candidates` — step sequences from an ancestor to a
  descendant (used as loop-variable suffixes);
* :func:`decompositions` — ways to write a selector as
  ``prefix / step(φ, k) / suffix``, the shape anti-unification matches on;
* :func:`alternative_selectors` — whole-selector alternatives (used for
  while-loop clicks).

With ``use_alternatives=False`` every function degenerates to the raw
child-axis forms only, which is exactly Table 1's "No selector" ablation.

Every query reads a frozen snapshot's bucket layer
(:class:`repro.engine.index.SnapshotIndex`): memoized raw paths,
predicate families, child-rank maps, and per-element decomposition
plans, so no query re-walks ancestor chains or sibling lists.
Enumerating on a snapshot that is not a frozen root raises
``ValueError``.  ``tests/enumeration_reference.py`` keeps the
ancestor-walk enumeration as the test oracle the parity tests compare
against.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dom.node import DOMNode
from repro.dom.xpath import (
    CHILD,
    DESC,
    ConcreteSelector,
    Predicate,
    Step,
    index_among_descendants,
    predicate_family,
    raw_path,
    resolve,
)
from repro.engine.index import UNSUPPORTED, SnapshotIndex, index_for
from repro.synth.config import SynthesisConfig


@dataclass(frozen=True)
class Decomposition:
    """One way to address a node as ``prefix / step(pred, index) / suffix``.

    ``prefix`` addresses an anchor; the *element step* selects the
    ``index``-th match of ``pred`` under the anchor along ``axis``; the
    ``suffix`` steps descend from the element to the target node.  Loop
    speculation matches decompositions of consecutive actions that agree
    on everything but ``index``.
    """

    prefix: ConcreteSelector
    axis: str
    pred: Predicate
    index: int
    suffix: tuple[Step, ...]

    def assemble(self) -> ConcreteSelector:
        """Rebuild the full concrete selector this decomposition denotes."""
        element = (
            self.prefix.child(self.pred, self.index)
            if self.axis == CHILD
            else self.prefix.desc(self.pred, self.index)
        )
        return element.concat(self.suffix)

    def match_key(self) -> tuple:
        """Everything but the index — equal keys + consecutive indices
        make an anti-unification candidate."""
        return (self.prefix, self.axis, self.pred, self.suffix)


def node_predicates(
    node: DOMNode, use_alternatives: bool = True, token_predicates: bool = False
) -> list[Predicate]:
    """Predicates satisfied by ``node``: its tag, then attribute refinements.

    Attribute predicates come first because they are both more selective
    and what the paper's intended programs use.  With ``token_predicates``
    (the beyond-the-paper extension), one predicate per whitespace token
    of a multi-token ``class`` is added — these are what cover sibling
    nodes whose classes share a token but are not equal (the b6 case).
    """
    if not use_alternatives:
        return [Predicate(node.tag)]
    # one token predicate per whitespace token, even for single-token
    # classes: a row with class="match" must pair with its
    # class="match highlight" sibling through the *same* (token)
    # predicate — see predicate_family for the full ordering contract
    return predicate_family(node, token_predicates)


def _index_of(root: DOMNode) -> SnapshotIndex:
    """The bucket layer of ``root``, which must be a frozen snapshot root."""
    if root.parent is not None or not root.frozen:
        raise ValueError("selector enumeration needs a frozen snapshot root")
    return index_for(root)


def relative_step_candidates(
    base: DOMNode,
    target: DOMNode,
    use_alternatives: bool = True,
    max_suffix_child_steps: int = 2,
    token_predicates: bool = False,
) -> list[tuple[Step, ...]]:
    """Bounded step sequences that reach ``target`` from ``base``.

    Always includes the raw child chain.  With alternatives enabled, also
    descendant-anchored forms: ``//φ(target)[k]`` and
    ``//φ(mid)[k] / raw-chain`` for intermediate nodes with short
    remaining chains.
    """
    if base is target:
        return [()]
    if not (base.is_ancestor_of(target)):
        return []
    root = base.root()
    index = _index_of(root)
    memo_key = (
        "rel",
        id(base),
        id(target),
        use_alternatives,
        max_suffix_child_steps,
        token_predicates,
    )
    cached = index.enum_memo.get(memo_key)
    if cached is not None:
        return cached
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
            # predicates_of only yields bucketed predicates, so rank
            # should never be UNSUPPORTED here — but a sentinel must
            # never become a step index
            tail = index.raw_steps_between(mid, target)
            for pred in index.predicates_of(mid, True, token_predicates):
                rank = index.rank(pred, mid, base)
                if rank is UNSUPPORTED:  # pragma: no cover - defensive
                    rank = index_among_descendants(base, mid, pred, root)
                if rank is not None:
                    add((Step(DESC, pred, rank),) + tail)
    add(index.raw_steps_between(base, target))
    index.enum_memo[memo_key] = candidates
    return candidates


def decompositions(
    selector: ConcreteSelector,
    dom: DOMNode,
    use_alternatives: bool = True,
    max_suffix_child_steps: int = 2,
    max_results: int = 128,
    token_predicates: bool = False,
) -> list[Decomposition]:
    """All bounded ``prefix/step/suffix`` readings of ``selector`` on ``dom``.

    Anchors for the element step are the element's parent (child axis) and
    every ancestor including the document (descendant axis).  Prefixes are
    raw paths — generality enters through the predicate, the axis, and the
    suffix, plus later parametrization of the prefix itself.

    The per-element work — predicate family, parent raw path, child
    ranks, descendant ranks — is invariant across suffixes and across
    targets sharing the ancestor, so it is read off the snapshot index's
    cached *element plan* and only the cross product with the suffixes
    is materialised here.  Whole results are memoized on the index (they
    depend only on the target node and the bounds), which is what lets
    a second session over the same snapshot enumerate for free.
    """
    index = _index_of(dom)
    target = resolve(selector, dom)
    if target is None:
        return []
    memo_key = (
        "decomp",
        id(target),
        use_alternatives,
        max_suffix_child_steps,
        max_results,
        token_predicates,
    )
    cached = index.enum_memo.get(memo_key)
    if cached is not None:
        return cached
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
        plan = index.element_plan(element, use_alternatives, token_predicates)
        for suffix in suffixes:
            for prefix, axis, pred, step_index in plan:
                results.append(Decomposition(prefix, axis, pred, step_index, suffix))
            if len(results) >= max_results:
                break
        element = element.parent
    results = results[:max_results]
    index.enum_memo[memo_key] = results
    return results


def alternative_selectors(
    selector: ConcreteSelector,
    dom: DOMNode,
    use_alternatives: bool = True,
    max_results: int = 24,
) -> list[ConcreteSelector]:
    """Whole-selector alternatives denoting the same node on ``dom``.

    The raw selector itself is always included (first).  Attribute-
    anchored forms follow, deduplicated, each verified to resolve to the
    same node.
    """
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


def common_alternatives(
    selector_a: ConcreteSelector,
    dom_a: DOMNode,
    selector_b: ConcreteSelector,
    dom_b: DOMNode,
    use_alternatives: bool = True,
    max_results: int = 8,
) -> list[ConcreteSelector]:
    """Selectors that address both recorded nodes on their own snapshots.

    Used for while-loop clicks: the terminating Click must resolve to the
    "next page" button on *every* page, so candidate selectors must at
    least work for the two exhibited iterations.
    """
    options_a = alternative_selectors(selector_a, dom_a, use_alternatives)
    options_b = set(alternative_selectors(selector_b, dom_b, use_alternatives))
    shared = [candidate for candidate in options_a if candidate in options_b]
    return shared[:max_results]


class SelectorSearch:
    """Memoised front-end to the selector-search queries.

    The synthesizer issues the same decomposition and relative-step
    queries over and over (across spans, across incremental calls).
    Snapshots are immutable, so caching by ``(selector, id(snapshot))`` is
    sound as long as the snapshots are kept alive — which this object does
    by holding references in its keys' companion sets.
    """

    def __init__(
        self,
        use_alternatives: bool = True,
        max_suffix_child_steps: int = 2,
        max_decompositions: int = 128,
        token_predicates: bool = False,
    ) -> None:
        self.use_alternatives = use_alternatives
        self.max_suffix_child_steps = max_suffix_child_steps
        self.max_decompositions = max_decompositions
        self.token_predicates = token_predicates
        self._decomp_cache: dict[tuple, list[Decomposition]] = {}
        self._relative_cache: dict[tuple, list[tuple[Step, ...]]] = {}
        self._alternatives_cache: dict[tuple, list[ConcreteSelector]] = {}
        self._pairing_cache: dict[tuple, object] = {}
        self._pins: list = []  # keeps cached DOMs alive so ids stay valid

    @classmethod
    def for_config(cls, config: SynthesisConfig) -> "SelectorSearch":
        """A search honouring the config's selector knobs."""
        return cls(
            use_alternatives=config.use_alternative_selectors,
            max_suffix_child_steps=config.max_suffix_child_steps,
            max_decompositions=config.max_decompositions,
            token_predicates=config.use_token_predicates,
        )

    def _pin(self, *objects) -> None:
        self._pins.append(objects)

    def decompositions(self, selector: ConcreteSelector, dom: DOMNode) -> list[Decomposition]:
        """Memoised :func:`decompositions`."""
        key = (selector, id(dom))
        hit = self._decomp_cache.get(key)
        if hit is None:
            hit = decompositions(
                selector,
                dom,
                use_alternatives=self.use_alternatives,
                max_suffix_child_steps=self.max_suffix_child_steps,
                max_results=self.max_decompositions,
                token_predicates=self.token_predicates,
            )
            self._decomp_cache[key] = hit
            self._pin(dom)
        return hit

    def relative(self, base: DOMNode, target: DOMNode) -> list[tuple[Step, ...]]:
        """Memoised :func:`relative_step_candidates`."""
        key = (id(base), id(target))
        hit = self._relative_cache.get(key)
        if hit is None:
            hit = relative_step_candidates(
                base,
                target,
                use_alternatives=self.use_alternatives,
                max_suffix_child_steps=self.max_suffix_child_steps,
                token_predicates=self.token_predicates,
            )
            self._relative_cache[key] = hit
            self._pin(base, target)
        return hit

    def alternatives(
        self, selector: ConcreteSelector, dom: DOMNode, max_results: int = 24
    ) -> list[ConcreteSelector]:
        """Memoised :func:`alternative_selectors`."""
        key = (selector, id(dom), max_results)
        hit = self._alternatives_cache.get(key)
        if hit is None:
            hit = alternative_selectors(
                selector,
                dom,
                use_alternatives=self.use_alternatives,
                max_results=max_results,
            )
            self._alternatives_cache[key] = hit
            self._pin(dom)
        return hit

    def common(
        self,
        selector_a: ConcreteSelector,
        dom_a: DOMNode,
        selector_b: ConcreteSelector,
        dom_b: DOMNode,
        max_results: int = 8,
    ) -> list[ConcreteSelector]:
        """Memoised :func:`common_alternatives`."""
        options_a = self.alternatives(selector_a, dom_a)
        options_b = set(self.alternatives(selector_b, dom_b))
        shared = [candidate for candidate in options_a if candidate in options_b]
        return shared[:max_results]

    def _decomposition_keys(self, selector: ConcreteSelector, dom: DOMNode) -> set[tuple]:
        """The ``(match_key, index)`` set of a selector's decompositions."""
        key = ("dk", selector, id(dom))
        hit = self._pairing_cache.get(key)
        if hit is None:
            hit = {
                (item.match_key(), item.index)
                for item in self.decompositions(selector, dom)
            }
            self._pairing_cache[key] = hit
            self._pin(dom)
        return hit

    def loop_pairings(
        self,
        first_sel: ConcreteSelector,
        first_dom: DOMNode,
        second_sel: ConcreteSelector,
        second_dom: DOMNode,
        limit: int,
    ) -> list[Decomposition]:
        """Decompositions of ``first_sel`` at index 1 whose match key also
        occurs at index 2 among ``second_sel``'s decompositions.

        This is the var-free core of selector anti-unification (Figure 10
        rule (4)); results are memoised because the same statement pairs
        are anti-unified across many spans and incremental calls.
        """
        key = (first_sel, id(first_dom), second_sel, id(second_dom), limit)
        hit = self._pairing_cache.get(key)
        if hit is not None:
            return hit
        results: list[Decomposition] = []
        seen: set[tuple] = set()
        first_options = self.decompositions(first_sel, first_dom)
        if first_options:
            second_keys = self._decomposition_keys(second_sel, second_dom)
            for item in first_options:
                if item.index != 1:
                    continue
                match = item.match_key()
                if match in seen or (match, 2) not in second_keys:
                    continue
                seen.add(match)
                results.append(item)
                if len(results) >= limit:
                    break
        self._pairing_cache[key] = results
        self._pin(first_dom, second_dom)
        return results
