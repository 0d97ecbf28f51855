"""Parity of the index-backed enumeration with the reference ancestor walk.

Production enumeration (:mod:`repro.synth.alternatives`) reads the
snapshot index's bucket layer; :mod:`enumeration_reference` walks
ancestor chains on an unindexed copy of the same snapshot.  Both have
to produce the *same* candidate lists in the *same* order — anything
else would change speculation order and, through the per-span caps,
the synthesized programs.  These tests pin that contract exhaustively
over the generated benchmark sites and property-based over random DOMs;
the last test pins per-call index-build attribution.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.benchmarks.suite import benchmark_by_id
from repro.dom import E, raw_path, resolve
from repro.lang import EMPTY_DATA
from repro.synth.alternatives import (
    alternative_selectors,
    decompositions,
    relative_step_candidates,
)
from repro.synth.config import DEFAULT_CONFIG
from repro.synth.synthesizer import Synthesizer

import enumeration_reference as reference
from helpers import cards_page, scrape_cards_trace

#: One benchmark per site family (news, match, wiki, numbered jobs,
#: plain lists, forum, next-button jobs, catalog, sectioned, fixed
#: store) — the generated sites whose selector shapes the enumeration
#: actually sees.
FAMILY_SAMPLE = ("b1", "b6", "b11", "b9", "b12", "b16", "b38", "b41", "b50", "b33")


def recorded_queries(bid):
    """Distinct (selector, snapshot, linear copy) triples of a trace."""
    recording = benchmark_by_id(bid).record()
    triples = []
    copies = {}
    seen = set()
    for position, action in enumerate(recording.actions):
        if action.selector is None:
            continue
        dom = recording.snapshots[position]
        key = (action.selector, id(dom))
        if key not in seen:
            seen.add(key)
            if id(dom) not in copies:
                copies[id(dom)] = reference.linear_copy(dom)
            triples.append((action.selector, dom, copies[id(dom)]))
    return triples


def mirror(node, copy_root):
    """The node of ``copy_root`` at ``node``'s raw path."""
    return resolve(raw_path(node), copy_root)


@pytest.mark.parametrize("bid", FAMILY_SAMPLE)
@pytest.mark.parametrize("use_alternatives", [True, False])
def test_benchmark_parity(bid, use_alternatives):
    for selector, dom, twin in recorded_queries(bid):
        for token_predicates in (False, True):
            indexed = decompositions(
                selector,
                dom,
                use_alternatives=use_alternatives,
                token_predicates=token_predicates,
            )
            walked = reference.decompositions(
                selector,
                twin,
                use_alternatives=use_alternatives,
                token_predicates=token_predicates,
            )
            assert indexed == walked  # same set AND same ranking order
        assert alternative_selectors(
            selector, dom, use_alternatives
        ) == reference.alternative_selectors(selector, twin, use_alternatives)


@pytest.mark.parametrize("bid", FAMILY_SAMPLE[:4])
def test_benchmark_relative_parity(bid):
    for selector, dom, twin in recorded_queries(bid):
        target = resolve(selector, dom)
        if target is None:
            continue
        twin_target = mirror(target, twin)
        base = target
        while base is not None:
            if base is not target:
                twin_base = mirror(base, twin)
                for token_predicates in (False, True):
                    assert relative_step_candidates(
                        base, target, token_predicates=token_predicates
                    ) == reference.relative_step_candidates(
                        twin_base, twin_target, token_predicates=token_predicates
                    )
            base = base.parent


TAGS = ("div", "span", "li", "h3")
CLASSES = ("", "card", "row", "row extra", "meta")


@st.composite
def dom_trees(draw, max_depth=3):
    """Random small frozen pages (multi-token classes included)."""

    def node(depth):
        tag = draw(st.sampled_from(TAGS))
        cls = draw(st.sampled_from(CLASSES))
        attrs = {"class": cls} if cls else {}
        children = []
        if depth < max_depth:
            for _ in range(draw(st.integers(0, 3))):
                children.append(node(depth + 1))
        return E(tag, attrs, *children)

    body = node(0)
    return E("html", E("body", body)).freeze()


class TestRandomDomParity:
    @given(dom_trees(), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_decompositions_agree_for_every_node(
        self, root, use_alternatives, token_predicates
    ):
        twin = reference.linear_copy(root)
        for node in root.iter_subtree():
            selector = raw_path(node)
            indexed = decompositions(
                selector,
                root,
                use_alternatives=use_alternatives,
                token_predicates=token_predicates,
            )
            walked = reference.decompositions(
                selector,
                twin,
                use_alternatives=use_alternatives,
                token_predicates=token_predicates,
            )
            assert indexed == walked

    @given(dom_trees(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_relative_candidates_agree_for_root_anchors(self, root, token_predicates):
        twin = reference.linear_copy(root)
        for node in root.iter_subtree():
            if node is root:
                continue
            assert relative_step_candidates(
                root, node, token_predicates=token_predicates
            ) == reference.relative_step_candidates(
                twin, mirror(node, twin), token_predicates=token_predicates
            )


class TestSynthesizerParity:
    def test_interleaved_sessions_attribute_their_own_index_builds(self):
        # two sessions over different sites, alternating calls: each
        # call reports exactly the builds its own snapshots forced.
        # Recording the traces resolves selectors (which would pre-build
        # the index), so each session gets a fresh clone of its page.
        actions_a, _ = scrape_cards_trace(cards_page(4), 3)
        actions_b, _ = scrape_cards_trace(cards_page(5), 3)
        dom_a = cards_page(4).clone().freeze()
        dom_b = cards_page(5).clone().freeze()
        snaps_a = [dom_a] * (len(actions_a) + 1)
        snaps_b = [dom_b] * (len(actions_b) + 1)
        session_a = Synthesizer(EMPTY_DATA, DEFAULT_CONFIG)
        session_b = Synthesizer(EMPTY_DATA, DEFAULT_CONFIG)
        first_a = session_a.synthesize(actions_a[:2], snaps_a[:3]).stats
        first_b = session_b.synthesize(actions_b[:2], snaps_b[:3]).stats
        assert first_a.index_builds == 1  # one shared snapshot per site
        assert first_b.index_builds == 1
        # extending over the already-indexed snapshots forces nothing new
        second_a = session_a.synthesize(actions_a, snaps_a).stats
        assert second_a.index_builds == 0
