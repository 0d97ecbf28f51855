"""Unit tests for the alternative-selector search."""

import pytest

from repro.benchmarks.suite import benchmark_by_id
from repro.dom import (
    CHILD,
    DESC,
    EPSILON,
    Predicate,
    parse_selector,
    raw_path,
    resolve,
)
from repro.lang import EMPTY_DATA
from repro.synth import (
    SpeculationContext,
    alternative_selectors,
    anti_unify_selectors,
    common_alternatives,
    decompositions,
    node_predicates,
    relative_step_candidates,
    token_predicate_config,
)
from repro.synth.alternatives import SelectorSearch

from helpers import cards_page, node_at


class TestNodePredicates:
    def test_attribute_predicates_first(self):
        dom = cards_page(2)
        card = node_at(dom, "//div[@class='card'][1]")
        preds = node_predicates(card)
        assert preds[0] == Predicate("div", "class", "card")
        assert preds[-1] == Predicate("div")

    def test_raw_only_mode(self):
        dom = cards_page(2)
        card = node_at(dom, "//div[@class='card'][1]")
        assert node_predicates(card, use_alternatives=False) == [Predicate("div")]

    def test_empty_attribute_ignored(self):
        from repro.dom import E

        node = E("div", {"class": ""})
        assert node_predicates(node) == [Predicate("div")]


class TestRelativeStepCandidates:
    def test_self_is_empty_sequence(self):
        dom = cards_page(1)
        card = node_at(dom, "//div[@class='card'][1]")
        assert relative_step_candidates(card, card) == [()]

    def test_includes_raw_chain(self):
        dom = cards_page(1)
        card = node_at(dom, "//div[@class='card'][1]")
        h3 = node_at(dom, "//div[@class='card'][1]/h3[1]")
        raw_chain = parse_selector("/h3[1]").steps
        candidates = relative_step_candidates(card, h3)
        assert tuple(raw_chain) in [tuple(c) for c in candidates]

    def test_includes_descendant_anchor(self):
        dom = cards_page(1)
        body = node_at(dom, "/html[1]/body[1]")
        phone = node_at(dom, "//div[@class='phone'][1]")
        candidates = relative_step_candidates(body, phone)
        assert parse_selector("//div[@class='phone'][1]").steps in candidates

    def test_non_ancestor_yields_nothing(self):
        dom = cards_page(2)
        card1 = node_at(dom, "//div[@class='card'][1]")
        card2 = node_at(dom, "//div[@class='card'][2]")
        assert relative_step_candidates(card1, card2) == []

    def test_raw_only_single_candidate(self):
        dom = cards_page(1)
        body = node_at(dom, "/html[1]/body[1]")
        phone = node_at(dom, "//div[@class='phone'][1]")
        candidates = relative_step_candidates(body, phone, use_alternatives=False)
        assert candidates == [parse_selector("/div[2]/div[1]").steps]

    def test_all_candidates_resolve_to_target(self):
        from repro.dom import resolve_relative

        dom = cards_page(3)
        body = node_at(dom, "/html[1]/body[1]")
        phone = node_at(dom, "//div[@class='card'][2]/div[@class='phone'][1]")
        for steps in relative_step_candidates(body, phone):
            assert resolve_relative(steps, body) is phone


class TestDecompositions:
    def test_card_h3_has_document_dscts_reading(self):
        dom = cards_page(3)
        h3 = node_at(dom, "//div[@class='card'][1]/h3[1]")
        decomps = decompositions(raw_path(h3), dom)
        keys = {
            (d.prefix, d.axis, d.pred, d.index, d.suffix)
            for d in decomps
        }
        wanted = (
            EPSILON,
            DESC,
            Predicate("div", "class", "card"),
            1,
            parse_selector("//h3[1]").steps,
        )
        assert wanted in keys

    def test_second_card_has_index_two(self):
        dom = cards_page(3)
        h3 = node_at(dom, "//div[@class='card'][2]/h3[1]")
        decomps = decompositions(raw_path(h3), dom)
        assert any(
            d.pred == Predicate("div", "class", "card") and d.index == 2
            for d in decomps
        )

    def test_assemble_resolves_to_same_node(self):
        dom = cards_page(3)
        phone = node_at(dom, "//div[@class='card'][2]/div[@class='phone'][1]")
        target_path = raw_path(phone)
        for decomposition in decompositions(target_path, dom):
            assert resolve(decomposition.assemble(), dom) is phone

    def test_unresolvable_selector_gives_nothing(self):
        dom = cards_page(1)
        assert decompositions(parse_selector("//nav[9]"), dom) == []

    def test_raw_only_mode_child_axis_only(self):
        dom = cards_page(2)
        h3 = node_at(dom, "//div[@class='card'][1]/h3[1]")
        decomps = decompositions(raw_path(h3), dom, use_alternatives=False)
        assert decomps
        assert all(d.axis == CHILD for d in decomps)
        assert all(d.pred.attr is None for d in decomps)

    def test_max_results_respected(self):
        dom = cards_page(4)
        h3 = node_at(dom, "//div[@class='card'][2]/h3[1]")
        assert len(decompositions(raw_path(h3), dom, max_results=5)) <= 5


class TestAlternativeSelectors:
    def test_all_alternatives_denote_same_node(self):
        dom = cards_page(3, with_next=True)
        button = node_at(dom, "//button[@class='next'][1]")
        for alternative in alternative_selectors(raw_path(button), dom):
            assert resolve(alternative, dom) is button

    def test_raw_path_included(self):
        dom = cards_page(2)
        h3 = node_at(dom, "//div[@class='card'][1]/h3[1]")
        alternatives = alternative_selectors(raw_path(h3), dom)
        assert raw_path(h3) in alternatives

    def test_raw_only_mode_returns_raw_only(self):
        dom = cards_page(2)
        h3 = node_at(dom, "//div[@class='card'][1]/h3[1]")
        assert alternative_selectors(raw_path(h3), dom, use_alternatives=False) == [
            raw_path(h3)
        ]


class TestCommonAlternatives:
    def test_next_button_shifting_position(self):
        # Page 2 has an extra "prev" button before the cards: the raw path
        # of "next" differs, but the attribute-anchored form is shared.
        from repro.dom import E, page

        page1 = cards_page(2, with_next=True)
        page2 = page(
            E("button", {"class": "prev"}, text="prev"),
            E("div", {"class": "sidebar"}, text="ads"),
            E("div", {"class": "card"}, E("h3", text="x"),
              E("div", {"class": "phone"}, text="y")),
            E("button", {"class": "next"}, text="next"),
        )
        next1 = node_at(page1, "//button[@class='next'][1]")
        next2 = node_at(page2, "//button[@class='next'][1]")
        shared = common_alternatives(raw_path(next1), page1, raw_path(next2), page2)
        assert parse_selector("//button[@class='next'][1]") in shared

    def test_identical_raw_paths_share_raw(self):
        page1 = cards_page(2, with_next=True)
        next1 = node_at(page1, "//button[@class='next'][1]")
        shared = common_alternatives(raw_path(next1), page1, raw_path(next1), page1)
        assert raw_path(next1) in shared

    def test_raw_only_mode_requires_equal_raw(self):
        from repro.dom import E, page

        page1 = cards_page(2, with_next=True)
        page2 = page(
            E("button", {"class": "prev"}),
            E("button", {"class": "next"}),
        )
        next1 = node_at(page1, "//button[@class='next'][1]")
        next2 = node_at(page2, "//button[@class='next'][1]")
        shared = common_alternatives(
            raw_path(next1), page1, raw_path(next2), page2, use_alternatives=False
        )
        assert shared == []


class TestSnapshotRequirement:
    def test_unfrozen_snapshot_is_rejected(self):
        from repro.dom import E

        dom = E("html", E("body", E("div", {"class": "card"})))
        with pytest.raises(ValueError):
            decompositions(parse_selector("/html[1]/body[1]/div[1]"), dom)

    def test_non_root_snapshot_is_rejected(self):
        dom = cards_page(2)
        card = node_at(dom, "//div[@class='card'][1]")
        with pytest.raises(ValueError):
            decompositions(parse_selector("/h3[1]"), card)


def _au_signature(results):
    """Anti-unification results with their fresh loop variables erased."""
    return [(au.general.steps, au.collection, au.first) for au in results]


class TestFallbackSearchHonoursConfig:
    def test_for_config_forwards_every_selector_knob(self):
        config = token_predicate_config()
        search = SelectorSearch.for_config(config)
        assert search.use_alternatives == config.use_alternative_selectors
        assert search.max_suffix_child_steps == config.max_suffix_child_steps
        assert search.max_decompositions == config.max_decompositions
        assert search.token_predicates

    def test_speculation_context_search_uses_token_predicates(self):
        context = SpeculationContext([], [], EMPTY_DATA, token_predicate_config())
        assert context.search.token_predicates

    def test_b6_anti_unification_does_not_depend_on_the_search_passed(self):
        # without an explicit search, anti_unify_selectors builds its
        # own; it must see the same token predicates as a search the
        # synthesizer would build from the same config.  Pairs are each
        # action with the next action of its kind, one loop iteration
        # apart, as loop speculation pairs them.
        config = token_predicate_config()
        recording = benchmark_by_id("b6").record()
        actions, snapshots = recording.actions, recording.snapshots
        explicit = SelectorSearch(
            use_alternatives=config.use_alternative_selectors,
            max_suffix_child_steps=config.max_suffix_child_steps,
            max_decompositions=config.max_decompositions,
            token_predicates=True,
        )
        compared = 0
        for first in range(len(actions)):
            if actions[first].selector is None:
                continue
            second = next(
                (
                    later
                    for later in range(first + 1, len(actions))
                    if actions[later].kind == actions[first].kind
                ),
                None,
            )
            if second is None:
                continue
            args = (
                actions[first].selector,
                snapshots[first],
                actions[second].selector,
                snapshots[second],
                config,
            )
            assert _au_signature(anti_unify_selectors(*args)) == _au_signature(
                anti_unify_selectors(*args, search=explicit)
            )
            compared += 1
        assert compared > 0
