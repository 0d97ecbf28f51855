"""Drift-robustness study: replay survival on redesigned pages.

This extension experiment quantifies two complementary robustness
mechanisms of the reproduced system:

* the **selector search** (§2) — synthesized programs anchor on
  attributes, so they survive layout drift that breaks recorded raw
  paths (the paper's pitch against record-and-replay tools);
* **selector repair** (:mod:`repro.browser.repair`, extension) — shadow
  replay re-anchors actions by node fingerprint, rescuing programs on
  drifts neither selector form survives.

The study replays two equivalent programs over a ladder of drift
levels applied to the same card-scraping page:

========  ==========================================================
level     mutation (cumulative where sensible)
========  ==========================================================
clean     the page as demonstrated
banner    a sale banner prepended to ``body`` (shifts raw indices)
promo     banner + a sponsored card ahead of the results (hijacks
          collection index 1 — the silent wrong-data hazard)
wrapped   banner + promo + results nested in an extra section div
renamed   banner + all class attributes renamed (kills attribute
          anchors; raw paths unaffected beyond the banner shift)
========  ==========================================================

The *brittle* program is what a record-and-replay macro stores: one
raw absolute XPath per scrape, no loop.  The *synthesized* program
comes from the actual synthesizer on a two-card demonstration.  Each
is replayed plainly and under a verifying :class:`~repro.browser.
repair.RepairingReplayer`; outcomes compare the scraped outputs to the
ground truth:

* ``ok`` — outputs exactly match;
* ``ok*`` — correct data plus trailing extras (the repairer keeps
  going on live pages with more items than the reference);
* ``wrong`` — completed with different data;
* ``failed`` — replay raised.

The headline shape: raw paths die at the first banner, attribute
anchors die only at the rename, and repair rescues each exactly where
its selector form fails — they compose rather than compete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.browser.repair import RepairingReplayer
from repro.browser.replayer import Replayer
from repro.browser.virtual import Browser, State, VirtualWebsite
from repro.dom.builder import E, page
from repro.dom.node import DOMNode
from repro.dom.xpath import parse_selector, raw_path, resolve
from repro.harness.report import render_table
from repro.lang.ast import Program
from repro.lang.actions import action_to_statement, scrape_text
from repro.lang.data import EMPTY_DATA
from repro.synth.synthesizer import Synthesizer

#: The ground-truth dataset every drift level must still yield.
STORES = [
    ("Ann Arbor", "555-0100"),
    ("Detroit", "555-0200"),
    ("Lansing", "555-0300"),
    ("Flint", "555-0400"),
    ("Saginaw", "555-0500"),
]

#: Drift levels in escalation order.
DRIFT_LEVELS = ("clean", "banner", "promo", "wrapped", "renamed")


class DriftedCardsSite(VirtualWebsite):
    """The card-scraping page under one of :data:`DRIFT_LEVELS`."""

    def __init__(self, level: str = "clean") -> None:
        super().__init__()
        if level not in DRIFT_LEVELS:
            raise ValueError(f"unknown drift level {level!r}")
        self.level = level

    def initial_state(self) -> State:
        return self.level

    def url(self, state: State) -> str:
        return f"virtual://drift/{self.level}"

    def render(self, state: State) -> DOMNode:
        def cls(name: str) -> str:
            return f"x-{name}" if self.level == "renamed" else name

        cards = [
            E("div", {"class": cls("card")},
              E("h3", text=name),
              E("div", {"class": cls("phone")}, text=phone))
            for name, phone in STORES
        ]
        inner: list[DOMNode] = []
        if self.level in ("promo", "wrapped"):
            inner.append(
                E("div", {"class": cls("card"), "data-sponsored": "1"},
                  E("h3", text="Sponsored"),
                  E("div", {"class": cls("phone")}, text="555-9999"))
            )
        inner.extend(cards)
        if self.level == "wrapped":
            results = E("div", {"class": cls("results")},
                        E("div", {"class": cls("section")}, *inner))
        else:
            results = E("div", {"class": cls("results")}, *inner)
        parts: list[DOMNode] = []
        if self.level != "clean":
            parts.append(E("div", {"class": cls("banner")}, text="SALE"))
        parts.append(results)
        return page(*parts)


# ----------------------------------------------------------------------
# The two program styles
# ----------------------------------------------------------------------
def expected_outputs() -> list[str]:
    """Ground truth: every store's name and phone, in order."""
    return [value for store in STORES for value in store]


def brittle_program() -> Program:
    """A record-and-replay macro: one raw absolute path per scrape."""
    dom = DriftedCardsSite("clean").page("clean")
    statements = []
    for index in range(1, len(STORES) + 1):
        for inner in (f"//div[@class='card'][{index}]/h3[1]",
                      f"//div[@class='card'][{index}]/div[1]"):
            node = resolve(parse_selector(inner), dom)
            statements.append(action_to_statement(scrape_text(raw_path(node))))
    return Program(tuple(statements))


def synthesized_program() -> Program:
    """What the synthesizer produces from a two-card demonstration."""
    browser = Browser(DriftedCardsSite("clean"))
    for index in (1, 2):
        browser.perform(
            scrape_text(parse_selector(f"//div[@class='card'][{index}]/h3[1]"))
        )
        browser.perform(
            scrape_text(parse_selector(f"//div[@class='card'][{index}]/div[1]"))
        )
    actions, snapshots = browser.trace()
    result = Synthesizer(EMPTY_DATA).synthesize(actions, snapshots)
    if result.best_program is None:
        raise RuntimeError("synthesis failed on the clean drift page")
    return result.best_program


# ----------------------------------------------------------------------
# Outcomes
# ----------------------------------------------------------------------
@dataclass
class ReplayOutcome:
    """One (program, level, mode) replay classified against ground truth."""

    verdict: str
    repairs: int = 0

    @property
    def succeeded(self) -> bool:
        """True when the replay recovered the full ground-truth data."""
        return self.verdict in ("ok", "ok*")


def _classify(outputs: list[str], error: Optional[str]) -> str:
    expected = expected_outputs()
    if error is not None:
        return "failed"
    if outputs == expected:
        return "ok"
    if len(outputs) > len(expected) and outputs[: len(expected)] == expected:
        return "ok*"
    return "wrong"


def replay_plain(program: Program, level: str) -> ReplayOutcome:
    """Replay without repair; failures are captured, not raised."""
    replayer = Replayer(Browser(DriftedCardsSite(level)), raise_errors=False)
    result = replayer.run(program)
    return ReplayOutcome(_classify(result.outputs, result.error))


def replay_repaired(program: Program, level: str) -> ReplayOutcome:
    """Replay under a verifying repairer shadowing the clean site."""
    live = Browser(DriftedCardsSite(level))
    reference = Browser(DriftedCardsSite("clean"))
    replayer = RepairingReplayer(
        live, reference, verify=True, raise_errors=False
    )
    result = replayer.run(program)
    return ReplayOutcome(_classify(result.outputs, result.error), len(replayer.events))


@dataclass
class DriftRow:
    """All four outcomes at one drift level."""

    level: str
    brittle_plain: ReplayOutcome
    brittle_repaired: ReplayOutcome
    synth_plain: ReplayOutcome
    synth_repaired: ReplayOutcome

    def row(self) -> list:
        """This level as one table row (verdict plus repair count)."""

        def cell(outcome: ReplayOutcome) -> str:
            suffix = f" ({outcome.repairs} fixes)" if outcome.repairs else ""
            return outcome.verdict + suffix

        return [
            self.level,
            cell(self.brittle_plain),
            cell(self.brittle_repaired),
            cell(self.synth_plain),
            cell(self.synth_repaired),
        ]


def run_drift_study() -> list[DriftRow]:
    """Replay both program styles across every drift level."""
    brittle = brittle_program()
    synthesized = synthesized_program()
    rows = []
    for level in DRIFT_LEVELS:
        rows.append(
            DriftRow(
                level,
                replay_plain(brittle, level),
                replay_repaired(brittle, level),
                replay_plain(synthesized, level),
                replay_repaired(synthesized, level),
            )
        )
    return rows


def render_drift(rows: list[DriftRow]) -> str:
    """The study as a table."""
    table = render_table(
        ["drift", "raw paths", "raw + repair", "synthesized", "synth + repair"],
        [row.row() for row in rows],
    )
    return f"Replay survival under page drift (verify-mode repair)\n{table}"


def main() -> None:
    """CLI entry: print the drift study."""
    print(render_drift(run_drift_study()))


if __name__ == "__main__":
    main()
