"""The WebRobot synthesis engine: speculate-and-validate rewriting."""

from repro.synth.config import (
    DEFAULT_CONFIG,
    SynthesisConfig,
    no_incremental_config,
    no_selector_config,
    no_shape_gates_config,
    token_predicate_config,
    window_periodicity_config,
)
from repro.synth.problem import (
    SynthesisProblem,
    generalizes,
    produced_actions,
    satisfies,
)
from repro.synth.alternatives import (
    Decomposition,
    alternative_selectors,
    common_alternatives,
    decompositions,
    node_predicates,
    relative_step_candidates,
)
from repro.synth.anti_unify import (
    SelectorAU,
    StatementAU,
    anti_unify_accessors,
    anti_unify_selectors,
    anti_unify_statements,
)
from repro.synth.parametrize import parametrize_statement
from repro.synth.periodicity import (
    shape_sequence,
    statement_shape,
    trace_periods,
    window_periodic,
)
from repro.synth.rewrite import (
    RewriteTuple,
    extend_with_singletons,
    initial_tuple,
    is_loop,
)
from repro.synth.speculate import SpeculationContext, SRewrite, speculate
from repro.synth.validate import validate
from repro.synth.synthesizer import (
    SynthesisResult,
    SynthesisStats,
    Synthesizer,
)

__all__ = [
    "DEFAULT_CONFIG",
    "SynthesisConfig",
    "no_incremental_config",
    "no_selector_config",
    "no_shape_gates_config",
    "token_predicate_config",
    "window_periodicity_config",
    "SynthesisProblem",
    "generalizes",
    "produced_actions",
    "satisfies",
    "Decomposition",
    "alternative_selectors",
    "common_alternatives",
    "decompositions",
    "node_predicates",
    "relative_step_candidates",
    "SelectorAU",
    "StatementAU",
    "anti_unify_accessors",
    "anti_unify_selectors",
    "anti_unify_statements",
    "parametrize_statement",
    "shape_sequence",
    "statement_shape",
    "trace_periods",
    "window_periodic",
    "RewriteTuple",
    "extend_with_singletons",
    "initial_tuple",
    "is_loop",
    "SpeculationContext",
    "SRewrite",
    "speculate",
    "validate",
    "SynthesisResult",
    "SynthesisStats",
    "Synthesizer",
]
