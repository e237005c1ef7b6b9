"""Perspective-taking toolkit for nested-belief story QA.

The pipeline tracks entity states across a narrative, assigns every event to
the room where it happens, and masks the narrative down to the events a chain
of observers could have witnessed. A synthetic story generator with a
brute-force belief simulator provides ground truth for the whole machinery.
"""

from .story import Event, Story, parse_story, serialize_story
from .question import BeliefChain, ToMQuestion, parse_question, reduce_order
from .nkb import (
    EntityAttribute,
    EntityStateRecord,
    LocationAnchor,
    RuleBackend,
    canonicalize_location,
    extract_locations,
    generate_states,
    identify_key_entities,
)
from .scene import SceneGraph, MaskedView, NULL, mask, mask_chain, graph_build_counts
from .inject import AugmentedEvent, inject
from .worldgen import GrammarConfig, generate_story, observed_set, simulate_beliefs
from .pipeline import PipelineConfig, run_pipeline, parse_answer, evaluate

__all__ = [
    "AugmentedEvent",
    "BeliefChain",
    "EntityAttribute",
    "EntityStateRecord",
    "Event",
    "GrammarConfig",
    "LocationAnchor",
    "MaskedView",
    "NULL",
    "PipelineConfig",
    "RuleBackend",
    "SceneGraph",
    "Story",
    "ToMQuestion",
    "canonicalize_location",
    "evaluate",
    "extract_locations",
    "generate_states",
    "generate_story",
    "graph_build_counts",
    "identify_key_entities",
    "inject",
    "mask",
    "mask_chain",
    "observed_set",
    "parse_answer",
    "parse_question",
    "parse_story",
    "reduce_order",
    "run_pipeline",
    "serialize_story",
    "simulate_beliefs",
]
