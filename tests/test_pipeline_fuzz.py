"""The pipeline against the oracle on drawn grammar configurations.

Criterion 2 checks one question per order on a fixed grid of seeds. Here
`hypothesis` draws every `GrammarConfig` field and the seed, and the
pipeline must agree with `simulate_beliefs` on every belief chain of order
0 to `max_order` about every questioned object, and every character graph
must keep exactly the events of `observed_set`.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from mindmask.pipeline import PipelineConfig, answer_question, prepare_story
from mindmask.question import parse_question, render_question
from mindmask.worldgen import GrammarConfig, generate_story, observed_set, simulate_beliefs

PROFILE = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def grammar_configs(draw) -> GrammarConfig:
    num_characters = draw(st.integers(2, 5))
    return GrammarConfig(
        num_characters=num_characters,
        num_rooms=draw(st.integers(1, 6)),
        num_objects=draw(st.integers(1, 3)),
        num_containers_per_room=draw(st.integers(2, 5)),
        moves_per_room=draw(st.integers(1, 4)),
        max_order=draw(st.integers(1, min(4, num_characters))),
        seed=draw(st.integers(0, 2**31 - 1)),
        allow_reentry=draw(st.booleans()),
        distractor_rate=draw(st.floats(0.0, 1.0)),
    )


@PROFILE
@given(grammar_configs())
def test_pipeline_agrees_with_the_oracle(config):
    story, generated = generate_story(config)
    objects = sorted({q.target_entity for q in generated})
    chains = [
        chain
        for order in range(config.max_order + 1)
        for chain in itertools.permutations(story.characters, order)
    ]
    questions = [
        parse_question(render_question(chain, obj), story, gold=simulate_beliefs(story, chain, obj))
        for chain in chains
        for obj in objects
    ]
    cfg = PipelineConfig()
    artifacts = prepare_story(story, questions, cfg)
    for q in questions:
        assert answer_question(artifacts, q, cfg).predicted == q.gold, q.raw
    for name in story.characters:
        assert set(artifacts.character_graph(name).surviving()) == observed_set(story, name)
