"""The text-reader path: an answer backend gets the masked view and the
answer space that the pipeline shows for the same question, with or
without injected knowledge."""

from __future__ import annotations

import pytest

from mindmask.pipeline import (
    PipelineConfig,
    answer_question,
    answer_space_for,
    mask_question,
    parse_answer,
    prepare_story,
)
from mindmask.question import reduce_order
from mindmask.worldgen import GrammarConfig, generate_story

DEEP_CHAINS = dict(num_characters=5, num_rooms=4, max_order=4, allow_reentry=True)
CONFIGS = {
    "full": {},
    "no-ki": {"inject_knowledge": False},
    "no-im": {"apply_masking": False},
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_text_reader_reads_the_masked_view(config, recording_answerer):
    bullets = empty_views = flagged = 0
    for seed in range(1, 9):
        story, questions = generate_story(GrammarConfig(seed=seed, **DEEP_CHAINS))
        symbolic = PipelineConfig(**CONFIGS[config])
        text = PipelineConfig(answer_backend=recording_answerer, **CONFIGS[config])
        reference = prepare_story(story, questions, symbolic)
        artifacts = prepare_story(story, questions, text)
        for q in questions:
            outcome = answer_question(artifacts, q, text)
            view, asked, space, reply = recording_answerer.calls[-1]

            _, expected = mask_question(reference, q, symbolic)
            assert view.surviving == expected.surviving
            assert view.texts == expected.texts
            assert asked == (reduce_order(q) if q.order >= 1 else q)
            assert space == tuple(answer_space_for(asked, story, reference.records))

            parsed = parse_answer(reply, space or None)
            assert outcome.predicted == parsed.value
            assert outcome.flagged == (parsed.flagged or parsed.ambiguous)
            assert outcome.empty_view == (not expected.surviving)
            assert outcome.empty_view == answer_question(reference, q, symbolic).empty_view

            with_bullets = sum("\n- " in t for t in view.texts)
            if config == "no-ki":
                assert with_bullets == 0
            bullets += with_bullets
            empty_views += outcome.empty_view
            flagged += outcome.flagged
    # The corpus exercises what the assertions compare.
    assert (bullets > 0) == (config != "no-ki")
    assert flagged and flagged < len(recording_answerer.calls)
    if config != "no-im":
        assert empty_views
