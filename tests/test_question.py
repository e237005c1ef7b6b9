from __future__ import annotations

import pytest

from mindmask.errors import QuestionParseError, ValidationError
from mindmask.nkb import RuleBackend, generate_states, identify_key_entities
from mindmask.pipeline import answer_space_for
from mindmask.question import (
    BeliefChain,
    parse_question,
    reduce_order,
    render_question,
)
from mindmask.worldgen import GrammarConfig, generate_story


def test_parse_third_order_chain(melon_story):
    q = parse_question("Where does Emma think Lily thinks William thinks the melon is?", melon_story)
    assert q.chain_names == ("Emma", "Lily", "William")
    assert q.target_entity == "melon"
    assert q.order == 3


def test_parse_factual_beginning(cupboard_story):
    q = parse_question("Where is the t-shirt in the begining?", cupboard_story)
    assert q.order == 0
    assert q.chain is None
    assert q.target_entity == "t-shirt"
    assert q.asks_initial


def test_parse_search_template(cupboard_story):
    q = parse_question("Where will Abigail search for the t-shirt?", cupboard_story)
    assert q.chain_names == ("Abigail",)
    assert q.order == 1
    assert q.target_entity == "t-shirt"


def test_parse_think_search_combo(cupboard_story):
    q = parse_question("Where does Benjamin think that Abigail search for the t-shirt?", cupboard_story)
    assert q.chain_names == ("Benjamin", "Abigail")
    assert q.target_entity == "t-shirt"


def test_parse_really_think_variant(melon_story):
    q = parse_question("Where does William really think the melon is?", melon_story)
    assert q.chain_names == ("William",)
    assert q.order == 1


def test_parse_plain_and_really_factual(melon_story):
    q = parse_question("Where is the melon really?", melon_story)
    assert q.order == 0 and not q.asks_initial
    q = parse_question("Where is the melon?", melon_story)
    assert q.order == 0 and q.target_entity == "melon"


def test_chain_casing_follows_the_story():
    from mindmask.story import parse_story

    story = parse_story({"characters": ["EMMA"], "events": [{"text": "EMMA entered the barn."}]})
    q = parse_question("Where does Emma think the ball is?", story)
    assert q.chain_names == ("EMMA",)


def test_unknown_character_rejected(melon_story):
    with pytest.raises(QuestionParseError, match="not a character"):
        parse_question("Where does Zorro think the melon is?", melon_story)


@pytest.mark.parametrize(
    "text",
    [
        "Where does Emma think Lily  thinks the melon is?",  # two spaces
        "Where does Emma think Lily thinks  William thinks the melon is?",
        "Where does Emma think that  Lily thinks the melon is?",
        "Where does Emma think Lily\tthinks the melon is?",
        "Where does Emma think Lily THINKS the melon is?",
        "Where does Emma think the melon Lily think is?",
        "Where is the melon Lily thinks really?",
        "Where will Emma search for the melon Lily thinks?",
    ],
)
def test_belief_verb_left_in_the_target_is_refused(text, melon_story):
    with pytest.raises(QuestionParseError, match="belief verb") as caught:
        parse_question(text, melon_story)
    assert repr(text) in str(caught.value)


def test_belief_verb_inside_a_word_is_a_target(melon_story):
    q = parse_question("Where does Emma think the thinking cap is?", melon_story)
    assert q.target_entity == "thinking cap"
    assert parse_question("Where is the rethinks box?", melon_story).target_entity == "rethinks box"


def test_unsupported_template_lists_templates(melon_story):
    with pytest.raises(QuestionParseError, match="supported templates"):
        parse_question("What color is the melon?", melon_story)


def test_belief_chain_invariants():
    with pytest.raises(ValidationError):
        BeliefChain(())
    with pytest.raises(ValidationError):
        BeliefChain(("Anne", "anne"))
    assert BeliefChain(("Anne", "Sally", "Anne")).order == 3  # non-adjacent repeat is fine


def test_reduce_third_order(melon_story, melon_question):
    reduced = reduce_order(melon_question)
    assert reduced.raw == "Where does William think the melon is?"
    assert reduced.chain_names == ("William",)
    assert reduced.target_entity == melon_question.target_entity


def test_reduce_first_order_is_identity(melon_story):
    q = parse_question("Where does William think the melon is?", melon_story)
    assert reduce_order(q) is q


def test_reduce_second_order(melon_story):
    q = parse_question("Where does Lily think William thinks the melon is?", melon_story)
    reduced = reduce_order(q)
    assert reduced.raw == "Where does William think the melon is?"
    assert parse_question(reduced.raw, melon_story).chain_names == ("William",)


def test_reduce_order_zero_is_an_error(melon_story):
    q = parse_question("Where is the melon really?", melon_story)
    with pytest.raises(ValidationError):
        reduce_order(q)


def test_round_trip_reduction_property():
    # For every generated question of order >= 1, re-parsing the reduced text
    # yields exactly the innermost believer.
    for seed in range(12):
        story, questions = generate_story(
            GrammarConfig(num_characters=4, max_order=3, seed=seed, allow_reentry=bool(seed % 2))
        )
        for q in questions:
            if q.order == 0:
                continue
            reduced = reduce_order(q)
            reparsed = parse_question(reduced.raw, story)
            assert reparsed.chain_names == (q.chain_names[-1],)
            assert reparsed.target_entity == q.target_entity


def test_generated_questions_always_parse():
    for seed in range(20):
        story, questions = generate_story(GrammarConfig(num_characters=3, max_order=2, seed=seed))
        for q in questions:
            reparsed = parse_question(q.raw, story)
            assert reparsed.chain_names == q.chain_names
            assert reparsed.target_entity == q.target_entity


def test_render_question_shapes():
    assert render_question((), "melon") == "Where is the melon really?"
    assert render_question(("Ava",), "melon") == "Where does Ava think the melon is?"
    assert (
        render_question(("Ava", "Ben", "Cleo"), "melon")
        == "Where does Ava think Ben thinks Cleo thinks the melon is?"
    )


def test_answer_space_melon(melon_setup):
    story, q, records, _, _ = melon_setup
    assert answer_space_for(q, story, records) == [
        "green bathtub",
        "blue pantry",
        "green bucket",
        "red bucket",
    ]


def test_answer_space_cupboard(cupboard_setup):
    story, questions, records, _, _ = cupboard_setup
    assert answer_space_for(questions[1], story, records) == ["cupboard", "basket"]


def test_answer_space_falls_back_to_object_locations():
    from mindmask.nkb import EntityStateRecord
    from mindmask.story import parse_story

    story = parse_story("Mia entered the kitchen.\nThe ball is in the box.\nMia exited the kitchen.")
    records = [
        EntityStateRecord(1, "Mia", "location", "in the kitchen"),
        EntityStateRecord(2, "ball", "location", "in the box"),
        EntityStateRecord(2, "box", "content", "ball"),
        EntityStateRecord(3, "Mia", "location", "outside the kitchen"),
    ]
    # No record places the cup: every non-person location is a candidate.
    q = parse_question("Where is the cup really?", story)
    assert answer_space_for(q, story, records) == ["box"]


def test_answer_space_single_candidate(backend):
    from mindmask.story import parse_story

    story = parse_story("Mia entered the kitchen.\nThe ball is in the box.")
    q = parse_question("Where is the ball really?", story)
    targets = identify_key_entities(story, [q], backend)
    records = generate_states(story, targets, backend)
    assert answer_space_for(q, story, records) == ["box"]


@pytest.mark.parametrize(
    "text",
    [
        "Where does Ava know the apple is?",  # a "does" question with no believer
        "Where does Ava think Ben knows?",  # a believer with no terminal clause
        "Where was the apple?",  # no template at all
    ],
)
def test_unsupported_where_questions_list_the_templates(text, cupboard_story):
    with pytest.raises(QuestionParseError, match="supported templates"):
        parse_question(text, cupboard_story)
