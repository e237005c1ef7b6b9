from __future__ import annotations

import dataclasses
import json

import pytest

from mindmask.errors import ValidationError
from mindmask.pipeline import (
    ABSTAIN,
    ParsedAnswer,
    PipelineConfig,
    answer_question,
    answers_match,
    complexity_csv,
    complexity_report,
    complexity_table,
    evaluate,
    match_candidates,
    parse_answer,
    prepare_story,
    run_pipeline,
    symbolic_reader,
)
from mindmask.question import parse_question
from mindmask.nkb import EntityStateRecord, RuleBackend, StateBackend
from mindmask.worldgen import GrammarConfig, generate_story


def _dataset(count, *, seed=0, **kwargs):
    return [generate_story(GrammarConfig(seed=seed + i, **kwargs)) for i in range(count)]


def test_run_pipeline_melon_full(melon_story, melon_question):
    assert run_pipeline(melon_story, melon_question, PipelineConfig()) == "blue pantry"


def test_run_pipeline_melon_unmasked(melon_story, melon_question):
    cfg = PipelineConfig(apply_masking=False)
    assert run_pipeline(melon_story, melon_question, cfg) == "red bucket"


def test_run_pipeline_order_zero(melon_story):
    q = parse_question("Where is the melon really?", melon_story)
    assert run_pipeline(melon_story, q, PipelineConfig()) == "red bucket"


def test_run_pipeline_beginning_question(cupboard_story):
    q = parse_question("Where is the t-shirt in the begining?", cupboard_story)
    assert run_pipeline(cupboard_story, q, PipelineConfig()) == "cupboard"


def test_run_pipeline_cupboard_first_order(cupboard_story):
    q = parse_question("Where will Abigail search for the t-shirt?", cupboard_story)
    assert run_pipeline(cupboard_story, q, PipelineConfig()) == "cupboard"


def test_no_ki_does_not_change_symbolic_answers(melon_story, melon_question):
    assert run_pipeline(melon_story, melon_question, PipelineConfig(inject_knowledge=False)) == (
        "blue pantry"
    )


def _target_records(records, q):
    """The records of q's target, as StoryArtifacts.target_records gives them."""
    key = (q.target_entity.casefold(), "location")
    return [r for r in records if (r.entity.casefold(), r.attribute.casefold()) == key]


def _bits(*surviving):
    """The masked bitset with the given events surviving."""
    return sum(1 << (i - 1) for i in surviving)


def test_symbolic_reader_masked_view(melon_setup):
    story, q, records, anchors, omniscient = melon_setup
    bits = _bits(1, 2, 3, 4, 5, 6, 7, 14)
    from mindmask.question import reduce_order

    asked = reduce_order(q)
    assert symbolic_reader(bits, asked, _target_records(records, asked)) == "blue pantry"


def test_symbolic_reader_partial_observer_view(cupboard_setup):
    # Abigail's view misses the move at event 7, so the last record she saw
    # still places the t-shirt in the cupboard.
    story, questions, records, _, _ = cupboard_setup
    bits = _bits(2, 3, 4, 5, 6, 11)
    q = parse_question("Where does Abigail think the t-shirt is?", story)
    assert symbolic_reader(bits, q, _target_records(records, q)) == "cupboard"


def test_symbolic_reader_declaration_fallback(cupboard_story):
    records = [EntityStateRecord(1, "ball", "location", "in the box")]
    q = parse_question("Where is the ball really?", cupboard_story)
    assert symbolic_reader(_bits(), q, _target_records(records, q)) == "box"


def test_symbolic_reader_keeps_a_negated_state_as_written(cupboard_story):
    records = [EntityStateRecord(1, "ball", "location", " Outside the Attic ")]
    q = parse_question("Where is the ball really?", cupboard_story)
    assert symbolic_reader(_bits(1), q, _target_records(records, q)) == "Outside the Attic"


def test_symbolic_reader_abstains_without_records(cupboard_story):
    q = parse_question("Where is the ball really?", cupboard_story)
    assert symbolic_reader(_bits(1), q, []) == ABSTAIN


def test_empty_view_is_flagged_and_falls_back():
    # Ava is declared but never appears: her graph is all null, so the masked
    # view is empty and the answer comes from the initial declaration.
    from mindmask.story import parse_story

    tale = parse_story(
        {
            "characters": ["Ava", "Ben"],
            "events": [
                {"text": "Ben entered the hall."},
                {"text": "The coin is in the red box."},
                {"text": "Ben moved the coin to the blue box."},
            ],
        }
    )
    cfg = PipelineConfig()
    question = parse_question("Where does Ava think the coin is?", tale)
    artifacts = prepare_story(tale, [question], cfg)
    outcome = answer_question(artifacts, question, cfg)
    assert outcome.empty_view
    assert outcome.predicted == "red box"


def test_absent_observer_with_partial_view_falls_back():
    from mindmask.story import parse_story

    tale = parse_story(
        "Ava entered the hall.\n"
        "Ava exited the hall.\n"
        "Ben entered the hall.\n"
        "The coin is in the red box.\n"
        "Ben moved the coin to the blue box."
    )
    cfg = PipelineConfig()
    question = parse_question("Where does Ava think the coin is?", tale)
    artifacts = prepare_story(tale, [question], cfg)
    outcome = answer_question(artifacts, question, cfg)
    # Ava saw only her own entry and exit: no coin record in view.
    assert not outcome.empty_view
    assert outcome.predicted == "red box"


def test_parse_answer_direct():
    parsed = parse_answer("...reasoning... <answer>blue pantry</answer>")
    assert parsed.value == "blue pantry"
    assert not parsed.flagged


def test_parse_answer_normalized_candidate():
    parsed = parse_answer("<answer>The Blue Pantry.</answer>", ["blue pantry", "green bucket"])
    assert parsed.value == "blue pantry"
    assert not parsed.ambiguous


def test_parse_answer_fallback_last_line():
    parsed = parse_answer("no tags here")
    assert parsed.value == "no tags here"
    assert parsed.flagged


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0c", "\x0b", "\x1c", "\r"])
def test_parse_answer_fallback_splits_at_line_feeds_alone(separator):
    # Only a line feed ends a reply line, as in the remote reply readers; a
    # line separator, a form feed or a lone carriage return stays inside.
    parsed = parse_answer(f"It is in the basket{separator}(final answer)", ["basket", "box"])
    assert parsed == ParsedAnswer(value="basket", flagged=True)
    parsed = parse_answer(f"It is in the box{separator}\n\r\nIt is in the basket\r\n\n", ["basket", "box"])
    assert parsed == ParsedAnswer(value="basket", flagged=True)


def test_parse_answer_nested_takes_innermost():
    parsed = parse_answer("<answer>I believe <answer>red bucket</answer></answer>")
    assert parsed.value == "red bucket"


def test_parse_answer_multiple_takes_last():
    parsed = parse_answer("<answer>green bucket</answer> hmm no <answer>red bucket</answer>")
    assert parsed.value == "red bucket"


def test_parse_answer_unclosed_tag():
    parsed = parse_answer("thinking...\n<answer>green bathtub")
    assert parsed.value == "green bathtub"
    assert parsed.flagged


def test_parse_answer_ambiguous_candidates():
    parsed = parse_answer("<answer>bucket</answer>", ["green bucket", "red bucket"])
    assert parsed.ambiguous
    assert parsed.flagged


@pytest.mark.parametrize(
    "reply, extracted", [("<answer></answer>", ""), ("<answer>?</answer>", "?"), ("<answer>the</answer>", "the")]
)
@pytest.mark.parametrize("space", [["box"], ["box", "red crate"]], ids=["one", "two"])
def test_parse_answer_matches_no_candidate_to_an_empty_answer(reply, extracted, space):
    assert match_candidates(extracted, space) == (None, False)
    assert parse_answer(reply, space) == ParsedAnswer(value=extracted, flagged=True, ambiguous=False)


def test_parse_answer_total_on_junk():
    for junk in ("", "\n\n", "<answer>", "</answer>", "<answer></answer>", "\x00??"):
        parse_answer(junk)  # must not raise


def test_answers_match_normalization():
    assert answers_match("The Blue Pantry.", "blue pantry")
    assert answers_match("waiting-room", "waiting room")
    assert not answers_match("red bucket", "green bucket")


def test_evaluate_full_pipeline_is_perfect():
    items = _dataset(6, num_characters=3, max_order=2)
    report = evaluate(items, PipelineConfig(), seeds=[0])
    assert report.accuracy_mean == 1.0
    assert report.skipped == 0
    assert set(report.per_order) == {0, 1, 2}
    assert all(acc == 1.0 for acc in report.per_order.values())


def test_evaluate_without_masking_fails_false_beliefs():
    items = _dataset(12, num_characters=3, max_order=2)
    full = evaluate(items, PipelineConfig(), seeds=[0])
    ablated = evaluate(items, PipelineConfig(apply_masking=False), seeds=[0])
    assert full.accuracy_mean == 1.0
    high_order = [acc for order, acc in ablated.per_order.items() if order >= 1]
    assert min(high_order) < 1.0
    assert ablated.per_order[0] == 1.0  # factual questions need no masking


def test_evaluate_variance_over_seeds():
    items = _dataset(8, num_characters=3, max_order=1)
    report = evaluate(items, PipelineConfig(), seeds=[12, 42], subset_size=4)
    assert set(report.seed_accuracies) == {12, 42}
    assert report.accuracy_variance is not None
    single = evaluate(items, PipelineConfig(), seeds=[12])
    assert single.accuracy_variance is None


def test_evaluate_report_is_deterministic():
    items = _dataset(5, num_characters=3, max_order=2)
    cfg = PipelineConfig()
    a = evaluate(items, cfg, seeds=[12, 42], subset_size=3).to_json()
    b = evaluate(items, cfg, seeds=[12, 42], subset_size=3).to_json()
    assert a == b
    json.loads(a)  # valid JSON


@pytest.mark.parametrize("seeds", [[1, 1], [3, 1, 2, 1]])
def test_evaluate_refuses_a_repeated_seed(seeds):
    items = _dataset(2, num_characters=3, max_order=1)
    with pytest.raises(ValidationError, match="seed 1 is given more than once"):
        evaluate(items, PipelineConfig(), seeds=seeds)


@pytest.mark.parametrize("subset_size", [0, -1])
def test_evaluate_refuses_a_subset_of_no_story(subset_size):
    items = _dataset(2, num_characters=3, max_order=1)
    with pytest.raises(ValidationError, match="subset_size must be at least 1"):
        evaluate(items, PipelineConfig(), seeds=[0], subset_size=subset_size)


def test_evaluate_scores_a_subset_of_one_story():
    items = _dataset(3, num_characters=3, max_order=1)
    report = evaluate(items, PipelineConfig(), seeds=[5], subset_size=1)
    assert len({r.story_index for r in report.rows}) == 1
    assert len(report.rows) == 2 and report.accuracy_mean == 1.0


def test_evaluate_empty_dataset():
    report = evaluate([], PipelineConfig(), seeds=[0])
    assert report.rows == []
    assert report.accuracy_mean == 0.0


def test_evaluate_skips_missing_gold(melon_story, melon_question):
    report = evaluate([(melon_story, [melon_question])], PipelineConfig(), seeds=[0])
    assert report.skipped == 1
    assert report.rows == []


def test_evaluate_counts_graphs_over_prepared_stories_only():
    two = _dataset(1, num_characters=2, max_order=2)
    five = (_dataset(1, seed=7, num_characters=5, max_order=4)[0][0], [])
    report = evaluate(two + [five], PipelineConfig(), seeds=[0])
    assert report.graph_counts["m"] == 2 and report.graph_counts["scene_graphs"] == 3
    assert report.graph_counts["k"] == 2


def test_evaluate_without_gold_counts_no_graphs():
    items = _dataset(2, num_characters=4, max_order=3)
    no_gold = [(story, [dataclasses.replace(q, gold=None) for q in qs]) for story, qs in items]
    report = evaluate(no_gold, PipelineConfig(), seeds=[0])
    assert report.rows == []
    assert (report.graph_counts["m"], report.graph_counts["k"]) == (1, 0)


def test_complexity_report_m5():
    rows = complexity_report([5], range(1, 6))
    assert [r.chain_graphs for r in rows] == [5, 25, 85, 205, 325]
    assert all(r.scene_graphs == 6 for r in rows)


def test_complexity_report_small_and_zero():
    rows = complexity_report([2], [2])
    assert (rows[0].scene_graphs, rows[0].chain_graphs) == (3, 4)
    rows = complexity_report([3], [0])
    assert (rows[0].scene_graphs, rows[0].chain_graphs) == (4, 0)


def test_complexity_report_skips_invalid_pairs():
    rows = complexity_report([2, 3], [1, 2, 3])
    assert all(r.k <= r.m for r in rows)
    with pytest.raises(ValidationError):
        complexity_report([2], [3])


def test_off_grammar_lines_never_crash_the_pipeline():
    # Unrecognized narration is a no-op for the state backend and resolves
    # through actor or fallback rules in the graphs; answers stay strings.
    import random

    from mindmask.story import parse_story

    rng = random.Random(99)
    noise = [
        "The wind howled outside.",
        "Suddenly, nothing happened.",
        "Ben said hello to everyone.",
        "A strange noise echoed.",
        "Ava pondered the meaning of cupboards.",
    ]
    base = [
        "Ava entered the hall.",
        "Ben entered the hall.",
        "The coin is in the red box.",
        "Ava moved the coin to the blue box.",
        "Ava exited the hall.",
        "Ben moved the coin to the red box.",
    ]
    for _ in range(40):
        lines = base[:]
        for line in rng.sample(noise, rng.randint(1, 3)):
            lines.insert(rng.randint(0, len(lines)), line)
        story = parse_story("\n".join(lines))
        q = parse_question("Where does Ava think the coin is?", story)
        assert isinstance(run_pipeline(story, q, PipelineConfig()), str)


@pytest.mark.parametrize("room", ["kitchen", "left wing", "outside patio"])
def test_room_names_with_negation_words_match_the_oracle(room):
    # Entering "the left wing" must place Mia there even though "left" is a
    # negation word; only the exit records resolve to the null node.
    from mindmask.story import parse_story
    from mindmask.worldgen import simulate_beliefs

    story = parse_story(
        f"Mia entered the {room}.\nBen entered the {room}.\nThe ball is in the box.\n"
        f"Ben moved the ball to the basket.\nMia exited the {room}.\nBen exited the {room}."
    )
    q = parse_question("Where does Mia think the ball is?", story)
    gold = simulate_beliefs(story, q.chain_names, q.target_entity)
    assert gold == "basket"
    assert run_pipeline(story, q, PipelineConfig()) == gold


@pytest.mark.parametrize(
    "first, second", [("left drawer", "away box"), ("outside shed", "absent crate")]
)
def test_container_names_with_negation_words_match_the_oracle(first, second):
    # Each container's name holds a negation word, but its state opens with
    # "in", so the reader answers the place, as the oracle does.
    from mindmask.story import parse_story
    from mindmask.worldgen import simulate_beliefs

    story = parse_story(
        f"Ava entered the kitchen.\nBen entered the kitchen.\nThe apple is in the {first}.\n"
        f"Ben exited the kitchen.\nAva moved the apple to the {second}."
    )
    questions = []
    for text in (
        "Where is the apple really?",
        "Where does Ava think the apple is?",
        "Where does Ben think the apple is?",
        "Where does Ava think Ben thinks the apple is?",
    ):
        q = parse_question(text, story)
        questions.append(parse_question(text, story, gold=simulate_beliefs(story, q.chain_names, "apple")))
    assert [q.gold for q in questions] == [second, second, first, first]
    report = evaluate([(story, questions)])
    assert [r.predicted for r in report.rows] == [q.gold for q in questions]
    assert report.accuracy_mean == 1.0


@pytest.mark.parametrize(
    "state, answer",
    [
        ("in away box", "away box"),
        ("In the Left Drawer", "left drawer"),
        ("inside the outside shed", "outside shed"),
        ("not in the attic", "not in the attic"),
        ("absent", "absent"),
        ("left the room", "left the room"),
    ],
)
def test_symbolic_reader_answers_a_state_opening_with_a_preposition_as_a_place(
    cupboard_story, state, answer
):
    records = [EntityStateRecord(1, "ball", "location", state)]
    q = parse_question("Where is the ball really?", cupboard_story)
    assert symbolic_reader(_bits(1), q, _target_records(records, q)) == answer


class StoryStatesOnly:
    """A state backend with nothing but the protocol's three queries."""

    def __init__(self):
        self.rule = RuleBackend()
        self.state_calls = []

    def key_entities(self, story, questions):
        return self.rule.key_entities(story, questions)

    def location_names(self, story):
        return self.rule.location_names(story)

    def story_states(self, story, targets):
        self.state_calls.append(story)
        return self.rule.story_states(story, targets)


def test_pipeline_asks_for_states_once_per_story():
    items = _dataset(4, num_characters=3, max_order=2, allow_reentry=True)
    backend = StoryStatesOnly()
    assert isinstance(backend, StateBackend)
    cfg = PipelineConfig(nkb_backend=backend)
    for story, questions in items:
        artifacts = prepare_story(story, questions, cfg)
        for q in questions:
            assert answers_match(answer_question(artifacts, q, cfg).predicted, q.gold)
    assert backend.state_calls == [story for story, _ in items]


def test_complexity_renderers():
    rows = complexity_report([5], range(1, 6))
    table = complexity_table(rows)
    assert "325" in table
    csv = complexity_csv(rows)
    assert csv.splitlines()[0] == "m,k,scene_graphs,chain_graphs"
    assert "5,5,6,325" in csv


def test_evaluate_prepares_only_stories_with_gold():
    items = _dataset(3, num_characters=3, max_order=2)
    no_questions = (items[0][0], [])
    no_gold = (items[1][0], [dataclasses.replace(q, gold=None) for q in items[1][1]])
    backend = StoryStatesOnly()
    report = evaluate(items + [no_questions, no_gold], PipelineConfig(nkb_backend=backend), seeds=[0])
    assert report.rows == evaluate(items, PipelineConfig(), seeds=[0]).rows
    assert report.skipped == len(no_gold[1])
    # The two added stories score nothing, so neither is prepared.
    assert backend.state_calls == [story for story, _ in items]
