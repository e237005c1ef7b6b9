"""The scene pass's per-event columns, from the rule scan and from records.

The rule scan fills each event's columns, its movers (a character's
casefolded name to its location state), its placements (every other location
record) and its actors (the casefolded names its text opens with as agents),
from line readings it keeps once per distinct line, and builds the
characters' location records only when something reads them.
`build_omniscient_graph` derives the same columns from a story's records and
parses the text for actors. Both must agree, and the lazy records must be
the ones the scan always gave.

The one story shape where they differ on purpose is an object named like a
character: the records route cannot tell the two apart and moves the
character, while the scan places the object. Those stories are excluded from
the agreement check and pinned against the oracle instead.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_generator_digest import corpus
from test_location_records import IDS, STORIES, identity
from test_rule_scan import dialogues, grammar_configs, mutated, reference_records
from mindmask import nkb
from mindmask.cli import main
from mindmask.dataset import dump_dataset
from mindmask.errors import ValidationError
from mindmask.nkb import LOCATION, RuleBackend, extract_locations, merge_states
from mindmask.pipeline import PipelineConfig, answer_question, prepare_story
from mindmask.question import parse_question
from mindmask.scene import _columns, build_character_graph, build_omniscient_graph
from mindmask.story import Event, Story, leading_subjects
from mindmask.worldgen import GrammarConfig, generate_story, observed_set, simulate_beliefs

PROFILE = settings(max_examples=100, deadline=None, derandomize=True)

# The four benchmark shapes at the benchmark seed and the held-out one.
BENCHMARK_STORIES = [story for seed in (1, 1009) for story, _ in corpus(seed)]


def names_an_object_like_a_character(story: Story, scan) -> bool:
    """Whether a move or declaration places an entity named like one of the
    story's characters: the collision the records route cannot resolve."""
    return any(
        r.key[0] in story.characters_by_key for placed in scan.placements for r in placed
    )


def assert_columns_agree(story: Story) -> None:
    scan = RuleBackend().scene_columns(story)
    if names_an_object_like_a_character(story, scan):
        return
    derived = _columns(story, list(RuleBackend().scene_columns(story).locations))
    assert scan.movers == derived.movers
    assert [identity(placed) for placed in scan.placements] == [
        identity(placed) for placed in derived.placements
    ]
    # The scan reads each line's actors as the text parse does; the scene
    # pass takes the first that is a character.
    parsed = [tuple(n.casefold() for n in leading_subjects(e.text)) for e in story.events]
    assert scan.actors == parsed
    assert derived.actors is None


def test_columns_agree_on_the_benchmark_corpora():
    for story in BENCHMARK_STORIES:
        assert_columns_agree(story)


@pytest.mark.parametrize("story, questions", STORIES, ids=IDS)
def test_columns_agree_on_the_shapes_and_a_dialogue(story, questions):
    assert_columns_agree(story)


@st.composite
def stories(draw) -> Story:
    story, _ = generate_story(draw(grammar_configs()))
    return draw(st.one_of(st.just(story), mutated(story), dialogues()))


@PROFILE
@given(story=stories())
def test_columns_agree_on_drawn_stories(story):
    # Lines the generator never writes, lines that read as two patterns,
    # names that are no character, repeated names, and dialogues.
    assert_columns_agree(story)


@pytest.mark.parametrize("story", BENCHMARK_STORIES[:: 97] + [s for s, _ in STORIES])
def test_both_routes_build_the_same_graph(story):
    backend = RuleBackend()
    anchors = extract_locations(story, backend)
    from_scan = build_omniscient_graph(story, backend.scene_columns(story), anchors)
    from_records = build_omniscient_graph(story, list(backend.scene_columns(story).locations), anchors)
    assert from_scan.assignment == from_records.assignment
    assert from_scan.bits == from_records.bits
    assert from_scan._observations[2] == from_records._observations[2]


# -- an object named like a character -------------------------------------------

COLLISION = (
    "Ball and Ava entered the kitchen.",
    "The hat is in the box.",
    "Ava moved the hat to the basket.",
    "The ball is in the crate.",
    "Ava moved the hat to the crate.",
    "Ava exited the kitchen.",
)


def story_of(lines, characters) -> Story:
    events = tuple(Event(index=i, text=text) for i, text in enumerate(lines, start=1))
    return Story(events=events, characters=characters)


@pytest.mark.parametrize(
    "lines, characters",
    [
        (COLLISION, ("Ball", "Ava")),
        # The same object moved, not declared, into the crate.
        (COLLISION[:3] + ("Ava moved the ball to the crate.",) + COLLISION[4:], ("Ball", "Ava")),
        # A third character who stays out of the kitchen.
        (("Cleo entered the hall.",) + COLLISION, ("Ball", "Ava", "Cleo")),
    ],
)
def test_an_object_named_like_a_character_does_not_move_it(lines, characters):
    story = story_of(lines, characters)
    questions = [
        parse_question(text, story)
        for text in (
            "Where is the hat?",
            "Where does Ball think the hat is?",
            "Where does Ava think the hat is?",
            "Where does Ball think Ava thinks the hat is?",
            "Where does Ava think Ball thinks the hat is?",
        )
    ]
    cfg = PipelineConfig()
    artifacts = prepare_story(story, questions, cfg)
    assert names_an_object_like_a_character(story, artifacts._scan)
    for name in story.characters:
        assert set(artifacts.character_graph(name).surviving()) == observed_set(story, name), name
    for q in questions:
        gold = simulate_beliefs(story, q.chain_names, q.target_entity)
        assert answer_question(artifacts, q, cfg).predicted == gold, q.raw
    # Ball stays in the kitchen until the story ends, so it saw the last move.
    assert answer_question(artifacts, questions[1], cfg).predicted == "crate"


# -- the characters' records are built only when read ----------------------------


def count_records(monkeypatch) -> list:
    built = []
    keyed_record = nkb.keyed_record

    def counting(event_index, entity, attribute, state, key):
        built.append(key)
        return keyed_record(event_index, entity, attribute, state, key)

    monkeypatch.setattr(nkb, "keyed_record", counting)
    return built


@pytest.mark.parametrize("story, questions", STORIES, ids=IDS)
def test_symbolic_path_builds_no_character_location_record(story, questions, monkeypatch):
    built = count_records(monkeypatch)
    cfg = PipelineConfig(nkb_backend=RuleBackend())
    artifacts = prepare_story(story, questions, cfg)
    for q in questions:
        answer_question(artifacts, q, cfg)
    for name in story.characters:
        artifacts.character_graph(name)
    characters = {(key, LOCATION) for key in story.characters_by_key}
    assert built and not characters & set(built)
    assert "records" not in vars(artifacts)
    assert "locations" not in vars(artifacts._scan)

    # Reading the records builds them, once, as the graphs' own.
    records = artifacts.records
    assert characters & set(built)
    assert artifacts.records is records
    assert identity(records) == identity(r for r in reference_records(story) if r.attribute == LOCATION)


@pytest.mark.parametrize("story, questions", STORIES, ids=IDS)
def test_target_records_are_the_full_records_subsequence(story, questions):
    cfg = PipelineConfig()
    lazy = prepare_story(story, questions, cfg)
    targets = [lazy.target_records(q) for q in questions]
    assert "locations" not in vars(lazy._scan)
    for q, got in zip(questions, targets):
        key = (q.target_entity.casefold(), LOCATION)
        want = [r for r in lazy.records if r.key == key]
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))


def reference_locations(story: Story) -> list:
    return [r for r in reference_records(story) if r.attribute == LOCATION]


def assert_records_as_always(backend: RuleBackend, story: Story) -> None:
    """The scan's ``locations``, ``story_states`` and the prepared records give
    the records of the scan as it was, in `==`, repr, key and order, with
    every display name its entity's first-seen spelling."""
    want = reference_records(story)
    assert identity(backend.story_states(story, [])) == identity(want)
    assert identity(backend.scene_columns(story).locations) == identity(reference_locations(story))


@pytest.mark.parametrize("story, questions", STORIES, ids=IDS)
def test_records_are_as_always(story, questions):
    assert_records_as_always(RuleBackend(), story)
    artifacts = prepare_story(story, questions, PipelineConfig())
    assert isinstance(artifacts.records, list)
    assert identity(artifacts.records) == identity(reference_locations(story))


@PROFILE
@given(first=stories(), second=stories())
def test_records_are_as_always_after_other_stories(first, second):
    backend = RuleBackend()
    cfg = PipelineConfig(nkb_backend=backend)
    questions = [parse_question("Where is the melon?", s) for s in (first, second)]
    prepared = [prepare_story(s, [q], cfg) for s, q in zip((first, second), questions)]
    for story in (first, second, first):
        assert_records_as_always(backend, story)
    # Each artifact keeps its own scan, read after the backend moved on.
    for story, artifacts in zip((first, second), prepared):
        assert identity(artifacts.records) == identity(reference_locations(story))


def test_extract_writes_the_records_as_always(tmp_path):
    items = [item for item in STORIES] + [item for item in STORIES]
    path = tmp_path / "d.jsonl"
    dump_dataset(items, path)
    out = tmp_path / "r.jsonl"
    assert main(["extract", "--dataset", str(path), "-o", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    want = [
        {
            "story_index": i,
            "event_index": r.event_index,
            "entity": r.entity,
            "attribute": r.attribute,
            "state": r.state,
        }
        for i, (story, _) in enumerate(items)
        for r in merge_states(reference_records(story))
    ]
    assert rows == want


# -- a graph is built from one set of records ------------------------------------


def test_character_graph_takes_the_scan_or_its_records_only():
    story, questions = generate_story(GrammarConfig(num_characters=3, seed=5))
    name = story.characters[0]
    artifacts = prepare_story(story, questions, PipelineConfig())
    scan, anchors, omniscient = artifacts._scan, artifacts.anchors, artifacts.omniscient
    # The scan stands for its records before they are built.
    assert build_character_graph(story, scan, anchors, name, omniscient).bits == (
        artifacts.character_graph(name).bits
    )
    other_scan = RuleBackend().scene_columns(story)
    for records, anchs in (
        (other_scan, anchors),
        (scan, list(anchors)),
        (list(RuleBackend().scene_columns(story).locations), anchors),
    ):
        with pytest.raises(ValidationError):
            build_character_graph(story, records, anchs, name, omniscient)
    records = artifacts.records
    assert build_character_graph(story, records, anchors, name, omniscient).bits == (
        artifacts.character_graph(name).bits
    )
    with pytest.raises(ValidationError):
        build_character_graph(story, list(records), anchors, name, omniscient)
