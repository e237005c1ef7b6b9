"""The symbolic path builds location records only.

With :class:`RuleBackend`, `prepare_story` takes the backend's scan through
``scene_columns``, whose location records are built only when read, and
every record a text reader needs is generated the first time
`StoryArtifacts.augmented` is read. A backend with only the three protocol
queries keeps the one full-record path.
"""

from __future__ import annotations

import pytest

from conftest import RecordingAnswerer
from test_pipeline import StoryStatesOnly
from test_record_log import Transport
from mindmask import nkb
from mindmask.nkb import (
    CONTENT,
    LOCATION,
    RuleBackend,
    StateBackend,
    extract_locations,
    generate_states,
    identify_key_entities,
    merge_states,
)
from mindmask.pipeline import PipelineConfig, StoryArtifacts, answer_question, answer_space_for, prepare_story
from mindmask.question import parse_question
from mindmask.remote import ChatClient, RecordCache, RemoteBackend
from mindmask.scene import build_omniscient_graph
from mindmask.story import parse_story
from mindmask.worldgen import GrammarConfig, generate_story

# The story shapes of the benchmark workloads, and one criterion-2 grid cell.
SHAPES = {
    "deep_chains": dict(num_characters=5, num_rooms=4, max_order=4, allow_reentry=True),
    "long_stories": dict(
        num_characters=2, num_rooms=12, num_containers_per_room=3, moves_per_room=3,
        max_order=2, allow_reentry=True,
    ),
    "criterion_2_grid": dict(
        num_characters=4, num_rooms=2, num_objects=2, num_containers_per_room=3,
        moves_per_room=2, max_order=3,
    ),
}
SEEDS = (1, 1009)

# A dialogue with narrated moves, so that it has content records too.
DIALOGUE_TEXT = """Armani: I keep the key in the drawer.
The key is in the drawer.
Troy: Good to know, thanks.
Troy left the conversation.
Armani moved the key to the safe.
Cynthia: Understood.
Armani moved the key to the drawer.
Troy joined the conversation.
Troy: Sorry, I missed a bit."""
DIALOGUE_QUESTIONS = ("Where does Troy think the key is?", "Where is the key really?")


def dialogue():
    story = parse_story(DIALOGUE_TEXT)
    return story, [parse_question(text, story) for text in DIALOGUE_QUESTIONS]


def corpus():
    items = [generate_story(GrammarConfig(seed=seed, **shape)) for shape in SHAPES.values() for seed in SEEDS]
    return items + [dialogue()]


STORIES = corpus()
IDS = [f"{name}-{seed}" for name in SHAPES for seed in SEEDS] + ["dialogue"]


def full_artifacts(story, questions, backend) -> StoryArtifacts:
    """Artifacts built from every record of ``generate_states``, the way a
    backend with only the three protocol queries gets them."""
    targets = identify_key_entities(story, questions, backend)
    records = generate_states(story, targets, backend)
    anchors = extract_locations(story, backend)
    return StoryArtifacts(
        story=story,
        records=records,
        anchors=anchors,
        omniscient=build_omniscient_graph(story, records, anchors),
    )


def identity(records):
    return [(r, repr(r), r.key) for r in records]


def text_outcomes(artifacts, questions, backend):
    """Each question's answer and what a text reader saw for it."""
    reader = RecordingAnswerer()
    cfg = PipelineConfig(nkb_backend=backend, answer_backend=reader)
    answers = [answer_question(artifacts, q, cfg) for q in questions]
    seen = [(view.surviving, view.texts, asked, space, reply) for view, asked, space, reply in reader.calls]
    return answers, seen


def text_side(artifacts, questions, backend):
    return {
        "augmented": artifacts.augmented,
        "with_knowledge": artifacts.view_texts(True),
        "without_knowledge": artifacts.view_texts(False),
        "spaces": [answer_space_for(q, artifacts.story, artifacts.records) for q in questions],
        "text": text_outcomes(artifacts, questions, backend),
    }


@pytest.mark.parametrize("story, questions", STORIES, ids=IDS)
def test_prepared_records_are_the_location_records_in_order(story, questions):
    backend = RuleBackend()
    prepared = prepare_story(story, questions, PipelineConfig(nkb_backend=backend))
    full = generate_states(story, identify_key_entities(story, questions, backend), backend)
    locations = [r for r in full if r.attribute == LOCATION]
    assert identity(merge_states(prepared.records)) == identity(locations)
    assert len(locations) < len(full)


@pytest.mark.parametrize("story, questions", STORIES, ids=IDS)
def test_text_side_equals_the_one_built_from_every_record(story, questions):
    backend = RuleBackend()
    expected = text_side(full_artifacts(story, questions, backend), questions, backend)
    artifacts = prepare_story(story, questions, PipelineConfig(nkb_backend=backend))
    assert text_side(artifacts, questions, backend) == expected
    assert any(CONTENT in line for a in expected["augmented"] for line in a.injected)


def test_text_side_holds_after_the_backend_scanned_other_stories():
    backend = RuleBackend()
    cfg = PipelineConfig(nkb_backend=backend)
    prepared = [prepare_story(story, questions, cfg) for story, questions in STORIES]
    # The backend keeps the last story's scan, so every earlier story's
    # records are generated from a new scan.
    for (story, questions), artifacts in zip(STORIES, prepared):
        expected = text_side(full_artifacts(story, questions, RuleBackend()), questions, backend)
        assert text_side(artifacts, questions, backend) == expected


@pytest.mark.parametrize("story, questions", STORIES, ids=IDS)
def test_symbolic_path_builds_no_content_record(story, questions, monkeypatch):
    built = []
    keyed_record = nkb.keyed_record

    def counting(event_index, entity, attribute, state, key):
        built.append(attribute)
        return keyed_record(event_index, entity, attribute, state, key)

    monkeypatch.setattr(nkb, "keyed_record", counting)
    cfg = PipelineConfig(nkb_backend=RuleBackend())
    artifacts = prepare_story(story, questions, cfg)
    for q in questions:
        answer_question(artifacts, q, cfg)
    assert built and CONTENT not in built

    artifacts.augmented
    assert CONTENT in built


@pytest.mark.parametrize("story, questions", STORIES, ids=IDS)
def test_a_three_query_backend_keeps_every_record(story, questions):
    backend = StoryStatesOnly()
    assert isinstance(backend, StateBackend)
    assert not hasattr(backend, "location_states")
    cfg = PipelineConfig(nkb_backend=backend)
    artifacts = prepare_story(story, questions, cfg)
    full = full_artifacts(story, questions, RuleBackend())
    assert identity(artifacts.records) == identity(full.records)

    rule = PipelineConfig()
    located = prepare_story(story, questions, rule)
    assert [answer_question(artifacts, q, cfg) for q in questions] == [
        answer_question(located, q, rule) for q in questions
    ]
    assert text_side(artifacts, questions, backend) == text_side(located, questions, RuleBackend())


def test_remote_backend_asks_three_times_per_cold_story_with_a_text_reader(tmp_path):
    generated = STORIES[:-1]
    transport = Transport(generated)
    client = ChatClient(base_url="http://llm.test/v1", model="replay", transport=transport)
    for cache_pass in ("cold", "warm"):
        backend = RemoteBackend(client, cache=RecordCache(tmp_path))
        assert not hasattr(backend, "location_states")
        cfg = PipelineConfig(nkb_backend=backend, answer_backend=RecordingAnswerer())
        for story, questions in generated:
            before = len(transport.requests)
            artifacts = prepare_story(story, questions, cfg)
            for q in questions:
                answer_question(artifacts, q, cfg)
            assert any(a.injected for a in artifacts.augmented)
            assert len(transport.requests) - before == (3 if cache_pass == "cold" else 0)
