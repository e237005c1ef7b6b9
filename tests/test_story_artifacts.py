"""`StoryArtifacts` built straight from a backend's scene columns.

`StoryArtifacts` takes a backend's :class:`mindmask.nkb.EventColumns` where
it takes records: the rule backend's scan (`scene_columns`) or the remote
backend's state rows (`state_columns`). It keeps them and builds `records`,
the columns' `locations`, the first time they are read. Artifacts made so
must be the ones `prepare_story` makes, and must build no character's
location record before something reads `records`.

`StoryArtifacts` is a plain class: its constructor takes the story, the
records or columns, the anchors and the omniscient graph, positionally or by
keyword, and nothing else; its caches are set there, not passed in.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from conftest import RecordingAnswerer
from test_location_records import IDS, STORIES, identity
from test_record_log import Transport
from mindmask import nkb
from mindmask.nkb import LOCATION, RuleBackend, extract_locations, generate_states, identify_key_entities
from mindmask.pipeline import PipelineConfig, StoryArtifacts, answer_question, prepare_story
from mindmask.remote import ChatClient, RemoteBackend
from mindmask.scene import build_omniscient_graph


def direct_artifacts(story, columns, backend) -> StoryArtifacts:
    anchors = extract_locations(story, backend)
    return StoryArtifacts(story, columns, anchors, build_omniscient_graph(story, columns, anchors))


def symbolic_side(artifacts, questions) -> dict:
    """What the symbolic path reads: no character's location record."""
    cfg = PipelineConfig()
    story = artifacts.story
    return {
        "assignment": artifacts.omniscient.assignment,
        "bits": artifacts.omniscient.bits,
        "observations": artifacts.omniscient._observations[2],
        "characters": [artifacts.character_graph(name).bits for name in story.characters],
        "targets": [
            identity(artifacts.target_records(q))
            for q in questions
            if q.target_entity.casefold() not in story.characters_by_key
        ],
        "answers": [answer_question(artifacts, q, cfg) for q in questions],
    }


def text_side(artifacts, questions) -> dict:
    """What reads `records`, and the text reader, which reads every record."""
    reader = RecordingAnswerer()
    cfg = PipelineConfig(answer_backend=reader)
    return {
        "records": identity(artifacts.records),
        "targets": [identity(artifacts.target_records(q)) for q in questions],
        "answers": [answer_question(artifacts, q, cfg) for q in questions],
        "seen": [(view.surviving, view.texts, asked, space) for view, asked, space, _ in reader.calls],
        "augmented": artifacts.augmented,
    }


def assert_as_prepared(direct, prepared, questions, character_records_built) -> None:
    assert "records" not in vars(direct)
    assert symbolic_side(direct, questions) == symbolic_side(prepared, questions)
    assert not character_records_built()
    assert text_side(direct, questions) == text_side(prepared, questions)
    assert character_records_built()
    assert direct.records is direct._scan.locations


@pytest.mark.parametrize("story, questions", STORIES, ids=IDS)
def test_artifacts_from_a_rule_scan_are_the_prepared_ones(story, questions, monkeypatch):
    built = []
    keyed_record = nkb.keyed_record

    def counting(event_index, entity, attribute, state, key):
        built.append(key)
        return keyed_record(event_index, entity, attribute, state, key)

    prepared = prepare_story(story, questions, PipelineConfig(nkb_backend=RuleBackend()))
    monkeypatch.setattr(nkb, "keyed_record", counting)
    backend = RuleBackend()
    scan = backend.scene_columns(story)
    direct = direct_artifacts(story, scan, backend)
    assert direct._scan is scan
    characters = {(key, LOCATION) for key in story.characters_by_key}
    assert_as_prepared(direct, prepared, questions, lambda: characters & set(built))


@pytest.mark.parametrize("story, questions", STORIES, ids=IDS)
def test_artifacts_from_remote_state_columns_are_the_prepared_ones(story, questions):
    client = ChatClient(base_url="http://llm.test/v1", model="replay", transport=Transport([(story, questions)]))
    backend = RemoteBackend(client)
    prepared = prepare_story(story, questions, PipelineConfig(nkb_backend=backend))
    columns = backend.state_columns(story, identify_key_entities(story, questions, backend))
    direct = direct_artifacts(story, columns, backend)
    assert direct._scan is columns
    # The columns hold the placements' records only; `records` builds the rest.
    assert_as_prepared(direct, prepared, questions, lambda: "records" in vars(columns))


def test_the_constructor_takes_four_arguments_and_no_cache():
    assert not dataclasses.is_dataclass(StoryArtifacts)
    parameters = list(inspect.signature(StoryArtifacts).parameters)
    assert parameters == ["story", "records", "anchors", "omniscient"]
    story, _ = STORIES[0]
    backend = RuleBackend()
    anchors = extract_locations(story, backend)
    scan = backend.scene_columns(story)
    omniscient = build_omniscient_graph(story, scan, anchors)
    for name in ("_scan", "_char_graphs", "_texts", "_by_target"):
        with pytest.raises(TypeError):
            StoryArtifacts(story, scan, anchors, omniscient, **{name: None})


@pytest.mark.parametrize("story, questions", STORIES, ids=IDS)
def test_a_list_given_is_records_itself(story, questions):
    backend = RuleBackend()
    records = generate_states(story, identify_key_entities(story, questions, backend), backend)
    anchors = extract_locations(story, backend)
    omniscient = build_omniscient_graph(story, records, anchors)
    positional = StoryArtifacts(story, records, anchors, omniscient)
    keyword = StoryArtifacts(omniscient=omniscient, anchors=anchors, records=records, story=story)
    for artifacts in (positional, keyword):
        assert vars(artifacts)["records"] is records
        assert artifacts.records is records
        assert artifacts._scan is None
        assert (artifacts.story, artifacts.anchors, artifacts.omniscient) == (story, anchors, omniscient)
        assert (artifacts._char_graphs, artifacts._texts, artifacts._by_target) == ({}, {}, {})
    assert symbolic_side(positional, questions) == symbolic_side(keyword, questions)


@pytest.mark.parametrize("story, questions", STORIES, ids=IDS)
def test_columns_give_records_on_first_read(story, questions):
    backend = RuleBackend()
    scan = backend.scene_columns(story)
    anchors = extract_locations(story, backend)
    omniscient = build_omniscient_graph(story, scan, anchors)
    positional = StoryArtifacts(story, scan, anchors, omniscient)
    keyword = StoryArtifacts(story=story, records=scan, anchors=anchors, omniscient=omniscient)
    for artifacts in (positional, keyword):
        assert artifacts._scan is scan
        assert "records" not in vars(artifacts)
        records = artifacts.records
        assert vars(artifacts)["records"] is records is artifacts._scan.locations
        assert artifacts.records is records
