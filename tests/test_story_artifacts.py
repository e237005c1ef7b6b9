"""`StoryArtifacts` built straight from a backend's scene columns.

`StoryArtifacts` takes a backend's :class:`mindmask.nkb.EventColumns` where
it takes records: the rule backend's scan (`scene_columns`) or the remote
backend's state rows (`state_columns`). It keeps them and builds `records`,
the columns' `locations`, the first time they are read. Artifacts made so
must be the ones `prepare_story` makes, and must build no character's
location record before something reads `records`.
"""

from __future__ import annotations

import pytest

from conftest import RecordingAnswerer
from test_location_records import IDS, STORIES, identity
from test_record_log import Transport
from mindmask import nkb
from mindmask.nkb import LOCATION, RuleBackend, extract_locations, identify_key_entities
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
