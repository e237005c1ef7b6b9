"""The remote backend's state rows, read into scene columns in one pass,
against the route they replace.

`RemoteBackend.state_columns` reads a story's state rows once: it checks
each row's event index, casefolds each distinct (entity, attribute) pair and
fills the scene columns, keeping `merge_states`' rules. `prepare_story`
builds the omniscient graph from those columns and keeps them, and the
records are built from the rows only when read. The reference here is the
route the remote path took before: one record a row (`story_states`), then
`merge_states`, then `scene._columns` over the merged records inside
`build_omniscient_graph`. Everything a reader or a caller can see must be
the same on both routes.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mindmask.nkb as nkb
import mindmask.pipeline as pipeline
import mindmask.remote as remote
import mindmask.scene as scene
from conftest import RecordingAnswerer
from test_generator_digest import corpus
from test_location_records import SHAPES
from test_record_log import Transport
from mindmask.errors import CacheFormatError, ProtocolError
from mindmask.nkb import (
    LOCATION,
    EntityStateRecord,
    EventColumns,
    identify_key_entities,
    merge_states,
)
from mindmask.pipeline import PipelineConfig, StoryArtifacts, answer_question, prepare_story
from mindmask.remote import LOG_NAME, ChatClient, RecordCache, RemoteBackend, indexed_narrative, row_columns
from mindmask.scene import _columns, build_omniscient_graph
from mindmask.worldgen import GrammarConfig, generate_story

PROFILE = settings(max_examples=120, deadline=None, derandomize=True)
NAME = "remote:test-model"
CONFIGS = {
    "full": {},
    "no_ki": {"inject_knowledge": False},
    "no_im": {"apply_masking": False},
}


def reference_states(story, rows) -> list[EntityStateRecord]:
    """``story_states`` as it was: one record a row, in row order, built by
    the dataclass, each index checked."""
    records = []
    for row in rows:
        if type(row) is dict:
            row = row["event_index"], row["entity"], row["attribute"], row["state"]
        index, entity, attribute, state = row
        if not 1 <= index <= len(story.events):
            raise ProtocolError(f"backend asserted a state for unknown event {index}")
        records.append(EntityStateRecord(index, entity, attribute, state))
    return records


def identity(records) -> list:
    return [(type(r), vars(r)) for r in records]


def ordered(movers) -> list:
    return [list(moved.items()) for moved in movers]


def assert_same_graph(graph, reference) -> None:
    assert graph.assignment == reference.assignment
    assert graph.bits == reference.bits
    assert graph._observations[2] == reference._observations[2]


def check_rows(story, rows, anchors) -> None:
    """The columns, records and graph of ``rows`` against the reference."""
    merged = merge_states(reference_states(story, rows))
    columns = row_columns(story, rows, {})
    reference = _columns(story, merged)
    assert ordered(columns.movers) == ordered(reference.movers)
    assert [identity(placed) for placed in columns.placements] == [
        identity(placed) for placed in reference.placements
    ]
    assert columns.actors is None and columns.rooms == {}
    assert identity(columns.records) == identity(reference_states(story, rows))
    assert_same_graph(
        build_omniscient_graph(story, columns, anchors), build_omniscient_graph(story, merged, anchors)
    )
    assert identity(merge_states(columns.records)) == identity(merged)
    assert identity(columns.locations) == identity([r for r in merged if r.key[1] == LOCATION])


def outcomes(artifacts, questions) -> list:
    """Each question's outcome under every config, symbolic and with the
    recording answerer, and what the answerer saw."""
    seen = []
    for kwargs in CONFIGS.values():
        reader = RecordingAnswerer()
        for answer_backend in (None, reader):
            cfg = PipelineConfig(answer_backend=answer_backend, **kwargs)
            seen += [answer_question(artifacts, q, cfg) for q in questions]
        seen += reader.calls
    return seen


def assert_same_artifacts(artifacts, rows, questions) -> None:
    """A prepared story against artifacts made as the remote path made
    them: from every merged record of the rows."""
    story, anchors = artifacts.story, artifacts.anchors
    assert isinstance(artifacts._scan, EventColumns)
    merged = merge_states(reference_states(story, rows))
    omniscient = build_omniscient_graph(story, merged, anchors)
    reference = StoryArtifacts(story=story, records=merged, anchors=anchors, omniscient=omniscient)
    assert_same_graph(artifacts.omniscient, reference.omniscient)
    for name in story.characters:
        assert artifacts.character_graph(name).bits == reference.character_graph(name).bits
    for q in questions:
        assert identity(artifacts.target_records(q)) == identity(reference.target_records(q))
    assert outcomes(artifacts, questions) == outcomes(reference, questions)
    assert identity(artifacts.records) == identity([r for r in merged if r.key[1] == LOCATION])
    assert [a.injected for a in artifacts.augmented] == [a.injected for a in reference.augmented]
    assert artifacts.view_texts(True) == reference.view_texts(True)


def client(transport) -> ChatClient:
    return ChatClient(base_url="http://llm.test/v1", model="test-model", transport=transport)


def rendered(rows) -> str:
    """A state reply whose lines parse back into ``rows``."""
    return "".join(f"- {i}: {attr} of {entity} becomes {state}\n" for i, entity, attr, state in rows)


# -- drawn state replies ------------------------------------------------------------

STORIES = [
    generate_story(GrammarConfig(seed=seed, num_characters=3, num_rooms=2, max_order=3, allow_reentry=True))
    for seed in (1, 2, 3)
]


def spellings(name: str):
    return st.sampled_from([name, name.upper(), name.lower()])


@st.composite
def replies(draw):
    """A story and state rows for it: rows out of event order, repeated
    (event, key) rows, ``Location of MIA`` spellings, group enters in any
    row order, entities that are no character, and content rows."""
    story, questions = draw(st.sampled_from(STORIES))
    characters = list(story.characters)
    objects = sorted({q.target_entity for q in questions}) + ["Stranger"]
    places = [f"in the {room}" for room in ("kitchen", "hall", "garden")]
    states = st.sampled_from(places + ["outside the hall", "in the basket", "nowhere", "empty"])
    index = st.integers(1, len(story.events))
    entity = st.sampled_from(characters + objects).flatmap(spellings)
    attribute = st.sampled_from(["location", "Location", "LOCATION", "content", "Content"])
    rows = draw(st.lists(st.tuples(index, entity, attribute, states).map(list), min_size=1, max_size=30))
    # The same (event, key) again, spelled otherwise, with another state.
    for row in draw(st.lists(st.sampled_from(rows), max_size=5)):
        rows.append([row[0], draw(spellings(row[1])), row[2].capitalize(), draw(states)])
    # Group enters, and several entities that are no character placed at
    # one event, in any row order.
    for group in (characters, objects):
        for _ in range(draw(st.integers(0, 3))):
            names = draw(st.permutations(group))[: draw(st.integers(2, len(group)))]
            at, place = draw(index), draw(st.sampled_from(places))
            rows += [[at, name, "location", place] for name in names]
    return story, questions, draw(st.permutations(rows))


def as_logged(rows, flags) -> list:
    """``rows`` with each flagged one a dict row, as older logs hold them."""
    keys = ("event_index", "entity", "attribute", "state")
    return [dict(zip(keys, row)) if flag else row for row, flag in zip(rows, flags)]


@PROFILE
@given(drawn=replies(), data=st.data())
def test_drawn_rows_read_as_the_reference(drawn, data):
    story, questions, rows = drawn
    logged = as_logged(rows, data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows))))
    transport = Transport([(story, questions)])
    transport.replies["generate_states", indexed_narrative(story)] = rendered(rows)
    anchors = nkb.build_anchors(["kitchen", "hall", "garden"])
    check_rows(story, rows, anchors)
    check_rows(story, logged, anchors)

    with tempfile.TemporaryDirectory() as directory:
        # Fresh rows from the reply, stored as parsed.
        cache = RecordCache(directory)
        backend = RemoteBackend(client(transport), cache=cache)
        artifacts = prepare_story(story, questions, PipelineConfig(nkb_backend=backend))
        assert_same_artifacts(artifacts, rows, questions)
        targets = identify_key_entities(story, questions, backend)
        assert cache.load(story, targets, NAME) == rows
        assert identity(backend.story_states(story, targets)) == identity(reference_states(story, rows))

        # The same entry rewritten with dict rows, read back from the log.
        cache.store(story, targets, NAME, logged)
        requests = len(transport.requests)
        backend = RemoteBackend(client(transport), cache=RecordCache(directory))
        artifacts = prepare_story(story, questions, PipelineConfig(nkb_backend=backend))
        assert len(transport.requests) == requests
        assert artifacts._scan.rows == logged
        assert_same_artifacts(artifacts, logged, questions)
        assert identity(backend.story_states(story, targets)) == identity(reference_states(story, logged))


# -- the benchmark shapes ------------------------------------------------------------


@pytest.mark.parametrize("seed", (1, 1009))
def test_benchmark_shapes_read_as_the_reference_cold_and_warm(seed, tmp_path):
    # Every 40th story of the four benchmark corpora and the grid.
    items = corpus(seed)[::40]
    transport = Transport(items)
    parser = RemoteBackend(client(transport))
    replies = [
        parser._parse_records(transport.replies["generate_states", indexed_narrative(story)])
        for story, _ in items
    ]
    for requests_per_story in (3, 0):  # the cold pass, then the warm one on the same cache
        cache = RecordCache(tmp_path)
        backend = RemoteBackend(client(transport), cache=cache)
        cfg = PipelineConfig(nkb_backend=backend)
        for (story, questions), rows in zip(items, replies):
            before = len(transport.requests)
            artifacts = prepare_story(story, questions, cfg)
            assert len(transport.requests) - before == requests_per_story
            targets = identify_key_entities(story, questions, backend)
            assert cache.load(story, targets, NAME) == rows
            check_rows(story, rows, artifacts.anchors)
            assert_same_artifacts(artifacts, rows, questions)
            assert identity(backend.story_states(story, targets)) == identity(reference_states(story, rows))
    assert {len(story.characters) for story, _ in items} >= {2, 5}


# -- pinned cases ---------------------------------------------------------------------

STORY, QUESTIONS = STORIES[0]


@pytest.mark.parametrize("index", (0, len(STORY.events) + 1))
def test_a_row_naming_no_event_raises_and_is_never_cached(index, tmp_path):
    rows = [[1, STORY.characters[0], "location", "in the hall"], [index, "box", "location", "in the hall"]]
    transport = Transport([(STORY, QUESTIONS)])
    transport.replies["generate_states", indexed_narrative(STORY)] = rendered(rows)
    targets = [nkb.EntityAttribute("box", "location")]
    for query in ("state_columns", "story_states"):
        backend = RemoteBackend(client(transport), cache=RecordCache(tmp_path))
        with pytest.raises(ProtocolError, match=f"unknown event {index}"):
            getattr(backend, query)(STORY, targets)
    log = tmp_path / LOG_NAME
    assert not log.exists() or log.read_bytes() == b""
    with pytest.raises(ProtocolError):
        row_columns(STORY, as_logged(rows, [True, True]), {})


def test_a_badly_shaped_cached_row_names_the_log_and_line(tmp_path):
    targets = [nkb.EntityAttribute("box", "location")]
    cache = RecordCache(tmp_path)
    cache.store(STORY, targets, NAME, [[1, "box", "location", "in the hall"]])
    cache.store(STORY, targets, NAME, [[1, "box", "location"]])
    backend = RemoteBackend(client(Transport([])), cache=RecordCache(tmp_path))
    with pytest.raises(CacheFormatError, match=rf"{LOG_NAME}: line 2 is not a generate_states reply"):
        backend.state_columns(STORY, targets)


def test_a_symbolic_remote_pass_merges_nothing_and_builds_no_content_record(tmp_path, monkeypatch):
    counts = {"merge_states": 0, "_columns": 0, "content records": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    def counting_records(module):
        original = module.keyed_record

        def counted(index, entity, attribute, state, key):
            counts["content records"] += key[1] != LOCATION
            return original(index, entity, attribute, state, key)

        monkeypatch.setattr(module, "keyed_record", counted)

    items = [generate_story(GrammarConfig(seed=seed, **SHAPES["deep_chains"])) for seed in (5, 6, 7)]
    transport = Transport(items)
    states = [reply for (template, _), reply in transport.replies.items() if template == "generate_states"]
    assert len(states) == 3 and all("content of" in reply for reply in states)
    for module in (nkb, pipeline):
        counting(module, "merge_states")
    counting(scene, "_columns")
    counting_records(nkb)
    counting_records(remote)
    for _ in ("cold", "warm"):
        cfg = PipelineConfig(nkb_backend=RemoteBackend(client(transport), cache=RecordCache(tmp_path)))
        for story, questions in items:
            artifacts = prepare_story(story, questions, cfg)
            for q in questions:
                answer_question(artifacts, q, cfg)
    assert counts == {"merge_states": 0, "_columns": 0, "content records": 0}
