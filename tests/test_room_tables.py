"""Room tables shared across stories, against the resolver they stand for.

A `RuleBackend` keeps one room table per anchor set (``frozenset`` of its
anchors) for its lifetime, and its scans carry them as
``EventColumns.rooms``. `build_omniscient_graph` resolves a location state
through the table of the story's anchor set, so a phrase is resolved once
per backend and room set, whatever story repeats it. Resolution depends on
the set alone only when no alias repeats, so a list with a repeated alias
or anchor gets a table of the story's own, as the records route always
does.

- Every entry of a shared table, filled through one anchor set in several
  list orders, equals `canonicalize_location` for each order; a list with a
  repeated alias or anchor leaves the shared tables alone.
- On the four benchmark corpora a backend that has scanned other stories
  builds the graphs the records route builds.
- A pass resolves each distinct (room set, phrase) pair once, a second
  pass on the same backend none, and a new backend starts empty; an
  ambiguous phrase logs its warning once per backend and room set.
- A `RemoteBackend` keeps its tables the same way, its columns carrying
  them, and over replayed replies builds the graphs the records route
  builds from the same state rows.
"""

from __future__ import annotations

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_generator_digest import corpus
from test_lazy_graphs import _PIECES, _ROOMS
from test_record_log import Transport
from test_scene_columns import names_an_object_like_a_character
from mindmask import scene
from mindmask.nkb import (
    EventColumns,
    LocationAnchor,
    RuleBackend,
    canonicalize_location,
    extract_locations,
    identify_key_entities,
    merge_states,
)
from mindmask.pipeline import PipelineConfig, answer_question, prepare_story
from mindmask.remote import ChatClient, RemoteBackend
from mindmask.scene import build_omniscient_graph
from mindmask.story import Event, Story
from mindmask.textnorm import normalize_place

PROFILE = settings(max_examples=200, deadline=None, derandomize=True)

_PHRASES = st.lists(st.lists(_PIECES, max_size=6).map(" ".join), min_size=1, max_size=8)


def _resolved(phrase: str, anchors) -> str | None:
    anchor = canonicalize_location(phrase, anchors)
    return anchor.name if anchor else None


@st.composite
def _room_set(draw) -> list[LocationAnchor]:
    """Anchors with distinct aliases, an empty one among them at times."""
    names = draw(st.lists(st.sampled_from(_ROOMS), min_size=1, max_size=5, unique_by=normalize_place))
    anchors = [LocationAnchor(name=name, alias=normalize_place(name)) for name in names]
    if draw(st.booleans()):
        anchors.append(LocationAnchor(name="Nowhere", alias=""))
    return anchors


def _tables_seen(monkeypatch) -> list:
    """Every room table `build_omniscient_graph` makes, in order."""
    made = []

    class Rooms(scene._Rooms):
        def __init__(self, anchors):
            super().__init__(anchors)
            made.append(self)

    monkeypatch.setattr(scene, "_Rooms", Rooms)
    return made


def _build(phrases: list[str], anchors: list[LocationAnchor], tables: dict | None):
    """A one-character story moving to each phrase in turn, through columns
    carrying `tables`."""
    story = Story(events=tuple(Event(i, "x") for i in range(1, len(phrases) + 1)), characters=("Ava",))
    n = len(phrases)
    columns = EventColumns([{"ava": p} for p in phrases], [()] * n, [()] * n, tables)
    return build_omniscient_graph(story, columns, anchors)


@PROFILE
@given(st.data(), _room_set(), _PHRASES)
def test_one_table_per_room_set_equals_the_resolver_in_every_order(data, anchors, phrases):
    orders = data.draw(st.lists(st.permutations(anchors), min_size=1, max_size=4))
    tables: dict = {}
    graphs = [_build(phrases, list(order), tables) for order in orders]
    assert list(tables) == [frozenset(anchors)]
    table = tables[frozenset(anchors)]
    assert set(table) == set(phrases)
    for order in orders:
        for phrase in phrases:
            assert table[phrase] == _resolved(phrase, order), (phrase, order)
    assert len({(g.assignment, g.bits) for g in graphs}) == 1


@PROFILE
@given(st.data(), _room_set(), _PHRASES)
def test_a_repeated_alias_or_anchor_gets_a_table_of_its_own(data, anchors, phrases):
    twin = data.draw(st.sampled_from(anchors))
    if data.draw(st.booleans()):
        twin = LocationAnchor(name=f"the {twin.name}", alias=twin.alias)  # a repeated alias
    repeated = list(anchors)
    repeated.insert(data.draw(st.integers(0, len(repeated))), twin)
    tables: dict = {}
    for _ in range(2):
        with pytest.MonkeyPatch.context() as monkeypatch:
            made = _tables_seen(monkeypatch)
            _build(phrases, repeated, tables)
        assert tables == {}
        (table,) = made
        assert table.anchors is repeated
        for phrase in phrases:
            assert table[phrase] == _resolved(phrase, repeated), phrase


@pytest.mark.parametrize("seed", [1, 1009])
def test_shared_tables_build_the_records_routes_graphs_on_the_benchmark_corpora(seed):
    backend = RuleBackend()
    for story, _ in corpus(seed):
        scan = backend.scene_columns(story)
        if names_an_object_like_a_character(story, scan):
            continue
        anchors = extract_locations(story, backend)
        from_scan = build_omniscient_graph(story, scan, anchors)
        from_records = build_omniscient_graph(story, list(backend.scene_columns(story).locations), anchors)
        assert from_scan.assignment == from_records.assignment
        assert from_scan.bits == from_records.bits
        assert from_scan._observations[2] == from_records._observations[2]
    # The tables were shared: one a room set, fewer than the stories.
    assert 0 < len(scan.rooms) < len(corpus(seed))


# -- resolution counts ------------------------------------------------------------


def _count_resolutions(monkeypatch) -> list:
    calls = []
    resolve = scene.canonicalize_location

    def counted(raw, anchors):
        calls.append((frozenset(anchors), raw))
        return resolve(raw, anchors)

    monkeypatch.setattr(scene, "canonicalize_location", counted)
    return calls


def _one_pass(items, cfg) -> None:
    for story, questions in items:
        artifacts = prepare_story(story, questions, cfg)
        for q in questions:
            answer_question(artifacts, q, cfg)


def _distinct_pairs(items) -> set:
    backend = RuleBackend()
    pairs = set()
    for story, _ in items:
        room_set = frozenset(extract_locations(story, backend))
        pairs |= {(room_set, r.state) for r in backend.scene_columns(story).locations}
    return pairs


# Where each rule corpus sits in `corpus(1)`, and how many distinct
# (room set, phrase) pairs it holds.
@pytest.mark.parametrize(
    "start, stop, pairs", [(0, 400, 6743), (400, 600, 169)], ids=["deep_chains", "long_stories"]
)
def test_a_pass_resolves_each_room_set_and_phrase_once(start, stop, pairs, monkeypatch):
    items = corpus(1)[start:stop]
    calls = _count_resolutions(monkeypatch)
    cfg = PipelineConfig(nkb_backend=RuleBackend())
    _one_pass(items, cfg)
    assert len(calls) == len(set(calls)) == pairs
    assert set(calls) == _distinct_pairs(items)

    # The same backend again: every pair is in its tables.
    calls.clear()
    _one_pass(items, cfg)
    assert calls == []

    # A new backend starts empty.
    _one_pass(items, PipelineConfig(nkb_backend=RuleBackend()))
    assert len(calls) == pairs


AMBIGUOUS = (
    "Ava entered the room.",
    "Ava entered the waiting room.",
    "Ava entered the bedroom.",
    "The hat is in the bedroom by the waiting room.",
)


def _story(lines) -> Story:
    return Story(events=tuple(Event(i, text) for i, text in enumerate(lines, start=1)), characters=("Ava",))


def _warnings(caplog, backend, story) -> int:
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="mindmask.nkb"):
        if isinstance(backend, RuleBackend):
            columns = backend.scene_columns(story)
        else:
            columns = backend.state_columns(story, [])
        build_omniscient_graph(story, columns, extract_locations(story, backend))
    return caplog.text.count("ambiguous place")


def test_an_ambiguous_phrase_warns_once_per_backend_and_room_set(caplog):
    backend = RuleBackend()
    assert _warnings(caplog, backend, _story(AMBIGUOUS)) == 1
    # Another story over the same room set, its anchors in another order.
    reordered = _story((AMBIGUOUS[2], AMBIGUOUS[0], AMBIGUOUS[1], AMBIGUOUS[3]))
    assert _warnings(caplog, backend, reordered) == 0
    # Another room set resolves, and warns, again.
    assert _warnings(caplog, backend, _story(("Ava entered the attic.",) + AMBIGUOUS)) == 1
    assert _warnings(caplog, RuleBackend(), _story(AMBIGUOUS)) == 1


# -- the remote backend, with replayed replies -------------------------------------

# Where the remote_replay corpus sits in `corpus(seed)`.
REMOTE_REPLAY = slice(600, 1000)


def _remote(transport) -> RemoteBackend:
    return RemoteBackend(ChatClient(base_url="http://llm.test/v1", model="test-model", transport=transport))


def test_a_remote_backend_resolves_each_room_set_and_phrase_once(monkeypatch):
    items = corpus(1)[REMOTE_REPLAY]
    transport = Transport(items)
    calls = _count_resolutions(monkeypatch)
    cfg = PipelineConfig(nkb_backend=_remote(transport))
    _one_pass(items, cfg)
    assert len(calls) == len(set(calls)) == 6900
    assert set(calls) == _distinct_pairs(items)

    # The same backend again: every pair is in its tables.
    calls.clear()
    _one_pass(items, cfg)
    assert calls == []

    # A new backend starts empty.
    _one_pass(items, PipelineConfig(nkb_backend=_remote(transport)))
    assert len(calls) == 6900


def test_a_new_remote_backend_starts_with_empty_tables_and_keeps_them():
    items = corpus(1)[REMOTE_REPLAY][:3]
    transport = Transport(items)
    tables = None
    for backend in (_remote(transport), _remote(transport)):
        for n, (story, questions) in enumerate(items):
            columns = backend.state_columns(story, identify_key_entities(story, questions, backend))
            if n == 0:
                assert columns.rooms == {} and columns.rooms is not tables
                tables = columns.rooms
            assert columns.rooms is tables
            anchors = extract_locations(story, backend)
            build_omniscient_graph(story, columns, anchors)
            assert frozenset(anchors) in tables


@pytest.mark.parametrize("seed", [1, 1009])
def test_a_remote_backends_tables_build_the_records_routes_graphs(seed):
    items = corpus(seed)[REMOTE_REPLAY]
    backend = _remote(Transport(items))
    for story, questions in items:
        targets = identify_key_entities(story, questions, backend)
        columns = backend.state_columns(story, targets)
        anchors = extract_locations(story, backend)
        from_rows = build_omniscient_graph(story, columns, anchors)
        from_records = build_omniscient_graph(story, merge_states(backend.story_states(story, targets)), anchors)
        assert from_rows.assignment == from_records.assignment
        assert from_rows.bits == from_records.bits
        assert from_rows._observations[2] == from_records._observations[2]
    # The tables were shared: one a room set, fewer than the stories.
    assert 0 < len(columns.rooms) < len(items)


def test_an_ambiguous_phrase_warns_once_per_remote_backend_and_room_set(caplog):
    stories = [_story(AMBIGUOUS), _story((AMBIGUOUS[2], AMBIGUOUS[0], AMBIGUOUS[1], AMBIGUOUS[3]))]
    transport = Transport([(story, []) for story in stories])
    backend = _remote(transport)
    assert _warnings(caplog, backend, stories[0]) == 1
    assert _warnings(caplog, backend, stories[1]) == 0
    assert _warnings(caplog, _remote(transport), stories[0]) == 1
