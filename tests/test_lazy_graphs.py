"""Graphs and place resolutions built only when read, against eager ones.

- A character graph or a `mask_chain` view keeps its bits and its base
  graph and makes its room tuple the first time `assignment` is read. It
  must equal, in every observable way, the graph the eager view (kept here
  as `_eager_view`) gives.
- The symbolic path (answers, `bits`, `surviving()`, `len()`) must never
  make a room tuple.
- The place memo, `_Rooms`, asks `canonicalize_location` once per distinct
  phrase and must give what it gives. It is one table per backend and room
  set on the rule path, and one per story on the remote path and the
  records route. The
  resolver returns None for a phrase no alias can hold before it tests for
  negation.
"""

from __future__ import annotations

import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mindmask.nkb as nkb
import mindmask.scene as scene
from mindmask.nkb import LocationAnchor, canonicalize_location
from mindmask.pipeline import PipelineConfig, answer_question, prepare_story
from mindmask.scene import (
    NULL,
    SceneGraph,
    _Rooms,
    build_character_graph,
    mask,
    mask_bits,
    mask_chain,
)
from mindmask.textnorm import normalize_place
from mindmask.worldgen import GrammarConfig, generate_story

PROFILE = settings(max_examples=300, deadline=None, derandomize=True)

# The story shapes of the benchmark workloads; remote_replay shares the
# deep_chains shape. The oracle_grid row is one cell of its grid.
SHAPES = {
    "deep_chains": dict(num_characters=5, num_rooms=4, max_order=4, allow_reentry=True),
    "long_stories": dict(
        num_characters=2,
        num_rooms=12,
        num_containers_per_room=3,
        moves_per_room=3,
        max_order=2,
        allow_reentry=True,
    ),
    "oracle_grid": dict(
        num_characters=3, num_rooms=2, num_objects=2, num_containers_per_room=3, max_order=3
    ),
}
STORIES = [
    pytest.param(*generate_story(GrammarConfig(seed=base + i, **shape)), id=f"{name}-{base + i}")
    for name, shape in SHAPES.items()
    for base in (1, 1009)
    for i in range(3)
]


def _eager_view(graph: SceneGraph, bits: int) -> SceneGraph:
    """The view as it was built before rooms were made on first read:
    `graph` with every event outside `bits` nulled, its bits already set."""
    flags = f"{bits:0{len(graph)}b}"[::-1]
    kept = [room if flag == "1" else NULL for room, flag in zip(graph.assignment, flags)]
    view = object.__new__(SceneGraph)
    view.__dict__.update(
        assignment=tuple(kept), location_set=graph.location_set, _observations=None, bits=bits
    )
    return view


def _assert_same_graph(lazy: SceneGraph, eager: SceneGraph) -> None:
    # What the symbolic path reads comes from the bits alone.
    assert lazy.bits == eager.bits
    assert len(lazy) == len(eager)
    assert lazy.surviving() == eager.surviving()
    assert "assignment" not in vars(lazy)
    # Everything else reads the rooms, made here on first read.
    assert lazy.assignment == eager.assignment
    assert lazy == eager and eager == lazy
    assert hash(lazy) == hash(eager)
    assert repr(lazy) == repr(eager)
    assert json.dumps(lazy.to_json()) == json.dumps(eager.to_json())
    assert lazy.location_set == eager.location_set
    assert lazy._observations is None


@pytest.mark.parametrize("story, questions", STORIES)
def test_character_graphs_equal_eager_views(story, questions):
    artifacts = prepare_story(story, questions, PipelineConfig())
    omniscient = artifacts.omniscient
    for name in story.characters:
        lazy = build_character_graph(story, artifacts.records, artifacts.anchors, name, omniscient)
        eager = _eager_view(omniscient, omniscient._observations[2][name.casefold()])
        _assert_same_graph(lazy, eager)


@pytest.mark.parametrize("story, questions", STORIES)
def test_mask_chain_views_equal_eager_views(story, questions):
    artifacts = prepare_story(story, questions, PipelineConfig())
    omniscient = artifacts.omniscient
    for q in questions:
        chain = [artifacts.character_graph(c) for c in q.chain_names]
        if not chain:
            assert mask_chain(omniscient, chain) is omniscient
            continue
        bits = mask_bits(omniscient, chain)
        _assert_same_graph(mask_chain(omniscient, chain), _eager_view(omniscient, bits))
        # Views over a view: the first chain member's graph masked by the rest.
        first, rest = chain[0], chain[1:]
        eager_first = _eager_view(omniscient, first.bits)
        if rest:
            _assert_same_graph(
                mask_chain(first, rest), _eager_view(eager_first, mask_bits(eager_first, rest))
            )
        _assert_same_graph(
            mask(first, chain[-1]), _eager_view(eager_first, first.bits & chain[-1].bits)
        )


def _count_room_builds(monkeypatch) -> list:
    built = []
    kept_rooms = scene._kept_rooms

    def counted(rooms, bits):
        built.append(bits)
        return kept_rooms(rooms, bits)

    monkeypatch.setattr(scene, "_kept_rooms", counted)
    return built


@pytest.mark.parametrize("story, questions", STORIES)
def test_symbolic_path_builds_no_room_tuple(story, questions, monkeypatch):
    built = _count_room_builds(monkeypatch)
    cfg = PipelineConfig()
    artifacts = prepare_story(story, questions, cfg)
    for q in questions:
        answer_question(artifacts, q, cfg)
    for name in story.characters:
        graph = artifacts.character_graph(name)
        graph.surviving(), len(graph), graph.bits
    assert built == []

    # A text reader's rooms are made once per graph, on first read.
    graph = artifacts.character_graph(story.characters[0])
    assert graph.assignment is graph.assignment
    assert built == [graph.bits]


def test_eager_graph_keeps_its_rooms_and_rejects_unknown_attributes():
    graph = SceneGraph(assignment=("attic", None, "attic"), location_set=frozenset({"attic"}))
    assert len(graph) == 3
    assert graph.bits == 0b101
    assert graph.surviving() == (1, 3)
    assert SceneGraph(assignment=(), location_set=frozenset()).surviving() == ()
    with pytest.raises(AttributeError):
        graph.rooms
    with pytest.raises(AttributeError):
        scene._view(graph, 0b001).rooms


# ---------------------------------------------------------------------------
# The place resolver

# Room names whose aliases hold one another under substring matching, and
# plain ones.
_ROOMS = ["room", "waiting room", "bedroom", "Kitchen", "left wing", "Outside Patio", "attic"]
_PIECES = st.sampled_from(
    ["in", "the", "a", "not", "not in", "outside", "absent", "left", "away", "red", "crate",
     "room", "waiting", "bed", "bedroom", "kitchen", "wing", "patio", "attic", "Attic", ".",
     ",", "-", "!", " ", "  ", "\t", ""]
)


@st.composite
def _anchors(draw) -> list[LocationAnchor]:
    names = draw(st.lists(st.sampled_from(_ROOMS), min_size=1, max_size=5))
    anchors = [LocationAnchor(name=name, alias=normalize_place(name)) for name in names]
    if draw(st.booleans()):
        # Only a direct caller can pass an empty alias.
        anchors.insert(draw(st.integers(0, len(anchors))), LocationAnchor(name="Nowhere", alias=""))
    return anchors


def _resolved(phrase: str, anchors) -> str | None:
    anchor = canonicalize_location(phrase, anchors)
    return anchor.name if anchor else None


@PROFILE
@given(_anchors(), st.lists(st.lists(_PIECES, max_size=6).map(" ".join), max_size=6))
def test_rooms_equal_canonicalize_location(anchors, phrases):
    rooms = _Rooms(anchors)
    for phrase in phrases + [""]:
        assert rooms[phrase] == _resolved(phrase, anchors), phrase
        assert rooms[phrase] == _resolved(phrase, anchors), phrase  # the memoized entry


def _count_resolutions(monkeypatch) -> list:
    calls = []
    resolve = scene.canonicalize_location

    def counted(raw, anchors):
        calls.append(raw)
        return resolve(raw, anchors)

    monkeypatch.setattr(scene, "canonicalize_location", counted)
    return calls


def test_phrases_no_alias_can_hold_skip_the_negation_test(monkeypatch):
    negation_tests = []
    is_negated = nkb.is_negated_place
    monkeypatch.setattr(nkb, "is_negated_place", lambda raw: negation_tests.append(raw) or is_negated(raw))
    anchors = [LocationAnchor("Kitchen", "kitchen"), LocationAnchor("waiting room", "waiting room")]
    assert canonicalize_location("in the red crate", anchors) is None
    assert canonicalize_location("outside the red crate", anchors) is None
    assert canonicalize_location("Kitchen.", anchors).name == "Kitchen"  # an exact alias
    assert negation_tests == []
    assert canonicalize_location("the kitchen table", anchors).name == "Kitchen"  # an alias inside
    assert canonicalize_location("waiting", anchors).name == "waiting room"  # inside an alias
    assert canonicalize_location("outside the kitchen", anchors) is None  # negated
    assert negation_tests == ["the kitchen table", "waiting", "outside the kitchen"]


def test_rooms_ask_the_resolver_once_per_distinct_phrase(monkeypatch):
    calls = _count_resolutions(monkeypatch)
    anchors = [LocationAnchor("Kitchen", "kitchen"), LocationAnchor("waiting room", "waiting room")]
    rooms = _Rooms(anchors)
    phrases = ["in the red crate", "Kitchen.", "in the red crate", "the kitchen table", "Kitchen."]
    assert [rooms[p] for p in phrases] == [None, "Kitchen", None, "Kitchen", "Kitchen"]
    assert calls == ["in the red crate", "Kitchen.", "the kitchen table"]


def test_empty_alias_still_reaches_the_resolver(monkeypatch):
    calls = _count_resolutions(monkeypatch)
    anchors = [LocationAnchor("Nowhere", ""), LocationAnchor("Kitchen", "kitchen")]
    rooms = _Rooms(anchors)
    assert rooms["in the red crate"] == _resolved("in the red crate", anchors)
    assert calls == ["in the red crate"]


def test_ambiguous_phrase_still_logs_the_warning(caplog):
    anchors = [LocationAnchor(name, normalize_place(name)) for name in ("room", "waiting room", "bedroom")]
    with caplog.at_level(logging.WARNING, logger="mindmask.nkb"):
        assert _Rooms(anchors)["in the bedroom by the waiting room"] is None
    assert "ambiguous place" in caplog.text
