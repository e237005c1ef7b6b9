"""Bitset scene graphs against tuple-based references, and the per-story
work the scene layer does once."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindmask import pipeline, scene
from mindmask.errors import ValidationError
from mindmask.inject import AugmentedEvent
from mindmask.nkb import canonicalize_location
from mindmask.pipeline import PipelineConfig, answer_question, prepare_story
from mindmask.scene import (
    NULL,
    SceneGraph,
    build_character_graph,
    mask,
    mask_bits,
    mask_chain,
    retrieve_events,
)
from mindmask.worldgen import GrammarConfig, generate_story

ROOMS = ("porch", "hall", "attic", "waiting room")
DEEP_CHAINS = dict(num_characters=5, num_rooms=4, max_order=4, allow_reentry=True)
LONG_STORIES = dict(
    num_characters=2,
    num_rooms=12,
    num_containers_per_room=3,
    moves_per_room=3,
    max_order=2,
    allow_reentry=True,
)


# -- the tuple fold the bitsets replace ---------------------------------------


def reference_mask(g: SceneGraph, gc: SceneGraph) -> SceneGraph:
    if len(g) != len(gc):
        raise ValidationError("size mismatch")
    assignment = tuple(
        room if room is not None and other is not None else NULL
        for room, other in zip(g.assignment, gc.assignment)
    )
    return SceneGraph(assignment=assignment, location_set=g.location_set)


def reference_mask_chain(g: SceneGraph, chain: list[SceneGraph]) -> SceneGraph:
    masked = g
    for gc in chain:
        masked = reference_mask(masked, gc)
    return masked


def reference_surviving(graph: SceneGraph) -> tuple[int, ...]:
    return tuple(i for i, room in enumerate(graph.assignment, start=1) if room is not None)


def assert_same_graph(got: SceneGraph, want: SceneGraph):
    assert got == want
    assert got.surviving() == reference_surviving(want)
    # Bits carried by a derived graph match bits read from its assignment.
    assert got.bits == SceneGraph(got.assignment, got.location_set).bits
    assert got.bits == sum(1 << (i - 1) for i in reference_surviving(want))


@st.composite
def graphs_and_chain(draw):
    # Past 64 events, so the bitsets outgrow one machine word.
    n = draw(st.integers(min_value=0, max_value=80))
    rooms = st.lists(st.sampled_from(ROOMS + (NULL,)), min_size=n, max_size=n)

    def graph():
        return SceneGraph(assignment=tuple(draw(rooms)), location_set=frozenset(ROOMS))

    g = graph()
    chain = [graph() for _ in range(draw(st.integers(min_value=0, max_value=5)))]
    return g, chain


@settings(max_examples=300, deadline=None)
@given(graphs_and_chain())
def test_mask_and_mask_chain_match_the_tuple_fold(drawn):
    g, chain = drawn
    for gc in chain:
        assert_same_graph(mask(g, gc), reference_mask(g, gc))
    assert_same_graph(mask_chain(g, chain), reference_mask_chain(g, chain))
    masked = mask_chain(g, chain)
    assert mask_bits(g, chain) == masked.bits
    texts = [f"event {i}" for i in range(1, len(g) + 1)]
    view = retrieve_events(masked, texts)
    assert view.surviving == reference_surviving(reference_mask_chain(g, chain))
    assert view.texts == tuple(texts[i - 1] for i in view.surviving)


@settings(max_examples=100, deadline=None)
@given(graphs_and_chain(), st.integers(min_value=1, max_value=3))
def test_size_mismatch_still_raises(drawn, extra):
    g, chain = drawn
    longer = SceneGraph(assignment=(NULL,) * (len(g) + extra), location_set=frozenset(ROOMS))
    with pytest.raises(ValidationError):
        mask(g, longer)
    with pytest.raises(ValidationError):
        mask_chain(g, chain + [longer])


# -- character graphs against each character's own records --------------------


def reference_character_graph(story, records, anchors, omniscient, name) -> tuple:
    """The rule ``room in (track[i], track[i-1])``, with the track read from
    the character's own location records."""
    own = {
        r.event_index: r.state
        for r in records
        if r.attribute == "location" and r.entity.casefold() == name.casefold()
    }
    track = [None]
    for index in range(1, len(story.events) + 1):
        room = track[-1]
        if index in own:
            anchor = canonicalize_location(own[index], anchors)
            room = anchor.name if anchor else None
        track.append(room)
    return tuple(
        room if room is not None and room in (track[i], track[i - 1]) else NULL
        for i, room in enumerate(omniscient.assignment, start=1)
    )


@pytest.mark.parametrize(
    "shape, seeds",
    [(DEEP_CHAINS, range(500, 620)), (LONG_STORIES, range(700, 820))],
    ids=["deep_chains", "long_stories"],
)
def test_pipeline_character_graphs_match_reference(shape, seeds):
    cfg = PipelineConfig()
    for seed in seeds:
        story, questions = generate_story(GrammarConfig(seed=seed, **shape))
        artifacts = prepare_story(story, questions, cfg)
        for name in story.characters:
            graph = artifacts.character_graph(name)
            want = reference_character_graph(
                story, artifacts.records, artifacts.anchors, artifacts.omniscient, name
            )
            assert graph.assignment == want, (seed, name)
            assert graph.surviving() == reference_surviving(graph)


def test_character_graph_rejects_a_graph_built_from_other_inputs(melon_setup):
    story, _, records, anchors, omniscient = melon_setup
    bare = SceneGraph(omniscient.assignment, omniscient.location_set)
    for graph, recs, anchs in (
        (bare, records, anchors),
        (omniscient, list(records), anchors),
        (omniscient, records, list(anchors)),
    ):
        with pytest.raises(ValidationError, match="not built from these records and anchors"):
            build_character_graph(story, recs, anchs, story.characters[0], graph)


# -- work done once per story --------------------------------------------------


@pytest.mark.parametrize("seed", range(1, 21))
def test_story_work_is_done_once(seed, monkeypatch, recording_answerer):
    """Each location string resolves once: a fresh rule backend starts with
    no room table, and keeps one per room set. The symbolic reader renders
    no event and never injects; a text reader gets every event rendered
    exactly once, from one injection."""
    resolved = Counter()
    resolve = scene.canonicalize_location

    def counting_resolve(raw, anchors):
        resolved[raw] += 1
        return resolve(raw, anchors)

    rendered = Counter()
    render = AugmentedEvent.render

    def counting_render(self):
        rendered[self.event.index] += 1
        return render(self)

    injected = []
    inject = pipeline.inject

    def counting_inject(story, records):
        injected.append(story)
        return inject(story, records)

    monkeypatch.setattr(scene, "canonicalize_location", counting_resolve)
    monkeypatch.setattr(AugmentedEvent, "render", counting_render)
    monkeypatch.setattr(pipeline, "inject", counting_inject)

    story, questions = generate_story(GrammarConfig(seed=seed, **DEEP_CHAINS))
    cfg = PipelineConfig()
    artifacts = prepare_story(story, questions, cfg)
    for q in questions:
        answer_question(artifacts, q, cfg)

    location_states = {r.state for r in artifacts.records if r.attribute == "location"}
    assert set(resolved) <= location_states
    assert max(resolved.values()) == 1
    assert not rendered
    assert not injected

    text = PipelineConfig(answer_backend=recording_answerer)
    artifacts = prepare_story(story, questions, text)
    for q in questions:
        answer_question(artifacts, q, text)
    assert rendered == Counter(range(1, len(story.events) + 1))
    assert injected == [story]
