from __future__ import annotations

import json
import random

import pytest

from mindmask.errors import ValidationError
from mindmask.nkb import EntityStateRecord
from mindmask.scene import (
    NULL,
    MaskedView,
    SceneGraph,
    build_character_graph,
    build_omniscient_graph,
    graph_build_counts,
    mask,
    mask_chain,
    retrieve_events,
)

ROOMS = ("porch", "hall", "attic")


def random_graph(rng, n):
    assignment = tuple(rng.choice(ROOMS + (NULL, NULL)) for _ in range(n))
    return SceneGraph(assignment=assignment, location_set=frozenset(ROOMS))


def survivors(graph):
    return set(graph.surviving())


def test_omniscient_melon(melon_setup):
    story, _, records, anchors, omniscient = melon_setup
    assert omniscient.assignment == ("porch",) * 13 + ("waiting room",)


def test_omniscient_cupboard(cupboard_setup):
    _, _, _, _, omniscient = cupboard_setup
    assert omniscient.assignment == ("crawlspace",) * 11


def test_omniscient_single_event(backend):
    from mindmask.nkb import extract_locations, generate_states, EntityAttribute
    from mindmask.story import parse_story

    story = parse_story("Mia entered the kitchen.")
    records = generate_states(story, [EntityAttribute("Mia", "location")], backend)
    anchors = extract_locations(story, backend)
    graph = build_omniscient_graph(story, records, anchors)
    assert graph.assignment == ("kitchen",)


def test_mover_event_with_an_object_record_still_places_the_container(backend):
    # A chat model may give one event both a character's location and an
    # object's. The move at event 3 puts the box in Ava's room, the porch,
    # so the declaration at event 5 is in the porch, not in the hall of the
    # event before it.
    from mindmask.nkb import EntityStateRecord, extract_locations
    from mindmask.story import parse_story

    story = parse_story(
        "Ava entered the porch.\n"
        "Ben entered the hall.\n"
        "Ava moved the ball to the box.\n"
        "Ben likes the hall.\n"
        "The apple is in the box."
    )
    records = [
        EntityStateRecord(1, "Ava", "location", "porch"),
        EntityStateRecord(2, "Ben", "location", "hall"),
        EntityStateRecord(3, "Ava", "location", "porch"),
        EntityStateRecord(3, "ball", "location", "box"),
        EntityStateRecord(5, "apple", "location", "box"),
    ]
    graph = build_omniscient_graph(story, records, extract_locations(story, backend))
    assert graph.assignment == ("porch", "hall", "porch", "hall", "porch")


def test_omniscient_requires_anchors(melon_story):
    with pytest.raises(ValidationError):
        build_omniscient_graph(melon_story, [], [])


def test_omniscient_rejects_a_record_past_the_story(melon_setup):
    story, _, records, anchors, _ = melon_setup
    late = EntityStateRecord(len(story.events) + 1, "melon", "location", "in the porch")
    with pytest.raises(ValidationError, match="unknown event index"):
        build_omniscient_graph(story, records + [late], anchors)


def test_character_graph_lily(melon_setup):
    story, _, records, anchors, omniscient = melon_setup
    lily = build_character_graph(story, records, anchors, "Lily", omniscient)
    assert lily.assignment[:7] == ("porch",) * 7
    assert lily.assignment[7:13] == (NULL,) * 6
    assert lily.assignment[13] == "waiting room"


def test_character_graph_william_sees_everything(melon_setup):
    story, _, records, anchors, omniscient = melon_setup
    william = build_character_graph(story, records, anchors, "William", omniscient)
    assert william.assignment == omniscient.assignment


def test_character_graph_unknown_character(melon_setup):
    story, _, records, anchors, omniscient = melon_setup
    with pytest.raises(ValidationError):
        build_character_graph(story, records, anchors, "Zorro", omniscient)


def test_mask_self_is_identity(melon_setup):
    _, _, _, _, omniscient = melon_setup
    assert mask(omniscient, omniscient) == omniscient


def test_mask_by_full_observer_is_identity(melon_setup):
    story, _, records, anchors, omniscient = melon_setup
    william = build_character_graph(story, records, anchors, "William", omniscient)
    assert mask(omniscient, william) == omniscient


def test_mask_by_lily(melon_setup):
    story, _, records, anchors, omniscient = melon_setup
    lily = build_character_graph(story, records, anchors, "Lily", omniscient)
    assert survivors(mask(omniscient, lily)) == set(range(1, 8)) | {14}


def test_mask_chain_melon(melon_setup):
    story, q, records, anchors, omniscient = melon_setup
    graphs = [build_character_graph(story, records, anchors, c, omniscient) for c in q.chain_names]
    masked = mask_chain(omniscient, graphs)
    assert survivors(masked) == {1, 2, 3, 4, 5, 6, 7, 14}


def test_mask_chain_empty_is_identity(melon_setup):
    _, _, _, _, omniscient = melon_setup
    assert mask_chain(omniscient, []) == omniscient


def test_mask_chain_repeated_character(melon_setup):
    story, _, records, anchors, omniscient = melon_setup
    lily = build_character_graph(story, records, anchors, "Lily", omniscient)
    assert mask_chain(omniscient, [lily, lily]) == mask_chain(omniscient, [lily])


def test_mask_size_mismatch():
    g1 = SceneGraph(("porch",), frozenset(ROOMS))
    g2 = SceneGraph(("porch", "hall"), frozenset(ROOMS))
    with pytest.raises(ValidationError):
        mask(g1, g2)


def test_masking_algebra_randomized():
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(1, 12)
        g = random_graph(rng, n)
        gc = random_graph(rng, n)
        masked = mask(g, gc)
        # shrinkage
        assert survivors(masked) <= survivors(g)
        # idempotence
        assert mask(masked, gc) == masked
        # the surviving set is the intersection, hence order-free
        chain = [random_graph(rng, n) for _ in range(rng.randint(0, 4))]
        forward = mask_chain(g, chain)
        shuffled = chain[:]
        rng.shuffle(shuffled)
        assert survivors(mask_chain(g, shuffled)) == survivors(forward)
        # empty chain identity
        assert mask_chain(g, []) == g


def test_retrieve_events(melon_setup):
    story, q, records, anchors, omniscient = melon_setup
    graphs = [build_character_graph(story, records, anchors, c, omniscient) for c in q.chain_names]
    masked = mask_chain(omniscient, graphs)
    texts = [e.text for e in story.events]
    view = retrieve_events(masked, texts)
    assert view.surviving == (1, 2, 3, 4, 5, 6, 7, 14)
    assert view.texts[0] == story.events[0].text
    assert view.texts[-1] == story.events[13].text
    assert list(view.surviving) == sorted(view.surviving)


def test_retrieve_events_unmasked_and_fully_masked(melon_setup):
    story, _, _, _, omniscient = melon_setup
    texts = [e.text for e in story.events]
    assert retrieve_events(omniscient, texts).surviving == tuple(range(1, 15))
    blank = SceneGraph((NULL,) * 14, omniscient.location_set)
    assert retrieve_events(blank, texts).surviving == ()


def test_retrieve_events_alignment_checked(melon_setup):
    _, _, _, _, omniscient = melon_setup
    with pytest.raises(ValidationError):
        retrieve_events(omniscient, ["just one"])


@pytest.mark.parametrize("surviving", [(3, 1), (1, 1, 2)])
def test_masked_view_rejects_unordered_indices(surviving):
    with pytest.raises(ValidationError, match="strictly increasing"):
        MaskedView(surviving=surviving)


def test_graph_build_counts_examples():
    assert graph_build_counts(5, 2) == graph_build_counts(5, 2)
    assert (graph_build_counts(5, 2).scene_graphs, graph_build_counts(5, 2).chain_graphs) == (6, 25)
    assert (graph_build_counts(2, 1).scene_graphs, graph_build_counts(2, 1).chain_graphs) == (3, 2)
    assert (graph_build_counts(5, 4).scene_graphs, graph_build_counts(5, 4).chain_graphs) == (6, 205)
    assert (graph_build_counts(2, 2).scene_graphs, graph_build_counts(2, 2).chain_graphs) == (3, 4)
    assert graph_build_counts(4, 0).chain_graphs == 0


def test_graph_build_counts_scene_side_ignores_order():
    for k in range(0, 6):
        assert graph_build_counts(5, k).scene_graphs == 6


def test_graph_build_counts_validation():
    with pytest.raises(ValidationError):
        graph_build_counts(3, 4)
    with pytest.raises(ValidationError):
        graph_build_counts(0, 0)
    with pytest.raises(ValidationError):
        graph_build_counts(3, -1)


def test_scene_graph_serialization(melon_setup):
    _, _, _, _, omniscient = melon_setup
    payload = json.loads(json.dumps(omniscient.to_json()))
    assert payload["assignment"]["1"] == "porch"
    assert payload["assignment"]["14"] == "waiting room"


def test_scene_graph_rejects_foreign_rooms():
    with pytest.raises(ValidationError):
        SceneGraph(("moon",), frozenset(ROOMS))


def test_backend_substitutability(melon_setup):
    # Any record list resolving to the same per-event locations must produce
    # the same graphs, however its states are phrased.
    import dataclasses

    from mindmask.textnorm import is_negated_place, normalize_place

    story, q, records, anchors, omniscient = melon_setup

    def rephrase(r):
        if r.attribute != "location":
            return r
        if is_negated_place(r.state):
            return dataclasses.replace(r, state="absent")
        return dataclasses.replace(r, state="In The " + normalize_place(r.state).title() + "!")

    alt = [rephrase(r) for r in records]
    alt_graph = build_omniscient_graph(story, alt, anchors)
    assert alt_graph == omniscient
    for name in story.characters:
        ours = build_character_graph(story, records, anchors, name, omniscient)
        theirs = build_character_graph(story, alt, anchors, name, alt_graph)
        assert theirs.surviving() == ours.surviving()


def test_character_graph_refuses_an_omniscient_graph_of_another_length(melon_setup):
    story, _, records, anchors, omniscient = melon_setup
    shorter = SceneGraph(assignment=omniscient.assignment[:-1], location_set=omniscient.location_set)
    with pytest.raises(ValidationError, match="does not cover the story"):
        build_character_graph(story, records, anchors, "Lily", shorter)
