"""The omniscient graph's one loop over a story's events against the two
loops it replaced.

`build_omniscient_graph` parses each event's first acting character, places
containers, assigns rooms and collects each room's bits in one pass; an
object declaration whose state names no room waits until the pass ends.
`reference_omniscient` keeps the two-loop version, which read every
container's room in a first walk and assigned rooms, with the previous
room as fallback, in a second.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_tracks import location_tracks, observed as observed_by_runs
from test_rule_scan import dialogues, grammar_configs, mutated
from mindmask import scene
from mindmask.nkb import LOCATION, EntityStateRecord, RuleBackend, extract_locations
from mindmask.scene import _Rooms, build_omniscient_graph
from mindmask.story import DIALOGUE_KIND, Event, Story, leading_subjects
from mindmask.textnorm import normalize_place
from mindmask.worldgen import GrammarConfig, generate_story

PROFILE = settings(max_examples=100, deadline=None, derandomize=True)


# -- the two loops the one loop replaces ---------------------------------------


def reference_omniscient(story: Story, records, anchors):
    """(assignment, bits, observation bitsets) as the two-loop pass made them."""
    rooms = _Rooms(anchors)
    tracks, runs, movers, objects = location_tracks(story, records, rooms)
    n = len(story.events)

    acting: list[list[str]] = [[] for _ in range(n + 1)]
    containers: dict[str, str] = {}
    for index, event in enumerate(story.events, start=1):
        here = objects[index]
        if movers[index] and not here:
            continue
        actor = acting[index] = [
            key for name in leading_subjects(event.text) if (key := name.casefold()) in tracks
        ]
        actor_room = tracks[actor[0]][index] if actor else None
        for r in here:
            room = rooms[r.state]
            if room is not None:
                containers[normalize_place(r.entity)] = room
            else:
                place = normalize_place(r.state)
                if place and actor_room is not None:
                    containers[place] = actor_room

    room_bits: dict[str, int] = {}
    dialogue = story.kind == DIALOGUE_KIND
    assignment: list[str | None] = []
    previous: str | None = None
    for index, event in enumerate(story.events, start=1):
        room: str | None = None
        moved = movers[index]
        if moved:
            room = next((tracks[m][index] for m in moved if tracks[m][index] is not None), None)
            if room is None:
                room = tracks[min(moved)][index - 1]
        elif dialogue and event.speaker is not None:
            room = tracks[event.speaker.casefold()][index]
        elif acting[index]:
            room = tracks[acting[index][0]][index]
        elif objects[index]:
            state = objects[index][0].state
            room = rooms[state]
            if room is None:
                room = containers.get(normalize_place(state), previous)
        assignment.append(room)
        if room is not None:
            previous = room
            room_bits[room] = room_bits.get(room, 0) | 1 << (index - 1)
    observed = {key: observed_by_runs(spans, room_bits, n) for key, spans in runs.items()}
    return tuple(assignment), sum(room_bits.values()), observed


def assert_matches_reference(story: Story, records) -> tuple | None:
    """The graph's rooms, once they, its bits and every observation bitset
    are checked against the reference; None for a story with no places."""
    anchors = extract_locations(story, RuleBackend())
    if not anchors:
        return None
    graph = build_omniscient_graph(story, records, anchors)
    assignment, bits, observed = reference_omniscient(story, records, anchors)
    assert graph.assignment == assignment
    assert graph.bits == bits
    assert graph._observations[2] == observed
    return assignment


def location_records(story: Story) -> list[EntityStateRecord]:
    return list(RuleBackend().scene_columns(story).locations)


# -- generated, shuffled, doubled and dialogue stories -------------------------


@PROFILE
@given(config=grammar_configs(), data=st.data())
def test_generated_stories_match_reference(config, data):
    story, _ = generate_story(config)
    assert_matches_reference(story, location_records(story))
    story = data.draw(mutated(story))
    assert_matches_reference(story, location_records(story))


@PROFILE
@given(config=grammar_configs(), order=st.randoms(use_true_random=False))
def test_shuffled_records_match_reference(config, order):
    # A remote backend's records come in any order, within an event too.
    story, _ = generate_story(config)
    records = location_records(story)
    order.shuffle(records)
    assert_matches_reference(story, records)


@PROFILE
@given(config=grammar_configs(), pick=st.randoms(use_true_random=False))
def test_movers_with_object_records_match_reference(config, pick):
    # Copies of object records at events where a character moves, so those
    # events parse their subject and may place a container.
    story, _ = generate_story(config)
    records = location_records(story)
    keys = {name.casefold() for name in story.characters}
    movers = sorted({r.event_index for r in records if r.key[0] in keys})
    objects = [r for r in records if r.key[0] not in keys]
    for r in pick.sample(objects, min(len(objects), 4)):
        records.append(EntityStateRecord(pick.choice(movers), r.entity, LOCATION, r.state))
    pick.shuffle(records)
    assert_matches_reference(story, records)


@PROFILE
@given(config=grammar_configs(), pick=st.randoms(use_true_random=False))
def test_conflicting_mover_records_match_reference(config, pick):
    # A second location record, naming another place, for a character at an
    # event where it already moves: the character's last record at the event
    # wins, whichever order the shuffle leaves them in.
    story, _ = generate_story(config)
    records = location_records(story)
    keys = {name.casefold() for name in story.characters}
    moves = [r for r in records if r.key[0] in keys]
    states = sorted({r.state for r in moves})
    for r in pick.sample(moves, min(len(moves), 4)):
        state = pick.choice([s for s in states if s != r.state] or states)
        records.append(EntityStateRecord(r.event_index, r.entity, LOCATION, state))
    pick.shuffle(records)
    assert_matches_reference(story, records)


@PROFILE
@given(story=dialogues())
def test_dialogues_match_reference(story):
    assert_matches_reference(story, location_records(story))


# -- waiting declarations, by hand ---------------------------------------------


def story_of(*lines: str) -> Story:
    events = tuple(Event(index=i, text=text) for i, text in enumerate(lines, start=1))
    return Story(events=events, characters=("Ann", "Bob"))


def rooms_of(story: Story) -> tuple:
    return assert_matches_reference(story, location_records(story))


def test_container_placed_after_the_object():
    # The box's room is told at event 4; the apple takes it, not the attic.
    story = story_of(
        "Ann entered the hall.",
        "Ann entered the attic.",
        "The apple is in the box.",
        "The box is in the hall.",
    )
    assert rooms_of(story) == ("hall", "attic", "hall", "hall")


def test_container_placed_by_a_later_move():
    # Bob, in the hall, moves the pear into the crate at event 4, which puts
    # the crate in the hall for the apple declared at event 3.
    story = story_of(
        "Bob entered the hall.",
        "Ann entered the attic.",
        "The apple is in the crate.",
        "Bob moved the pear to the crate.",
    )
    assert rooms_of(story) == ("hall", "attic", "hall", "hall")


def test_waiting_fallback_is_a_waiting_declaration():
    # The apple waits for the box, placed in the attic at event 4; the pear's
    # crate is never placed, so it takes the apple's room, not the hall.
    story = story_of(
        "Ann entered the hall.",
        "The apple is in the box.",
        "The pear is in the crate.",
        "The box is in the attic.",
        "Bob entered the attic.",
    )
    assert rooms_of(story) == ("hall", "attic", "attic", "attic", "attic")


def test_declarations_before_any_room_stay_null():
    story = story_of(
        "The apple is in the box.",
        "The pear is in the crate.",
        "Ann entered the hall.",
        "The lemon is in the tin.",
    )
    assert rooms_of(story) == (None, None, "hall", "hall")


# -- each event's subject is parsed at most once --------------------------------


@pytest.mark.parametrize("seed", range(1, 11))
def test_subjects_parsed_once_and_never_for_moves_alone(monkeypatch, seed):
    story, _ = generate_story(
        GrammarConfig(num_characters=3, num_rooms=3, seed=seed, allow_reentry=True)
    )
    records = location_records(story)
    random.Random(seed).shuffle(records)
    keys = {name.casefold() for name in story.characters}
    moves_alone = {r.event_index for r in records if r.key[0] in keys}
    moves_alone -= {r.event_index for r in records if r.key[0] not in keys}
    assert moves_alone
    parsed = Counter()

    def counting(text):
        parsed[text] += 1
        return leading_subjects(text)

    monkeypatch.setattr(scene, "leading_subjects", counting)
    build_omniscient_graph(story, records, extract_locations(story, RuleBackend()))
    expected = Counter(e.text for e in story.events if e.index not in moves_alone)
    assert parsed == expected
