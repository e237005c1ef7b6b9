"""The oracle's one-pass, once-per-story trace against the per-call,
pattern-by-pattern trace it replaced, and the number of traces it builds."""

from __future__ import annotations

import dataclasses
import itertools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindmask import worldgen
from mindmask.errors import ValidationError
from mindmask.story import Event, Story, split_name_list
from mindmask.textnorm import normalize_place
from mindmask.worldgen import (
    _DECLARE,
    _DISTRACT,
    _ENTER,
    _EXIT,
    _MOVE,
    _STAY,
    GrammarConfig,
    generate_story,
    observed_set,
    simulate_beliefs,
)

# -- the trace as it was built per call, each pattern tried where needed -------


class ReferenceTrace:
    def __init__(self, story: Story):
        self.story = story
        self.characters = {c.casefold() for c in story.characters}

        self.rooms: set[str] = set()
        for event in story.events:
            for pattern in (_ENTER, _EXIT):
                m = pattern.match(event.text)
                if m:
                    self.rooms.add(normalize_place(m.group(2)))

        n = len(story.events)
        self.pre: list[dict[str, str | None]] = [dict()] * (n + 1)
        self.post: list[dict[str, str | None]] = [dict()] * (n + 1)
        self.room_of: list[str | None] = [None] * (n + 1)
        self.effects: list[tuple[str, str] | None] = [None] * (n + 1)

        current = {c: None for c in self.characters}
        container_room: dict[str, str] = {}
        parent: dict[str, str] = {}

        moves: list[tuple[int, str, str]] = []
        for event in story.events:
            i = event.index
            self.pre[i] = dict(current)
            m = _ENTER.match(event.text)
            if m:
                room = normalize_place(m.group(2))
                for name in split_name_list(m.group(1)):
                    if name.casefold() in self.characters:
                        current[name.casefold()] = room
            m = _EXIT.match(event.text)
            if m and m.group(1).casefold() in self.characters:
                current[m.group(1).casefold()] = None
            m = _MOVE.match(event.text)
            if m:
                obj, dest = m.group(2), m.group(3)
                self.effects[i] = (obj.casefold(), dest)
                parent[obj.casefold()] = normalize_place(dest)
                moves.append((i, m.group(1).casefold(), normalize_place(dest)))
            m = _DECLARE.match(event.text)
            if m:
                obj, container = m.group(1), m.group(2)
                self.effects[i] = (obj.casefold(), container)
                parent[obj.casefold()] = normalize_place(container)
            self.post[i] = dict(current)

        for i, mover, destination in moves:
            room = self.post[i].get(mover)
            if room is not None:
                container_room[destination] = room
        for child, holder in parent.items():
            if holder in self.rooms:
                container_room[child] = holder

        previous: str | None = None
        for event in story.events:
            i = event.index
            room: str | None = None
            m = _ENTER.match(event.text)
            if m:
                room = normalize_place(m.group(2))
            elif (m := _EXIT.match(event.text)) is not None:
                room = self.pre[i].get(m.group(1).casefold())
            elif (m := _MOVE.match(event.text)) is not None:
                room = self.post[i].get(m.group(1).casefold())
            elif (m := _STAY.match(event.text)) is not None:
                room = self.post[i].get(m.group(1).casefold())
            elif (m := _DISTRACT.match(event.text)) is not None:
                room = self.post[i].get(m.group(1).casefold())
            elif (m := _DECLARE.match(event.text)) is not None:
                holder = normalize_place(m.group(2))
                if holder in self.rooms:
                    room = holder
                else:
                    room = container_room.get(holder, previous)
            self.room_of[i] = room
            if room is not None:
                previous = room

    def observes(self, name: str, index: int) -> bool:
        room = self.room_of[index]
        if room is None:
            return False
        key = name.casefold()
        return room in (self.pre[index].get(key), self.post[index].get(key))


def reference_observed_set(trace: ReferenceTrace, character: str) -> set[int]:
    return {i for i in range(1, len(trace.story.events) + 1) if trace.observes(character, i)}


def reference_belief_store(trace: ReferenceTrace, names) -> list[dict[str, str]]:
    beliefs: list[dict[str, str]] = [dict() for _ in range(len(names) + 1)]
    for i in range(1, len(trace.story.events) + 1):
        effect = trace.effects[i]
        if effect is None:
            continue
        obj, container = effect
        for j in range(len(names) + 1):
            if all(trace.observes(names[jj], i) for jj in range(j)):
                beliefs[j][obj] = container
            else:
                break
    return beliefs


def reference_simulate(trace: ReferenceTrace, names, entity: str) -> str | None:
    key = entity.casefold()
    first = next((e[1] for e in trace.effects if e is not None and e[0] == key), None)
    if first is None:
        return None
    return reference_belief_store(trace, names)[len(names)].get(key, first)


# -- stories: every grammar knob, then lines the generator never writes --------

STRANGERS = ("Zed", "Quinn")
# Each template reads as two patterns at once, names a non-character, or is a
# stay / distract / declaration line placed where the generator would not.
TEMPLATES = (
    "The moved the {obj} is in the {c1} to the {c2}.",
    "The exited the {room} is in the {c1}.",
    "The entered the {room} is in the {c1}.",
    "The made no movements and stayed in the {room} for is in the {c1}.",
    "The likes the {c1} is in the {c2}.",
    "The hates the {room} is in the {room}.",
    "{name}, {other} and {name2} entered the {room}.",
    "{other} entered the {room}.",
    "{other} exited the {room}.",
    "{other} moved the {obj} to the {c1}.",
    "{name} entered the {room}.",
    "{name} exited the {room}.",
    "{name} entered the {Room}.",
    "{name} made no movements and stayed in the {room} for 1 minute.",
    "{name} likes the {c1}.",
    "{name} moved the {obj} to the {c1}.",
    "The {obj} is in the {c1}.",
    "The {c1} is in the {room}.",
    "The {c1} is in the {c2}.",
)


@st.composite
def grammar_configs(draw) -> GrammarConfig:
    num_characters = draw(st.integers(2, 5))
    return GrammarConfig(
        num_characters=num_characters,
        num_rooms=draw(st.integers(1, 4)),
        num_objects=draw(st.integers(1, 3)),
        num_containers_per_room=draw(st.integers(2, 4)),
        moves_per_room=draw(st.integers(1, 3)),
        max_order=draw(st.integers(1, min(4, num_characters))),
        seed=draw(st.integers(0, 2**31 - 1)),
        allow_reentry=draw(st.booleans()),
        distractor_rate=draw(st.floats(0.0, 1.0)),
    )


@st.composite
def mutated(draw, story: Story) -> Story:
    reference = ReferenceTrace(story)
    names = list(story.characters)
    rooms = sorted(reference.rooms) + ["den"]
    objects = sorted({e[0] for e in reference.effects if e}) + ["ball"]
    containers = sorted({e[1] for e in reference.effects if e}) + ["red box"]
    texts = [e.text for e in story.events]
    for _ in range(draw(st.integers(0, 6))):
        room = draw(st.sampled_from(rooms))
        text = draw(st.sampled_from(TEMPLATES)).format(
            name=draw(st.sampled_from(names)),
            name2=draw(st.sampled_from(names)),
            other=draw(st.sampled_from(STRANGERS)),
            room=room,
            Room=room.title().replace(" ", "-"),
            obj=draw(st.sampled_from(objects)),
            c1=draw(st.sampled_from(containers)),
            c2=draw(st.sampled_from(containers)),
        )
        texts.insert(draw(st.integers(0, len(texts))), text)
    characters = tuple(names) + (("The",) if draw(st.booleans()) else ())
    events = tuple(Event(index=i, text=text) for i, text in enumerate(texts, start=1))
    return Story(events=events, characters=characters)


def assert_matches_reference(story: Story) -> None:
    reference = ReferenceTrace(story)
    trace = worldgen._Trace(story)
    assert trace.rooms == reference.rooms
    assert trace.room_of == reference.room_of
    assert trace.effects == reference.effects
    n = len(story.events)
    for name in story.characters:
        assert [bool(trace.seen[name.casefold()] >> (i - 1) & 1) for i in range(1, n + 1)] == [
            reference.observes(name, i) for i in range(1, n + 1)
        ]
        assert observed_set(story, name) == reference_observed_set(reference, name)
    chains = [()] + [(name,) for name in story.characters]
    chains += list(itertools.permutations(story.characters, 2))
    entities = sorted({e[0] for e in reference.effects if e}) + ["unicorn"]
    for chain in chains:
        for entity in entities:
            expected = reference_simulate(reference, chain, entity)
            if expected is None:
                with pytest.raises(ValidationError):
                    simulate_beliefs(story, chain, entity)
            else:
                assert simulate_beliefs(story, chain, entity) == expected


@settings(max_examples=150, deadline=None)
@given(config=grammar_configs())
def test_generated_story_matches_reference(config):
    story, questions = generate_story(config)
    assert_matches_reference(story)
    reference = ReferenceTrace(story)
    for q in questions:
        assert q.gold == reference_simulate(reference, q.chain_names, q.target_entity)


@settings(max_examples=150, deadline=None)
@given(config=grammar_configs(), data=st.data())
def test_mutated_story_matches_reference(config, data):
    story, _ = generate_story(config)
    assert_matches_reference(data.draw(mutated(story)))


def test_double_match_lines_keep_the_pattern_order():
    story = Story(
        events=tuple(
            Event(index=i, text=text)
            for i, text in enumerate(
                [
                    "The and Mia entered the hall.",
                    "The apple is in the box.",
                    "The moved the apple is in the box to the crate.",
                    "The made no movements and stayed in the hall for is in the attic.",
                    "The likes the box is in the attic.",
                    "The exited the hall.",
                    "The apple is in the box.",
                    "Mia exited the attic.",
                ],
                start=1,
            )
        ),
        characters=("Mia", "The"),
    )
    assert_matches_reference(story)
    # Read as stay and distract lines, events 4 and 5 happen where The is,
    # not in the attic their declaration reading names.
    assert worldgen._Trace(story).room_of[4:6] == ["hall", "hall"]
    # The move line also reads as a declaration; the declaration wins the
    # effect, as it is matched last.
    assert worldgen._Trace(story).effects[3] == ("moved the apple", "box to the crate")


# Each story: its lines, then the rooms of its events (index 1 first), then
# the events Mia observes. Rooms a declaration waits for come from later lines.
# "The" is a character, so a line can read as its move or distract line and
# as a declaration at once; "Zed" is not.
ONE_PASS_CASES = {
    "declaration-room-from-a-later-move": (
        [
            "The apple is in the box.",
            "Mia entered the hall.",
            "Mia moved the apple to the box.",
            "Mia exited the hall.",
        ],
        ["hall", "hall", "hall", "hall"],
        [2, 3, 4],
    ),
    "declaration-holder-entered-later": (
        ["Ben entered the porch.", "The box is in the attic.", "Mia entered the attic."],
        ["porch", "attic", "attic"],
        [3],
    ),
    "declaration-container-placed-in-a-room-later": (
        ["The apple is in the box.", "Mia entered the hall.", "The box is in the attic.", "Ben entered the attic."],
        ["attic", "hall", "attic", "attic"],
        [2],
    ),
    "two-waiting-declarations-no-earlier-room": (
        [
            "The box is in the attic.",
            "The apple is in the jar.",
            "The pear is in the cup.",
            "Mia entered the attic.",
        ],
        ["attic", "attic", "attic", "attic"],
        [4],
    ),
    "two-waiting-declarations-no-room-at-all": (
        ["The apple is in the jar.", "The pear is in the cup.", "Mia entered the hall."],
        [None, None, "hall"],
        [3],
    ),
    "enter-a-new-room-without-exit": (
        [
            "Mia and Ben entered the hall.",
            "The apple is in the box.",
            "Mia entered the attic.",
            "Ben moved the apple to the crate.",
            "Mia made no movements and stayed in the attic for 1 minute.",
        ],
        ["hall", "hall", "attic", "hall", "attic"],
        [1, 2, 3, 5],
    ),
    "exit-by-someone-in-no-room": (
        ["Mia exited the hall.", "Ben entered the hall.", "The apple is in the box.", "Mia exited the den."],
        [None, "hall", "hall", None],
        [],
    ),
    "move-that-reads-as-a-declaration": (
        [
            "The and Mia entered the hall.",
            "The moved the apple is in the box to the crate.",
            "The apple is in the crate.",
        ],
        ["hall", "hall", "hall"],
        [1, 2, 3],
    ),
    "distract-by-a-non-character": (
        [
            "Mia entered the hall.",
            "Zed likes the box.",
            "The hates the box is in the attic.",
            "Mia hates the box.",
            "Ben entered the attic.",
        ],
        ["hall", None, None, "hall", "attic"],
        [1, 4],
    ),
}


@pytest.mark.parametrize("lines, rooms, mia_sees", ONE_PASS_CASES.values(), ids=ONE_PASS_CASES)
def test_one_pass_trace_on_written_stories(lines, rooms, mia_sees):
    events = tuple(Event(index=i, text=text) for i, text in enumerate(lines, start=1))
    story = Story(events=events, characters=("Mia", "Ben", "The"))
    assert_matches_reference(story)
    assert worldgen._Trace(story).room_of[1:] == rooms
    assert sorted(observed_set(story, "Mia")) == mia_sees


# -- how many traces a story costs ---------------------------------------------


@pytest.fixture
def built(monkeypatch):
    """Counts `_Trace` constructions, starting with nothing remembered."""
    counter = {"traces": 0}

    class CountingTrace(worldgen._Trace):
        def __init__(self, story):
            counter["traces"] += 1
            super().__init__(story)

    monkeypatch.setattr(worldgen, "_Trace", CountingTrace)
    monkeypatch.setattr(worldgen._trace_of, "last", None)
    return counter


def test_one_trace_per_story(built):
    config = GrammarConfig(num_characters=5, num_rooms=3, max_order=4, seed=11, allow_reentry=True)
    story, questions = generate_story(config)
    observed = {name: observed_set(story, name) for name in story.characters}
    assert len(questions) == 5
    assert built["traces"] == 1

    # An equal story that is another object builds its own trace.
    copy = dataclasses.replace(story)
    assert copy == story and copy is not story
    assert {name: observed_set(copy, name) for name in copy.characters} == observed
    assert built["traces"] == 2


def test_threads_alternating_stories_get_their_own_answers():
    stories = [
        generate_story(
            GrammarConfig(num_characters=5, num_rooms=3, max_order=2, seed=seed, allow_reentry=True)
        )[0]
        for seed in (3, 4)
    ]
    expected = [
        {name: reference_observed_set(ReferenceTrace(s), name) for name in s.characters}
        for s in stories
    ]
    assert expected[0] != expected[1]
    wrong: list[tuple[int, str]] = []

    def sweep(phase: int) -> None:
        for k in range(200):
            j = (k + phase) % 2
            for name in stories[j].characters:
                if observed_set(stories[j], name) != expected[j][name]:
                    wrong.append((j, name))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sweep, args=(phase % 2,)) for phase in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
