"""Synthetic false-belief stories and a brute-force nested-belief oracle.

The generator emits room episodes: a group of characters enters, an object is
declared inside a container, characters move it / idle / gossip and exit one
by one, and everyone regroups in the waiting room. The last actor of every
episode always moves the object, so every earlier exiter leaves holding a
false belief.

The oracle replays the raw event text (never the pipeline's state records)
and answers a nested-belief question with the entity's last placement that
every character of the chain witnessed. It is the ground truth the masking
pipeline is measured against. The rule assumes co-presence: an observer of
an event knows who else is in the room, so it knows who else saw the event.
HiToM (Wu et al., 2023) states a close assumption in its prompts: an agent
can reason about another's mind only if the two shared a room or
communicated.

Gold is made without reading the story back: ``generate_story`` builds each
question from the chain and object it drew (its text is
``render_question(chain, obj)``, which ``parse_question`` reads back to the
same question) and asks ``simulate_beliefs`` for its answer. The oracle still
reads the story's text, never the generator's draws.

The oracle builds one trace per story in one loop over the events: each
event's room and object effect, each character's whereabouts as runs in one
room, and from those one observation bitset per character. Gold for a chain
is the entity's last placement kept by the AND of its members' bitsets.
Consecutive ``simulate_beliefs`` and ``observed_set`` calls on the same
``Story`` object share the trace through one memo, a
:class:`mindmask.story.LastStory`, as ``generate_story`` (one call per
question) and a per-character ``observed_set`` sweep make them.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, fields
from typing import Sequence

from .errors import ValidationError
from .question import BeliefChain, ToMQuestion, render_question
from .story import LastStory, Story, _event, split_name_list
from .textnorm import normalize_place

REGROUP_ROOM = "waiting room"

_NAMES = (
    "William", "Lily", "Aiden", "Emma", "Isla", "Benjamin", "Abigail", "Emily",
    "Oliver", "Mia", "Jack", "Sophia", "Noah", "Ava", "Lucas", "Chloe",
)
_ROOMS = (
    "porch", "basement", "front yard", "kitchen", "garden", "attic",
    "lounge", "hall", "patio", "cellar", "workshop", "bedroom",
)
_COLORS = ("green", "blue", "red", "yellow", "purple", "white")
_CONTAINER_KINDS = (
    "bathtub", "pantry", "bucket", "suitcase", "bottle", "crate",
    "box", "basket", "cupboard", "drawer", "envelope", "chest",
)
_CONTAINERS = tuple(f"{color} {kind}" for color in _COLORS for kind in _CONTAINER_KINDS)
_OBJECTS = (
    "melon", "watermelon", "beans", "apple", "banana", "toy",
    "ball", "book", "hat", "sock", "coin", "scarf",
)
_DECOYS = ("coat", "plant", "painting", "rug")

_PERSON = r"[A-Z][a-z]+"
_PERSON_LIST = rf"{_PERSON}(?:\s*,\s*{_PERSON})*(?:,? and {_PERSON})?"
_PLACE = r"[\w' -]+"
_ENTER = re.compile(rf"^({_PERSON_LIST}) entered the ({_PLACE})\.$")
_EXIT = re.compile(rf"^({_PERSON}) exited the ({_PLACE})\.$")
_MOVE = re.compile(rf"^({_PERSON}) moved the ({_PLACE}?) to the ({_PLACE})\.$")
_DECLARE = re.compile(rf"^The ({_PLACE}?) is in the ({_PLACE})\.$")
_STAY = re.compile(rf"^({_PERSON}) made no movements and stayed in the ({_PLACE}) for")
_DISTRACT = re.compile(rf"^({_PERSON}) (?:likes|hates) the ({_PLACE})\.$")


@dataclass(frozen=True)
class GrammarConfig:
    """Knobs of the story grammar. max_order cannot exceed num_characters
    because belief chains never repeat a character."""

    num_characters: int = 3
    num_rooms: int = 1
    num_objects: int = 1
    num_containers_per_room: int = 3
    moves_per_room: int = 2
    max_order: int = 2
    seed: int = 0
    allow_reentry: bool = False
    distractor_rate: float = 0.2

    def validate(self) -> None:
        if not 2 <= self.num_characters <= 5:
            raise ValidationError("num_characters must be between 2 and 5")
        if self.num_rooms < 1 or self.num_objects < 1:
            raise ValidationError("need at least one room and one object")
        # Rooms, objects and containers are drawn without replacement.
        if self.num_rooms > len(_ROOMS):
            raise ValidationError(f"num_rooms must be at most {len(_ROOMS)}")
        if self.num_objects > len(_OBJECTS):
            raise ValidationError(f"num_objects must be at most {len(_OBJECTS)}")
        if self.num_rooms * self.num_containers_per_room > len(_CONTAINERS):
            raise ValidationError(
                f"num_rooms x num_containers_per_room must be at most {len(_CONTAINERS)}"
            )
        if self.num_containers_per_room < 2:
            raise ValidationError("need at least two containers per room (something to move to)")
        if self.moves_per_room < 1:
            raise ValidationError("need at least one move per room")
        if not 1 <= self.max_order <= 4:
            raise ValidationError("max_order must be between 1 and 4")
        if self.max_order > self.num_characters:
            raise ValidationError("max_order cannot exceed num_characters")
        if not 0.0 <= self.distractor_rate <= 1.0:
            raise ValidationError("distractor_rate must lie in [0, 1]")


_METADATA_FIELDS = tuple(f.name for f in fields(GrammarConfig) if f.name != "seed")


def _name_list(names: Sequence[str]) -> str:
    if len(names) == 1:
        return names[0]
    return ", ".join(names[:-1]) + " and " + names[-1]


def generate_story(config: GrammarConfig) -> tuple[Story, list[ToMQuestion]]:
    """A deterministic story plus one gold-answered question per order."""
    config.validate()
    rng = random.Random(config.seed)

    characters = rng.sample(_NAMES, config.num_characters)
    rooms = rng.sample(_ROOMS, config.num_rooms)
    all_containers = rng.sample(_CONTAINERS, config.num_rooms * config.num_containers_per_room)
    objects = rng.sample(_OBJECTS, config.num_objects)

    lines: list[str] = []
    objects_used: list[str] = []
    for ri, room in enumerate(rooms):
        obj = objects[ri % config.num_objects]
        if obj not in objects_used:
            objects_used.append(obj)
        containers = all_containers[
            ri * config.num_containers_per_room : (ri + 1) * config.num_containers_per_room
        ]
        participants = rng.sample(characters, rng.randint(2, len(characters)))

        if rng.random() < 0.5:
            lines.append(f"{_name_list(participants)} entered the {room}.")
        else:
            for name in rng.sample(participants, len(participants)):
                lines.append(f"{name} entered the {room}.")

        first_container = rng.choice(containers)
        lines.append(f"The {obj} is in the {first_container}.")
        if rng.random() < 0.35:
            lines.append(f"The {first_container} is in the {room}.")

        lines.extend(
            _episode_actions(rng, config, room, obj, containers, first_container, participants)
        )
        lines.append(f"{_name_list(participants)} entered the {REGROUP_ROOM}.")

    story = Story(
        events=tuple(_event(i, text) for i, text in enumerate(lines, start=1)),
        characters=tuple(characters),
        kind="event",
        metadata={"seed": config.seed, "generator": _config_metadata(config)},
    )

    questions: list[ToMQuestion] = []
    for order in range(0, config.max_order + 1):
        obj = rng.choice(objects_used)
        chain = tuple(rng.sample(characters, order))
        questions.append(
            ToMQuestion(
                raw=render_question(chain, obj),
                chain=BeliefChain(chain) if chain else None,
                target_entity=obj,
                gold=simulate_beliefs(story, chain, obj),
            )
        )
    return story, questions


def _episode_actions(rng, config, room, obj, containers, first_container, participants):
    lines: list[str] = []
    exit_line_of: dict[str, int] = {}
    order = rng.sample(participants, len(participants))
    moves_left = config.moves_per_room - 1  # one move is reserved for the last actor
    current = first_container
    for pos, name in enumerate(order):
        if rng.random() < config.distractor_rate:
            thing = rng.choice(list(containers) + list(_DECOYS))
            lines.append(f"{name} {rng.choice(('likes', 'hates'))} the {thing}.")
        last = pos == len(order) - 1
        if last or (moves_left > 0 and rng.random() < 0.6):
            destination = rng.choice([c for c in containers if c != current])
            lines.append(f"{name} moved the {obj} to the {destination}.")
            current = destination
            if not last:
                moves_left -= 1
        else:
            lines.append(f"{name} made no movements and stayed in the {room} for 1 minute.")
        lines.append(f"{name} exited the {room}.")
        exit_line_of[name] = len(lines) - 1

    if config.allow_reentry and len(order) >= 2 and rng.random() < 0.6:
        returner = rng.choice(order[:-1])
        slot = rng.randint(exit_line_of[returner] + 1, len(lines))
        lines.insert(slot, f"{returner} entered the {room}.")
    return lines


def _config_metadata(config: GrammarConfig) -> dict:
    """Every grammar field but the seed, which the metadata holds beside it."""
    return {name: getattr(config, name) for name in _METADATA_FIELDS}


# ---------------------------------------------------------------------------
# Oracle: replay the raw text, never the pipeline's records.


class _Trace:
    """Rooms, per-character whereabouts, and object effects per event.

    Each event is matched against the enter, exit, move, stay and distract
    patterns in that order, each only when its fixed text is in the line (a
    necessary condition for its match); the first that matches gives the
    event's room. A line that also reads as a declaration (a leading "The ")
    takes the declaration's effect. A declaration that is nothing else waits
    until the loop ends, as its room can come from a later line; the waiting
    ones are resolved in story order.

    A character's whereabouts are runs ``(room, start, end)``: an enter opens
    one, and an exit or an enter into another room closes it, so a run spans
    the events where the character is in the room before or after. ``seen``
    holds one observation bitset per casefolded character (bit i-1 for event
    i), the OR over its runs of the room's events within the run.
    ``placements`` lists, in order, the indices i whose ``effects[i]`` is set
    (the move and declare events), and ``first`` maps each casefolded object
    to the container of its first placement.
    """

    def __init__(self, story: Story):
        characters = story.characters_by_key
        n = len(story.events)
        self.rooms: set[str] = set()
        self.room_of: list[str | None] = [None] * (n + 1)
        self.effects: list[tuple[str, str] | None] = [None] * (n + 1)
        self.placements: list[int] = []
        self.first: dict[str, str] = {}

        current: dict[str, str | None] = dict.fromkeys(characters)
        opened: dict[str, int] = {}  # the start of each character's open run
        runs: list[tuple[str, str, int, int]] = []  # closed runs: character, room, start, end
        container_room: dict[str, str] = {}
        parent: dict[str, str] = {}
        # Declarations that wait: index, holder, and the last earlier event
        # with a room or waiting itself (0 for none; room_of[0] is None).
        waiting: list[tuple[int, str, int]] = []
        last = 0
        for i, event in enumerate(story.events, start=1):
            t = event.text
            room: str | None = None
            declare = _DECLARE.match(t) if t.startswith("The ") else None
            if " entered the " in t and (m := _ENTER.match(t)):
                room = normalize_place(m.group(2))
                self.rooms.add(room)
                for name in split_name_list(m.group(1)):
                    key = name.casefold()
                    if key in characters and current[key] != room:
                        if current[key] is not None:
                            runs.append((key, current[key], opened[key], i))
                        current[key], opened[key] = room, i
            elif " exited the " in t and (m := _EXIT.match(t)):
                self.rooms.add(normalize_place(m.group(2)))
                key = m.group(1).casefold()
                room = current.get(key)
                if room is not None:
                    runs.append((key, room, opened[key], i))
                    current[key] = None
            elif " moved the " in t and (m := _MOVE.match(t)):
                obj, dest = m.group(2), m.group(3)
                self.effects[i] = (obj.casefold(), dest)
                parent[obj.casefold()] = holder = normalize_place(dest)
                room = current.get(m.group(1).casefold())
                if room is not None:
                    container_room[holder] = room
            elif m := (
                (_STAY.match(t) if " stayed in the " in t else None)
                or (_DISTRACT.match(t) if " likes the " in t or " hates the " in t else None)
            ):
                room = current.get(m.group(1).casefold())
            elif declare:
                waiting.append((i, normalize_place(declare.group(2)), last))
                last = i
            if declare:
                obj, container = declare.groups()
                self.effects[i] = (obj.casefold(), container)
                parent[obj.casefold()] = normalize_place(container)
            if self.effects[i]:
                self.placements.append(i)
                self.first.setdefault(*self.effects[i])
            if room is not None:
                self.room_of[i] = room
                last = i

        for child, holder in parent.items():
            if holder in self.rooms:
                container_room[child] = holder
        for i, holder, before in waiting:
            if holder in self.rooms:
                self.room_of[i] = holder
            else:
                self.room_of[i] = container_room.get(holder, self.room_of[before])

        room_bits: dict[str, int] = {}
        for i, room in enumerate(self.room_of):
            if room is not None:
                room_bits[room] = room_bits.get(room, 0) | 1 << (i - 1)
        runs.extend((key, room, opened[key], n) for key, room in current.items() if room is not None)
        self.seen: dict[str, int] = dict.fromkeys(characters, 0)
        for key, room, start, end in runs:
            self.seen[key] |= room_bits[room] & (1 << end) - (1 << (start - 1))


# The trace of the last story asked about.
_trace_of = LastStory(lambda story: _Trace(story))


def observed_set(story: Story, character: str) -> set[int]:
    """Indices of events the character could witness: events in its room,
    arrivals and departures included on both sides of the door."""
    digits = bin(_checked_trace(story, (character,)).seen[character.casefold()])[:1:-1]  # bit 0 first
    return {i for i, digit in enumerate(digits, start=1) if digit == "1"}


def _checked_trace(story: Story, names: tuple[str, ...]) -> _Trace:
    for name in names:
        if not story.has_character(name):
            raise ValidationError(f"{name!r} is not a character of the story")
    return _trace_of(story)


def simulate_beliefs(story: Story, chain: tuple[str, ...], entity: str) -> str:
    """Gold answer: where the chain of names, outermost first, thinks the
    entity is after the last event, falling back to its first declared
    container when the chain never witnessed an update.

    That is the entity's last placement that every name of the chain
    observed, found by one AND of their bitsets and a backward walk over the
    trace's placement events, else the trace's ``first`` entry."""
    key = entity.casefold()
    trace = _checked_trace(story, chain)
    first = trace.first.get(key)
    if first is None:
        raise ValidationError(f"{entity!r} is never placed anywhere in the story")
    seen = -1
    for name in chain:
        seen &= trace.seen[name.casefold()]
    for i in reversed(trace.placements):
        obj, container = trace.effects[i]
        if seen >> (i - 1) & 1 and obj == key:
            return container
    return first
