"""The rule backend's one scan per story against the replay, place loop and
container loop it replaced, and the number of pattern matches it makes."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindmask import nkb
from mindmask.nkb import (
    _DECLARE_RE,
    _ENTER_RE,
    _EXIT_RE,
    _JOIN_RE,
    _LEAVE_RE,
    _MOVE_RE,
    _STAY_RE,
    CONTENT,
    CONVERSATION,
    LOCATION,
    EntityAttribute,
    EntityStateRecord,
    RuleBackend,
    display_name,
    identify_key_entities,
    mandated_pairs,
)
from mindmask.pipeline import PipelineConfig, answer_question, prepare_story
from mindmask.question import parse_question
from mindmask.story import DIALOGUE_KIND, Event, Story, split_name_list
from mindmask.textnorm import normalize_place
from mindmask.worldgen import GrammarConfig, generate_story

# Fixed and derandomized, so the tier-1 run stays short and repeatable.
PROFILE = settings(max_examples=100, deadline=None, derandomize=True)

# -- the rule backend as it was: a replay, a place loop and a container loop ---


@dataclass
class ReferenceWorld:
    places: dict[str, str | None] = field(default_factory=dict)
    inside: dict[str, str] = field(default_factory=dict)
    display: dict[str, str] = field(default_factory=dict)


def reference_apply(world: ReferenceWorld, event, dialogue: bool) -> list[EntityStateRecord]:
    text = event.text.strip()
    places, inside, display = world.places, world.inside, world.display
    records: list[EntityStateRecord] = []

    def remember(name: str) -> str:
        key = name.casefold()
        display.setdefault(key, display_name(name))
        return key

    def emit(entity_key: str, attribute: str, state: str):
        records.append(
            EntityStateRecord(event.index, display.get(entity_key, entity_key), attribute, state)
        )

    def move_person(name: str, place: str | None):
        places[remember(name)] = place

    m = _ENTER_RE.match(text)
    if m:
        place = m.group(2)
        for name in split_name_list(m.group(1)):
            move_person(name, place)
            emit(name.casefold(), LOCATION, f"in the {place}")
        return records
    m = _EXIT_RE.match(text)
    if m:
        name, place = m.group(1), m.group(2)
        move_person(name, None)
        emit(name.casefold(), LOCATION, f"outside the {place}")
        return records
    m = _MOVE_RE.match(text)
    if m:
        obj, container = m.group(2), m.group(3)
        obj_key, cont_key = remember(obj), remember(container)
        old = inside.get(obj_key)
        inside[obj_key] = container
        emit(obj_key, LOCATION, f"in {container}")
        emit(cont_key, CONTENT, display[obj_key])
        if old is not None and old.casefold() != cont_key:
            remember(old)
            emit(old.casefold(), CONTENT, "empty")
        return records
    m = _DECLARE_RE.match(text)
    if m:
        obj, container = m.group(1), m.group(2)
        obj_key = remember(obj)
        remember(container)
        inside[obj_key] = container
        emit(obj_key, LOCATION, f"in the {container}")
        return records
    if dialogue:
        m = _JOIN_RE.match(text)
        if m:
            for name in split_name_list(m.group(1)):
                move_person(name, CONVERSATION)
                emit(name.casefold(), LOCATION, f"in the {CONVERSATION}")
            return records
        m = _LEAVE_RE.match(text)
        if m:
            move_person(m.group(1), None)
            emit(m.group(1).casefold(), LOCATION, f"outside the {CONVERSATION}")
            return records
        if event.speaker is not None and places.get(event.speaker.casefold()) is None:
            move_person(event.speaker, CONVERSATION)
            emit(event.speaker.casefold(), LOCATION, f"in the {CONVERSATION}")
    return records


def reference_records(story: Story) -> list[EntityStateRecord]:
    world = ReferenceWorld()
    records: list[EntityStateRecord] = []
    for event in story.events:
        records.extend(reference_apply(world, event, story.kind == DIALOGUE_KIND))
    return records


def reference_location_names(story: Story) -> list[str]:
    if story.kind == DIALOGUE_KIND:
        return [CONVERSATION]
    names: list[str] = []
    seen: set[str] = set()
    for event in story.events:
        text = event.text.strip()
        for pattern in (_ENTER_RE, _EXIT_RE, _STAY_RE):
            m = pattern.match(text)
            if m:
                key = normalize_place(m.group(2))
                if key and key not in seen:
                    seen.add(key)
                    names.append(m.group(2))
    return names


def reference_key_entities(story: Story, questions) -> list[EntityAttribute]:
    pairs = [EntityAttribute(c, LOCATION) for c in story.characters]
    first: dict[str, str] = {}
    for event in story.events:
        m = _DECLARE_RE.match(event.text.strip())
        if m:
            first.setdefault(m.group(1).casefold(), m.group(2))
    for q in questions:
        container = first.get(q.target_entity.casefold())
        if container is not None:
            pairs.append(EntityAttribute(container, CONTENT))
    return pairs


def assert_matches_reference(story: Story, questions) -> None:
    records = reference_records(story)
    names = reference_location_names(story)
    pairs = reference_key_entities(story, questions)
    # In prepare_story's order, sharing one scan, and then in reverse.
    backend = RuleBackend()
    assert backend.key_entities(story, questions) == pairs
    assert backend.story_states(story, pairs) == records
    assert backend.location_names(story) == names
    for i in range(1, len(story.events) + 1):
        assert backend.event_states(story, i, pairs) == [
            (r.entity, r.attribute, r.state) for r in records if r.event_index == i
        ]
    backend = RuleBackend()
    assert backend.location_names(story) == names
    assert backend.story_states(story, pairs) == records
    assert backend.key_entities(story, questions) == pairs
    if questions:
        # The backend leaves the mandated pairs to identify_key_entities,
        # which picks the same targets as when the backend listed them too.
        assert identify_key_entities(story, questions, backend) == identify_key_entities(
            story, questions, WithMandatedPairs(backend)
        )


@dataclass
class WithMandatedPairs:
    """A rule backend whose key entities open with the mandated pairs."""

    rule: RuleBackend

    def key_entities(self, story, questions):
        return mandated_pairs(story, questions) + self.rule.key_entities(story, questions)


# -- stories: every grammar knob, then lines the generator never writes --------


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


# Names that contain each other, and rooms that read as negated places.
STRANGERS = ("Ann", "Anna", "Annabel")
ROOMS = ("hall", "left wing", "outside patio", "attic")
CONTAINERS = ("box", "Box", "red crate", "t-shirt drawer")
OBJECTS = ("melon", "ball", "t-shirt")
TEMPLATES = (
    # Each of these reads as two patterns at once.
    "The entered the {room} is in the {c1}.",
    "The made no movements and stayed in the {room} for is in the {c1}.",
    "The exited the {room} is in the {c1}.",
    "The moved the {obj} is in the {c1} to the {c2}.",
    # A move of something never declared.
    "{name} moved the {obj} to the {c1}.",
    "{name}, {name2}, and {other} entered the {room}.",
    "{name}, {name2} and {other} entered the {room}.",
    "{other} entered the {room}.",
    "{other} exited the {room}.",
    "{name} exited the {room}.",
    "{name} made no movements and stayed in the {room} for 1 minute.",
    "  The {obj} is in the {c1}.  ",
    "The {c1} is in the {room}.",
    "{name} likes the {c1}.",
)


@st.composite
def mutated(draw, story: Story) -> Story:
    names = list(story.characters)
    texts = [e.text for e in story.events]
    for _ in range(draw(st.integers(1, 8))):
        text = draw(st.sampled_from(TEMPLATES)).format(
            name=draw(st.sampled_from(names)),
            name2=draw(st.sampled_from(names)),
            other=draw(st.sampled_from(STRANGERS)),
            room=draw(st.sampled_from(ROOMS)),
            obj=draw(st.sampled_from(OBJECTS)),
            c1=draw(st.sampled_from(CONTAINERS)),
            c2=draw(st.sampled_from(CONTAINERS)),
        )
        texts.insert(draw(st.integers(0, len(texts))), text)
    characters = tuple(names) + (("The",) if draw(st.booleans()) else ())
    characters += STRANGERS if draw(st.booleans()) else ()
    events = tuple(Event(index=i, text=text) for i, text in enumerate(texts, start=1))
    return Story(events=events, characters=characters)


SPEAKERS = ("Armani", "Troy", "Cynthia", "Ann", "Anna", "t-rex")
DIALOGUE_LINES = (
    "{name} joined the conversation.",
    "{name}, {name2}, and {name3} joined the conversation.",
    "{name} left the conversation.",
    "{name} entered the {room}.",
    "{name} exited the {room}.",
    "{name} moved the key to the {c1}.",
    "The key is in the {c1}.",
    "The entered the {room} is in the {c1}.",
)


@st.composite
def dialogues(draw) -> Story:
    events = []
    for i in range(1, draw(st.integers(1, 14)) + 1):
        speaker = draw(st.sampled_from(SPEAKERS))
        if draw(st.booleans()):
            events.append(Event(index=i, text=f"I saw the key, {speaker}.", speaker=speaker))
            continue
        text = draw(st.sampled_from(DIALOGUE_LINES)).format(
            name=draw(st.sampled_from(SPEAKERS[:5])),
            name2=draw(st.sampled_from(SPEAKERS[:5])),
            name3=draw(st.sampled_from(SPEAKERS[:5])),
            room=draw(st.sampled_from(ROOMS)),
            c1=draw(st.sampled_from(CONTAINERS)),
        )
        events.append(Event(index=i, text=text))
    return Story(events=tuple(events), characters=SPEAKERS, kind=DIALOGUE_KIND)


@PROFILE
@given(config=grammar_configs())
def test_generated_story_matches_reference(config):
    assert_matches_reference(*generate_story(config))


@PROFILE
@given(config=grammar_configs(), data=st.data())
def test_mutated_story_matches_reference(config, data):
    story, questions = generate_story(config)
    story = data.draw(mutated(story))
    questions = questions + [parse_question(f"Where is the {obj}?", story) for obj in OBJECTS]
    assert_matches_reference(story, questions)


@PROFILE
@given(story=dialogues())
def test_dialogue_story_matches_reference(story):
    questions = [
        parse_question("Where is the key?", story),
        parse_question("Where does Troy think Ann thinks the key is?", story),
    ]
    assert_matches_reference(story, questions)


def test_double_match_lines_keep_each_reading():
    lines = [
        "Mia entered the hall.",
        "The entered the attic is in the hall.",
        "The made no movements and stayed in the hall for is in the attic.",
        "The apple is in the box.",
    ]
    story = Story(
        events=tuple(Event(index=i, text=t) for i, t in enumerate(lines, start=1)),
        characters=("Mia", "The"),
    )
    assert_matches_reference(story, [])
    backend = RuleBackend()
    # Line 2 records an entry and declares "entered the attic"; line 3 names
    # a place through its stay reading and records a declaration.
    assert [r.render() for r in backend.story_states(story, []) if r.event_index in (2, 3)] == [
        "location of The becomes in the attic is in the hall",
        "location of made no movements and stayed in the hall for becomes in the attic",
    ]
    assert backend.location_names(story) == ["hall", "attic is in the hall"]
    assert backend._scan_of(story).containers == {
        "entered the attic": "hall",
        "made no movements and stayed in the hall for": "attic",
        "apple": "box",
    }


def test_first_spelling_names_an_entity():
    lines = [
        "Mia entered the hall.",
        "The melon is in the Box.",
        "Mia moved the t-shirt to the box.",
        "Mia moved the melon to the basket.",
    ]
    story = Story(
        events=tuple(Event(index=i, text=t) for i, t in enumerate(lines, start=1)),
        characters=("Mia",),
    )
    assert_matches_reference(story, [])
    # The container a declaration names keeps that spelling for later moves.
    assert [r.render() for r in RuleBackend().story_states(story, []) if r.event_index >= 3] == [
        "location of T-shirt becomes in box",
        "content of Box becomes T-shirt",
        "location of melon becomes in basket",
        "content of basket becomes melon",
        "content of Box becomes empty",
    ]


# -- how many matches a story costs --------------------------------------------

PATTERNS = ("_ENTER_RE", "_EXIT_RE", "_MOVE_RE", "_DECLARE_RE", "_JOIN_RE", "_LEAVE_RE", "_STAY_RE")


class CountingPattern:
    def __init__(self, name: str, pattern, counts: Counter):
        self.name, self.pattern, self.counts = name, pattern, counts

    def match(self, text: str):
        self.counts[(self.name, text)] += 1
        return self.pattern.match(text)


@pytest.mark.parametrize("seed", range(1, 21))
def test_each_pattern_matches_an_event_once(seed, monkeypatch):
    matches: Counter = Counter()
    for name in PATTERNS:
        monkeypatch.setattr(nkb, name, CountingPattern(name, getattr(nkb, name), matches))
    config = GrammarConfig(num_characters=5, num_rooms=3, max_order=4, seed=seed, allow_reentry=True)
    story, questions = generate_story(config)
    cfg = PipelineConfig()
    artifacts = prepare_story(story, questions, cfg)
    for q in questions:
        answer_question(artifacts, q, cfg)
    events = Counter(e.text.strip() for e in story.events)
    assert matches
    over = {key: n for key, n in matches.items() if n > events[key[1]]}
    assert over == {}
