"""Entity-state knowledge backends.

A state backend answers three queries about a story: which entity/attribute
pairs matter for a set of questions, which enterable places the story
mentions, and, in one call per story, what state each entity reaches after
each event. Records render as ``"<attribute> of <entity> becomes <state>"``.

:class:`RuleBackend` resolves all three symbolically from the story grammar
(enter/exit/move/declare productions), replaying the story once;
:class:`mindmask.remote.RemoteBackend` asks a chat model with the shipped
prompt templates, one state prompt per story. Both sides honor the same
protocol, so the masking pipeline cannot tell them apart.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

from .errors import ExtractionError, ProtocolError, ValidationError
from .story import DIALOGUE_KIND, Story, split_name_list
from .textnorm import is_negated_place, normalize_place

if TYPE_CHECKING:
    from .question import ToMQuestion

log = logging.getLogger(__name__)

MAX_KEY_ENTITIES = 5
LOCATION = "location"
CONTENT = "content"

# The pseudo-room shared by all utterances of a dialogue story.
CONVERSATION = "conversation"


@dataclass(frozen=True)
class EntityAttribute:
    entity: str
    attribute: str

    def render(self) -> str:
        return f"{self.attribute} of {self.entity}"

    def key(self) -> tuple[str, str]:
        return (self.entity.casefold(), self.attribute.casefold())


@dataclass(frozen=True)
class EntityStateRecord:
    """One state assertion tied to one event."""

    event_index: int
    entity: str
    attribute: str
    state: str

    def render(self) -> str:
        return f"{self.attribute} of {self.entity} becomes {self.state}"


@dataclass(frozen=True)
class LocationAnchor:
    """A canonical enterable place plus the surface forms that map to it."""

    name: str
    aliases: frozenset[str]


@dataclass(frozen=True)
class BackendInfo:
    name: str


@runtime_checkable
class StateBackend(Protocol):
    info: BackendInfo

    def key_entities(self, story: Story, questions: list[ToMQuestion]) -> list[EntityAttribute]:
        ...

    def location_names(self, story: Story) -> list[str]:
        ...

    def story_states(self, story: Story, targets: list[EntityAttribute]) -> list[EntityStateRecord]:
        """State records for every event of the story, in any order."""
        ...


# Single-letter hyphenations (t-shirt, x-ray) conventionally capitalize.
_HYPHENATED_LETTER_RE = re.compile(r"^[a-z]-")


def display_name(name: str) -> str:
    if _HYPHENATED_LETTER_RE.match(name):
        return name[0].upper() + name[1:]
    return name


# ---------------------------------------------------------------------------
# Location anchors and canonicalization


def build_anchors(names: Iterable[str]) -> list[LocationAnchor]:
    """Anchors with normalized aliases; surface variants of one place merge."""
    anchors: list[LocationAnchor] = []
    by_alias: dict[str, str] = {}
    for name in names:
        alias = normalize_place(name)
        if not alias:
            continue
        if alias in by_alias:
            continue
        by_alias[alias] = name
        anchors.append(LocationAnchor(name=name.strip(), aliases=frozenset({alias})))
    return anchors


def canonicalize_location(raw: str, anchors: list[LocationAnchor]) -> LocationAnchor | None:
    """Map a free-text place phrase onto an anchor, or None for the null node.

    After normalization an exact alias match wins, so a room named "left
    wing" or "outside patio" still resolves. Otherwise negated phrases
    ("outside the porch", "absent") resolve to None, then a unique substring
    match wins; ambiguity resolves to None and is logged.
    """
    normalized = normalize_place(raw)
    if not normalized:
        return None
    for anchor in anchors:
        if normalized in anchor.aliases:
            return anchor
    if is_negated_place(raw):
        return None
    matches = []
    for anchor in anchors:
        for alias in anchor.aliases:
            if alias in normalized or normalized in alias:
                matches.append(anchor)
                break
    if len(matches) == 1:
        return matches[0]
    if len(matches) > 1:
        log.warning("ambiguous place %r matches %s; resolving to null", raw, [a.name for a in matches])
    return None


# ---------------------------------------------------------------------------
# Rule backend world model

_PLACE = r"[\w' -]+"
_PERSON = r"[A-Z][a-z]+"
_PERSON_LIST = rf"{_PERSON}(?:\s*,\s*{_PERSON})*(?:,? and {_PERSON})?"

_ENTER_RE = re.compile(rf"^({_PERSON_LIST}) entered the ({_PLACE})\.$")
_EXIT_RE = re.compile(rf"^({_PERSON}) exited the ({_PLACE})\.$")
_MOVE_RE = re.compile(rf"^({_PERSON}) moved the ({_PLACE}?) to the ({_PLACE})\.$")
_DECLARE_RE = re.compile(rf"^The ({_PLACE}?) is in the ({_PLACE})\.$")
_JOIN_RE = re.compile(rf"^({_PERSON_LIST}) joined the conversation\.$")
_LEAVE_RE = re.compile(rf"^({_PERSON}) left the conversation\.$")
_STAY_RE = re.compile(rf"^({_PERSON}) made no movements and stayed in the ({_PLACE}) for")


@dataclass
class RuleWorldState:
    """Ground truth tracked by the rule backend while replaying events.

    ``places`` maps a character (casefolded) to the place it last entered, or
    None once it exited. ``inside`` maps an entity to its current container.
    """

    places: dict[str, str | None] = field(default_factory=dict)
    inside: dict[str, str] = field(default_factory=dict)
    display: dict[str, str] = field(default_factory=dict)


def rule_backend_apply(world: RuleWorldState, event, dialogue: bool = False) -> list[EntityStateRecord]:
    """Apply one event to the rule world in place and return its records;
    unrecognized text is a no-op.

    Emitted record shapes:
      enter   -> location of <Name> becomes in the <place>
      exit    -> location of <Name> becomes outside the <place>
      move    -> location of <obj> becomes in <container>
                 content of <container> becomes <obj>
                 content of <old container> becomes empty   (when known)
      declare -> location of <obj> becomes in the <container>
    """
    text = event.text.strip()
    places, inside, display = world.places, world.inside, world.display
    records: list[EntityStateRecord] = []

    def remember(name: str) -> str:
        key = name.casefold()
        display.setdefault(key, display_name(name))
        return key

    def emit(entity_key: str, attribute: str, state: str):
        records.append(
            EntityStateRecord(
                event_index=event.index,
                entity=display.get(entity_key, entity_key),
                attribute=attribute,
                state=state,
            )
        )

    def move_person(name: str, place: str | None):
        key = remember(name)
        places[key] = place

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
            name = m.group(1)
            move_person(name, None)
            emit(name.casefold(), LOCATION, f"outside the {CONVERSATION}")
            return records
        if event.speaker is not None and places.get(event.speaker.casefold()) is None:
            # A speaker's first utterance implies presence in the conversation.
            move_person(event.speaker, CONVERSATION)
            emit(event.speaker.casefold(), LOCATION, f"in the {CONVERSATION}")
    return records


def _replay(story: Story, count: int) -> list[EntityStateRecord]:
    """Records of the first `count` events, replayed on one fresh world."""
    world = RuleWorldState()
    dialogue = story.kind == DIALOGUE_KIND
    records: list[EntityStateRecord] = []
    for event in story.events[:count]:
        records.extend(rule_backend_apply(world, event, dialogue))
    return records


class RuleBackend:
    """Deterministic backend that replays the story grammar symbolically."""

    info = BackendInfo(name="rule")

    # -- StateBackend protocol ------------------------------------------------

    def story_states(self, story, targets):
        return _replay(story, len(story.events))

    def event_states(self, story, index, targets):
        """(entity, attribute, state) triples of event `index` alone: a
        per-event view of :meth:`story_states` that replays events 1..index."""
        if not 1 <= index <= len(story.events):
            raise ProtocolError(f"event index {index} outside story range 1..{len(story.events)}")
        return [(r.entity, r.attribute, r.state) for r in _replay(story, index) if r.event_index == index]

    def location_names(self, story):
        if story.kind == DIALOGUE_KIND:
            return [CONVERSATION]
        names: list[str] = []
        seen: set[str] = set()

        def add(place: str):
            key = normalize_place(place)
            if key and key not in seen:
                seen.add(key)
                names.append(place)

        for event in story.events:
            text = event.text.strip()
            for pattern in (_ENTER_RE, _EXIT_RE):
                m = pattern.match(text)
                if m:
                    add(m.group(2))
            m = _STAY_RE.match(text)
            if m:
                add(m.group(2))
        return names

    def key_entities(self, story, questions):
        pairs = mandated_pairs(story, questions)
        for c in story.characters:
            pairs.append(EntityAttribute(entity=c, attribute=LOCATION))
        # The first container each questioned entity was declared in carries
        # the content attribute (its emptying is a state change of interest).
        declared = self._initial_containers(story)
        for q in questions:
            container = declared.get(q.target_entity.casefold())
            if container is not None:
                pairs.append(EntityAttribute(entity=container, attribute=CONTENT))
        return pairs

    def _initial_containers(self, story) -> dict[str, str]:
        first: dict[str, str] = {}
        for event in story.events:
            m = _DECLARE_RE.match(event.text.strip())
            if m:
                first.setdefault(m.group(1).casefold(), m.group(2))
        return first


def mandated_pairs(story: Story, questions: list[ToMQuestion]) -> list[EntityAttribute]:
    """Pairs every extraction must include: each question's target with its
    attribute, and the location of every character in any belief chain."""
    pairs: list[EntityAttribute] = []
    for q in questions:
        pairs.append(EntityAttribute(entity=display_name(q.target_entity), attribute=q.target_attribute))
    for q in questions:
        for name in q.chain_names:
            pairs.append(EntityAttribute(entity=name, attribute=LOCATION))
    return pairs


def _first_mention(story: Story, entity: str) -> int:
    needle = entity.casefold()
    for event in story.events:
        if needle in event.text.casefold():
            return event.index
    return len(story.events) + 1


def identify_key_entities(
    story: Story, questions: list[ToMQuestion], backend: StateBackend
) -> list[EntityAttribute]:
    """Entity/attribute pairs worth tracking, capped at MAX_KEY_ENTITIES.

    Question-mandated pairs always survive the cap; the remainder keep
    first-mention order. At least one non-person entity is guaranteed.
    """
    if not story.events:
        raise ValidationError("empty story")
    if not questions:
        raise ValidationError("identify_key_entities needs at least one question")
    raw = backend.key_entities(story, list(questions))

    ordered: list[EntityAttribute] = []
    seen: set[tuple[str, str]] = set()

    def add(pair: EntityAttribute):
        if pair.key() not in seen:
            seen.add(pair.key())
            ordered.append(pair)

    for pair in mandated_pairs(story, questions):
        add(pair)
    mandated_count = len(ordered)
    extras = [p for p in raw if p.key() not in seen]
    extras.sort(key=lambda p: _first_mention(story, p.entity))
    for pair in extras:
        add(pair)

    capped = ordered[:MAX_KEY_ENTITIES]
    person = {c.casefold() for c in story.characters}
    if not any(p.entity.casefold() not in person for p in capped):
        non_person = next((p for p in ordered if p.entity.casefold() not in person), None)
        if non_person is not None:
            capped = capped[: MAX_KEY_ENTITIES - 1] + [non_person]
        else:
            # Nothing but people in the story; the preference is unsatisfiable.
            log.debug("no non-person entity available; keeping a person-only extraction")
    if not capped:
        raise ExtractionError("entity extraction produced no pairs")
    if mandated_count > MAX_KEY_ENTITIES:
        log.debug(
            "question-mandated pairs (%d) exceed the cap (%d); keeping the first %d",
            mandated_count,
            MAX_KEY_ENTITIES,
            MAX_KEY_ENTITIES,
        )
    return capped


def generate_states(
    story: Story, targets: list[EntityAttribute], backend: StateBackend
) -> list[EntityStateRecord]:
    """State records for the whole story, sorted and deduplicated.

    The backend is asked once per story, through ``story_states``; only
    events with a state change contribute records. Duplicate assertions for
    the same (event, entity, attribute) keep the last emission.
    """
    if not targets:
        raise ValidationError("generate_states needs a non-empty target list")
    merged: dict[tuple[int, str, str], EntityStateRecord] = {}
    for record in backend.story_states(story, list(targets)):
        merged[(record.event_index, record.entity.casefold(), record.attribute.casefold())] = record
    return sorted(
        merged.values(),
        key=lambda r: (r.event_index, r.entity.casefold(), r.attribute.casefold()),
    )


def extract_locations(story: Story, backend: StateBackend) -> list[LocationAnchor]:
    """Enterable places of the story as anchors; containers are excluded."""
    if not story.events:
        raise ValidationError("empty story")
    names = backend.location_names(story)
    anchors = build_anchors(names)
    if not anchors:
        raise ExtractionError("no enterable location found in the story")
    return anchors
