"""Entity-state knowledge backends.

A state backend answers three queries about a story: which entity/attribute
pairs matter for a set of questions, which enterable places the story
mentions, and, in one call per story, what state each entity reaches after
each event. Records render as ``"<attribute> of <entity> becomes <state>"``.

:class:`RuleBackend` resolves all three symbolically from the story grammar
(enter/exit/move/declare productions), in one scan per story that the three
queries share through one memo. The scan matches the grammar's patterns
once per distinct line a backend sees: stories reuse their sentences, and
what a line reads as does not depend on the story around it.
:class:`mindmask.remote.RemoteBackend` asks a chat model with the shipped
prompt templates, one state prompt per story.
Both sides honor the same protocol, so the masking pipeline cannot tell
them apart.

Key entities drive knowledge injection. The rule backend states every
entity whatever the targets, so the pipeline never asks it for them, and
its symbolic path runs no record merge: ``RuleBackend.location_states``
gives the scan's one location order, which the scene pass reads as merged.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from functools import cached_property
from sys import intern
from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

from .errors import ExtractionError, ProtocolError, ValidationError
from .story import DIALOGUE_KIND, NAME, NAME_LIST, LastStory, Story, split_name_list
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
    """An entity and one of its attributes; `key` is the casefolded pair."""

    entity: str
    attribute: str
    key: tuple[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "key", (self.entity.casefold(), self.attribute.casefold()))

    def render(self) -> str:
        return f"{self.attribute} of {self.entity}"


@dataclass(frozen=True)
class EntityStateRecord:
    """One state assertion tied to one event. `key`, the casefolded
    (entity, attribute) pair, is its identity in every layer."""

    event_index: int
    entity: str
    attribute: str
    state: str
    key: tuple[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "key", (self.entity.casefold(), self.attribute.casefold()))

    def render(self) -> str:
        return f"{self.attribute} of {self.entity} becomes {self.state}"


_new = object.__new__


def keyed_record(
    event_index: int, entity: str, attribute: str, state: str, key: tuple[str, str]
) -> EntityStateRecord:
    """``EntityStateRecord(event_index, entity, attribute, state)`` built with
    its key in hand, past the dataclass ``__init__`` and its two casefolds.
    `key` must be ``(entity.casefold(), attribute.casefold())``. The rule
    scan, the remote backend and `generate_states` build their records here."""
    record = _new(EntityStateRecord)
    fields = record.__dict__
    fields["event_index"] = event_index
    fields["entity"] = entity
    fields["attribute"] = attribute
    fields["state"] = state
    fields["key"] = key
    return record


@dataclass(frozen=True)
class LocationAnchor:
    """A canonical enterable place and its normalized form, `alias`, which
    free-text place phrases are matched against."""

    name: str
    alias: str


@runtime_checkable
class StateBackend(Protocol):
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
    """One anchor per normalized place, named by its first surface form;
    later surface forms of the same place ("Attic", "the attic") merge into
    it. Names that normalize to nothing are dropped."""
    anchors: dict[str, LocationAnchor] = {}
    for name in names:
        alias = normalize_place(name)
        if alias and alias not in anchors:
            anchors[alias] = LocationAnchor(name=name.strip(), alias=alias)
    return list(anchors.values())


def canonicalize_location(raw: str, anchors: list[LocationAnchor]) -> LocationAnchor | None:
    """Map a free-text place phrase onto an anchor, or None for the null node.

    Cheapest check first. After normalization an exact match of an anchor's
    alias wins, so a room named "left wing" or "outside patio" still
    resolves. A phrase with no substring match, then a negated one ("outside
    the porch", "absent"), resolves to None; else a unique substring match
    wins, and ambiguity resolves to None and is logged.
    """
    normalized = normalize_place(raw)
    if not normalized:
        return None
    for anchor in anchors:
        if normalized == anchor.alias:
            return anchor
    matches = [a for a in anchors if a.alias in normalized or normalized in a.alias]
    if not matches or is_negated_place(raw):
        return None
    if len(matches) == 1:
        return matches[0]
    log.warning("ambiguous place %r matches %s; resolving to null", raw, [a.name for a in matches])
    return None


# ---------------------------------------------------------------------------
# Rule backend: one scan of the story grammar

_PLACE = r"[\w' -]+"

_ENTER_RE = re.compile(rf"^({NAME_LIST}) entered the ({_PLACE})\.$")
_EXIT_RE = re.compile(rf"^({NAME}) exited the ({_PLACE})\.$")
_MOVE_RE = re.compile(rf"^({NAME}) moved the ({_PLACE}?) to the ({_PLACE})\.$")
_DECLARE_RE = re.compile(rf"^The ({_PLACE}?) is in the ({_PLACE})\.$")
_JOIN_RE = re.compile(rf"^({NAME_LIST}) joined the conversation\.$")
_LEAVE_RE = re.compile(rf"^({NAME}) left the conversation\.$")
_STAY_RE = re.compile(rf"^({NAME}) made no movements and stayed in the ({_PLACE}) for")


@dataclass(frozen=True)
class _Scan:
    """One pass over a story's text: its location records in one location
    order, the emission order, one note per move, its enterable places in
    first-mention order, and the first container each object (casefolded)
    was declared in.

    A move note is ``(position, event index, container, object, old
    container or None)``: the container and object display names, and
    `position`, the length of `locations` just after the move's own location
    record. The move's content records are built from it only when
    `records` is first read.
    """

    locations: tuple[EntityStateRecord, ...]
    moves: tuple[tuple[int, int, str, str, str | None], ...]
    places: tuple[str, ...]
    containers: dict[str, str]

    @cached_property
    def records(self) -> tuple[EntityStateRecord, ...]:
        """Every record in emission order: each move's content records come
        straight after its object's location record."""
        records: list[EntityStateRecord] = []
        start = 0
        for position, index, container, obj, old in self.moves:
            records += self.locations[start:position]
            start = position
            # A display name casefolds to its key.
            records.append(keyed_record(index, container, CONTENT, obj, (container.casefold(), CONTENT)))
            if old is not None:
                records.append(keyed_record(index, old, CONTENT, "empty", (old.casefold(), CONTENT)))
        records += self.locations[start:]
        return tuple(records)


_ENTER, _EXIT, _MOVE, _DECLARE, _JOIN, _LEAVE = range(1, 7)
_NOTHING = (None, None, None, None, None)


def _place(name: str) -> tuple[str, str] | None:
    key = normalize_place(name)
    return (intern(key), name) if key else None


def _read_line(text: str) -> tuple:
    """What the grammar reads in one stripped event line, whatever story
    holds it: ``(verb, who, where, place, declared)``.

    `verb` is the first of enter, exit, move, declare, join and leave that
    matches, or None. `who` is the names of an enter or join line (a tuple),
    the name of an exit or leave line, or the object of a move or
    declaration, and `where` the place or container it names. `place` is
    ``(normalized place, place)`` from an enter, exit or stay line that is
    not a move, and `declared` is ``(casefolded object, container)`` from a
    declaration, whatever else the line reads as. Every string is an
    interned match group or its normal form, so a reading holds no state
    string and nothing of any one story; a line that reads as nothing gets
    the one shared `_NOTHING`.

    Enter, exit, move and stay lines start with a name and differ in the
    verb, so at most one of them matches; a declare line may match any of
    them as well. Each pattern is tried only when its fixed text is present,
    a necessary condition for its match."""
    declare = _DECLARE_RE.match(text) if text.startswith("The ") else None
    declared = (intern(declare[1].casefold()), intern(declare[2])) if declare else None
    if " entered the " in text and (m := _ENTER_RE.match(text)):
        place = intern(m[2])
        return (_ENTER, tuple(map(intern, split_name_list(m[1]))), place, _place(place), declared)
    if " exited the " in text and (m := _EXIT_RE.match(text)):
        place = intern(m[2])
        return (_EXIT, intern(m[1]), place, _place(place), declared)
    if " moved the " in text and (m := _MOVE_RE.match(text)):
        return (_MOVE, intern(m[2]), intern(m[3]), None, declared)
    m = _STAY_RE.match(text) if " stayed in the " in text else None
    place = _place(intern(m[2])) if m else None
    if declare:
        return (_DECLARE, intern(declare[1]), declared[1], place, declared)
    if " joined the conversation." in text and (m := _JOIN_RE.match(text)):
        return (_JOIN, tuple(map(intern, split_name_list(m[1]))), CONVERSATION, place, None)
    if " left the conversation." in text and (m := _LEAVE_RE.match(text)):
        return (_LEAVE, intern(m[1]), CONVERSATION, place, None)
    return _NOTHING if place is None else (None, None, None, place, None)


def _scan(story: Story, lines: dict[str, tuple]) -> _Scan:
    """Read every event against the grammar, once per distinct line a
    backend sees: `lines` maps each stripped line to its :func:`_read_line`
    reading, and only a line it lacks is matched.

    An event's records come from the first of enter, exit, move, declare
    and, in a dialogue, join, leave or a speaker's first utterance (which
    implies presence in the conversation); unrecognized text has none:
      enter   -> location of <Name> becomes in the <place>
      exit    -> location of <Name> becomes outside the <place>
      move    -> location of <obj> becomes in <container>
                 content of <container> becomes <obj>
                 content of <old container> becomes empty   (when known)
      declare -> location of <obj> becomes in the <container>
    Places come from an enter, exit or stay line that is not a move, and
    containers from a declare match, whatever else the line matches.

    What depends on the story is worked out here, event by event: display
    names, what each object is inside, places and containers in
    first-mention order, and the records. The pass builds location records
    only, in one location order, the emission order. At a move it keeps a
    note from which :attr:`_Scan.records` builds the content records the
    first time it is read; the container names are remembered at the move,
    so every record's display name is still its entity's first-seen
    spelling.
    """
    dialogue = story.kind == DIALOGUE_KIND
    records: list[EntityStateRecord] = []
    moves: list[tuple[int, int, str, str, str | None]] = []
    places: dict[str, str] = {}
    containers: dict[str, str] = {}
    inside: dict[str, str] = {}  # object key -> container key
    display: dict[str, str] = {}
    # Who is in the conversation; only a dialogue reads it.
    present: set[str] = set()

    def first_seen(key: str, name: str) -> str:
        shown = display[key] = display_name(name)
        return shown

    # A display name casefolds to its key, and a record's attribute is
    # lowercase, so each record is built with its key in hand.
    for event in story.events:
        text = event.text.strip()
        reading = lines.get(text)
        if reading is None:
            reading = lines[text] = _read_line(text)
        verb, who, where, place, declared = reading
        if declared is not None:
            containers.setdefault(*declared)
        if place is not None and not dialogue:
            places.setdefault(*place)
        i = event.index
        if verb == _ENTER or (verb == _JOIN and dialogue):
            state = f"in the {where}"
            for name in who:
                key = name.casefold()
                entity = display.get(key) or first_seen(key, name)
                records.append(keyed_record(i, entity, LOCATION, state, (key, LOCATION)))
                if dialogue:
                    present.add(key)
        elif verb == _EXIT or (verb == _LEAVE and dialogue):
            key = who.casefold()
            entity = display.get(key) or first_seen(key, who)
            records.append(keyed_record(i, entity, LOCATION, f"outside the {where}", (key, LOCATION)))
            if dialogue:
                present.discard(key)
        elif verb == _MOVE:
            obj_key, cont_key = who.casefold(), where.casefold()
            obj = display.get(obj_key) or first_seen(obj_key, who)
            records.append(keyed_record(i, obj, LOCATION, f"in {where}", (obj_key, LOCATION)))
            container = display.get(cont_key) or first_seen(cont_key, where)
            old_key = inside.get(obj_key)
            inside[obj_key] = cont_key
            old = display[old_key] if old_key is not None and old_key != cont_key else None
            moves.append((len(records), i, container, obj, old))
        elif verb == _DECLARE:
            obj_key, cont_key = who.casefold(), where.casefold()
            obj = display.get(obj_key) or first_seen(obj_key, who)
            records.append(keyed_record(i, obj, LOCATION, f"in the {where}", (obj_key, LOCATION)))
            if cont_key not in display:
                first_seen(cont_key, where)
            inside[obj_key] = cont_key
        elif dialogue and event.speaker is not None:
            key = event.speaker.casefold()
            if key not in present:
                present.add(key)
                entity = display.get(key) or first_seen(key, event.speaker)
                records.append(keyed_record(i, entity, LOCATION, f"in the {CONVERSATION}", (key, LOCATION)))
    names = (CONVERSATION,) if dialogue else tuple(places.values())
    return _Scan(tuple(records), tuple(moves), names, containers)


def event_states(backend: StateBackend, story: Story, index: int, targets) -> list[tuple[str, str, str]]:
    """(entity, attribute, state) triples of event `index` alone: a per-event
    view of ``backend.story_states``, which each call runs whole. Bound as
    ``event_states`` on both backends, where the benchmark's replay and
    tracer look it up."""
    if not 1 <= index <= len(story.events):
        raise ProtocolError(f"event index {index} outside story range 1..{len(story.events)}")
    return [
        (r.entity, r.attribute, r.state)
        for r in backend.story_states(story, targets)
        if r.event_index == index
    ]


class RuleBackend:
    """Deterministic backend that reads the story grammar symbolically.

    The three queries share one scan per story, kept in one memo, a
    :class:`mindmask.story.LastStory` of the last story scanned. Each
    backend also keeps, from its first scan on, the grammar's reading of
    every distinct line it has scanned, so it matches each line once
    whatever story repeats it; a new backend starts with none.

    Outside the protocol, :meth:`location_states` gives the location records
    alone, in the scan's one location order, which is all the symbolic path
    reads. The scan builds only those; ``story_states`` builds the content
    records from the scan's move notes the first time it is asked for a
    story, and gives every record in emission order, whatever the targets:
    a backend with ``location_states`` states every entity.
    """

    def __init__(self):
        lines: dict[str, tuple] = {}
        self._scan_of = LastStory(lambda story: _scan(story, lines))

    # -- StateBackend protocol ------------------------------------------------

    def story_states(self, story, targets):
        return list(self._scan_of(story).records)

    event_states = event_states

    def location_names(self, story):
        return list(self._scan_of(story).places)

    def location_states(self, story) -> tuple[EntityStateRecord, ...]:
        """The location records of ``story_states``, the same objects in the
        scan's one location order, the emission order, with no content
        record built and no merge run; not a member of :class:`StateBackend`."""
        return self._scan_of(story).locations

    def key_entities(self, story, questions):
        """Character locations and container contents; the question-mandated
        pairs are added by :func:`identify_key_entities`."""
        pairs = [EntityAttribute(entity=c, attribute=LOCATION) for c in story.characters]
        # The first container each questioned entity was declared in carries
        # the content attribute (its emptying is a state change of interest).
        declared = self._scan_of(story).containers
        for q in questions:
            container = declared.get(q.target_entity.casefold())
            if container is not None:
                pairs.append(EntityAttribute(entity=container, attribute=CONTENT))
        return pairs


def mandated_pairs(story: Story, questions: list[ToMQuestion]) -> list[EntityAttribute]:
    """Pairs every extraction must include: the location of each question's
    target, then of every character in any belief chain; one pair per
    (casefolded) entity, the first seen."""
    names = [display_name(q.target_entity) for q in questions]
    names += [name for q in questions for name in q.chain_names]
    pairs: dict[str, EntityAttribute] = {}
    for name in names:
        key = name.casefold()
        if key not in pairs:
            pairs[key] = EntityAttribute(entity=name, attribute=LOCATION)
    return list(pairs.values())


def _first_mention(story: Story, entity: str) -> int:
    needle = entity.casefold()
    for event in story.events:
        if needle in event.text.casefold():
            return event.index
    return len(story.events) + 1


def identify_key_entities(
    story: Story, questions: list[ToMQuestion], backend: StateBackend
) -> list[EntityAttribute]:
    """Entity/attribute pairs worth tracking: every question-mandated pair,
    then the backend's other pairs in first-mention order while fewer than
    MAX_KEY_ENTITIES are kept. Mandated pairs are never cut, even past the
    cap. When no kept pair is a non-person entity, the last pair that is not
    mandated gives way to the first non-person pair, if the story has one.
    """
    if not questions:
        raise ValidationError("identify_key_entities needs at least one question")
    raw = backend.key_entities(story, list(questions))

    # One pair per key, the first seen.
    pairs: dict[tuple[str, str], EntityAttribute] = {}
    for pair in mandated_pairs(story, questions):
        pairs.setdefault(pair.key, pair)
    mandated_count = len(pairs)
    extras = [p for p in raw if p.key not in pairs]
    extras.sort(key=lambda p: _first_mention(story, p.entity))
    for pair in extras:
        pairs.setdefault(pair.key, pair)
    ordered = list(pairs.values())

    kept = ordered[: max(MAX_KEY_ENTITIES, mandated_count)]
    person = story.characters_by_key
    if not any(p.key[0] not in person for p in kept):
        non_person = next((p for p in ordered if p.key[0] not in person), None)
        if non_person is not None and len(kept) > mandated_count:
            kept[-1] = non_person
        else:
            log.debug("no non-person pair can be kept; keeping a person-only extraction")
    return kept


def generate_states(
    story: Story, targets: list[EntityAttribute], backend: StateBackend
) -> list[EntityStateRecord]:
    """State records for the whole story, sorted and deduplicated by
    :func:`merge_states`. The backend is asked once per story, through
    ``story_states``; only events with a state change contribute records."""
    if not targets:
        raise ValidationError("generate_states needs a non-empty target list")
    return merge_states(backend.story_states(story, list(targets)))


def merge_states(records: Iterable[EntityStateRecord]) -> list[EntityStateRecord]:
    """Records sorted by event and key. Duplicate assertions for the same
    (event, entity, attribute) keep the last emission. This is where records
    enter the pipeline, so each leaves with its attribute spelled as its
    key: a chat model's ``Location`` is a location in every later layer.
    """
    merged: dict[tuple[int, tuple[str, str]], EntityStateRecord] = {}
    for record in records:
        key = record.key
        if record.attribute != key[1]:
            record = keyed_record(record.event_index, record.entity, key[1], record.state, key)
        merged[(record.event_index, key)] = record
    return [merged[k] for k in sorted(merged)]


def extract_locations(story: Story, backend: StateBackend) -> list[LocationAnchor]:
    """Enterable places of the story as anchors; containers are excluded."""
    names = backend.location_names(story)
    anchors = build_anchors(names)
    if not anchors:
        raise ExtractionError("no enterable location found in the story")
    return anchors
