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
entity whatever the targets, so the pipeline never asks it for them. Its
symbolic path runs no record merge and builds no character's location
record: the scene pass reads the scan's :class:`EventColumns` (each event's
movers, placements and actors, kept with each distinct line's reading), and
a character's records are built only when something reads the scan's
`locations`, the one view of its location records.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from sys import intern
from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

from .errors import ExtractionError, ProtocolError, ValidationError
from .story import DIALOGUE_KIND, NAME, NAME_LIST, LastStory, Story, leading_subjects, split_name_list
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
class EventColumns:
    """What the scene pass reads of each event, one entry an event, in story
    order.

    `movers` maps each character whose location the event sets, casefolded,
    to its location state (a character's last record at the event wins);
    `placements` holds the event's other location records, an object's or a
    name's that is no character, in record order (``()`` when it has none);
    `actors` holds the casefolded names the event's text opens with as
    agents (:func:`mindmask.story.leading_subjects`), or is None when the
    scene pass is to parse them from the text itself. `rooms` is the room
    tables the scene pass resolves location states through, one per anchor
    set (``frozenset`` of anchors): a backend's, kept for its lifetime, or a
    fresh ``{}``.

    The columns a backend hands the scene pass (:class:`_Scan`,
    :class:`mindmask.remote.RowColumns`) also carry `records`, what the
    backend's ``story_states`` returns, and `locations`, the location
    records the graphs stand for, each built the first time it is read.
    """

    movers: list[dict[str, str]]
    placements: list[list[EntityStateRecord] | tuple[()]]
    actors: list[tuple[str, ...]] | None
    rooms: dict = field(repr=False, compare=False)


@dataclass(frozen=True)
class _Scan(EventColumns):
    """One pass over a story's text: its scene columns, each event's line
    reading, the display name of each entity (casefolded) it has seen, one
    note per move, its enterable places in first-mention order, and the first
    container each object (casefolded) was declared in.

    The pass builds the placements' records only. The characters' location
    records, `locations` (every location record in the emission order) and
    `records` (content records too, what ``RuleBackend.story_states``
    returns) are built from the columns, the readings and the notes the
    first time each is read. A move note is ``(event index, container,
    object, old container or None)``, with display names.
    """

    readings: list[tuple] = field(repr=False)
    display: dict[str, str] = field(repr=False)
    moves: tuple[tuple[int, str, str, str | None], ...]
    places: tuple[str, ...]
    containers: dict[str, str]

    @cached_property
    def locations(self) -> list[EntityStateRecord]:
        """Every location record in the emission order: at an enter, exit,
        join or leave line, one a name as written, repeats included."""
        records: list[EntityStateRecord] = []
        display = self.display
        for i, (reading, moved, placed) in enumerate(
            zip(self.readings, self.movers, self.placements), start=1
        ):
            if not moved:
                records += placed
                continue
            # A mover line's subjects are its names, a character's record or
            # a placement each; a speaker's first utterance, a line that reads
            # as nothing, is the one mover of its event.
            verb, *_, subjects = reading
            strangers = iter(placed)
            for key in moved if verb is None else subjects:
                if key in moved:
                    records.append(keyed_record(i, display[key], LOCATION, moved[key], (key, LOCATION)))
                else:
                    records.append(next(strangers))
        return records

    @cached_property
    def records(self) -> tuple[EntityStateRecord, ...]:
        """Every record in emission order: each move's content records come
        straight after its object's location record, the move's only one."""
        records: list[EntityStateRecord] = []
        moves = iter(self.moves)
        move = next(moves, None)
        for record in self.locations:
            records.append(record)
            if move is not None and record.event_index == move[0]:
                index, container, obj, old = move
                # A display name casefolds to its key.
                records.append(keyed_record(index, container, CONTENT, obj, (container.casefold(), CONTENT)))
                if old is not None:
                    records.append(keyed_record(index, old, CONTENT, "empty", (old.casefold(), CONTENT)))
                move = next(moves, None)
        return tuple(records)


_ENTER, _EXIT, _MOVE, _DECLARE, _JOIN, _LEAVE = range(1, 7)
_NOTHING = (None, None, None, None, None, None, ())
_IN_CONVERSATION = intern(f"in the {CONVERSATION}")


def _place(name: str) -> tuple[str, str] | None:
    key = normalize_place(name)
    return (intern(key), name) if key else None


@lru_cache(maxsize=128)
def _actors(names: tuple[str, ...]) -> tuple[str, ...]:
    """`names` casefolded and interned. Memoized, boundedly, so the lines
    that open with one name, most of a story's, share one tuple a name."""
    return tuple(intern(name.casefold()) for name in names)


def _read_line(text: str) -> tuple:
    """What the grammar reads in one stripped event line, whatever story
    holds it: ``(verb, who, where, state, place, declared, actors)``.

    `verb` is the first of enter, exit, move, declare, join and leave that
    matches, or None. `who` is the names of an enter, exit, join or leave
    line (a tuple), or the object of a move or declaration, `where` the
    place or container it names, and `state` the location state its records
    take. `place` is ``(normalized place, place)`` from an enter, exit or
    stay line that is not a move, and `declared` is ``(casefolded object,
    container)`` from a declaration, whatever else the line reads as.
    `actors` is the names the line opens with as agents
    (:func:`mindmask.story.leading_subjects`), casefolded: an enter, exit,
    move, join or leave line opens with its names and an agentive verb, so
    they are its actors (and those of an enter, exit, join or leave line are
    its movers), and any other line is parsed for them. Every string is an
    interned match group or a form of one, so a reading holds nothing of any
    one story; a line that reads as nothing gets the one shared `_NOTHING`.

    Enter, exit, move and stay lines start with a name and differ in the
    verb, so at most one of them matches; a declare line may match any of
    them as well. Each pattern is tried only when its fixed text is present,
    a necessary condition for its match."""
    declare = _DECLARE_RE.match(text) if text.startswith("The ") else None
    declared = (intern(declare[1].casefold()), intern(declare[2])) if declare else None
    if " entered the " in text and (m := _ENTER_RE.match(text)):
        place, names = intern(m[2]), tuple(map(intern, split_name_list(m[1])))
        actors, state = _actors(names), intern(f"in the {place}")
        return (_ENTER, names, place, state, _place(place), declared, actors)
    if " exited the " in text and (m := _EXIT_RE.match(text)):
        place, names = intern(m[2]), (intern(m[1]),)
        actors, state = _actors(names), intern(f"outside the {place}")
        return (_EXIT, names, place, state, _place(place), declared, actors)
    if " moved the " in text and (m := _MOVE_RE.match(text)):
        container = intern(m[3])
        state = intern(f"in {container}")
        return (_MOVE, intern(m[2]), container, state, None, declared, _actors((m[1],)))
    actors = _actors(tuple(leading_subjects(text)))
    m = _STAY_RE.match(text) if " stayed in the " in text else None
    place = _place(intern(m[2])) if m else None
    if declare:
        state = intern(f"in the {declared[1]}")
        return (_DECLARE, intern(declare[1]), declared[1], state, place, declared, actors)
    if " joined the conversation." in text and (m := _JOIN_RE.match(text)):
        names = tuple(map(intern, split_name_list(m[1])))
        return (_JOIN, names, CONVERSATION, _IN_CONVERSATION, place, None, actors)
    if " left the conversation." in text and (m := _LEAVE_RE.match(text)):
        names, state = (intern(m[1]),), intern(f"outside the {CONVERSATION}")
        return (_LEAVE, names, CONVERSATION, state, place, None, actors)
    if place is None and not actors:
        return _NOTHING
    return (None, None, None, None, place, None, actors)


def _scan(story: Story, lines: dict[str, tuple], rooms: dict) -> _Scan:
    """Read every event against the grammar, once per distinct line a
    backend sees: `lines` maps each stripped line to its :func:`_read_line`
    reading, and only a line it lacks is matched. `rooms` is the backend's
    room tables, carried by the scan as :attr:`EventColumns.rooms`.

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
    first-mention order, and the scene columns. A character's location
    record is a mover in its event's column, and only an enter, exit, join
    or leave line, or a speaker's first utterance, moves one: an object named
    like a character is placed, not moved, as a move or a declaration places
    its object (only a move leaves a note). The pass builds the placements'
    records only; :attr:`_Scan.locations` and :attr:`_Scan.records` build the
    rest the first time each is read, and every display name is the entity's
    first-seen spelling, remembered here.
    """
    dialogue = story.kind == DIALOGUE_KIND
    characters = story.characters_by_key.keys()
    readings: list[tuple] = []
    movers: list[dict[str, str]] = []
    placements: list[list[EntityStateRecord] | tuple[()]] = []
    actors: list[tuple[str, ...]] = []
    moves: list[tuple[int, str, str, str | None]] = []
    places: dict[str, str] = {}
    containers: dict[str, str] = {}
    inside: dict[str, str] = {}  # object key -> container key
    display: dict[str, str] = {}
    # Who is in the conversation; only a dialogue reads it.
    present: set[str] = set()
    no_movers: dict[str, str] = {}

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
        verb, who, where, state, place, declared, subjects = reading
        readings.append(reading)
        actors.append(subjects)
        if declared is not None:
            containers.setdefault(*declared)
        if place is not None and not dialogue:
            places.setdefault(*place)
        i = event.index
        placed = ()
        if verb == _ENTER or verb == _EXIT or (dialogue and (verb == _JOIN or verb == _LEAVE)):
            # The line's subjects are its names, casefolded, in order.
            moved = dict.fromkeys(subjects, state)
            if not moved.keys() <= display.keys():
                for name, key in zip(who, subjects):
                    if key not in display:
                        first_seen(key, name)
            if dialogue:
                if verb == _ENTER or verb == _JOIN:
                    present.update(moved)
                else:
                    present.difference_update(moved)
            if not moved.keys() <= characters:
                # A name that is no character is placed like an object.
                placed = [
                    keyed_record(i, display[key], LOCATION, state, (key, LOCATION))
                    for key in subjects
                    if key not in characters
                ]
                moved = dict.fromkeys([key for key in subjects if key in characters], state)
        elif verb == _MOVE or verb == _DECLARE:
            # An object put in a container; only a move leaves a note.
            moved = no_movers
            obj_key, cont_key = who.casefold(), where.casefold()
            obj = display.get(obj_key) or first_seen(obj_key, who)
            placed = [keyed_record(i, obj, LOCATION, state, (obj_key, LOCATION))]
            container = display.get(cont_key) or first_seen(cont_key, where)
            old_key = inside.get(obj_key)
            inside[obj_key] = cont_key
            if verb == _MOVE:
                old = display[old_key] if old_key is not None and old_key != cont_key else None
                moves.append((i, container, obj, old))
        elif dialogue and event.speaker is not None and (key := event.speaker.casefold()) not in present:
            present.add(key)
            if key not in display:
                first_seen(key, event.speaker)
            moved = {key: _IN_CONVERSATION}
        else:
            moved = no_movers
        movers.append(moved)
        placements.append(placed)
    names = (CONVERSATION,) if dialogue else tuple(places.values())
    return _Scan(movers, placements, actors, rooms, readings, display, tuple(moves), names, containers)


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
    whatever story repeats it, and one room table per anchor set, carried
    by each scan as :attr:`EventColumns.rooms`, so the scene pass resolves
    each location state once per room set whatever story repeats it; a new
    backend starts with neither.

    Outside the protocol, :meth:`scene_columns` gives the scan itself, whose
    :class:`EventColumns` are what the scene pass reads and whose
    `locations` are the location records alone, in the scan's one location
    order. The scan builds only the records of its placements; the
    characters' location records are built the first time `locations` is
    read, and the content records, from the scan's move notes, the first
    time ``story_states`` asks for a story. ``story_states`` gives every
    record in emission order, whatever the targets: a backend with
    ``scene_columns`` states every entity.
    """

    def __init__(self):
        lines: dict[str, tuple] = {}
        rooms: dict = {}
        self._scan_of = LastStory(lambda story: _scan(story, lines, rooms))

    # -- StateBackend protocol ------------------------------------------------

    def story_states(self, story, targets):
        return list(self._scan_of(story).records)

    event_states = event_states

    def location_names(self, story):
        return list(self._scan_of(story).places)

    def scene_columns(self, story) -> _Scan:
        """The story's scan: its :class:`EventColumns`, built with no
        character location record, and its ``locations`` and ``records``,
        each built the first time it is read; not a member of
        :class:`StateBackend`."""
        return self._scan_of(story)

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
