"""Story data model: events, serialized formats, and character identification.

Two source formats are supported. The JSON document format is

    {"kind": "event"|"dialogue", "characters": [str]?, "metadata": {..}?,
     "events": [{"text": str, "speaker": str?}, ...]}

and the plain-text format is one event per line, where a leading ``Name: ``
prefix marks a dialogue utterance. Event indices are 1-based and contiguous.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field

from .errors import StoryFormatError, ValidationError

EVENT_KIND = "event"
DIALOGUE_KIND = "dialogue"

# Verbs whose grammatical subject is treated as a character by the fallback
# identification heuristic (`leading_subjects`).
AGENTIVE_VERBS = frozenset(
    {"entered", "exited", "moved", "said", "likes", "hates", "made", "stayed", "joined", "left"}
)

# "Ava entered ...", "Ava, Ben and Cleo entered ..." (with or without the
# Oxford comma before "and"). The one name pattern of the pipeline.
NAME = r"[A-Z][a-z]+"
NAME_LIST = rf"{NAME}(?:\s*,\s*{NAME})*(?:,? and {NAME})?"
_SUBJECT_RE = re.compile(rf"^({NAME_LIST})\s+([a-z]+)")
_SPEAKER_RE = re.compile(r"^([A-Z][A-Za-z .'-]{0,40}?):\s+(\S.*)$")
_NAME_SEP_RE = re.compile(r"\s*,\s*(?:and\s+)?|\s+and\s+")


@dataclass(frozen=True, slots=True)
class Event:
    """One narrative event or utterance, 1-indexed within its story."""

    index: int
    text: str
    speaker: str | None = None

    def render(self) -> str:
        """The numbered line: ``i: text``, or ``i: Speaker: text`` for an
        utterance."""
        if self.speaker:
            return f"{self.index}: {self.speaker}: {self.text}"
        return f"{self.index}: {self.text}"


_new = object.__new__
_set = object.__setattr__


def _event(index: int, text: str, speaker: str | None = None) -> Event:
    """``Event(index, text, speaker)`` built past the dataclass ``__init__``:
    each field goes into its slot with ``object.__setattr__``, as the frozen
    ``__init__`` puts it there, without the keyword binding. The generator
    and both story readers build their events here."""
    event = _new(Event)
    _set(event, "index", index)
    _set(event, "text", text)
    _set(event, "speaker", speaker)
    return event


@dataclass(frozen=True)
class Story:
    """An ordered event sequence with the characters it involves;
    `characters_by_key` maps each casefolded name to its stored casing."""

    events: tuple[Event, ...]
    characters: tuple[str, ...]
    kind: str = EVENT_KIND
    metadata: dict = field(default_factory=dict)
    characters_by_key: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.events:
            raise ValidationError("a story must contain at least one event")
        for pos, event in enumerate(self.events, start=1):
            if event.index != pos:
                raise ValidationError(
                    f"event indices must be contiguous from 1; saw {event.index} at position {pos}"
                )
            if not event.text.strip():
                raise ValidationError(f"event {pos} has empty text")
        by_key = {name.casefold(): name for name in self.characters}
        if len(by_key) != len(self.characters):
            raise ValidationError("duplicate character names (case-insensitive)")
        object.__setattr__(self, "characters_by_key", by_key)
        for event in self.events:
            if event.speaker is not None and event.speaker.casefold() not in by_key:
                raise ValidationError(
                    f"speaker {event.speaker!r} of event {event.index} is not a story character"
                )

    def has_character(self, name: str) -> bool:
        return name.casefold() in self.characters_by_key

    def key(self) -> str:
        """Stable identity over kind and event content, for caching. The
        payload, one ``speaker<TAB>text`` line an event, reads back one way
        when it holds one newline an event and no speaker (a character) holds
        a tab; any other story hashes a JSON form that no such payload equals."""
        import hashlib

        payload = self.kind + "\n" + "\n".join(f"{e.speaker or ''}\t{e.text}" for e in self.events)
        if payload.count("\n") != len(self.events) or any("\t" in name for name in self.characters):
            payload = "\0" + json.dumps([self.kind, [[e.speaker or "", e.text] for e in self.events]])
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class LastStory:
    """``build(story)`` for the last story it was called with, the one memo
    of a per-story fact. The match is by identity (``is``): a ``Story``
    holds a dict and cannot be hashed, and stories are frozen, so a value
    found this way is never stale; an equal story that is another object
    gets its own build. The story and its value are one reference, replaced
    whole, so a concurrent caller never reads another story's value; at
    worst it builds one again."""

    def __init__(self, build):
        self.build = build
        self.last: tuple[Story, object] | None = None

    def __call__(self, story: Story):
        last = self.last
        if last is None or last[0] is not story:
            last = self.last = (story, self.build(story))
        return last[1]


def split_name_list(subject: str) -> list[str]:
    """Break ``"Ava, Ben and Cleo"`` into names; Oxford commas welcome."""
    if "," not in subject and "and" not in subject:  # one name: nothing to split on
        return [subject] if subject else []
    return [n for n in _NAME_SEP_RE.split(subject) if n]


def leading_subjects(text: str) -> list[str]:
    """Names at the start of an event whose verb marks them as agents."""
    m = _SUBJECT_RE.match(text.strip())
    if not m:
        return []
    if m.group(2) not in AGENTIVE_VERBS:
        return []
    return split_name_list(m.group(1))


def guess_characters(events, kind: str = EVENT_KIND) -> tuple[str, ...]:
    """Character names in first-appearance order, without a declaration.

    Event stories use the agentive-subject heuristic; dialogue stories take
    the union of speaker fields plus agentive subjects of narration lines
    (join/leave announcements).
    """
    found: list[str] = []
    seen: set[str] = set()

    def add(name: str):
        if name.casefold() not in seen:
            seen.add(name.casefold())
            found.append(name)

    for event in events:
        if kind == DIALOGUE_KIND and event.speaker:
            add(event.speaker)
        if kind == EVENT_KIND or event.speaker is None:
            for name in leading_subjects(event.text):
                add(name)
    return tuple(found)


def _events_from_lines(lines: list[str]) -> tuple[list[Event], str]:
    events: list[Event] = []
    kind = EVENT_KIND
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        speaker = None
        m = _SPEAKER_RE.match(text)
        if m:
            speaker, text = m.group(1), m.group(2)
            kind = DIALOGUE_KIND
        events.append(_event(len(events) + 1, sys.intern(text), speaker))
    return events, kind


def _events_from_json(raw_events, source: str) -> list[Event]:
    if not isinstance(raw_events, (list, tuple)):
        raise StoryFormatError(f"{source}: 'events' must be a list")
    events: list[Event] = []
    for pos, item in enumerate(raw_events, start=1):
        if not isinstance(item, dict) or not isinstance(item.get("text"), str):
            raise StoryFormatError(f"{source}: event {pos} must be an object with a string 'text'")
        text = item["text"].strip()
        if not text:
            raise StoryFormatError(f"{source}: event {pos} has empty text")
        speaker = item.get("speaker")
        if speaker is not None and not isinstance(speaker, str):
            raise StoryFormatError(f"{source}: event {pos}: 'speaker' must be a string")
        events.append(_event(pos, sys.intern(text), speaker))
    return events


def parse_story(raw: str | dict) -> Story:
    """Parse a story document (JSON object/string, or plain text split at line feeds).

    Characters come from the document's declaration when present, otherwise
    from :func:`guess_characters`. Each event's text is interned, so stories
    read one by one share one string per distinct line. Raises
    :class:`StoryFormatError` for malformed documents and
    :class:`ValidationError` for empty event lists.
    """
    declared = None
    metadata: dict = {}
    if isinstance(raw, dict) or (isinstance(raw, str) and raw.lstrip().startswith("{")):
        doc = raw
        if isinstance(doc, str):
            try:
                doc = json.loads(doc)
            except json.JSONDecodeError as exc:
                raise StoryFormatError(f"invalid story JSON: {exc}") from exc
        if "events" not in doc:
            raise StoryFormatError("story document: missing 'events' field")
        kind = doc.get("kind", EVENT_KIND)
        if kind not in (EVENT_KIND, DIALOGUE_KIND):
            raise StoryFormatError(f"story document: unknown kind {kind!r}")
        events = _events_from_json(doc["events"], "story document")
        declared = doc.get("characters")
        if declared is not None:
            if not isinstance(declared, (list, tuple)) or not all(isinstance(c, str) for c in declared):
                raise StoryFormatError("story document: 'characters' must be a list of strings")
        metadata = doc.get("metadata", {})
        if not isinstance(metadata, dict):
            raise StoryFormatError("story document: 'metadata' must be an object")
        metadata = dict(metadata)
    else:
        events, kind = _events_from_lines(raw.split("\n"))

    if not events:
        raise ValidationError("story has no events")

    if declared is not None:
        characters = tuple(declared)
    else:
        characters = guess_characters(events, kind)
        # Speakers are characters by construction; make the invariant hold
        # even when an utterance's speaker never takes an agentive verb.
        folded = {c.casefold() for c in characters}
        extra = [e.speaker for e in events if e.speaker and e.speaker.casefold() not in folded]
        for name in extra:
            if name.casefold() not in folded:
                characters = characters + (name,)
                folded.add(name.casefold())
    if not characters:
        raise ValidationError("no character could be identified in the story")
    return Story(events=tuple(events), characters=characters, kind=kind, metadata=metadata)


def serialize_story(story: Story) -> dict:
    """Story as its JSON document form; round-trips through parse_story."""
    doc = {
        "kind": story.kind,
        "characters": list(story.characters),
        "events": [
            {"text": e.text} if e.speaker is None else {"text": e.text, "speaker": e.speaker}
            for e in story.events
        ],
    }
    if story.metadata:
        doc["metadata"] = dict(story.metadata)
    return doc
