"""Remote chat-model backends: HTTP client, prompt filling, record cache.

The wire format is the ubiquitous JSON chat-completion shape: POST
``{base_url}/chat/completions`` with a model name, a single user message, and
temperature 0 for reproducibility. The bearer token is read from the
``MINDMASK_API_KEY`` environment variable. A custom ``transport`` callable
can stand in for the network (tests use this; so can offline replay).
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import logging
import os
import re
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path

from .errors import BackendError, CacheFormatError, ExtractionError, ProtocolError
from .nkb import (
    LOCATION, EntityAttribute, EntityStateRecord, EventColumns, event_states, keyed_record, merge_states,
)
from .story import LastStory, Story

log = logging.getLogger(__name__)

API_KEY_ENV = "MINDMASK_API_KEY"
TEMPERATURE = 0.0
TIMEOUT_S = 120.0

# The "<attribute> of <entity>" pair of a state line and of a key-entity item:
# the attribute is the shortest text before an `of` in any case.
_PAIR = r"(.+?)\s+of\s+"
_RECORD_LINE = re.compile(
    rf"^\s*-?\s*\[?\s*(?:event\s*)?(\d+)\s*\]?\s*:\s*{_PAIR}(.+?)\s+becomes\s+(.+)$",
    re.IGNORECASE,
)
_PAIR_ITEM = re.compile(rf"{_PAIR}(.+)", re.IGNORECASE)
_BULLET_LINE = re.compile(r"^\s*-\s*(.+)$")
_ENTITIES_BLOCK = re.compile(r"<entities>(.*?)</entities>", re.IGNORECASE | re.DOTALL)
# A prompt template's `{{name}}` slot marker.
_SLOT = re.compile(r"\{\{([^{}]+)\}\}")


@functools.cache
def load_prompt(name: str) -> str:
    """A shipped prompt template; package data, so each is read once."""
    return resources.files("mindmask").joinpath(f"prompts/{name}.txt").read_text(encoding="utf-8")


def fill_prompt(template: str, slots: dict[str, str]) -> str:
    """The template with each ``{{name}}`` marker given in ``slots`` filled,
    in one pass, so a marker inside a filled value stays as written; a
    marker not in ``slots`` stays too."""
    return _SLOT.sub(lambda m: slots.get(m[1], m[0]), template)


def indexed_narrative(story: Story) -> str:
    return "\n".join(e.render() for e in story.events)


# What a request and its body read raise: socket errors, timeouts, `URLError`,
# a dropped or short response, and a body that is not UTF-8 or not JSON.
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException, ValueError)


def _default_transport(url: str, headers: dict, payload: dict, timeout: float) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), headers=headers, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            body = exc.read().decode("utf-8", "replace")
        except _TRANSPORT_ERRORS as read_error:
            body = f"<body did not read: {read_error!r}>"
        raise BackendError(f"chat endpoint returned HTTP {exc.code}", raw_response=body) from exc
    except _TRANSPORT_ERRORS as exc:
        raise BackendError(f"chat endpoint failed: {exc!r}") from exc


@dataclass
class ChatClient:
    """Minimal chat-completion client (greedy decoding, temperature 0)."""

    base_url: str
    model: str
    transport: object = None

    def complete(self, prompt: str) -> str:
        url = self.base_url.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(API_KEY_ENV, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": TEMPERATURE,
        }
        transport = self.transport or _default_transport
        data = transport(url, headers, payload, TIMEOUT_S)
        try:
            content = data["choices"][0]["message"]["content"]
            if content is None or type(content) is str:
                return content or ""
        except (KeyError, IndexError, TypeError):
            pass
        raise BackendError(
            "malformed chat response", raw_response=json.dumps(data, default=repr)[:2000]
        )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@functools.cache
def _fixed_digest(text: str) -> str:
    """`_digest` of a template text or a backend name, which every cache key
    carries; hashed once per process."""
    return _digest(text)


_RECORD_KEYS = {"event_index", "entity", "attribute", "state"}


def _fields(row) -> list | tuple:
    """A state row as ``[event_index, entity, attribute, state]``; a row
    cached before state rows were arrays is a dict of those four keys."""
    if type(row) is dict:
        return row["event_index"], row["entity"], row["attribute"], row["state"]
    return row


def _are_record_rows(value) -> bool:
    """Whether ``value`` is state rows in the exact shape `RemoteBackend`
    stores: a list of ``[event_index, entity, attribute, state]`` arrays, an
    int and three strings each. A log written before state rows were arrays
    holds each as a dict of those four keys instead."""
    if type(value) is not list:
        return False
    for row in value:
        if type(row) is dict and row.keys() == _RECORD_KEYS:
            row = _fields(row)
        elif type(row) is not list or len(row) != 4:
            return False
        index, entity, attribute, state = row
        if not (type(index) is int and type(entity) is type(attribute) is type(state) is str):
            return False
    return True


def _are_pairs(value) -> bool:
    """Key-entity pairs as cached: ``[entity, attribute]`` string lists."""
    return type(value) is list and all(
        type(pair) is list and len(pair) == 2 and type(pair[0]) is str and type(pair[1]) is str
        for pair in value
    )


def _is_text(value) -> bool:
    return type(value) is str


def _are_names(value) -> bool:
    return type(value) is list and all(type(name) is str for name in value)


def _targets_key(targets: list[EntityAttribute]) -> str:
    return _digest("\n".join(sorted(t.render().casefold() for t in targets)))


LOG_NAME = "records.log"


class RecordCache:
    """Parsed chat replies in one append-only log per directory, ``records.log``.

    Each entry is one line, ``<key>\\t<json.dumps(value)>\\n``, appended with
    a single write; the last line for a key wins. A state entry is a list of
    ``[event_index, entity, attribute, state]`` arrays; a log written before
    that holds ``{"event_index", "entity", "attribute", "state"}`` dicts,
    which are still read, so its stories are never asked again. A key names
    the prompt template and carries digests of the story, the template's own
    input (the targets or the question list), the template text and the
    backend name, so an edited template, other targets or another model
    misses. An answer entry is a reply's raw text, keyed by digests of its
    filled prompt, the ``answer_question`` template and the model name.
    ``fetch`` reads a reply's entry, or asks for the reply and appends it;
    state rows, checked before they are stored, use ``load`` and ``store``.

    The first lookup indexes the log: each key's line number, offset and
    length, not its text, so a lookup reads its one line back. Bytes after the
    last newline are a torn append and never an entry; the next store cuts
    them off before it appends. A line without a tab has no key and is no
    entry. One process writes a directory at a time.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / LOG_NAME
        self._index: dict[bytes, tuple[int, int, int]] | None = None
        self._end = 0  # the offset just past the last indexed line
        self._lines = 0
        self._story_key = LastStory(lambda story: story.key())

    def key(self, template: str, story: Story, part: str, backend_name: str) -> bytes:
        """The entry key of ``template``'s reply for ``story``. One memo, a
        :class:`mindmask.story.LastStory`, keeps the last story's key, so its
        three replies hash it once; a template text and a backend name are
        hashed once per process."""
        story_key = self._story_key(story)
        text, name = _fixed_digest(load_prompt(template)), _fixed_digest(backend_name)
        return f"{template}-{story_key}-{part}-{text}-{name}".encode()

    def _scan(self) -> int:
        """Index the complete lines past the last indexed one and return the
        log's size. A log shorter than the indexed part was cut or replaced,
        and is indexed afresh."""
        if self._index is None:
            self._index = {}
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return 0
        with handle:
            size = os.fstat(handle.fileno()).st_size
            if size < self._end:
                self._index.clear()
                self._end = self._lines = 0
            handle.seek(self._end)
            for line in handle:
                if line[-1:] != b"\n":
                    break
                self._lines += 1
                tab = line.find(b"\t")
                if tab > 0:
                    self._index[line[:tab]] = (self._lines, self._end, len(line))
                self._end += len(line)
        return size

    def get(self, key: bytes, check):
        """The value last stored under ``key``, or None. A line that does not
        decode, or whose value fails ``check``, raises `CacheFormatError`."""
        if self._index is None:
            self._scan()
        entry = self._index.get(key)
        if entry is None:
            return None
        lineno, offset, length = entry
        fd = os.open(self.path, os.O_RDONLY)
        try:
            line = os.pread(fd, length, offset)
        finally:
            os.close(fd)
        try:
            value = json.loads(line[len(key) + 1:])
        except ValueError as exc:
            raise CacheFormatError(f"{self.path}: line {lineno} does not decode: {exc}") from exc
        if not check(value):
            kind = key.partition(b"-")[0].decode()
            raise CacheFormatError(f"{self.path}: line {lineno} is not a {kind} reply: {line[:200]!r}")
        return value

    def fetch(self, key: bytes, check, ask):
        """The value ``get`` reads under ``key``, or else ``ask()``'s, stored
        under ``key``; an ``ask`` that raises stores nothing."""
        value = self.get(key, check)
        if value is None:
            value = ask()
            self.put(key, value)
        return value

    def put(self, key: bytes, value) -> None:
        """Append one entry with one write, after cutting off a torn tail."""
        line = key + b"\t" + json.dumps(value).encode() + b"\n"
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            if self._index is None or os.fstat(fd).st_size != self._end:
                if self._scan() > self._end:
                    os.ftruncate(fd, self._end)
            if os.write(fd, line) != len(line):
                raise OSError(f"{self.path}: short write")
        finally:
            os.close(fd)
        self._lines += 1
        self._index[key] = (self._lines, self._end, len(line))
        self._end += len(line)

    def load(self, story, targets, backend_name) -> list | None:
        """The state rows cached for (story, targets, backend name), as they
        were stored, or None: ``[event_index, entity, attribute, state]``
        arrays, or the dict rows of an older log. Any other row raises
        `CacheFormatError`."""
        key = self.key("generate_states", story, _targets_key(targets), backend_name)
        return self.get(key, _are_record_rows)

    def store(self, story, targets, backend_name, rows: list) -> None:
        """Append ``rows`` as given under (story, targets, backend name)."""
        key = self.key("generate_states", story, _targets_key(targets), backend_name)
        self.put(key, rows)


def _bullets(text: str) -> list[str]:
    """The items of ``text``'s ``- item`` lines, split at line feeds alone,
    without trailing whitespace (a carriage return included). An item of
    whitespace alone stays the one character the pattern left it."""
    lines = map(_BULLET_LINE.match, text.split("\n"))
    return [(item := m.group(1)).rstrip() or item for m in lines if m]


def _entity_pairs(response: str) -> list[list[str]]:
    """``[entity, attribute]`` pairs of a key-entity reply; a reply with none raises."""
    block = _ENTITIES_BLOCK.search(response)
    body = block.group(1) if block else response
    matches = filter(None, map(_PAIR_ITEM.fullmatch, _bullets(body)))
    pairs = [[m.group(2).strip(), m.group(1).strip()] for m in matches]
    if not pairs:
        raise ExtractionError(f"no entity pairs in backend response: {response[:500]!r}")
    return pairs


def _room_names(response: str) -> list[str]:
    names = _bullets(response)
    if not names:
        raise ExtractionError(f"no rooms in backend response: {response[:500]!r}")
    return names


@dataclass(frozen=True)
class RowColumns(EventColumns):
    """The scene columns of a story's state rows, filled by
    :func:`row_columns`, with actors left to the text.

    Keeps the rows and the casefolded key of each (entity, attribute) pair
    they name. `records`, one record a row in row order, spelled as the row
    spells it (what ``RemoteBackend.story_states`` returns), and
    `locations`, the location records of ``merge_states(records)``, are
    built the first time each is read.
    """

    rows: list = field(repr=False)
    keys: dict[tuple[str, str], tuple[str, str]] = field(repr=False)

    @cached_property
    def records(self) -> list[EntityStateRecord]:
        keys = self.keys
        return [keyed_record(i, e, a, s, keys[e, a]) for i, e, a, s in map(_fields, self.rows)]

    @cached_property
    def locations(self) -> list[EntityStateRecord]:
        return merge_states(r for r in self.records if r.key[1] == LOCATION)


def row_columns(story: Story, rows: list, rooms: dict) -> RowColumns:
    """The scene columns of ``rows``, state rows of ``story``, carrying the
    room tables ``rooms``, in one pass that checks each row's event index
    and casefolds each distinct (entity, attribute) pair once. A character's
    location row moves it and any other location row is a placement; as in
    :func:`mindmask.nkb.merge_states`, the last row for each (event, key)
    wins, and an event's movers and placements are ordered by key. Only the
    placements' records are built.
    """
    n = len(story.events)
    characters = story.characters_by_key
    keys: dict[tuple[str, str], tuple[str, str]] = {}
    no_movers: dict[str, str] = {}
    movers = [no_movers] * n
    placed: dict[int, dict[tuple[str, str], tuple[str, str]]] = {}
    for row in rows:
        if type(row) is dict:
            row = _fields(row)
        index, entity, attribute, state = row
        if not 1 <= index <= n:
            raise ProtocolError(f"backend asserted a state for unknown event {index}")
        key = keys.get((entity, attribute))
        if key is None:
            key = keys[entity, attribute] = (entity.casefold(), attribute.casefold())
        if key[1] != LOCATION:
            continue
        if key[0] in characters:
            moved = movers[index - 1]
            if moved is no_movers:
                moved = movers[index - 1] = {}
            moved[key[0]] = state
        elif index in placed:
            placed[index][key] = entity, state
        else:
            placed[index] = {key: (entity, state)}
    for i, moved in enumerate(movers):
        if len(moved) > 1:
            movers[i] = dict(sorted(moved.items()))
    placements: list = [()] * n
    for index, here in placed.items():
        placements[index - 1] = [
            keyed_record(index, entity, LOCATION, state, key) for key, (entity, state) in sorted(here.items())
        ]
    return RowColumns(movers, placements, None, rooms, rows, keys)


class RemoteBackend:
    """State backend that queries a chat model with the shipped prompts.

    ``story_states`` sends one prompt per (story, targets) pair; the response
    lists records for every event index at once. Every index is checked
    before the rows are cached, so a response naming a nonexistent event is
    never persisted, and a response with no record line raises instead of
    being cached as an empty entry. When a cache is configured, all three
    parsed replies are cached: the key entities by story and question list,
    the rooms by story, the state records by story and targets, each also by
    its prompt template and the backend name: the first two through
    ``RecordCache.fetch``. A reply that raises is never cached.

    The three prompts of a story share one rendering of its narrative, kept
    in one memo, a :class:`mindmask.story.LastStory`, as
    :class:`mindmask.nkb.RuleBackend` keeps its last scan. Like that
    backend, each backend keeps one room table per anchor set for its
    lifetime, carried by its columns as :attr:`EventColumns.rooms`, and a
    new backend starts with none.

    Outside the protocol, :meth:`state_columns` gives the scene pass a
    story's state rows as :class:`RowColumns`, filled in one pass over the
    rows, as the rule backend's ``scene_columns`` gives its scan; the
    records are built from the rows only when read. ``story_states`` gives
    their `records`, one record a row, in row order.
    """

    def __init__(self, client: ChatClient, cache: RecordCache | None = None):
        self.client = client
        self.cache = cache
        self.name = f"remote:{client.model}"
        self.skipped_lines = 0
        self._narrative = LastStory(lambda story: indexed_narrative(story))
        self._rooms: dict = {}

    def _ask(self, template: str, story: Story, slots: dict[str, str]) -> str:
        slots = {"indexed narrative": self._narrative(story), **slots}
        return self.client.complete(fill_prompt(load_prompt(template), slots))

    def _reply(self, template, story, part, slots, parse, check):
        """``template``'s parsed reply for ``story``: the cached one, or one
        asked for, parsed and then cached."""
        def ask():
            return parse(self._ask(template, story, slots))

        if self.cache is None:
            return ask()
        return self.cache.fetch(self.cache.key(template, story, part, self.name), check, ask)

    # -- StateBackend protocol ------------------------------------------------

    def key_entities(self, story, questions):
        question_list = "\n".join(f"- {q.raw}" for q in questions)
        pairs = self._reply(
            "key_entities", story, _digest(question_list), {"question list": question_list},
            _entity_pairs, _are_pairs,
        )
        return [EntityAttribute(entity=entity, attribute=attribute) for entity, attribute in pairs]

    def location_names(self, story):
        return self._reply("extract_locations", story, "", {}, _room_names, _are_names)

    def story_states(self, story, targets):
        return self.state_columns(story, targets).records

    event_states = event_states

    def state_columns(self, story, targets) -> RowColumns:
        """The story's state rows for ``targets`` as scene columns: the
        cached rows, or a reply's, parsed, checked by :func:`row_columns`
        and then cached; not a member of
        :class:`mindmask.nkb.StateBackend`."""
        rows = self.cache.load(story, targets, self.name) if self.cache else None
        fresh = rows is None
        if fresh:
            eoi = "\n".join(f"- {t.render()}" for t in targets)
            rows = self._parse_records(self._ask("generate_states", story, {"eoi list": eoi}))
        columns = row_columns(story, rows, self._rooms)
        if fresh and self.cache:
            self.cache.store(story, targets, self.name, rows)
        return columns

    # -- internals -------------------------------------------------------------

    def _parse_records(self, response: str) -> list[list]:
        """``[event_index, entity, attribute, state]`` rows of a state reply,
        read line by line at line feeds alone; a reply with none raises, so
        it is never cached."""
        rows = []
        for line in response.split("\n"):
            if not line.strip():
                continue
            m = _RECORD_LINE.match(line)
            if m:
                index, attribute, entity, state = m.groups()
                # Drop trailing whitespace and one period after something else.
                state = state.rstrip()
                if len(state) > 1 and state[-1] == ".":
                    state = state[:-1].rstrip()
                rows.append([int(index), entity.strip(), attribute.strip(), state])
            elif line.lstrip().startswith("-"):
                self.skipped_lines += 1
                log.warning("skipping unparseable record line: %r", line.strip())
        if not rows:
            raise ExtractionError(f"no state records in backend response: {response[:500]!r}")
        return rows


class RemoteAnswerer:
    """Final QA step against a chat model; answers come back in answer tags.

    With a cache, each reply's raw text is cached under the digests of the
    ``answer_question`` template, the filled prompt and the model name, so
    a rerun asks nothing; the reader parses the text on every call. A reply
    that raises is never cached.
    """

    def __init__(self, client: ChatClient, cache: RecordCache | None = None):
        self.client = client
        self.cache = cache

    def answer(self, view, question, space) -> str:
        candidates = ""
        if space:
            candidates = "Choose one of: " + ", ".join(space) + ".\n"
        template = load_prompt("answer_question")
        prompt = fill_prompt(
            template,
            {
                "events": "\n".join(view.texts),
                "question": question.raw,
                "candidates": candidates,
            },
        )
        ask = functools.partial(self.client.complete, prompt)
        if self.cache is None:
            return ask()
        model = _fixed_digest(self.client.model)
        key = f"answer_question-{_digest(prompt)}-{_fixed_digest(template)}-{model}".encode()
        return self.cache.fetch(key, _is_text, ask)
