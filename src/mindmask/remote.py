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
import json
import logging
import os
import re
import tempfile
import urllib.error
import urllib.request
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import BackendError, CacheFormatError, ExtractionError, ProtocolError
from .nkb import EntityAttribute, event_states, keyed_record
from .story import Story

log = logging.getLogger(__name__)

API_KEY_ENV = "MINDMASK_API_KEY"
TEMPERATURE = 0.0
TIMEOUT_S = 120.0

_RECORD_LINE = re.compile(
    r"^\s*-?\s*\[?\s*(?:event\s*)?(\d+)\s*\]?\s*:\s*(.+?)\s+of\s+(.+?)\s+becomes\s+(.+?)\s*\.?\s*$",
    re.IGNORECASE,
)
_BULLET_LINE = re.compile(r"^\s*-\s*(.+?)\s*$")
_ENTITIES_BLOCK = re.compile(r"<entities>(.*?)</entities>", re.IGNORECASE | re.DOTALL)


@functools.cache
def load_prompt(name: str) -> str:
    """A shipped prompt template; package data, so each is read once."""
    return resources.files("mindmask").joinpath(f"prompts/{name}.txt").read_text(encoding="utf-8")


def fill_prompt(template: str, slots: dict[str, str]) -> str:
    out = template
    for key, value in slots.items():
        out = out.replace("{{" + key + "}}", value)
    return out


def indexed_narrative(story: Story) -> str:
    return "\n".join(e.render() for e in story.events)


def _default_transport(url: str, headers: dict, payload: dict, timeout: float) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), headers=headers, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        body = exc.read().decode("utf-8", "replace")
        raise BackendError(f"chat endpoint returned HTTP {exc.code}", raw_response=body) from exc
    except (urllib.error.URLError, TimeoutError, json.JSONDecodeError) as exc:
        raise BackendError(f"chat endpoint unreachable: {exc}") from exc


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
            return data["choices"][0]["message"]["content"] or ""
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(
                "malformed chat response", raw_response=json.dumps(data)[:2000]
            ) from exc


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


_RECORD_KEYS = {"event_index", "entity", "attribute", "state"}


_dumps = json.dumps


def _row_line(row: dict) -> str:
    """``json.dumps(row)`` and a newline for a record row, whose keys need no
    escaping, without building an encoder per row."""
    fields = [f'"{k}": {v if type(v) is int else _dumps(v)}' for k, v in row.items()]
    return "{" + ", ".join(fields) + "}\n"


def _is_record_row(row) -> bool:
    """The exact shape `RemoteBackend` stores: an int index and three strings."""
    return (
        type(row) is dict
        and row.keys() == _RECORD_KEYS
        and type(row["event_index"]) is int
        and type(row["entity"]) is str
        and type(row["attribute"]) is str
        and type(row["state"]) is str
    )


def _targets_key(targets: list[EntityAttribute]) -> str:
    return _digest("\n".join(sorted(t.render().casefold() for t in targets)))


class RecordCache:
    """JSONL record lists keyed by (story, targets, state prompt template,
    backend name). An edited ``generate_states`` template misses every entry
    stored under the old one. The file name carries a digest of the backend
    name besides its spelling, so ``remote:a/b`` and ``remote:a:b`` never
    share an entry."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._last: tuple | None = None

    def _path(self, story: Story, targets, backend_name: str) -> Path:
        """The entry's file. The last key is kept with its inputs (the story
        by ``is``; stories are frozen), so a miss and the store after it hash
        the story, targets and template once."""
        template = load_prompt("generate_states")
        inputs = (tuple(targets), template, backend_name)
        last = self._last
        if last is not None and last[0] is story and last[1] == inputs:
            return last[2]
        safe = re.sub(r"[^\w.-]", "_", backend_name)
        named = f"{safe}-{_digest(backend_name)[:8]}"
        name = f"{story.key()}-{_targets_key(targets)}-{_digest(template)}-{named}.jsonl"
        path = self.directory / name
        self._last = (story, inputs, path)
        return path

    def load(self, story, targets, backend_name) -> list[dict] | None:
        path = self._path(story, targets, backend_name)
        if not path.exists():
            return None
        lines = path.read_text(encoding="utf-8").splitlines()
        # One decode of the lines joined as an array. When that fails, or
        # gives other than one record per line, some line is not a record
        # (lines that each decode to one decode whole), and the loop below
        # raises at the first.
        filled = [line for line in lines if line]
        try:
            rows = json.loads("[" + ",".join(filled) + "]")
        except json.JSONDecodeError:
            rows = []
        if len(rows) == len(filled) and all(_is_record_row(row) for row in rows):
            return rows
        for lineno, line in enumerate(lines, start=1):
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CacheFormatError(f"{path}: line {lineno} does not decode: {exc}") from exc
            if not _is_record_row(row):
                raise CacheFormatError(
                    f"{path}: line {lineno} is not a state record: {line[:200]!r}"
                )

    def store(self, story, targets, backend_name, rows: list[dict]) -> None:
        """Write the rows to a temporary file beside the entry, then rename it
        over the entry, so an interrupted store never leaves a partial file."""
        path = self._path(story, targets, backend_name)
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write("".join(map(_row_line, rows)))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


class RemoteBackend:
    """State backend that queries a chat model with the shipped prompts.

    ``story_states`` sends one prompt per (story, targets) pair; the response
    lists records for every event index at once. Every index is checked
    before the rows are cached, so a response naming a nonexistent event is
    never persisted, and a response with no record line raises instead of
    being cached as an empty entry. Responses are cached when a cache is
    configured, keyed by story, targets, state prompt template, and backend
    name.

    The three prompts of a story share one rendering of its narrative: the
    backend keeps the last story's (by ``is``; stories are frozen), as
    :class:`mindmask.nkb.RuleBackend` keeps its last scan.
    """

    _last: tuple[Story, str] | None = None

    def __init__(self, client: ChatClient, cache: RecordCache | None = None):
        self.client = client
        self.cache = cache
        self.name = f"remote:{client.model}"
        self.skipped_lines = 0

    def _narrative(self, story: Story) -> str:
        last = self._last
        if last is None or last[0] is not story:
            last = self._last = (story, indexed_narrative(story))
        return last[1]

    # -- StateBackend protocol ------------------------------------------------

    def key_entities(self, story, questions):
        prompt = fill_prompt(
            load_prompt("key_entities"),
            {
                "indexed narrative": self._narrative(story),
                "question list": "\n".join(f"- {q.raw}" for q in questions),
            },
        )
        response = self.client.complete(prompt)
        block = _ENTITIES_BLOCK.search(response)
        body = block.group(1) if block else response
        pairs = []
        for line in body.splitlines():
            m = _BULLET_LINE.match(line)
            if not m or " of " not in m.group(1):
                continue
            attribute, entity = m.group(1).split(" of ", 1)
            pairs.append(EntityAttribute(entity=entity.strip(), attribute=attribute.strip()))
        if not pairs:
            raise ExtractionError(f"no entity pairs in backend response: {response[:500]!r}")
        return pairs

    def location_names(self, story):
        prompt = fill_prompt(
            load_prompt("extract_locations"),
            {"indexed narrative": self._narrative(story)},
        )
        response = self.client.complete(prompt)
        names = [m.group(1) for m in map(_BULLET_LINE.match, response.splitlines()) if m]
        if not names:
            raise ExtractionError(f"no rooms in backend response: {response[:500]!r}")
        return names

    def story_states(self, story, targets):
        rows = self.cache.load(story, targets, self.name) if self.cache else None
        fresh = rows is None
        if fresh:
            prompt = fill_prompt(
                load_prompt("generate_states"),
                {
                    "indexed narrative": self._narrative(story),
                    "eoi list": "\n".join(f"- {t.render()}" for t in targets),
                },
            )
            rows = self._parse_records(self.client.complete(prompt))
        count = len(story.events)
        records = []
        for row in rows:
            index, entity, attribute = row["event_index"], row["entity"], row["attribute"]
            if not 1 <= index <= count:
                raise ProtocolError(f"backend asserted a state for unknown event {index}")
            key = (entity.casefold(), attribute.casefold())
            records.append(keyed_record(index, entity, attribute, row["state"], key))
        if fresh and self.cache:
            self.cache.store(story, targets, self.name, rows)
        return records

    event_states = event_states

    # -- internals -------------------------------------------------------------

    def _parse_records(self, response: str) -> list[dict]:
        """Record rows of a state reply; a reply with none raises, so it is
        never cached."""
        rows = []
        for line in response.splitlines():
            if not line.strip():
                continue
            m = _RECORD_LINE.match(line)
            if m:
                index, attribute, entity, state = m.groups()
                rows.append({"event_index": int(index), "attribute": attribute.strip(),
                             "entity": entity.strip(), "state": state.strip()})
            elif line.lstrip().startswith("-"):
                self.skipped_lines += 1
                log.warning("skipping unparseable record line: %r", line.strip())
        if not rows:
            raise ExtractionError(f"no state records in backend response: {response[:500]!r}")
        return rows


class RemoteAnswerer:
    """Final QA step against a chat model; answers come back in answer tags."""

    def __init__(self, client: ChatClient):
        self.client = client

    def answer(self, view, question, space) -> str:
        candidates = ""
        if space:
            candidates = "Choose one of: " + ", ".join(space) + ".\n"
        prompt = fill_prompt(
            load_prompt("answer_question"),
            {
                "events": "\n".join(view.texts),
                "question": question.raw,
                "candidates": candidates,
            },
        )
        return self.client.complete(prompt)
