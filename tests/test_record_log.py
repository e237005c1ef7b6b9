"""The record cache's append-only log: one file per directory, one line per
entry, ``<key>\\t<json.dumps(value)>\\n``.

A torn append is never an entry and the next store cuts it off; a complete
line that does not decode, or that holds a value of the wrong shape, raises
`CacheFormatError` naming the log and the line; a reply that raises is never
written; and a rerun over a filled log sends no chat request at all.
"""

from __future__ import annotations

import os
import stat

import pytest

from mindmask.errors import CacheFormatError, ExtractionError, ProtocolError
from mindmask.nkb import EntityAttribute, RuleBackend, generate_states, identify_key_entities
from mindmask.pipeline import PipelineConfig, evaluate, prepare_story
from mindmask.remote import (
    LOG_NAME,
    ChatClient,
    RecordCache,
    RemoteBackend,
    indexed_narrative,
)
from mindmask.story import Story
from mindmask.worldgen import GrammarConfig, generate_story

NAME = "remote:test-model"
TARGETS = [EntityAttribute("t-shirt", "location")]
ROWS = [{"event_index": 4, "attribute": "location", "entity": "T-shirt", "state": "in the cupboard"}]
OTHER = [{"event_index": 7, "attribute": "location", "entity": "T-shirt", "state": "in basket"}]


def template_of(prompt: str) -> str:
    if "<Questions>" in prompt:
        return "key_entities"
    if "<Entity-of-Interest>" in prompt:
        return "generate_states"
    return "extract_locations"


class Transport:
    """Chat endpoint serving each story's rule-backend replies; records the
    template of every request."""

    def __init__(self, items):
        rule = RuleBackend()
        self.replies = {}
        for story, questions in items:
            narrative = indexed_narrative(story)
            pairs = rule.key_entities(story, questions)
            self.replies["key_entities", narrative] = (
                "<entities>\n" + "".join(f"- {p.attribute} of {p.entity}\n" for p in pairs) + "</entities>"
            )
            self.replies["extract_locations", narrative] = "".join(
                f"- {name}\n" for name in rule.location_names(story)
            )
            self.replies["generate_states", narrative] = "".join(
                f"- {r.event_index}: {r.attribute} of {r.entity} becomes {r.state}\n"
                for r in rule.story_states(story, pairs)
            )
        self.requests: list[str] = []

    def __call__(self, url, headers, payload, timeout):
        prompt = payload["messages"][0]["content"]
        narrative = prompt.split("<Events>\n", 1)[1].split("\n\n", 1)[0]
        template = template_of(prompt)
        self.requests.append(template)
        return {"choices": [{"message": {"content": self.replies[template, narrative]}}]}


def canned(*replies):
    """A backend client answering with ``replies`` in turn."""
    replies = list(replies)
    requests = []

    def transport(url, headers, payload, timeout):
        requests.append(payload["messages"][0]["content"])
        return {"choices": [{"message": {"content": replies.pop(0)}}]}

    return ChatClient(base_url="http://llm.test/v1", model="test-model", transport=transport), requests


def corpus(count=3):
    shape = dict(num_characters=4, num_rooms=3, max_order=3, allow_reentry=True)
    return [generate_story(GrammarConfig(seed=seed, **shape)) for seed in range(1, count + 1)]


# -- torn appends ----------------------------------------------------------------


@pytest.mark.parametrize("same_object", [True, False])
def test_interrupted_append_is_no_entry_and_the_next_store_loads(
    cupboard_story, tmp_path, monkeypatch, same_object
):
    import mindmask.remote as remote

    cache = RecordCache(tmp_path)
    cache.store(cupboard_story, TARGETS, "remote:a", ROWS)
    complete = cache.path.read_bytes()
    write = remote.os.write

    def half_then_fail(fd, data):
        write(fd, data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(remote.os, "write", half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        cache.store(cupboard_story, TARGETS, "remote:b", OTHER)
    monkeypatch.setattr(remote.os, "write", write)
    torn = cache.path.read_bytes()
    assert torn.startswith(complete) and len(torn) > len(complete)
    assert not torn.endswith(b"\n")

    # The torn tail is no entry, for the writer and for a fresh reader.
    assert cache.load(cupboard_story, TARGETS, "remote:b") is None
    assert RecordCache(tmp_path).load(cupboard_story, TARGETS, "remote:b") is None
    assert RecordCache(tmp_path).load(cupboard_story, TARGETS, "remote:a") == ROWS

    writer = cache if same_object else RecordCache(tmp_path)
    writer.store(cupboard_story, TARGETS, "remote:b", OTHER)
    lines = cache.path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 2 and lines[0] == complete
    reader = RecordCache(tmp_path)
    assert reader.load(cupboard_story, TARGETS, "remote:a") == ROWS
    assert reader.load(cupboard_story, TARGETS, "remote:b") == OTHER
    assert writer.load(cupboard_story, TARGETS, "remote:b") == OTHER


def test_the_last_line_for_a_key_wins(cupboard_story, tmp_path):
    cache = RecordCache(tmp_path)
    cache.store(cupboard_story, TARGETS, NAME, ROWS)
    cache.store(cupboard_story, TARGETS, NAME, OTHER)
    assert cache.load(cupboard_story, TARGETS, NAME) == OTHER
    assert RecordCache(tmp_path).load(cupboard_story, TARGETS, NAME) == OTHER
    assert len(cache.path.read_bytes().splitlines()) == 2


def test_the_index_is_read_on_first_lookup(cupboard_story, tmp_path):
    """An entry another writer appends before a cache's first lookup is found;
    a log line without a key, or an old per-entry file, is no entry."""
    reader = RecordCache(tmp_path)
    (tmp_path / "old-entry.jsonl").write_text('{"event_index": 4}\n')
    with open(reader.path, "wb") as log:
        log.write(b'no key on this line\n')
    RecordCache(tmp_path).store(cupboard_story, TARGETS, NAME, ROWS)
    assert reader.load(cupboard_story, TARGETS, NAME) == ROWS
    assert reader.load(cupboard_story, [EntityAttribute("basket", "content")], NAME) is None


def test_a_log_cut_behind_the_cache_is_indexed_afresh(cupboard_story, tmp_path):
    cache = RecordCache(tmp_path)
    cache.store(cupboard_story, TARGETS, "remote:a", ROWS)
    kept = cache.path.read_bytes()
    cache.store(cupboard_story, TARGETS, "remote:b", ROWS)
    cache.path.write_bytes(kept)  # another writer rewrites the log shorter
    cache.store(cupboard_story, TARGETS, "remote:c", OTHER)
    assert cache.load(cupboard_story, TARGETS, "remote:c") == OTHER
    assert cache.load(cupboard_story, TARGETS, "remote:b") is None
    assert cache.load(cupboard_story, TARGETS, "remote:a") == ROWS


# -- lines that do not hold their entry ------------------------------------------


def rewrite_entry(cache: RecordCache, body: bytes) -> None:
    """Keep line 1 (another entry) and replace line 2's body."""
    first, second = cache.path.read_bytes().splitlines(keepends=True)
    cache.path.write_bytes(first + second.split(b"\t")[0] + b"\t" + body)


@pytest.fixture
def two_entries(cupboard_story, tmp_path) -> RecordCache:
    cache = RecordCache(tmp_path)
    cache.store(cupboard_story, [EntityAttribute("basket", "content")], NAME, OTHER)
    cache.store(cupboard_story, TARGETS, NAME, ROWS)
    return cache


# Line 2 is split after "Mi: its first part does not decode, and the rest of
# the record goes on a line of its own.
SPLIT = (
    b'[{"event_index": 1, "entity": "Mi\n'
    b'a", "attribute": "location", "state": "x"}]\n'
)
UNDECODABLE = [SPLIT, b'[{"event_index": 1}\n', b'["\xff"]\n', b"\n"]
NOT_RECORDS = [
    b"{}\n",
    b"null\n",
    b'[[4, "T-shirt", "location"]]\n',
    b'[[4, "T-shirt", "location", "x", "y"]]\n',
    b'[["4", "T-shirt", "location", "x"]]\n',
    b'[[true, "T-shirt", "location", "x"]]\n',
    b'[[4.0, "T-shirt", "location", "x"]]\n',
    b'[[4, ["T-shirt"], "location", "x"]]\n',
    b'[[[4, "T-shirt", "location", "x"]]]\n',
    b'[{"event_index": "4", "attribute": "location", "entity": "T-shirt", "state": "x"}]\n',
    b'[{"event_index": 4, "attribute": "location", "entity": "T-shirt"}]\n',
    b'[{"event_index": true, "attribute": "location", "entity": "T-shirt", "state": "x"}]\n',
]


@pytest.mark.parametrize("body", UNDECODABLE)
def test_a_line_that_does_not_decode_raises(two_entries, cupboard_story, body):
    rewrite_entry(two_entries, body)
    cache = RecordCache(two_entries.directory)
    with pytest.raises(CacheFormatError, match=rf"{LOG_NAME}: line 2 does not decode"):
        cache.load(cupboard_story, TARGETS, NAME)
    assert cache.load(cupboard_story, [EntityAttribute("basket", "content")], NAME) == OTHER


@pytest.mark.parametrize("body", NOT_RECORDS)
def test_a_line_that_holds_no_records_raises(two_entries, cupboard_story, body):
    rewrite_entry(two_entries, body)
    with pytest.raises(CacheFormatError, match=rf"{two_entries.path}: line 2 is not"):
        RecordCache(two_entries.directory).load(cupboard_story, TARGETS, NAME)


def test_key_entity_and_room_entries_are_checked(cupboard_story, cupboard_questions, tmp_path):
    client, _ = canned("<entities>\n- location of Ava\n</entities>", "- the den\n")
    backend = RemoteBackend(client, cache=RecordCache(tmp_path))
    ask = [
        lambda b: b.key_entities(cupboard_story, cupboard_questions),
        lambda b: b.location_names(cupboard_story),
    ]
    for call in ask:
        call(backend)
    lines = backend.cache.path.read_bytes().splitlines(keepends=True)
    assert [line.split(b"\t")[1] for line in lines] == [b'[["Ava", "location"]]\n', b'["the den"]\n']
    bad_values = [[b'[["Ava"]]\n', b'[["Ava", 1]]\n', b'"Ava"\n'], [b"[1]\n", b'{"den": 1}\n']]
    for call, line, bad in zip(ask, lines, bad_values):
        for value in bad:
            backend.cache.path.write_bytes(b"".join(lines) + line.split(b"\t")[0] + b"\t" + value)
            fresh = RemoteBackend(canned()[0], cache=RecordCache(tmp_path))
            with pytest.raises(CacheFormatError, match=rf"{LOG_NAME}: line 3 is not"):
                call(fresh)


def test_an_entry_appended_earlier_is_named_by_its_line(cupboard_story, tmp_path):
    cache = RecordCache(tmp_path)
    cache.store(cupboard_story, [EntityAttribute("basket", "content")], NAME, OTHER)
    cache.store(cupboard_story, TARGETS, NAME, [{"event_index": 4}])
    # The line number comes from the count this instance's own appends kept.
    with pytest.raises(CacheFormatError, match=rf"{LOG_NAME}: line 2 is not"):
        cache.load(cupboard_story, TARGETS, NAME)


def test_a_new_log_takes_its_mode_from_the_umask(cupboard_story, tmp_path):
    old = os.umask(0o022)
    try:
        RecordCache(tmp_path).store(cupboard_story, TARGETS, NAME, ROWS)
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / LOG_NAME).stat().st_mode) == 0o644


# -- replies that raise ----------------------------------------------------------


def test_replies_that_raise_write_nothing(cupboard_story, cupboard_questions, tmp_path):
    ask = [
        ("I see no pairs.", ExtractionError, lambda b: b.key_entities(cupboard_story, cupboard_questions)),
        ("I see no rooms.", ExtractionError, lambda b: b.location_names(cupboard_story)),
        ("Sorry, I cannot help.", ExtractionError, lambda b: b.story_states(cupboard_story, TARGETS)),
        ("- 99: location of T-shirt becomes in basket", ProtocolError,
         lambda b: generate_states(cupboard_story, TARGETS, b)),
    ]
    for reply, error, call in ask:
        client, requests = canned(reply)
        with pytest.raises(error):
            call(RemoteBackend(client, cache=RecordCache(tmp_path)))
        assert len(requests) == 1
        assert list(tmp_path.iterdir()) == []


def is_list(value) -> bool:
    return type(value) is list


def never():
    raise AssertionError("asked for a value the log holds")


def test_fetch_returns_a_stored_value_without_asking(cupboard_story, tmp_path):
    cache = RecordCache(tmp_path)
    key = cache.key("extract_locations", cupboard_story, "", NAME)
    assert cache.fetch(key, is_list, lambda: ["the den"]) == ["the den"]
    log = cache.path.read_bytes()
    assert log == key + b'\t["the den"]\n'
    for reader in (cache, RecordCache(tmp_path)):
        assert reader.fetch(key, is_list, never) == ["the den"]
    assert cache.path.read_bytes() == log


def test_an_ask_that_raises_stores_nothing_and_the_next_fetch_asks_again(cupboard_story, tmp_path):
    cache = RecordCache(tmp_path)
    cache.store(cupboard_story, TARGETS, NAME, ROWS)
    log = cache.path.read_bytes()
    key = cache.key("extract_locations", cupboard_story, "", NAME)
    replies = [ExtractionError("no rooms"), ["the den"]]

    def ask():
        reply = replies.pop(0)
        if isinstance(reply, Exception):
            raise reply
        return reply

    with pytest.raises(ExtractionError, match="no rooms"):
        cache.fetch(key, is_list, ask)
    assert cache.path.read_bytes() == log
    assert cache.fetch(key, is_list, ask) == ["the den"]
    assert replies == []
    assert cache.path.read_bytes() == log + key + b'\t["the den"]\n'
    assert RecordCache(tmp_path).fetch(key, is_list, never) == ["the den"]


# -- one file, no chat call on a warm rerun --------------------------------------


def test_a_cold_pass_leaves_one_file_and_hashes_each_story_once(tmp_path, monkeypatch):
    items = corpus()
    keyed = []
    story_key = Story.key
    monkeypatch.setattr(Story, "key", lambda story: keyed.append(story) or story_key(story))
    transport = Transport(items)
    client = ChatClient(base_url="http://llm.test/v1", model="test-model", transport=transport)
    cfg = PipelineConfig(nkb_backend=RemoteBackend(client, cache=RecordCache(tmp_path)))
    for story, questions in items:
        prepare_story(story, questions, cfg)
    assert [s for s, _ in items] == keyed
    assert [p.name for p in tmp_path.iterdir()] == [LOG_NAME]
    lines = (tmp_path / LOG_NAME).read_bytes().splitlines()
    assert len(lines) == len(transport.requests) == 3 * len(items)


def run_eval(items, directory):
    transport = Transport(items)
    client = ChatClient(base_url="http://llm.test/v1", model="test-model", transport=transport)
    backend = RemoteBackend(client, cache=RecordCache(directory))
    report = evaluate(items, PipelineConfig(nkb_backend=backend), seeds=[0, 1], subset_size=2)
    return report.to_json(), transport.requests


def test_a_rerun_over_a_filled_cache_sends_no_chat_request(tmp_path, monkeypatch):
    import mindmask.remote as remote

    items = corpus()
    cold, requests = run_eval(items, tmp_path)
    assert sorted(requests) == sorted(["key_entities", "generate_states", "extract_locations"] * 3)
    assert '"accuracy_mean": 1.0' in cold

    warm, requests = run_eval(items, tmp_path)
    assert requests == []
    assert warm == cold

    # An edited template misses its own entries only.
    shipped = remote.load_prompt
    for name in ("key_entities", "extract_locations"):
        monkeypatch.setattr(remote, "load_prompt", lambda n, name=name: shipped(n) + ("\n" if n == name else ""))
        edited, requests = run_eval(items, tmp_path)
        assert requests == [name] * len(items)
        assert edited == cold
        monkeypatch.setattr(remote, "load_prompt", shipped)
        assert run_eval(items, tmp_path)[1] == []


def test_another_question_list_misses_only_the_key_entity_entry(tmp_path):
    items = corpus(1)
    run_eval(items, tmp_path)
    [(story, questions)] = items
    transport = Transport(items)
    client = ChatClient(base_url="http://llm.test/v1", model="test-model", transport=transport)
    backend = RemoteBackend(client, cache=RecordCache(tmp_path))
    targets = identify_key_entities(story, questions, backend)
    backend.story_states(story, targets)
    backend.location_names(story)
    assert transport.requests == []
    backend.key_entities(story, questions[:1])
    backend.story_states(story, targets)
    backend.location_names(story)
    assert transport.requests == ["key_entities"]


def test_short_write_raises_and_indexes_nothing(cupboard_story, tmp_path, monkeypatch):
    import mindmask.remote as remote

    cache = RecordCache(tmp_path)
    write = remote.os.write
    monkeypatch.setattr(remote.os, "write", lambda fd, data: write(fd, data[:-1]))
    with pytest.raises(OSError, match="short write"):
        cache.store(cupboard_story, TARGETS, NAME, ROWS)
    monkeypatch.setattr(remote.os, "write", write)
    assert cache.load(cupboard_story, TARGETS, NAME) is None
    assert RecordCache(tmp_path).load(cupboard_story, TARGETS, NAME) is None
