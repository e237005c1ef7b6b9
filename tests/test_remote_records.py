"""Records from the shared constructor, the record cache's entry writer, and
the remote backend's one narrative per story.

`nkb.keyed_record` builds every record that enters the pipeline without the
dataclass ``__init__``; these records must be indistinguishable from ones
built by ``EntityStateRecord(...)``. `RecordCache.store` appends one log line
per entry; its body must stay that of ``json.dumps``, whatever the rows hold.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindmask.nkb import (
    EntityAttribute,
    EntityStateRecord,
    RuleBackend,
    generate_states,
    keyed_record,
)
from mindmask.remote import ChatClient, RecordCache, RemoteBackend, indexed_narrative
from mindmask.story import Event, parse_story
from mindmask.worldgen import GrammarConfig, generate_story

PROFILE = settings(max_examples=100, deadline=None, derandomize=True)

# Small corpora in the shapes of the benchmark's corpora: deep belief chains
# with re-entry, long many-room stories, and a small criterion-2-style grid.
SHAPES = {
    "deep_chains": dict(num_characters=5, num_rooms=4, max_order=4, allow_reentry=True),
    "long_stories": dict(
        num_characters=2, num_rooms=12, num_containers_per_room=3, moves_per_room=3,
        max_order=2, allow_reentry=True,
    ),
    "small_grid": dict(num_characters=3, num_rooms=2, num_objects=2, max_order=3),
}
SEEDS = (1, 2, 1009)


def corpus():
    for shape in SHAPES.values():
        for seed in SEEDS:
            yield generate_story(GrammarConfig(seed=seed, **shape))


def built_by_init(record: EntityStateRecord) -> EntityStateRecord:
    return EntityStateRecord(record.event_index, record.entity, record.attribute, record.state)


def assert_same_record(record: EntityStateRecord, expected: EntityStateRecord) -> None:
    assert type(record) is EntityStateRecord
    assert record == expected
    assert hash(record) == hash(expected)
    assert repr(record) == repr(expected)
    assert record.key == expected.key
    assert list(vars(record).items()) == list(vars(expected).items())


class FakeTransport:
    def __init__(self, replies):
        self.replies = list(replies)
        self.prompts = []

    def __call__(self, url, headers, payload, timeout):
        self.prompts.append(payload["messages"][0]["content"])
        return {"choices": [{"message": {"content": self.replies.pop(0)}}]}


def remote(replies, cache=None):
    transport = FakeTransport(replies)
    client = ChatClient(base_url="http://llm.test/v1", model="test-model", transport=transport)
    return RemoteBackend(client, cache=cache), transport


def test_rule_scan_records_equal_dataclass_records():
    checked = 0
    for story, questions in corpus():
        backend = RuleBackend()
        targets = backend.key_entities(story, questions)
        for record in backend.story_states(story, targets):
            assert_same_record(record, built_by_init(record))
            checked += 1
    assert checked > 500


def test_remote_records_equal_dataclass_records():
    """Replies spell the attribute ``Location``: the backend keeps that
    spelling, and `generate_states` respells it as the key."""
    for story, questions in corpus():
        rule = RuleBackend()
        targets = rule.key_entities(story, questions)
        records = rule.story_states(story, targets)
        reply = "".join(
            f"- {r.event_index}: {r.attribute.capitalize()} of {r.entity} becomes {r.state}\n"
            for r in records
        )
        backend, _ = remote([reply])
        raw = backend.story_states(story, targets)
        assert len(raw) == len(records)
        for record, rule_record in zip(raw, records):
            assert record.attribute == rule_record.attribute.capitalize()
            assert_same_record(record, built_by_init(record))

        backend, _ = remote([reply])
        respelled = generate_states(story, targets, backend)
        assert respelled == generate_states(story, targets, RuleBackend())
        for record in respelled:
            assert record.attribute == record.key[1]
            assert_same_record(record, built_by_init(record))


def test_keyed_record_matches_init_on_mixed_case():
    record = keyed_record(3, "T-Shirt", "Location", "in the Red Crate", ("t-shirt", "location"))
    assert_same_record(record, EntityStateRecord(3, "T-Shirt", "Location", "in the Red Crate"))
    # Still a frozen dataclass instance.
    with pytest.raises(AttributeError):
        record.state = "elsewhere"


# -- RecordCache.store writes json.dumps bodies -------------------------------

STORY = parse_story("Ava entered the den.\nAva exited the den.")
TARGETS = [EntityAttribute("Ava", "location")]

# Escapes, control characters and text outside ASCII, mixed with any text.
AWKWARD = st.sampled_from(['"', "\\", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "é", "☃", "𝄞", " "])
FIELD_TEXT = st.lists(AWKWARD | st.characters(), max_size=12).map("".join)
# The order `RemoteBackend` parses fields in, and the dataclass field order.
KEY_ORDERS = (
    ("event_index", "attribute", "entity", "state"),
    ("event_index", "entity", "attribute", "state"),
)


def _row(order, index, entity, attribute, state) -> dict:
    fields = {"event_index": index, "entity": entity, "attribute": attribute, "state": state}
    return {key: fields[key] for key in order}


INDEX = st.integers(min_value=-(2**70), max_value=2**70)
# A dict row, as logs held state rows before they were arrays, or the
# ``[event_index, entity, attribute, state]`` array `RemoteBackend` stores.
DICT_ROW = st.builds(_row, st.sampled_from(KEY_ORDERS), INDEX, FIELD_TEXT, FIELD_TEXT, FIELD_TEXT)
ARRAY_ROW = st.builds(lambda *fields: list(fields), INDEX, FIELD_TEXT, FIELD_TEXT, FIELD_TEXT)
ROW = DICT_ROW | ARRAY_ROW


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return RecordCache(tmp_path_factory.mktemp("store"))


@PROFILE
@given(rows=st.lists(ROW, max_size=6))
def test_store_writes_json_dumps_lines(cache, rows):
    """Every example stores under one key; the log's last line is the entry."""
    cache.store(STORY, TARGETS, "remote:m", rows)
    [log] = cache.directory.iterdir()
    key, body = log.read_bytes().split(b"\n")[-2].split(b"\t")
    assert key.startswith(b"generate_states-")
    assert body == json.dumps(rows).encode("ascii")
    assert cache.load(STORY, TARGETS, "remote:m") == rows
    assert RecordCache(cache.directory).load(STORY, TARGETS, "remote:m") == rows


# -- one narrative per story ----------------------------------------------------


@pytest.fixture
def render_calls(monkeypatch):
    calls = []
    render = Event.render

    def counted(self):
        calls.append(self)
        return render(self)

    monkeypatch.setattr(Event, "render", counted)
    return calls


def ask_all_three(backend, story, questions):
    backend.key_entities(story, questions)
    backend.location_names(story)
    backend.story_states(story, [EntityAttribute(story.characters[0], "location")])


def replies_for(story):
    first = story.characters[0]
    return [
        f"<entities>\n- location of {first}\n</entities>",
        "- the room\n",
        f"- 1: location of {first} becomes in the room\n",
    ]


def test_three_prompts_render_the_narrative_once(render_calls):
    story, questions = generate_story(GrammarConfig(seed=5, **SHAPES["deep_chains"]))
    other, other_questions = generate_story(GrammarConfig(seed=6, **SHAPES["deep_chains"]))
    backend, transport = remote(replies_for(story) + replies_for(other))

    ask_all_three(backend, story, questions)
    assert len(render_calls) == len(story.events)
    narrative = indexed_narrative(story)
    assert all(narrative in prompt for prompt in transport.prompts)

    # A second story object gets its own narrative, rendered once.
    del render_calls[:]
    ask_all_three(backend, other, other_questions)
    assert render_calls == list(other.events)
    other_narrative = indexed_narrative(other)
    assert all(other_narrative in prompt for prompt in transport.prompts[3:])
    assert not any(narrative in prompt for prompt in transport.prompts[3:])


def test_an_equal_story_object_is_rendered_again(render_calls):
    text = "Ava entered the den.\nAva exited the den."
    first, second = parse_story(text), parse_story(text)
    backend, _ = remote(["- the den\n", "- the den\n"])
    backend.location_names(first)
    backend.location_names(second)
    assert len(render_calls) == 2 * len(first.events)
