"""A loaded dataset holds one string per distinct event line.

Templated corpora repeat most of their event lines, so both story readers
intern each event's text, and `Event` keeps its three fields in slots. The
JSONL round trip streams: `dump_dataset` writes each line as it is made, with
the bytes of the old whole-file rendering.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle

import pytest

from test_generator_digest import corpus
from test_location_records import SHAPES
from mindmask.dataset import dump_dataset, load_dataset
from mindmask.story import Event, _event, parse_story
from mindmask.worldgen import GrammarConfig, generate_story


def assert_one_string_per_line(stories):
    """Every event text equal to another is the same object, and some repeat."""
    events = [e for story in stories for e in story.events]
    first: dict[str, str] = {}
    for event in events:
        assert event.text is first.setdefault(event.text, event.text)
    assert len(first) < len(events)


def test_loaded_dataset_holds_one_string_per_distinct_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    items = [generate_story(GrammarConfig(seed=seed, **SHAPES["deep_chains"])) for seed in range(20)]
    dump_dataset(items, path)
    assert_one_string_per_line([story for story, _ in load_dataset(path)])


def test_plain_text_stories_share_their_lines():
    lines = ["Ava entered the den.", "Ben entered the den.", "Ava: The ball is in the box."]
    stories = [parse_story("\n".join(lines[:2] + [f"Ava said hello {i}."] + lines)) for i in range(3)]
    assert_one_string_per_line(stories)


@pytest.mark.parametrize("speaker", [None, "Ava"])
@pytest.mark.parametrize(
    "copied",
    [
        lambda event: pickle.loads(pickle.dumps(event)),
        copy.deepcopy,
        lambda event: dataclasses.replace(event),
    ],
    ids=["pickle", "deepcopy", "replace"],
)
def test_slotted_event_copies_equal(speaker, copied):
    for event in (Event(3, "Ava said hello.", speaker), _event(3, "Ava said hello.", speaker)):
        assert not hasattr(event, "__dict__")
        other = copied(event)
        assert other is not event
        assert other == event and hash(other) == hash(event)
        assert (other.index, other.text, other.speaker) == (3, "Ava said hello.", speaker)


def old_rendering(items) -> bytes:
    """The whole file as `dump_dataset` rendered it before it streamed."""
    docs = []
    for story, questions in items:
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
        doc["questions"] = [
            {"text": q.raw, "order": q.order, **({"gold": q.gold} if q.gold is not None else {})}
            for q in questions
        ]
        docs.append(doc)
    return "".join(json.dumps(doc) + "\n" for doc in docs).encode("utf-8")


def test_streamed_dump_writes_the_old_bytes(tmp_path):
    items = corpus(1)
    path = tmp_path / "corpus.jsonl"
    dump_dataset(iter(items), path)
    assert path.read_bytes() == old_rendering(items)
