from __future__ import annotations

import json

import pytest

from mindmask.dataset import load_dataset
from mindmask.errors import QuestionParseError, StoryFormatError

EVENTS = [{"text": "Mia entered the den."}, {"text": "The ball is in the box."}]
QUESTION = "Where does Mia think the ball is?"
GOOD = {"events": EVENTS, "questions": [{"text": QUESTION, "gold": "box"}]}


def line(**doc) -> str:
    return json.dumps(doc)


@pytest.mark.parametrize(
    "bad, cause",
    [
        pytest.param("[1, 2]", StoryFormatError, id="not-an-object"),
        pytest.param(
            line(events=EVENTS, questions=[{"gold": "box"}]),
            StoryFormatError,
            id="question-without-text",
        ),
        pytest.param(line(events=EVENTS, questions=5), StoryFormatError, id="questions-not-a-list"),
        pytest.param(line(questions=[]), StoryFormatError, id="no-events"),
        pytest.param(
            line(events=EVENTS, questions=[{"text": "Why is the ball red?"}]),
            QuestionParseError,
            id="unsupported-question",
        ),
        pytest.param(line(events=5), StoryFormatError, id="events-not-a-list"),
        pytest.param(line(events=EVENTS, characters=5), StoryFormatError, id="characters-not-a-list"),
        pytest.param(line(events=EVENTS, metadata=5), StoryFormatError, id="metadata-not-an-object"),
        pytest.param(
            line(events=EVENTS, questions=[{"text": QUESTION, "gold": 5}]),
            StoryFormatError,
            id="gold-not-a-string",
        ),
        pytest.param("{", json.JSONDecodeError, id="invalid-json"),
        pytest.param(
            line(events=[{"text": "Mia entered the den.", "speaker": 5}]),
            StoryFormatError,
            id="speaker-not-a-string",
        ),
        pytest.param(line(events=[{"text": None}]), StoryFormatError, id="text-null"),
        pytest.param(
            line(events=EVENTS, characters=[["Mia"]]), StoryFormatError, id="character-not-a-string"
        ),
    ],
)
def test_malformed_line_names_its_line(tmp_path, bad, cause):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(GOOD) + "\n\n" + bad + "\n", encoding="utf-8")
    with pytest.raises(StoryFormatError) as info:
        load_dataset(path)
    assert str(info.value).startswith(f"{path}:3: ")
    assert isinstance(info.value.__cause__, cause)


def test_non_utf8_file_names_its_line(tmp_path):
    path = tmp_path / "latin1.jsonl"
    latin1 = json.dumps({"events": [{"text": "Zoë entered the den."}]}, ensure_ascii=False)
    path.write_bytes((json.dumps(GOOD) + "\n").encode("utf-8") + latin1.encode("latin-1") + b"\n")
    with pytest.raises(StoryFormatError) as info:
        load_dataset(path)
    assert str(info.value).startswith(f"{path}:2: ")
    assert isinstance(info.value.__cause__, UnicodeDecodeError)


def test_the_first_bad_line_is_named(tmp_path):
    """The file is read line by line, so a JSON error on line 2 is found
    before a byte that is not UTF-8 on line 4."""
    path = tmp_path / "two-faults.jsonl"
    good = json.dumps(GOOD).encode("utf-8") + b"\n"
    path.write_bytes(good + b"{\n" + good + "Zoë".encode("latin-1") + b"\n")
    with pytest.raises(StoryFormatError) as info:
        load_dataset(path)
    assert str(info.value).startswith(f"{path}:2: invalid JSON: ")
    assert isinstance(info.value.__cause__, json.JSONDecodeError)


# Characters that `str.splitlines` splits on and `json.dumps` writes raw
# inside strings when `ensure_ascii` is off.
SEPARATORS = ["\u0085", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", SEPARATORS, ids=["NEL", "LS", "PS"])
def test_line_separators_inside_strings_load(tmp_path, sep):
    doc = {**GOOD, "events": [*EVENTS, {"text": f"Mia hummed{sep}a tune."}]}
    doc["metadata"] = {"note": f"a{sep}b"}
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps(doc, ensure_ascii=False) + "\r\n", encoding="utf-8")
    [(story, questions)] = load_dataset(path)
    assert story.metadata == {"note": f"a{sep}b"}
    assert story.events[2].text == f"Mia hummed{sep}a tune."
    assert [q.gold for q in questions] == ["box"]


@pytest.mark.parametrize("sep", SEPARATORS, ids=["NEL", "LS", "PS"])
def test_non_utf8_line_counts_newlines_only(tmp_path, sep):
    path = tmp_path / "mixed.jsonl"
    first = json.dumps({**GOOD, "metadata": {"note": sep}}, ensure_ascii=False)
    path.write_bytes(first.encode("utf-8") + b"\n" + "Zoë".encode("latin-1") + b"\n")
    with pytest.raises(StoryFormatError) as info:
        load_dataset(path)
    assert str(info.value).startswith(f"{path}:2: ")


def test_well_formed_dataset_loads(tmp_path):
    path = tmp_path / "good.jsonl"
    # A line may end in CRLF, and the last one needs no newline.
    path.write_bytes(f"{json.dumps(GOOD)}\n{json.dumps(GOOD)}\r\n{json.dumps(GOOD)}".encode("utf-8"))
    items = load_dataset(path)
    assert len(items) == 3
    for story, questions in items:
        assert story.characters == ("Mia",)
        assert [e.text for e in story.events] == [e["text"] for e in EVENTS]
        assert [q.gold for q in questions] == ["box"]


def test_declared_order_that_disagrees_is_refused(tmp_path):
    agrees = {"events": EVENTS, "questions": [{"text": QUESTION, "order": 1}]}
    disagrees = {"events": EVENTS, "questions": [{"text": QUESTION, "order": 2}]}
    path = tmp_path / "orders.jsonl"
    path.write_text(json.dumps(agrees) + "\n" + json.dumps(disagrees) + "\n", encoding="utf-8")
    with pytest.raises(StoryFormatError) as caught:
        load_dataset(path)
    assert str(caught.value).startswith(f"{path}:2: question 1: declared order 2 disagrees with parsed order 1")


@pytest.mark.parametrize(
    "text, order",
    [
        (QUESTION, True),
        (QUESTION, 1.0),
        ("Where is the ball really?", 0.0),
        ("Where is the ball really?", False),
        (QUESTION, "1"),
    ],
    ids=["true", "1.0", "0.0", "false", "string"],
)
def test_declared_order_that_is_not_an_integer_is_refused(tmp_path, text, order):
    # Each value equals the parsed order in Python (but the string), and
    # none is an integer; the message names it as the file writes it.
    doc = {"events": EVENTS, "questions": [{"text": text, "order": order}]}
    path = tmp_path / "orders.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    with pytest.raises(StoryFormatError) as caught:
        load_dataset(path)
    assert str(caught.value).startswith(f"{path}:1: question 1: declared order {json.dumps(order)} ")
