"""Dataset files: JSONL with one story-plus-questions object per line."""

from __future__ import annotations

import json
from collections.abc import Iterable
from pathlib import Path

from .errors import MindmaskError, StoryFormatError
from .question import ToMQuestion, parse_question
from .story import Story, parse_story, serialize_story

DatasetItem = tuple[Story, list[ToMQuestion]]


def load_dataset(path: str | Path) -> list[DatasetItem]:
    """Read a JSONL dataset one line at a time. Lines are split at line feeds
    alone, each without one trailing carriage return: JSON keeps U+0085,
    U+2028 and U+2029 raw inside strings, and `str.splitlines` would split
    there too. The first malformed line, or the first that is not UTF-8,
    raises :class:`StoryFormatError` whose message starts ``<path>:<line>:``,
    chained to the underlying error; so does a question whose declared
    ``order`` is not the integer its text parses to (``true`` or ``1.0`` for 1)."""
    items: list[DatasetItem] = []
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.removesuffix(b"\n").removesuffix(b"\r").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise StoryFormatError(f"{path}:{lineno}: not UTF-8 text: {exc}") from exc
            if not line.strip():
                continue
            try:
                items.append(_parse_item(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise StoryFormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            except MindmaskError as exc:
                raise StoryFormatError(f"{path}:{lineno}: {exc}") from exc
    return items


def _parse_item(doc) -> DatasetItem:
    if not isinstance(doc, dict):
        raise StoryFormatError(f"expected a JSON object, got {type(doc).__name__}")
    story = parse_story(doc)
    raw_questions = doc.get("questions", [])
    if not isinstance(raw_questions, list):
        raise StoryFormatError("'questions' must be a list")
    questions = []
    for pos, q in enumerate(raw_questions, start=1):
        if not isinstance(q, dict) or not isinstance(q.get("text"), str):
            raise StoryFormatError(f"question {pos} must be an object with a string 'text'")
        gold = q.get("gold")
        if gold is not None and not isinstance(gold, str):
            raise StoryFormatError(f"question {pos}: 'gold' must be a string")
        parsed = parse_question(q["text"], story, gold=gold)
        if "order" in q and (type(q["order"]) is not int or q["order"] != parsed.order):
            raise StoryFormatError(
                f"question {pos}: declared order {json.dumps(q['order'])} disagrees with parsed order"
                f" {parsed.order} for {q['text']!r}"
            )
        questions.append(parsed)
    return story, questions


def dump_dataset(items: Iterable[DatasetItem], path: str | Path) -> None:
    """Write `items`, any iterable, as JSONL: each story's line is written as
    soon as it is made, so a generator of items is never held whole."""
    with open(path, "w", encoding="utf-8") as handle:
        for story, questions in items:
            doc = serialize_story(story)
            doc["questions"] = [
                {"text": q.raw, "order": q.order, **({"gold": q.gold} if q.gold is not None else {})}
                for q in questions
            ]
            handle.write(json.dumps(doc) + "\n")
