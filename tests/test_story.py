from __future__ import annotations

import json

import pytest

from mindmask.errors import StoryFormatError, ValidationError
from mindmask.story import (
    Event,
    Story,
    guess_characters,
    leading_subjects,
    parse_story,
    serialize_story,
    split_name_list,
)


def test_parse_plain_text_cupboard(cupboard_story):
    assert len(cupboard_story.events) == 11
    assert cupboard_story.kind == "event"
    assert cupboard_story.characters == ("Benjamin", "Abigail", "Emily")
    assert cupboard_story.events[0].index == 1
    assert cupboard_story.events[6].text == "Emily moved the t-shirt to the basket."


def test_parse_melon_story(melon_story):
    assert len(melon_story.events) == 14
    assert melon_story.characters == ("William", "Lily", "Aiden", "Emma", "Isla")


def test_single_event_story():
    story = parse_story("Mia entered the kitchen.")
    assert len(story.events) == 1
    assert story.characters == ("Mia",)


# Every separator `str.splitlines` breaks at and a line feed is not.
NOT_LINE_FEEDS = ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("separator", NOT_LINE_FEEDS, ids=[f"U+{ord(s):04X}" for s in NOT_LINE_FEEDS])
def test_plain_text_splits_at_line_feeds_alone(separator):
    assert len(f"a{separator}b".splitlines()) == 2
    joined = f"Ava entered the attic.{separator}Ava exited the attic."
    story = parse_story(joined + "\nAva entered the hall.")
    assert [e.text for e in story.events] == [joined, "Ava entered the hall."]


def test_plain_text_trims_a_carriage_return_before_a_line_feed():
    story = parse_story("Ava entered the attic.\r\nAva exited the attic.\r\n")
    assert [e.text for e in story.events] == ["Ava entered the attic.", "Ava exited the attic."]


def test_parse_json_document():
    doc = {
        "kind": "event",
        "characters": ["Sally", "Anne"],
        "events": [{"text": "Sally entered the hall."}, {"text": "Anne entered the hall."}],
    }
    story = parse_story(doc)
    assert story.characters == ("Sally", "Anne")
    assert parse_story(json.dumps(doc)) == story


def test_declared_characters_override_heuristic():
    doc = {
        "characters": ["Sally", "Anne"],
        "events": [{"text": "Bob entered the shed."}],
    }
    story = parse_story(doc)
    assert story.characters == ("Sally", "Anne")


def test_round_trip(melon_story, cupboard_story):
    for story in (melon_story, cupboard_story):
        assert parse_story(serialize_story(story)) == story


def test_dialogue_parsing():
    story = parse_story("Armani: Hello there.\nTroy: Hey Armani!\nCynthia joined the conversation.")
    assert story.kind == "dialogue"
    assert story.events[0].speaker == "Armani"
    assert story.events[2].speaker is None
    assert story.characters == ("Armani", "Troy", "Cynthia")


def test_dialogue_characters_are_speaker_union():
    story = parse_story("Ava: hi.\nNoah: hello.\nAva: bye.")
    assert story.characters == ("Ava", "Noah")


def test_split_name_list_variants():
    assert split_name_list("William") == ["William"]
    assert split_name_list("Ava and Ben") == ["Ava", "Ben"]
    assert split_name_list("A, B and C") == ["A", "B", "C"]
    assert split_name_list("William, Lily, Aiden, Emma, and Isla") == [
        "William", "Lily", "Aiden", "Emma", "Isla",
    ]


def test_leading_subjects_requires_agentive_verb():
    assert leading_subjects("Benjamin hates the coat.") == ["Benjamin"]
    assert leading_subjects("The t-shirt is in the cupboard.") == []
    assert leading_subjects("William, Lily and Emma entered the porch.") == ["William", "Lily", "Emma"]


def test_heuristic_is_first_appearance_ordered(cupboard_story):
    found = guess_characters(cupboard_story.events)
    assert found == ("Benjamin", "Abigail", "Emily")
    assert guess_characters(cupboard_story.events) == found  # stable


def test_empty_story_rejected():
    with pytest.raises(ValidationError):
        parse_story("\n\n")
    with pytest.raises(ValidationError):
        parse_story({"events": []})


def test_malformed_json_names_problem():
    with pytest.raises(StoryFormatError):
        parse_story("{not json")
    with pytest.raises(StoryFormatError, match="event 2"):
        parse_story({"events": [{"text": "ok"}, {"nope": 1}]})
    with pytest.raises(StoryFormatError, match="kind"):
        parse_story({"kind": "poem", "events": [{"text": "x"}]})


def test_invariants_enforced():
    with pytest.raises(ValidationError, match="contiguous"):
        Story(events=(Event(2, "x"),), characters=("A",))
    with pytest.raises(ValidationError, match="duplicate"):
        Story(events=(Event(1, "x"),), characters=("Anne", "anne"))
    with pytest.raises(ValidationError, match="speaker"):
        Story(events=(Event(1, "hello", speaker="Ghost"),), characters=("Anne",), kind="dialogue")


def test_no_character_found_is_an_error():
    with pytest.raises(ValidationError):
        parse_story("The rain fell.\nThe wind blew.")


def test_event_indices_are_positions(melon_story):
    for pos, event in enumerate(melon_story.events, start=1):
        assert event.index == pos


def test_story_refuses_no_events_and_empty_event_text():
    with pytest.raises(ValidationError, match="at least one event"):
        Story(events=(), characters=("Ava",))
    with pytest.raises(ValidationError, match="event 2 has empty text"):
        Story(events=(Event(1, "Ava entered the hall."), Event(2, "   ")), characters=("Ava",))


def test_json_event_with_blank_text_is_a_format_error():
    doc = {"events": [{"text": "Ava entered the hall."}, {"text": "  "}]}
    with pytest.raises(StoryFormatError, match="event 2 has empty text"):
        parse_story(doc)


def test_json_event_story_appends_its_speakers_once():
    doc = {
        "kind": "event",
        "events": [
            {"text": "Ava entered the hall."},
            {"text": "hello there.", "speaker": "Noah"},
            {"text": "hello again.", "speaker": "Noah"},
            {"text": "hi.", "speaker": "ava"},
        ],
    }
    story = parse_story(doc)
    assert story.kind == "event"
    assert story.characters == ("Ava", "Noah")
