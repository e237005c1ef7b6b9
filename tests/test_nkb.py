from __future__ import annotations

import logging
import re

import pytest

from mindmask.errors import ExtractionError, ProtocolError, ValidationError
from mindmask.nkb import (
    EntityAttribute,
    EntityStateRecord,
    RuleBackend,
    build_anchors,
    canonicalize_location,
    extract_locations,
    generate_states,
    identify_key_entities,
)
from mindmask.question import parse_question
from mindmask.story import Event, Story, parse_story

RECORD_SHAPE = re.compile(r"^.+ of .+ becomes .+$")


def _apply_lines(lines):
    story = Story(
        events=tuple(Event(index=i, text=text) for i, text in enumerate(lines, start=1)),
        characters=(),
    )
    return story, RuleBackend().story_states(story, [])


def test_enter_record():
    _, records = _apply_lines(["Abigail entered the crawlspace."])
    assert [r.render() for r in records] == ["location of Abigail becomes in the crawlspace"]


def test_exit_record():
    _, records = _apply_lines(["Abigail entered the crawlspace.", "Abigail exited the crawlspace."])
    assert records[-1].render() == "location of Abigail becomes outside the crawlspace"


def test_move_records_with_known_source():
    _, records = _apply_lines(
        ["The melon is in the green bathtub.", "Isla moved the melon to the green bucket."]
    )
    rendered = {r.render() for r in records if r.event_index == 2}
    assert rendered == {
        "location of melon becomes in green bucket",
        "content of green bucket becomes melon",
        "content of green bathtub becomes empty",
    }


def test_move_record_without_source():
    _, records = _apply_lines(["Isla moved the melon to the green bathtub."])
    assert {r.render() for r in records} == {
        "location of melon becomes in green bathtub",
        "content of green bathtub becomes melon",
    }


def test_no_movement_and_distractors_are_noops():
    story, records = _apply_lines(
        [
            "Lily made no movements and stayed in the porch for 1 minute.",
            "Lily likes the green bucket.",
            "Benjamin hates the coat.",
        ]
    )
    assert records == []
    # The stay line moves nobody, but it names a place.
    assert RuleBackend().location_names(story) == ["porch"]


def test_multi_enter_emits_one_record_per_name():
    _, records = _apply_lines(["William, Lily and Aiden entered the porch."])
    assert len(records) == 3
    assert {r.entity for r in records} == {"William", "Lily", "Aiden"}
    assert {r.state for r in records} == {"in the porch"}


def test_every_record_matches_the_template(cupboard_setup, melon_setup):
    for setup in (cupboard_setup, melon_setup):
        records = setup[2]
        for r in records:
            assert RECORD_SHAPE.match(r.render()), r.render()


def test_generate_states_cupboard_event7(cupboard_setup):
    _, _, records, _, _ = cupboard_setup
    at7 = [r.render() for r in records if r.event_index == 7]
    assert at7 == [
        "content of basket becomes T-shirt",
        "content of cupboard becomes empty",
        "location of T-shirt becomes in basket",
    ]


def test_generate_states_skips_untouched_events(cupboard_setup):
    _, _, records, _, _ = cupboard_setup
    assert not any(r.event_index == 9 for r in records)  # "Benjamin hates the coat."


def test_generate_states_no_changes(backend):
    story = parse_story("Benjamin hates the coat.\nBenjamin likes the rug.")
    q = parse_question("Where is the coat?", story)
    records = generate_states(story, [EntityAttribute("coat", "location")], backend)
    assert records == []


def test_generate_states_is_deterministic(cupboard_story, cupboard_questions):
    outs = []
    for _ in range(2):
        backend = RuleBackend()
        targets = identify_key_entities(cupboard_story, cupboard_questions, backend)
        records = generate_states(cupboard_story, targets, backend)
        outs.append([r.render() for r in records])
    assert outs[0] == outs[1]


def test_generate_states_requires_targets(cupboard_story, backend):
    with pytest.raises(ValidationError):
        generate_states(cupboard_story, [], backend)


def test_character_location_persistence(cupboard_setup):
    # Without a location record at event i, a character's resolved location
    # at i equals its location at i-1; before any record it is null.
    from mindmask.scene import _Rooms
    from reference_tracks import location_tracks

    story, _, records, anchors, _ = cupboard_setup
    tracks = location_tracks(story, records, _Rooms(anchors))[0]
    recorded = {
        (r.event_index, r.entity.casefold()) for r in records if r.attribute == "location"
    }
    for name in story.characters:
        track = tracks[name.casefold()]
        assert len(track) == len(story.events) + 1
        assert track[0] is None
        for index in range(1, len(story.events) + 1):
            if (index, name.casefold()) not in recorded:
                assert track[index] == track[index - 1]
    emily = tracks["emily"]
    assert emily[0] is None
    assert emily[3] == "crawlspace"
    assert emily[10] is None


def test_event_states_is_a_slice_of_story_states(cupboard_story, melon_story, backend):
    for story in (cupboard_story, melon_story):
        targets = [EntityAttribute(c, "location") for c in story.characters]
        records = backend.story_states(story, targets)
        for i in range(1, len(story.events) + 1):
            expected = [(r.entity, r.attribute, r.state) for r in records if r.event_index == i]
            assert backend.event_states(story, i, targets) == expected


def test_identify_key_entities_cupboard(cupboard_setup):
    story, questions, _, _, _ = cupboard_setup
    backend = RuleBackend()
    pairs = identify_key_entities(story, questions, backend)
    assert {(p.entity.casefold(), p.attribute) for p in pairs} == {
        ("t-shirt", "location"),
        ("abigail", "location"),
        ("benjamin", "location"),
        ("emily", "location"),
        ("cupboard", "content"),
    }
    assert len(pairs) == 5


def test_identify_key_entities_melon(melon_story, melon_question, backend):
    pairs = identify_key_entities(melon_story, [melon_question], backend)
    keys = {(p.entity.casefold(), p.attribute) for p in pairs}
    assert ("melon", "location") in keys
    for name in ("emma", "lily", "william"):
        assert (name, "location") in keys
    assert len(pairs) <= 5


def test_identify_key_entities_minimal(backend):
    story = parse_story("Mia entered the kitchen.")
    q = parse_question("Where is the ball?", story)
    pairs = identify_key_entities(story, [q], backend)
    assert {(p.entity.casefold(), p.attribute) for p in pairs} == {
        ("ball", "location"),
        ("mia", "location"),
    }


def test_identify_key_entities_requires_questions(cupboard_story, backend):
    with pytest.raises(ValidationError):
        identify_key_entities(cupboard_story, [], backend)


def test_extract_locations_examples(cupboard_story, melon_story, backend):
    assert [a.name for a in extract_locations(cupboard_story, backend)] == ["crawlspace"]
    assert [a.name for a in extract_locations(melon_story, backend)] == ["porch", "waiting room"]
    single = parse_story("Mia entered the kitchen.")
    assert [a.name for a in extract_locations(single, backend)] == ["kitchen"]


def test_extract_locations_error_when_no_rooms(backend):
    story = parse_story("Benjamin hates the coat.")
    with pytest.raises(ExtractionError):
        extract_locations(story, backend)


def test_containers_are_not_locations(cupboard_story, backend):
    names = {a.name for a in extract_locations(cupboard_story, backend)}
    assert "cupboard" not in names and "basket" not in names


def test_canonicalize_exact_and_article():
    anchors = build_anchors(["crawlspace"])
    assert canonicalize_location("in the crawlspace", anchors).name == "crawlspace"
    assert canonicalize_location("crawlspace", anchors).name == "crawlspace"
    assert canonicalize_location("In the Crawlspace.", anchors).name == "crawlspace"


def test_canonicalize_negation_forces_null():
    anchors = build_anchors(["crawlspace"])
    assert canonicalize_location("outside the crawlspace", anchors) is None
    assert canonicalize_location("absent", anchors) is None
    assert canonicalize_location("not in the crawlspace", anchors) is None
    assert canonicalize_location("left the crawlspace", anchors) is None


def test_canonicalize_hyphen_space_collapse():
    anchors = build_anchors(["porch", "waiting room"])
    assert canonicalize_location("the waiting-room", anchors).name == "waiting room"


def test_canonicalize_unique_substring_either_way():
    anchors = build_anchors(["porch", "waiting room"])
    assert canonicalize_location("the big waiting room corner", anchors).name == "waiting room"
    assert canonicalize_location("waiting", anchors).name == "waiting room"


def test_canonicalize_empty_phrase_is_null():
    anchors = build_anchors(["porch"])
    assert canonicalize_location("", anchors) is None
    assert canonicalize_location("in the", anchors) is None


def test_canonicalize_ambiguity_resolves_to_null():
    anchors = build_anchors(["green room", "blue room"])
    assert canonicalize_location("the room", anchors) is None


def test_canonicalize_unknown_is_null():
    anchors = build_anchors(["porch"])
    assert canonicalize_location("in the basement", anchors) is None


def test_rule_backend_rejects_bad_index(cupboard_story, backend):
    with pytest.raises(ProtocolError):
        backend.event_states(cupboard_story, 99, [])


def test_record_cap_keeps_mandated_pairs_first(melon_story, backend):
    questions = [
        parse_question("Where does Emma think Lily thinks William thinks the melon is?", melon_story),
        parse_question("Where does Isla think the melon is?", melon_story),
        parse_question("Where does Aiden think the melon is?", melon_story),
    ]
    pairs = identify_key_entities(melon_story, questions, backend)
    # Six mandated pairs, one past the cap: every one is kept, target first.
    assert [(p.entity.casefold(), p.attribute) for p in pairs] == [
        ("melon", "location"),
        ("emma", "location"),
        ("lily", "location"),
        ("william", "location"),
        ("isla", "location"),
        ("aiden", "location"),
    ]


class OfferedPairs:
    """A backend whose key entities are a fixed list of pairs."""

    def __init__(self, pairs):
        self.pairs = [EntityAttribute(entity, attribute) for entity, attribute in pairs]

    def key_entities(self, story, questions):
        return list(self.pairs)


ROLL_CALL = Story(
    events=tuple(
        Event(index=i, text=text)
        for i, text in enumerate(
            [
                "Ava entered the hall.",
                "Ben entered the hall.",
                "Cleo entered the hall.",
                "Dan entered the hall.",
                "Eve entered the hall.",
                "The apple is in the box.",
            ],
            start=1,
        )
    ),
    characters=("Ava", "Ben", "Cleo", "Dan", "Eve"),
)


def test_key_entities_of_person_questions_make_room_for_a_non_person_pair():
    questions = [parse_question("Where is Ava really?", ROLL_CALL)]
    offered = [(name, "location") for name in ("Ben", "Cleo", "Dan", "Eve")] + [("box", "content")]
    kept = identify_key_entities(ROLL_CALL, questions, OfferedPairs(offered))
    assert [p.render() for p in kept] == [
        "location of Ava", "location of Ben", "location of Cleo", "location of Dan", "content of box",
    ]


def test_key_entities_of_person_questions_stay_person_only_without_another_pair(caplog):
    questions = [parse_question("Where is Ava really?", ROLL_CALL)]
    offered = [(name, "location") for name in ("Ben", "Cleo")]
    with caplog.at_level(logging.DEBUG, logger="mindmask.nkb"):
        kept = identify_key_entities(ROLL_CALL, questions, OfferedPairs(offered))
    assert [p.render() for p in kept] == ["location of Ava", "location of Ben", "location of Cleo"]
    assert "no non-person pair can be kept" in caplog.text
