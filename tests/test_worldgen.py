from __future__ import annotations

import re

import pytest

from mindmask.errors import ValidationError
from mindmask.worldgen import (
    _OBJECTS,
    GrammarConfig,
    REGROUP_ROOM,
    generate_story,
    observed_set,
    simulate_beliefs,
)


def test_config_validation():
    GrammarConfig().validate()
    with pytest.raises(ValidationError):
        GrammarConfig(num_characters=1).validate()
    with pytest.raises(ValidationError):
        GrammarConfig(num_characters=6).validate()
    with pytest.raises(ValidationError):
        GrammarConfig(num_characters=2, max_order=3).validate()
    with pytest.raises(ValidationError):
        GrammarConfig(num_containers_per_room=1).validate()
    with pytest.raises(ValidationError):
        GrammarConfig(moves_per_room=0).validate()
    with pytest.raises(ValidationError):
        GrammarConfig(max_order=0).validate()
    with pytest.raises(ValidationError):
        GrammarConfig(distractor_rate=1.5).validate()


@pytest.mark.parametrize(
    "fields, limit",
    [
        (dict(num_rooms=13), "num_rooms must be at most 12"),
        (dict(num_objects=13), "num_objects must be at most 12"),
        (dict(num_rooms=11, num_containers_per_room=7), "must be at most 72"),
        (dict(num_rooms=1, num_containers_per_room=73), "must be at most 72"),
    ],
)
def test_config_validation_rejects_what_the_pools_cannot_fill(fields, limit):
    with pytest.raises(ValidationError, match=limit):
        GrammarConfig(**fields).validate()
    with pytest.raises(ValidationError, match=limit):
        generate_story(GrammarConfig(**fields))


def test_largest_config_the_pools_fill():
    config = GrammarConfig(num_rooms=12, num_containers_per_room=6, num_objects=12, seed=3)
    story, questions = generate_story(config)
    texts = [e.text for e in story.events]
    assert sum(t.endswith(f"entered the {REGROUP_ROOM}.") for t in texts) == 12
    declared = {t[len("The "):].split(" is in the ")[0] for t in texts if t.startswith("The ")}
    assert declared >= set(_OBJECTS)
    assert all(q.gold for q in questions)


def test_generation_is_deterministic():
    config = GrammarConfig(num_characters=4, max_order=3, seed=99, allow_reentry=True)
    a_story, a_questions = generate_story(config)
    b_story, b_questions = generate_story(config)
    assert a_story == b_story
    assert [(q.raw, q.gold) for q in a_questions] == [(q.raw, q.gold) for q in b_questions]


def test_generated_shape():
    story, questions = generate_story(GrammarConfig(num_characters=3, max_order=2, seed=5))
    texts = [e.text for e in story.events]
    assert any("entered the" in t for t in texts)
    assert any(" is in the " in t for t in texts)
    assert any("moved the" in t for t in texts)
    assert texts[-1].endswith(f"entered the {REGROUP_ROOM}.")
    assert [q.order for q in questions] == [0, 1, 2]
    assert all(q.gold for q in questions)


def test_episode_shape_matches_the_room_pattern():
    # One-room, five-character episodes follow the classic shape: everyone
    # enters, the object is declared, actors move/idle/gossip and exit one by
    # one, everyone regroups in the waiting room.
    story, _ = generate_story(
        GrammarConfig(
            num_characters=5, num_rooms=1, num_containers_per_room=4,
            moves_per_room=3, max_order=4, seed=11, distractor_rate=0.3,
        )
    )
    kinds = []
    for event in story.events:
        text = event.text
        if re.search(r"entered the waiting room\.$", text):
            kinds.append("regroup")
        elif " entered the " in text:
            kinds.append("enter")
        elif text.startswith("The ") and " is in the " in text:
            kinds.append("declare")
        elif " moved the " in text:
            kinds.append("move")
        elif " exited the " in text:
            kinds.append("exit")
        elif "made no movements" in text:
            kinds.append("stay")
        elif " likes the " in text or " hates the " in text:
            kinds.append("distractor")
        else:
            pytest.fail(f"unclassifiable event: {text}")
    from mindmask.story import split_name_list

    participants = split_name_list(
        re.match(r"^(.+?) entered the", story.events[0].text).group(1)
    )
    assert kinds[0] == "enter"
    assert "declare" in kinds[: len(participants) + 2]
    assert kinds[-1] == "regroup"
    assert kinds.index("declare") < kinds.index("move")
    assert kinds.count("exit") == len(participants)
    assert "move" in kinds[kinds.index("exit"):], "a move must follow the first exit"


def test_minimal_false_belief_structure():
    # Two characters, one move: the first exiter must hold the pre-move belief.
    story, _ = generate_story(
        GrammarConfig(num_characters=2, max_order=1, num_rooms=1, moves_per_room=1, seed=3,
                      distractor_rate=0.0)
    )
    texts = [e.text for e in story.events]
    first_exiter = next(
        re.match(r"^(\w+) exited", t).group(1) for t in texts if re.match(r"^(\w+) exited", t)
    )
    declared = next(re.match(r"^The (.+?) is in the (.+?)\.$", t) for t in texts if t.startswith("The "))
    obj, first_container = declared.group(1), declared.group(2)
    moves = [re.match(r"^(\w+) moved the .+? to the (.+?)\.$", t) for t in texts]
    moves = [m for m in moves if m]
    assert moves, "the last actor always moves"
    assert simulate_beliefs(story, (first_exiter,), obj) == first_container
    assert simulate_beliefs(story, (), obj) == moves[-1].group(2)


def test_observed_set_melon_examples(melon_story):
    assert observed_set(melon_story, "Lily") == set(range(1, 8)) | {14}
    assert observed_set(melon_story, "Aiden") == {1, 2, 3, 4, 5, 14}
    assert observed_set(melon_story, "William") == set(range(1, 15))


def test_observed_set_unknown_character(melon_story):
    with pytest.raises(ValidationError):
        observed_set(melon_story, "Zorro")


def test_simulate_beliefs_melon(melon_story):
    assert simulate_beliefs(melon_story, ("Emma", "Lily", "William"), "melon") == "blue pantry"
    assert simulate_beliefs(melon_story, ("William",), "melon") == "red bucket"
    assert simulate_beliefs(melon_story, (), "melon") == "red bucket"


def test_simulate_beliefs_cupboard(cupboard_story):
    assert simulate_beliefs(cupboard_story, ("Abigail",), "t-shirt") == "cupboard"
    assert simulate_beliefs(cupboard_story, ("Emily",), "t-shirt") == "basket"
    assert simulate_beliefs(cupboard_story, (), "t-shirt") == "basket"


def test_simulate_beliefs_unknown_entity(melon_story):
    with pytest.raises(ValidationError):
        simulate_beliefs(melon_story, ("Lily",), "unicorn")


def test_second_order_chain_intersection(melon_story):
    # Aiden sees 1..5, Lily sees 1..7: their shared view ends before any move
    # past the blue pantry.
    assert simulate_beliefs(melon_story, ("Aiden", "Lily"), "melon") == "blue pantry"


def test_unwitnessed_entity_falls_back_to_initial_declaration():
    from mindmask.story import parse_story

    story = parse_story(
        "Ava entered the hall.\n"
        "Ava exited the hall.\n"
        "Ben entered the hall.\n"
        "The coin is in the red box.\n"
        "Ben moved the coin to the blue box."
    )
    assert observed_set(story, "Ava") == {1, 2}
    assert simulate_beliefs(story, ("Ava",), "coin") == "red box"


def test_empty_chain_store_is_true_world(melon_story):
    assert simulate_beliefs(melon_story, (), "melon") == "red bucket"


def test_reentry_produces_non_prefix_observation():
    # With re-entry on, some seed shows a character whose observed set has a
    # gap: seen, away, seen again.
    found = False
    for seed in range(30):
        story, _ = generate_story(
            GrammarConfig(num_characters=3, max_order=1, seed=seed, allow_reentry=True)
        )
        enters = {}
        for e in story.events:
            m = re.match(r"^(\w+) entered the (?!waiting)", e.text)
            if m:
                enters[m.group(1)] = enters.get(m.group(1), 0) + 1
        returners = [name for name, count in enters.items() if count >= 2]
        if not returners:
            continue
        observed = observed_set(story, returners[0])
        span = range(min(observed), max(observed) + 1)
        if set(span) - observed:
            found = True
            break
    assert found, "no re-entry gap found across 30 seeds"


def test_exiting_character_observes_own_exit(melon_story):
    # Aiden exits at event 5 and must still witness that departure.
    assert 5 in observed_set(melon_story, "Aiden")
    # Lily, still inside, witnesses it too; Emma does as well (still inside).
    assert 5 in observed_set(melon_story, "Lily")
    # Nobody outside the porch does: all five are in, so check a later exit.
    assert 9 not in observed_set(melon_story, "Aiden")


@pytest.mark.parametrize("field", ["num_rooms", "num_objects"])
def test_config_needs_a_room_and_an_object(field):
    with pytest.raises(ValidationError, match="at least one room and one object"):
        GrammarConfig(**{field: 0}).validate()


def test_simulate_beliefs_refuses_a_stranger_in_the_chain():
    story, questions = generate_story(GrammarConfig(seed=3))
    with pytest.raises(ValidationError, match="'Nobody' is not a character"):
        simulate_beliefs(story, (story.characters[0], "Nobody"), questions[0].target_entity)
