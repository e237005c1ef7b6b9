"""A state record's identity is its casefolded (entity, attribute) key, set
once where the record is made and read by every layer after it."""

from __future__ import annotations

import dataclasses

import pytest

from mindmask.nkb import LOCATION, EntityAttribute, EntityStateRecord, keyed_pair
from mindmask.pipeline import PipelineConfig, answer_question, answer_space_for, prepare_story
from mindmask.question import parse_question
from mindmask.remote import ChatClient, RecordCache, RemoteBackend
from mindmask.story import parse_story

STORY = parse_story(
    "Mia entered the kitchen.\nLeo entered the kitchen.\nThe ball is in the box.\n"
    "Mia exited the kitchen.\nLeo moved the ball to the basket."
)
QUESTIONS = [
    parse_question(text, STORY)
    for text in (
        "Where is the ball really?",
        "Where is the ball in the beginning?",
        "Where does Mia think the ball is?",
        "Where does Leo think the ball is?",
    )
]
# A chat model's state reply that spells the attribute with a capital.
CAPITALIZED = """- 1: Location of Mia becomes in the kitchen
- 2: Location of Leo becomes in the kitchen
- 3: Location of ball becomes in the box
- 4: Location of Mia becomes outside the kitchen
- 5: Location of ball becomes in basket
- 5: content of basket becomes ball
"""


def remote_backend(state_reply: str) -> RemoteBackend:
    """A remote backend whose chat endpoint answers each prompt template
    with a fixed reply."""

    def transport(url, headers, payload, timeout):
        prompt = payload["messages"][0]["content"]
        if "<Questions>" in prompt:
            reply = "<entities>\n- location of ball\n</entities>"
        elif "<Entity-of-Interest>" in prompt:
            reply = state_reply
        else:
            reply = "- kitchen"
        return {"choices": [{"message": {"content": reply}}]}

    return RemoteBackend(ChatClient(base_url="http://llm.test/v1", model="m", transport=transport))


def outcome(state_reply: str) -> dict:
    cfg = PipelineConfig(nkb_backend=remote_backend(state_reply))
    artifacts = prepare_story(STORY, QUESTIONS, cfg)
    return {
        "omniscient": artifacts.omniscient.assignment,
        "characters": {c: artifacts.character_graph(c).assignment for c in STORY.characters},
        "bullets": [a.injected for a in artifacts.augmented],
        "spaces": [answer_space_for(q, STORY, artifacts.records) for q in QUESTIONS],
        "answers": [answer_question(artifacts, q, cfg).predicted for q in QUESTIONS],
    }


def test_state_reply_attribute_is_case_insensitive():
    capitalized = outcome(CAPITALIZED)
    assert capitalized == outcome(CAPITALIZED.replace("Location of", "location of"))
    assert capitalized["answers"] == ["basket", "box", "box", "basket"]
    assert capitalized["omniscient"] == ("kitchen",) * 5
    assert capitalized["spaces"][0] == ["box", "basket"]
    # Character locations feed masking and never appear as bullets.
    assert capitalized["bullets"] == [
        (),
        (),
        ("location of ball becomes in the box",),
        (),
        ("location of ball becomes in basket", "content of basket becomes ball"),
    ]


def test_key_is_the_casefolded_pair_and_not_part_of_identity():
    record = EntityStateRecord(3, "Red Box", "Location", "in the kitchen")
    assert record.key == ("red box", "location")
    assert record == EntityStateRecord(3, "Red Box", "Location", "in the kitchen")
    assert "key" not in repr(record)
    pair = EntityAttribute("T-shirt", LOCATION)
    assert pair.key == ("t-shirt", LOCATION)
    assert hash(pair) == hash(EntityAttribute("T-shirt", LOCATION))


def test_keyed_pair_is_the_pair_the_dataclass_builds():
    pair = keyed_pair("T-shirt", "Location", ("t-shirt", "location"))
    built = EntityAttribute("T-shirt", "Location")
    assert pair == built and hash(pair) == hash(built) and repr(pair) == repr(built)
    assert pair.key == built.key
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.entity = "ball"
    assert dataclasses.replace(pair, entity="Box").key == ("box", "location")


def test_replace_recomputes_the_key():
    record = EntityStateRecord(1, "ball", "location", "in the box")
    moved = dataclasses.replace(record, entity="Red Ball", attribute="Content")
    assert moved.key == ("red ball", "content")
    pair = dataclasses.replace(EntityAttribute("ball", LOCATION), entity="Box")
    assert pair.key == ("box", LOCATION)


def test_record_rebuilt_from_its_cache_row_is_the_same_record(tmp_path):
    records = [
        EntityStateRecord(1, "Mia", "Location", "in the kitchen"),
        EntityStateRecord(5, "basket", "content", "ball"),
    ]
    targets = [EntityAttribute("ball", LOCATION)]
    cache = RecordCache(tmp_path)
    rows = [
        {"event_index": r.event_index, "entity": r.entity, "attribute": r.attribute, "state": r.state}
        for r in records
    ]
    cache.store(STORY, targets, "m", rows)
    rebuilt = [EntityStateRecord(**row) for row in cache.load(STORY, targets, "m")]
    assert rebuilt == records
    assert [hash(r) for r in rebuilt] == [hash(r) for r in records]
    assert [repr(r) for r in rebuilt] == [repr(r) for r in records]
    assert [r.key for r in rebuilt] == [r.key for r in records]
