"""Each rule that reads a record has one home.

The text reader's candidates are the answers the symbolic reader can give
(`pipeline.answer_space_for` builds them with `_state_to_answer`); a
key-entity item reads its ``<attribute> of <entity>`` pair as a state line
does; and a story's record-cache key tells apart stories whose prompts
differ.
"""

from __future__ import annotations

import pytest

from test_generator_digest import corpus
from test_record_log import template_of
from mindmask.nkb import EntityStateRecord
from mindmask.pipeline import (
    ABSTAIN,
    PipelineConfig,
    answer_question,
    answer_space_for,
    prepare_story,
    symbolic_reader,
)
from mindmask.question import parse_question
from mindmask.remote import _RECORD_LINE, ChatClient, RecordCache, RemoteBackend, _entity_pairs
from mindmask.story import Event, Story, parse_story
from mindmask.worldgen import GrammarConfig, generate_story


@pytest.mark.parametrize("seed", [1, 1009])
def test_every_symbolic_answer_is_a_candidate(seed):
    cfg = PipelineConfig()
    for story, questions in corpus(seed):
        artifacts = prepare_story(story, questions, cfg)
        for q in questions:
            answer = answer_question(artifacts, q, cfg).predicted
            if answer != ABSTAIN:
                assert answer in answer_space_for(q, story, artifacts.records), (story.key(), q.raw)


def test_a_denied_place_is_offered_as_the_reader_answers_it():
    story = parse_story("Mia entered the kitchen.\nThe ball is in the box.\nMia moved the ball.")
    records = [
        EntityStateRecord(2, "ball", "location", "in the box"),
        EntityStateRecord(3, "ball", "location", "not in the box"),
    ]
    q = parse_question("Where is the ball really?", story)
    assert symbolic_reader(0b111, q, records) == "not in the box"
    assert answer_space_for(q, story, records) == ["box", "not in the box"]


@pytest.mark.parametrize(
    "item, entity, attribute",
    [
        ("location OF T-shirt", "T-shirt", "location"),
        ("location\xa0of T-shirt", "T-shirt", "location"),
        ("location\tof T-shirt", "T-shirt", "location"),
        ("Location Of Statue of Liberty", "Statue of Liberty", "Location"),
        ("location of  Mia", "Mia", "location"),
    ],
)
def test_a_key_entity_item_reads_its_pair_as_a_state_line(item, entity, attribute):
    assert _entity_pairs(f"<entities>\n- {item}\n</entities>") == [[entity, attribute]]
    line = _RECORD_LINE.match(f"- 4: {item} becomes in the box")
    assert (line.group(2), line.group(3)) == (attribute, entity)


def test_a_key_entity_item_without_a_pair_is_skipped():
    assert _entity_pairs("- the office\n- location of Mia") == [["Mia", "location"]]


def _story(*events, characters=("Ava",)):
    return Story(events=tuple(Event(i, *e) for i, e in enumerate(events, 1)), characters=characters)


# Each pair hashed the same payload before stories were told apart.
ONE_EVENT = _story(("Ava entered the hall.\n\tThe box is in the hall.",))
TWO_EVENTS = _story(("Ava entered the hall.",), ("The box is in the hall.",))
TAB_SPEAKER = _story(("hi", "Ava\tBen"), characters=("Ava\tBen",))
TAB_TEXT = _story(("Ben\thi", "Ava"))


@pytest.mark.parametrize("a, b", [(ONE_EVENT, TWO_EVENTS), (TAB_SPEAKER, TAB_TEXT)])
def test_stories_with_different_prompts_get_different_keys(a, b):
    assert a.key() != b.key()


def test_a_plain_story_keeps_its_key():
    story, _ = generate_story(
        GrammarConfig(seed=1, num_characters=5, num_rooms=4, max_order=4, allow_reentry=True)
    )
    assert story.key() == "fad664b95b536e6c"
    assert TWO_EVENTS.key() == "e2d309691a7916fe"


def test_each_of_two_near_stories_sends_its_own_requests(tmp_path):
    replies = {
        "key_entities": "- location of box",
        "extract_locations": "- hall",
        "generate_states": "- 1: location of box becomes in the hall",
    }
    requests = []

    def transport(url, headers, payload, timeout):
        requests.append(payload["messages"][0]["content"])
        return {"choices": [{"message": {"content": replies[template_of(requests[-1])]}}]}

    client = ChatClient(base_url="http://llm.test/v1", model="test-model", transport=transport)
    cfg = PipelineConfig(nkb_backend=RemoteBackend(client, RecordCache(tmp_path)))
    for n, story in enumerate((ONE_EVENT, TWO_EVENTS), 1):
        prepare_story(story, [parse_question("Where is the box really?", story)], cfg)
        assert len(requests) == 3 * n
