from __future__ import annotations

import pytest

from mindmask.nkb import RuleBackend, extract_locations, generate_states, identify_key_entities
from mindmask.question import parse_question
from mindmask.scene import build_omniscient_graph
from mindmask.story import parse_story

# 11 events, one room, one container swap; Abigail misses the move.
CUPBOARD_TEXT = """Benjamin entered the crawlspace.
Abigail entered the crawlspace.
Emily entered the crawlspace.
The t-shirt is in the cupboard.
The cupboard is in the crawlspace.
Abigail exited the crawlspace.
Emily moved the t-shirt to the basket.
The basket is in the crawlspace.
Benjamin hates the coat.
Emily exited the crawlspace.
Abigail entered the crawlspace."""

CUPBOARD_QUESTIONS = (
    "Where is the t-shirt in the begining?",
    "Where will Abigail search for the t-shirt?",
    "Where does Benjamin think that Abigail search for the t-shirt?",
)

# 14 events, five characters leaving one by one; each holds a different
# belief about the melon by the end.
MELON_TEXT = """William, Lily, Aiden, Emma and Isla entered the porch.
The melon is in the green bathtub.
Aiden moved the melon to the blue pantry.
Lily likes the green bucket.
Aiden exited the porch.
Lily made no movements and stayed in the porch for 1 minute.
Lily exited the porch.
Emma moved the melon to the green bucket.
Emma exited the porch.
Isla moved the melon to the green bathtub.
Isla exited the porch.
William moved the melon to the red bucket.
William exited the porch.
William, Lily, Aiden, Emma, and Isla entered the waiting room."""

MELON_QUESTION = "Where does Emma think Lily thinks William thinks the melon is?"


@pytest.fixture
def cupboard_story():
    return parse_story(CUPBOARD_TEXT)


@pytest.fixture
def cupboard_questions(cupboard_story):
    return [parse_question(text, cupboard_story) for text in CUPBOARD_QUESTIONS]


@pytest.fixture
def melon_story():
    return parse_story(MELON_TEXT)


@pytest.fixture
def melon_question(melon_story):
    return parse_question(MELON_QUESTION, melon_story)


@pytest.fixture
def backend():
    return RuleBackend()


@pytest.fixture
def melon_setup(melon_story, melon_question, backend):
    targets = identify_key_entities(melon_story, [melon_question], backend)
    records = generate_states(melon_story, targets, backend)
    anchors = extract_locations(melon_story, backend)
    omniscient = build_omniscient_graph(melon_story, records, anchors)
    return melon_story, melon_question, records, anchors, omniscient


@pytest.fixture
def cupboard_setup(cupboard_story, cupboard_questions, backend):
    targets = identify_key_entities(cupboard_story, cupboard_questions, backend)
    records = generate_states(cupboard_story, targets, backend)
    anchors = extract_locations(cupboard_story, backend)
    omniscient = build_omniscient_graph(cupboard_story, records, anchors)
    return cupboard_story, cupboard_questions, records, anchors, omniscient


class RecordingAnswerer:
    """A text reader that keeps every (view, question, space, reply) it
    sees. It answers the first candidate in tags when the view holds an odd
    number of events, and with untagged text otherwise, so both parsed and
    flagged replies occur."""

    def __init__(self):
        self.calls = []

    def answer(self, view, question, space) -> str:
        if space and len(view.surviving) % 2:
            reply = f"<answer>{space[0]}</answer>"
        else:
            reply = "I cannot tell."
        self.calls.append((view, question, space, reply))
        return reply


@pytest.fixture
def recording_answerer():
    return RecordingAnswerer()
