"""The oracle tries each pattern only when the pattern's fixed text is in the
line. That is sound only if no line without the fixed text can match, which
these tests check on grammar-shaped lines, the collision lines of the rule
scan's tests and generated stories."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_rule_scan import CONTAINERS, DIALOGUE_LINES, OBJECTS, ROOMS, STRANGERS, TEMPLATES
from mindmask.worldgen import _DECLARE, _ENTER, _EXIT, _MOVE, _STAY, GrammarConfig, generate_story

PROFILE = settings(max_examples=300, deadline=None, derandomize=True)

# Each pattern and the text a line must hold for the pattern to match it.
GATES = {
    "enter": (_ENTER, lambda line: " entered the " in line),
    "exit": (_EXIT, lambda line: " exited the " in line),
    "move": (_MOVE, lambda line: " moved the " in line),
    "declare": (_DECLARE, lambda line: line.startswith("The ")),
    "stay": (_STAY, lambda line: " stayed in the " in line),
}

NAMES = ("Mia", "Ava", "The") + STRANGERS
VERBS = (
    "entered the", "exited the", "moved the", "is in the", "stayed in the",
    "made no movements and stayed in the", "entered", "exited", "moved", "to the",
    "entered  the", "Entered the", "likes the", "joined the conversation",
)
WORDS = ROOMS + CONTAINERS + OBJECTS + ("for 1 minute", "the", "in", "to")


@st.composite
def grammar_lines(draw) -> str:
    """Lines built from the grammar's own pieces, in any order: a subject or
    name list, then verbs and words, with or without the final period."""
    subject = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3))
    head = draw(st.sampled_from((", ", " and ", ", and "))).join(subject)
    if draw(st.booleans()):
        head = "The " + draw(st.sampled_from(OBJECTS + CONTAINERS))
    parts = draw(st.lists(st.sampled_from(VERBS + WORDS), min_size=1, max_size=6))
    line = head + " " + " ".join(parts) + draw(st.sampled_from((".", "", " .")))
    return draw(st.sampled_from(("", " ", "  "))) + line


@st.composite
def collision_lines(draw) -> str:
    template = draw(st.sampled_from(TEMPLATES + DIALOGUE_LINES))
    return template.format(
        name=draw(st.sampled_from(NAMES)),
        name2=draw(st.sampled_from(NAMES)),
        name3=draw(st.sampled_from(NAMES)),
        other=draw(st.sampled_from(STRANGERS)),
        room=draw(st.sampled_from(ROOMS)),
        obj=draw(st.sampled_from(OBJECTS)),
        c1=draw(st.sampled_from(CONTAINERS)),
        c2=draw(st.sampled_from(CONTAINERS)),
    )


def assert_gated(line: str) -> None:
    for name, (pattern, gate) in GATES.items():
        if pattern.match(line):
            assert gate(line), (name, line)


@PROFILE
@given(line=st.one_of(grammar_lines(), collision_lines()))
def test_a_pattern_matches_only_lines_with_its_fixed_text(line):
    assert_gated(line)


@PROFILE
@given(line=st.text(alphabet="TheAMiaentrdxovsyclk -'.,", max_size=60))
def test_no_stray_text_matches_without_the_fixed_text(line):
    assert_gated(line)


@pytest.mark.parametrize("seed", (1, 1009))
def test_every_gate_is_met_on_generated_and_collision_lines(seed):
    config = GrammarConfig(num_characters=4, num_rooms=3, max_order=3, seed=seed, allow_reentry=True)
    lines = [e.text for e in generate_story(config)[0].events]
    values = dict(name="Mia", name2="Ava", name3="Ann", other="Anna", room="hall", obj="melon")
    lines += [t.format(c1="box", c2="red crate", **values) for t in TEMPLATES + DIALOGUE_LINES]
    matched = set()
    for line in lines:
        assert_gated(line)
        matched |= {name for name, (pattern, _) in GATES.items() if pattern.match(line)}
    # Every pattern matches some line, so no gate is checked vacuously.
    assert matched == set(GATES)
