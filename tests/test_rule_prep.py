"""A rule-backend story is prepared with one scan and one scene pass.

`prepare_story` takes the scan itself through ``RuleBackend.scene_columns``
and builds the graphs from its columns, so it runs no merge; the scan's
location records, in its one location order, the emission order, are built
only when read. The backend states every entity whatever the targets, so no
key entities are asked for, not even when a text reader reads
`StoryArtifacts.augmented`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RecordingAnswerer
from test_generator_digest import corpus
from test_location_records import IDS, STORIES, identity
from test_pipeline import StoryStatesOnly
from mindmask import nkb, pipeline
from mindmask.errors import ValidationError
from mindmask.inject import inject
from mindmask.nkb import (
    LOCATION,
    RuleBackend,
    build_anchors,
    generate_states,
    identify_key_entities,
    merge_states,
)
from mindmask.pipeline import PipelineConfig, answer_question, prepare_story
from mindmask.scene import build_character_graph, build_omniscient_graph
from mindmask.story import DIALOGUE_KIND, Event, Story

PROFILE = settings(max_examples=100, deadline=None, derandomize=True)


def scan_locations(story: Story):
    """The location records of ``story_states``, in emission order."""
    return [r for r in RuleBackend().story_states(story, []) if r.attribute == LOCATION]


def story_of(lines, characters=(), kind="event") -> Story:
    events = []
    for i, line in enumerate(lines, start=1):
        speaker, text = None, line
        if kind == DIALOGUE_KIND and ": " in line:
            speaker, text = line.split(": ", 1)
        events.append(Event(index=i, text=text, speaker=speaker))
    return Story(events=tuple(events), characters=tuple(characters), kind=kind)


# -- the scan's location records, in emission order ---------------------------


@pytest.mark.parametrize("story, questions", STORIES, ids=IDS)
def test_location_states_are_merged_on_corpora(story, questions):
    assert identity(RuleBackend().scene_columns(story).locations) == identity(scan_locations(story))


UNSORTED_AND_REPEATED = story_of(
    [
        "Zoe, Ava and Mia entered the hall.",
        "Mia and Mia entered the attic.",
        "Mia, Ava, and Ava entered the hall.",
        "The apple is in the box.",
        "Zoe moved the apple to the crate.",
    ],
    characters=("Zoe", "Ava", "Mia"),
)
DIALOGUE_JOINS = story_of(
    [
        "Troy, Armani and Cynthia joined the conversation.",
        "Armani: The key is in the drawer.",
        "Troy left the conversation.",
        "Cynthia and Troy joined the conversation.",
        "Troy, Troy and Armani joined the conversation.",
        "Ann: Hello.",
    ],
    characters=("Armani", "Troy", "Cynthia", "Ann"),
    kind=DIALOGUE_KIND,
)


def test_location_states_merge_a_line_of_unsorted_and_repeated_names():
    story = UNSORTED_AND_REPEATED
    records = RuleBackend().scene_columns(story).locations
    assert identity(records) == identity(scan_locations(story))
    # Within a line the records keep emission order, one per name as written,
    # repeats included; display names keep their first spelling.
    assert [(r.event_index, r.entity) for r in records[:8]] == [
        (1, "Zoe"), (1, "Ava"), (1, "Mia"), (2, "Mia"), (2, "Mia"), (3, "Mia"), (3, "Ava"), (3, "Ava"),
    ]


def test_location_states_merge_dialogue_joins():
    story = DIALOGUE_JOINS
    records = RuleBackend().scene_columns(story).locations
    assert identity(records) == identity(scan_locations(story))
    assert [r.entity for r in records if r.event_index == 1] == ["Troy", "Armani", "Cynthia"]
    assert [r.entity for r in records if r.event_index == 5] == ["Troy", "Troy", "Armani"]


NAMES = ("Zoe", "Ava", "Mia", "Ann", "Anna")
SEPARATORS = (", ", " , ", ",")


@st.composite
def name_list(draw) -> str:
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5))
    if len(names) == 1:
        return names[0]
    head = names[0]
    for name in names[1:-1]:
        head += draw(st.sampled_from(SEPARATORS)) + name
    return head + draw(st.sampled_from((" and ", ", and "))) + names[-1]


@st.composite
def enter_stories(draw) -> Story:
    dialogue = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(1, 10))):
        group = draw(name_list())
        one = draw(st.sampled_from(NAMES))
        room = draw(st.sampled_from(("hall", "attic", "left wing")))
        lines.append(
            draw(
                st.sampled_from(
                    (
                        f"{group} entered the {room}.",
                        f"{group} joined the conversation.",
                        f"{one} exited the {room}.",
                        f"{one} left the conversation.",
                        f"{one} moved the apple to the crate.",
                        "The apple is in the box.",
                        f"{one}: I saw it.",
                    )
                )
            )
        )
    kind = DIALOGUE_KIND if dialogue else "event"
    if not dialogue:
        lines = [line.replace(": ", " says ") for line in lines]
    return story_of(lines, characters=NAMES, kind=kind)


@PROFILE
@given(story=enter_stories())
def test_location_states_are_merged_on_drawn_enter_lines(story):
    assert identity(RuleBackend().scene_columns(story).locations) == identity(scan_locations(story))


# -- the scene pass reads no record order within an event ----------------------


def assert_graphs_ignore_record_order(story: Story) -> None:
    """Graphs from the scan's emission order equal those from its merge: each
    from its own records list, both with the same anchors."""
    backend = RuleBackend()
    anchors = build_anchors([*backend.location_names(story), "hall"])
    emitted = list(backend.scene_columns(story).locations)
    merged = merge_states(emitted)
    built = build_omniscient_graph(story, emitted, anchors)
    reference = build_omniscient_graph(story, merged, anchors)
    assert (built.assignment, built.bits) == (reference.assignment, reference.bits)
    for name in story.characters:
        assert (
            build_character_graph(story, emitted, anchors, name, built).bits
            == build_character_graph(story, merged, anchors, name, reference).bits
        )


@pytest.mark.parametrize("seed", [1, 1009])
def test_graphs_ignore_record_order_on_benchmark_corpora(seed):
    for story, _ in corpus(seed):
        assert_graphs_ignore_record_order(story)


def test_graphs_ignore_record_order_on_hand_written_lines():
    assert_graphs_ignore_record_order(UNSORTED_AND_REPEATED)
    assert_graphs_ignore_record_order(DIALOGUE_JOINS)


@PROFILE
@given(story=enter_stories())
def test_graphs_ignore_record_order_on_drawn_enter_lines(story):
    assert_graphs_ignore_record_order(story)


@pytest.mark.parametrize("place", ["-", "'"])
def test_graphs_ignore_record_order_where_the_place_normalizes_to_nothing(place):
    # Every mover of such a line leaves for the null node, so the event's
    # room is where one of them stood before: the first by key, Ava.
    story = story_of(
        [
            "Zoe entered the hall.",
            "Ava entered the attic.",
            f"Zoe and Ava entered the {place}.",
            "Ava entered the hall.",
            f"Zoe, Mia, Zoe and Ava entered the {place}.",
        ],
        characters=("Zoe", "Ava", "Mia"),
    )
    assert_graphs_ignore_record_order(story)
    backend = RuleBackend()
    anchors = build_anchors(backend.location_names(story))
    graph = build_omniscient_graph(story, list(backend.scene_columns(story).locations), anchors)
    assert graph.assignment == ("hall", "attic", "attic", "hall", "hall")


# -- the symbolic path asks for no key entities and runs no merge --------------


class Calls:
    def __init__(self, monkeypatch):
        self.counts = {"identify_key_entities": 0, "merge_states": 0}
        for module in (pipeline, nkb):
            for name in self.counts:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, self.counting(name, getattr(module, name)))

    def counting(self, name, fn):
        def wrapped(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped


@pytest.mark.parametrize("story, questions", STORIES, ids=IDS)
def test_symbolic_path_asks_for_no_key_entities_and_no_merge(story, questions, monkeypatch):
    backend = RuleBackend()
    expected = inject(story, generate_states(story, identify_key_entities(story, questions, backend), backend))
    calls = Calls(monkeypatch)
    cfg = PipelineConfig(nkb_backend=backend)
    artifacts = prepare_story(story, questions, cfg)
    for q in questions:
        answer_question(artifacts, q, cfg)
    assert calls.counts == {"identify_key_entities": 0, "merge_states": 0}

    # A text reader still gets every injected bullet, from one merge and no
    # key entities: the rule backend states every entity whatever the targets.
    reader = PipelineConfig(nkb_backend=backend, answer_backend=RecordingAnswerer())
    for q in questions:
        answer_question(artifacts, q, reader)
    assert artifacts.augmented == expected
    assert calls.counts == {"identify_key_entities": 0, "merge_states": 1}


# -- an empty question list is refused on both paths ---------------------------


@pytest.mark.parametrize("backend", [RuleBackend(), StoryStatesOnly()], ids=["rule", "three-query"])
def test_prepare_story_refuses_no_questions(backend):
    story, _ = STORIES[0]
    with pytest.raises(ValidationError):
        prepare_story(story, [], PipelineConfig(nkb_backend=backend))

