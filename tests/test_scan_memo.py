"""The rule backend reads each distinct line once, whatever story holds it.

A backend keeps what the grammar reads in each stripped line it has seen, and
a later story that repeats the line is not matched again. The reading holds
nothing of any one story, so a scan with a backend that has read other
stories first equals a fresh backend's: display names, move notes, places,
containers and records alike.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from test_generator_digest import corpus
from test_location_records import STORIES, identity
from test_rule_prep import story_of
from test_rule_scan import PATTERNS, CountingPattern, dialogues, grammar_configs, mutated
from mindmask import nkb
from mindmask.nkb import RuleBackend, _scan
from mindmask.story import DIALOGUE_KIND, Story
from mindmask.worldgen import generate_story

PROFILE = settings(max_examples=100, deadline=None, derandomize=True)


def assert_same_scan(got, want) -> None:
    assert identity(got.locations) == identity(want.locations)
    assert got.moves == want.moves
    assert got.places == want.places
    assert got.containers == want.containers
    assert got.records == want.records
    assert [r.key for r in got.records] == [r.key for r in want.records]


def scans_of(backend: RuleBackend, stories):
    return [backend._scan_of(story) for story in stories]


def assert_reuse_matches_fresh(stories) -> None:
    """One backend over every story in turn scans each as a fresh one does."""
    backend = RuleBackend()
    for story, got in zip(stories, scans_of(backend, stories)):
        assert_same_scan(got, _scan(story, {}, {}))


def test_reused_backend_matches_fresh_on_digest_corpora():
    # The seed-1 and seed-1009 corpora: the four benchmark shapes, then the
    # criterion-2 grid twice; then the shapes' stories and a dialogue.
    stories = [story for seed in (1, 1009) for story, _ in corpus(seed)]
    stories += [story for story, _ in STORIES]
    assert_reuse_matches_fresh(stories)


@st.composite
def stories(draw) -> Story:
    story, _ = generate_story(draw(grammar_configs()))
    return draw(st.one_of(st.just(story), mutated(story), dialogues()))


@PROFILE
@given(first=stories(), second=stories())
def test_reused_backend_matches_fresh_on_drawn_stories(first, second):
    # Lines the generator never writes, lines that read as two patterns, and
    # dialogues, each read after another story and then again.
    assert_reuse_matches_fresh([first, second, first])


# -- stories that read one line two ways ----------------------------------------


def test_same_line_keeps_each_storys_first_spelling():
    line = "The Ava is in the box."
    upper = story_of(["Mia entered the hall.", "The AVA is in the crate.", line], ("Mia",))
    plain = story_of(["Mia entered the hall.", line], ("Mia",))
    assert_reuse_matches_fresh([upper, plain, upper])
    backend = RuleBackend()
    assert [r.entity for r in backend.scene_columns(upper).locations][-1] == "AVA"
    assert [r.entity for r in backend.scene_columns(plain).locations][-1] == "Ava"


def test_old_container_is_known_in_one_story_only():
    move = "Mia moved the ball to the box."
    declared = story_of(["Mia entered the hall.", "The ball is in the crate.", move], ("Mia",))
    undeclared = story_of(["Mia entered the hall.", move], ("Mia",))
    assert_reuse_matches_fresh([declared, undeclared, declared])
    backend = RuleBackend()
    assert backend._scan_of(declared).moves[-1][-1] == "crate"
    assert backend._scan_of(undeclared).moves[-1][-1] is None
    assert [r.render() for r in backend.story_states(undeclared, [])][-2:] == [
        "location of ball becomes in box",
        "content of box becomes ball",
    ]


def test_declaration_and_enter_on_one_line():
    both = "The entered the attic is in the hall."
    first = story_of(["Mia entered the cellar.", both], ("Mia", "The"))
    # Here the same object was declared in another container first.
    second = story_of(["The entered the attic is in the cellar.", both], ("The",))
    assert_reuse_matches_fresh([first, second, first])
    backend = RuleBackend()
    assert backend._scan_of(first).containers == {"entered the attic": "hall"}
    assert backend._scan_of(second).containers == {"entered the attic": "cellar"}
    assert backend.location_names(first) == ["cellar", "attic is in the hall"]
    assert backend.location_names(second) == ["attic is in the cellar", "attic is in the hall"]
    assert [r.render() for r in backend.story_states(second, [])] == [
        "location of The becomes in the attic is in the cellar",
        "location of The becomes in the attic is in the hall",
    ]


def test_utterance_implies_presence_in_one_dialogue_only():
    utterance = "Troy: I saw the key."
    absent = story_of(["Armani joined the conversation.", utterance], ("Armani", "Troy"), DIALOGUE_KIND)
    joined = story_of(["Troy joined the conversation.", utterance], ("Armani", "Troy"), DIALOGUE_KIND)
    assert_reuse_matches_fresh([absent, joined, absent])
    backend = RuleBackend()
    assert [r.render() for r in backend.story_states(absent, [])] == [
        "location of Armani becomes in the conversation",
        "location of Troy becomes in the conversation",
    ]
    assert [r.render() for r in backend.story_states(joined, [])] == [
        "location of Troy becomes in the conversation",
    ]


def test_rescanning_a_story_after_another_gives_its_first_scan():
    a = story_of(
        ["Mia and Ben entered the hall.", "The melon is in the box.", "Ben moved the melon to the crate."],
        ("Mia", "Ben"),
    )
    b = story_of(
        ["Ben entered the hall.", "The melon is in the basket.", "Ben moved the melon to the crate."],
        ("Ben",),
    )
    backend = RuleBackend()
    first = backend._scan_of(a)
    backend._scan_of(b)
    assert_same_scan(backend._scan_of(a), first)


# -- how often a backend matches a line ----------------------------------------


def test_each_distinct_line_is_matched_once_per_backend(monkeypatch):
    matches: Counter = Counter()
    for name in PATTERNS:
        monkeypatch.setattr(nkb, name, CountingPattern(name, getattr(nkb, name), matches))
    stories = [story for story, _ in STORIES]
    backend = RuleBackend()
    scans_of(backend, stories)
    assert matches and max(matches.values()) == 1
    # Every line is read already, so the same stories cost no match again;
    # a new backend reads them all once more.
    seen = sum(matches.values())
    scans_of(backend, [Story(s.events, s.characters, s.kind) for s in stories])
    assert sum(matches.values()) == seen
    scans_of(RuleBackend(), stories)
    assert sum(matches.values()) == 2 * seen
