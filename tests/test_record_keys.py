"""Record keys computed once per story, against the per-call code they replace:
injection's single sort, the reader's (entity, attribute) index, and the
memoized place normalizer."""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from mindmask.inject import AugmentedEvent, inject
from mindmask.nkb import LOCATION, EntityStateRecord, RuleBackend, generate_states, identify_key_entities
from mindmask.pipeline import (
    ABSTAIN,
    PipelineConfig,
    StoryArtifacts,
    _state_to_answer,
    prepare_story,
    symbolic_reader,
)
from mindmask.question import parse_question
from mindmask.story import Event, Story
from mindmask.textnorm import normalize_place
from mindmask.worldgen import GrammarConfig, generate_story

# Fixed and derandomized, so the tier-1 run stays short and repeatable.
PROFILE = settings(max_examples=60, deadline=None, derandomize=True)
# Tests that generate and prepare a whole story per example.
STORIES = settings(PROFILE, max_examples=30)

STORY = Story(
    events=tuple(Event(index=i, text=f"Event {i}.") for i in range(1, 7)),
    characters=("Ava", "Ben"),
)


# -- the code the keyed versions replace --------------------------------------


def reference_inject(story: Story, records: list[EntityStateRecord]) -> list[AugmentedEvent]:
    """Injection with one sort per event, casefolding inside the sort key."""
    person = {c.casefold() for c in story.characters}
    per_event: dict[int, list[EntityStateRecord]] = {}
    for r in records:
        if r.attribute == LOCATION and r.entity.casefold() in person:
            continue
        per_event.setdefault(r.event_index, []).append(r)
    augmented = []
    for event in story.events:
        bullets = sorted(
            per_event.get(event.index, ()),
            key=lambda r: (r.entity.casefold(), r.attribute.casefold()),
        )
        augmented.append(
            AugmentedEvent(event=event, injected=tuple(r.render() for r in bullets))
        )
    return augmented


def reference_reader(surviving: tuple[int, ...], q, records: list[EntityStateRecord]) -> str:
    """The reader that scans every record of the story on every question,
    given the surviving event indices."""
    target = q.target_entity.casefold()
    relevant = [
        r
        for r in records
        if r.entity.casefold() == target and r.attribute.casefold() == "location"
    ]
    if not relevant:
        return ABSTAIN
    if q.asks_initial:
        chosen = relevant[0]
    else:
        in_view = [r for r in relevant if r.event_index in surviving]
        chosen = in_view[-1] if in_view else relevant[0]
    return _state_to_answer(chosen.state)


# -- strategies ----------------------------------------------------------------

CASINGS = (str.lower, str.upper, str.title, str.capitalize)


def recased(draw, text: str) -> str:
    return draw(st.sampled_from(CASINGS))(text)


@st.composite
def mixed_records(draw) -> list[EntityStateRecord]:
    """Records in any order whose entities and attributes differ only in
    case (``Box``/``box``), with repeated keys, character locations and
    ``Location`` spelled with a capital."""
    entity = st.sampled_from(("box", "red box", "apple", "ava", "ben"))
    attribute = st.sampled_from((LOCATION, "content"))
    rows = draw(
        st.lists(
            st.tuples(st.integers(1, len(STORY.events)), entity, attribute, st.sampled_from("xyz")),
            max_size=24,
        )
    )
    return [
        EntityStateRecord(index, recased(draw, name), recased(draw, attr), f"in the {state}")
        for index, name, attr, state in rows
    ]


# -- inject ------------------------------------------------------------------


@PROFILE
@given(mixed_records())
def test_inject_matches_the_per_event_sort(records):
    assert inject(STORY, records) == reference_inject(STORY, records)


@STORIES
@given(st.integers(0, 10_000), st.randoms(use_true_random=False))
def test_inject_matches_the_per_event_sort_on_shuffled_story_records(seed, rng):
    story, questions = generate_story(GrammarConfig(num_characters=3, num_rooms=2, seed=seed))
    # Every record, content records included: prepare_story keeps the
    # location records alone when the backend is the rule backend.
    backend = RuleBackend()
    records = generate_states(story, identify_key_entities(story, questions, backend), backend)
    rng.shuffle(records)
    assert inject(story, records) == reference_inject(story, records)


# -- the indexed reader ------------------------------------------------------


@STORIES
@given(st.integers(0, 10_000), st.data())
def test_indexed_reader_matches_a_full_scan(seed, data):
    config = GrammarConfig(num_characters=3, num_rooms=2, max_order=3, allow_reentry=True, seed=seed)
    story, questions = generate_story(config)
    prepared = prepare_story(story, questions, PipelineConfig())
    # Records whose entity and attribute casing differs from the question's.
    records = [
        dataclasses.replace(
            r, entity=recased(data.draw, r.entity), attribute=recased(data.draw, r.attribute)
        )
        for r in prepared.records
    ]
    artifacts = StoryArtifacts(
        story=story,
        records=records,
        anchors=prepared.anchors,
        omniscient=prepared.omniscient,
    )
    target = questions[0].target_entity
    asked = list(questions) + [
        parse_question(f"Where is the {recased(data.draw, target)} in the beginning?", story),
        parse_question("Where is the unicorn really?", story),
    ]
    n = len(story.events)
    views = [(), tuple(range(1, n + 1)), tuple(sorted(data.draw(st.sets(st.integers(1, n)))))]
    for q in asked:
        for surviving in views:
            bits = sum(1 << (i - 1) for i in surviving)
            got = symbolic_reader(bits, q, artifacts.target_records(q))
            assert got == reference_reader(surviving, q, records)


# -- normalize_place ---------------------------------------------------------


@PROFILE
@given(st.text())
def test_memoized_normalize_place_matches_the_plain_function(text):
    assert normalize_place(text) == normalize_place.__wrapped__(text)
    assert normalize_place(text) == normalize_place.__wrapped__(text)


def test_normalize_place_memo_is_bounded():
    assert normalize_place.cache_info().maxsize is not None
