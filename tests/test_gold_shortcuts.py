"""The generator's gold shortcuts against the long way round.

`generate_story` builds its questions from the chain and object it drew
instead of parsing the text it rendered; the oracle reads a chain's belief
from one AND of its bitsets over the events that place an object, and looks
the first container up, instead of folding beliefs over every event; events are built past the dataclass ``__init__``. Each
shortcut must give exactly what the long way gives.
"""

from __future__ import annotations

import itertools
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_generator_digest import corpus
from test_oracle_trace import grammar_configs, mutated
from mindmask import worldgen
from mindmask.errors import ValidationError
from mindmask.question import parse_question
from mindmask.story import Event, Story, _event
from mindmask.worldgen import GrammarConfig, generate_story, simulate_beliefs

# -- questions ------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 1009])
def test_generated_questions_equal_their_parse(seed):
    for story, questions in corpus(seed):
        for q in questions:
            parsed = parse_question(q.raw, story, gold=q.gold)
            assert (q.raw, q.chain, q.target_entity, q.asks_initial, q.gold) == (
                parsed.raw, parsed.chain, parsed.target_entity, parsed.asks_initial, parsed.gold
            )


# -- beliefs: a fold over every event, as the oracle did before -----------------


def fold_every_event(trace, chain) -> list[dict[str, str]]:
    beliefs: list[dict[str, str]] = [dict() for _ in range(len(chain) + 1)]
    prefix_seen = [-1]
    for name in chain:
        prefix_seen.append(prefix_seen[-1] & trace.seen[name.casefold()])
    for i in range(1, len(trace.effects)):
        effect = trace.effects[i]
        if effect is None:
            continue
        obj, container = effect
        for j, seen in enumerate(prefix_seen):
            if not seen >> (i - 1) & 1:
                break
            beliefs[j][obj] = container
    return beliefs


def simulate_every_event(trace, beliefs, entity: str) -> str | None:
    """The gold answer from a chain's `beliefs`, as `fold_every_event` gives
    them, or None where `simulate_beliefs` must raise."""
    key = entity.casefold()
    first = next(
        (trace.effects[i][1] for i in range(1, len(trace.effects))
         if trace.effects[i] is not None and trace.effects[i][0] == key),
        None,
    )
    if first is None:
        return None
    return beliefs[-1].get(key, first)


def assert_folds_agree(story: Story) -> None:
    """The reference trace is built once per story and the reference fold
    once per chain."""
    chains = [()]
    for order in range(1, min(3, len(story.characters)) + 1):
        chains += list(itertools.permutations(story.characters, order))
    trace = worldgen._Trace(story)
    entities = sorted({e[0] for e in trace.effects if e}) + ["unicorn"]
    for chain in chains:
        beliefs = fold_every_event(trace, chain)
        for entity in entities:
            expected = simulate_every_event(trace, beliefs, entity)
            if expected is None:
                with pytest.raises(ValidationError):
                    simulate_beliefs(story, chain, entity)
            else:
                assert simulate_beliefs(story, chain, entity) == expected


def story_of(lines: list[str], characters: tuple[str, ...]) -> Story:
    return Story(
        events=tuple(Event(index=i, text=t) for i, t in enumerate(lines, start=1)),
        characters=characters,
    )


def test_folds_agree_on_generated_stories():
    for seed in range(40):
        story, _ = generate_story(
            GrammarConfig(
                num_characters=4, num_rooms=3, num_objects=2, moves_per_room=2,
                max_order=3, seed=seed, allow_reentry=seed % 2 == 1,
            )
        )
        assert_folds_agree(story)


@settings(max_examples=100, deadline=None)
@given(config=grammar_configs(), data=st.data())
def test_folds_agree_on_drawn_stories(config, data):
    story, _ = generate_story(config)
    assert_folds_agree(data.draw(mutated(story)))


def test_declared_object_never_moved_and_chain_without_updates():
    # The ball is declared once and never moved; Cleo is never in the room,
    # so every chain that holds her saw no update and falls back to the
    # first container of the apple, not its last.
    story = story_of(
        [
            "Ava and Ben entered the kitchen.",
            "The ball is in the red box.",
            "The apple is in the blue crate.",
            "Ava moved the apple to the green basket.",
            "Ben moved the apple to the white chest.",
            "Ava exited the kitchen.",
        ],
        ("Ava", "Ben", "Cleo"),
    )
    assert_folds_agree(story)
    assert simulate_beliefs(story, ("Ben",), "ball") == "red box"
    assert simulate_beliefs(story, ("Cleo",), "ball") == "red box"
    assert simulate_beliefs(story, ("Cleo",), "apple") == "blue crate"
    assert simulate_beliefs(story, ("Ava", "Cleo"), "apple") == "blue crate"
    assert simulate_beliefs(story, (), "apple") == "white chest"


def test_trace_lists_placements_and_first_containers():
    story, _ = generate_story(GrammarConfig(num_characters=3, num_rooms=3, num_objects=2, seed=7))
    trace = worldgen._Trace(story)
    assert trace.placements == [i for i, e in enumerate(trace.effects) if e is not None]
    first: dict[str, str] = {}
    for i in trace.placements:
        first.setdefault(*trace.effects[i])
    assert trace.first == first


# -- events -----------------------------------------------------------------------


@pytest.mark.parametrize("speaker", [None, "Ava"])
def test_event_constructor_matches_dataclass(speaker):
    built, made = _event(3, "Ava said hello.", speaker), Event(3, "Ava said hello.", speaker)
    assert built == made and made == built
    assert hash(built) == hash(made)
    assert repr(built) == repr(made)
    assert built.render() == made.render()
    assert built != _event(4, "Ava said hello.", speaker)
    with pytest.raises(AttributeError):
        built.text = "changed"


def bytes_per_object(make, count: int = 2000) -> float:
    """The bytes each of `count` objects from `make` holds. A tracer that is
    set (a coverage run's) is suspended for the measured window, since its
    allocations for traced frames would be counted against the object."""
    texts = [f"event {i}" for i in range(count)]
    tracer = sys.gettrace()
    sys.settrace(None)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        objects = [make(i, texts[i]) for i in range(count)]
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        sys.settrace(tracer)
    return (after - before - sys.getsizeof(objects)) / count


def test_event_constructor_uses_the_dataclass_memory():
    built = bytes_per_object(lambda i, text: _event(i, text))
    made = bytes_per_object(lambda i, text: Event(index=i, text=text))
    assert abs(built - made) < 4
