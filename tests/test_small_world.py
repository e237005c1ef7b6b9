"""Every short story over one small world, the pipeline against the oracle.

The world has Ann and Bob, the hall (box, crate) and the attic (tin, jar),
and one apple. A story is any sequence of up to 5 lines the world allows:

- a character in no room enters a room;
- a character in a room exits it, or stays in it;
- a character in the apple's room moves the apple to the other container
  there;
- once, while a room is occupied, the apple is declared in one of that
  room's containers.

That gives 5,124 stories. The 3,760 that place the apple (each also holds
an enter, since the declaration needs an occupied room) are all checked:
every chain up to order 2 must get `simulate_beliefs`'s answer and every
character graph must keep exactly `observed_set`'s events. The others have
no question to ask.
"""

from __future__ import annotations

import itertools

from mindmask.pipeline import PipelineConfig, answer_question, prepare_story
from mindmask.question import parse_question, render_question
from mindmask.story import Event, Story
from mindmask.worldgen import observed_set, simulate_beliefs

NAMES = ("Ann", "Bob")
ROOMS = {"hall": ("box", "crate"), "attic": ("tin", "jar")}
MAX_EVENTS = 5
CHAINS = [chain for order in range(3) for chain in itertools.permutations(NAMES, order)]


def next_lines(where: tuple, apple: str | None) -> list[tuple[str, tuple, str | None]]:
    """Each line the world allows next, with the state it leads to: each
    character's room (or None) and the apple's container (or None)."""
    lines = []
    for i, (name, room) in enumerate(zip(NAMES, where)):
        if room is None:
            for new in ROOMS:
                moved = (*where[:i], new, *where[i + 1 :])
                lines.append((f"{name} entered the {new}.", moved, apple))
            continue
        gone = (*where[:i], None, *where[i + 1 :])
        lines.append((f"{name} exited the {room}.", gone, apple))
        lines.append((f"{name} made no movements and stayed in the {room} for 1 minute.", where, apple))
        if apple in ROOMS[room]:
            for container in ROOMS[room]:
                if container != apple:
                    lines.append((f"{name} moved the apple to the {container}.", where, container))
    if apple is None:
        for room, containers in ROOMS.items():
            if room in where:
                for container in containers:
                    lines.append((f"The apple is in the {container}.", where, container))
    return lines


def small_world() -> list[tuple[tuple[str, ...], str | None]]:
    """Every story of 1 to MAX_EVENTS lines, with the apple's last container."""
    stories = []
    frontier = [((), (None, None), None)]
    for _ in range(MAX_EVENTS):
        frontier = [
            ((*lines, line), where2, apple2)
            for lines, where, apple in frontier
            for line, where2, apple2 in next_lines(where, apple)
        ]
        stories.extend((lines, apple) for lines, _, apple in frontier)
    return stories


def test_small_world_agrees_with_the_oracle():
    stories = small_world()
    placed = [lines for lines, apple in stories if apple is not None]
    assert (len(stories), len(placed)) == (5124, 3760)
    cfg = PipelineConfig()
    for lines in placed:
        story = Story(
            events=tuple(Event(index=i, text=text) for i, text in enumerate(lines, start=1)),
            characters=NAMES,
        )
        questions = [
            parse_question(
                render_question(chain, "apple"), story, gold=simulate_beliefs(story, chain, "apple")
            )
            for chain in CHAINS
        ]
        artifacts = prepare_story(story, questions, cfg)
        for q in questions:
            assert answer_question(artifacts, q, cfg).predicted == q.gold, (lines, q.raw)
        for name in NAMES:
            assert set(artifacts.character_graph(name).surviving()) == observed_set(story, name), (
                lines,
                name,
            )
