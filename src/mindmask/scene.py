"""Spatial scene graphs and the iterative masking operator.

A scene graph assigns every event of a story to the room where it happens,
or to the null node (``None``) when the room is unknown. The omniscient
graph resolves rooms from entity-state records; a character-centric graph
keeps only the events whose room the character shared at the time. Masking
one graph by another nulls every event the second graph cannot see, so
folding a belief chain's graphs over the omniscient graph leaves exactly
the events the whole chain observed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import ValidationError
from .nkb import LOCATION, EntityStateRecord, LocationAnchor, canonicalize_location
from .story import DIALOGUE_KIND, Story, leading_subjects
from .textnorm import normalize_place

# The distinguished null location: unknown or unobserved.
NULL = None


@dataclass(frozen=True)
class SceneGraph:
    """Total assignment of 1-based event indices to rooms (or the null node)."""

    assignment: tuple[str | None, ...]
    location_set: frozenset[str]

    def __post_init__(self):
        for room in self.assignment:
            if room is not None and room not in self.location_set:
                raise ValidationError(f"assignment uses {room!r}, not in the location set")

    def __len__(self) -> int:
        return len(self.assignment)

    def room(self, index: int) -> str | None:
        return self.assignment[index - 1]

    def surviving(self) -> tuple[int, ...]:
        return tuple(i for i, room in enumerate(self.assignment, start=1) if room is not None)

    def to_json(self) -> dict:
        return {"assignment": {str(i): room for i, room in enumerate(self.assignment, start=1)}}


@dataclass(frozen=True)
class MaskedView:
    """Events that survived masking, with their (augmented) texts."""

    surviving: tuple[int, ...]
    texts: tuple[str, ...] = ()

    def __post_init__(self):
        if list(self.surviving) != sorted(set(self.surviving)):
            raise ValidationError("surviving indices must be strictly increasing")


def _location_tracks(
    story: Story,
    records: list[EntityStateRecord],
    anchors: list[LocationAnchor],
    names: Iterable[str],
) -> dict[str, list[str | None]]:
    """Each named character's room after every event, from its own records.

    Keys are casefolded names. ``track[i]`` is the room once the records of
    event `i` apply; ``track[0]``, before the story, is the null node.
    """
    n = len(story.events)
    moves: dict[str, dict[int, str | None]] = {name.casefold(): {} for name in names}
    for r in records:
        if not 1 <= r.event_index <= n:
            raise ValidationError(f"record references unknown event index {r.event_index}")
        own = moves.get(r.entity.casefold()) if r.attribute == LOCATION else None
        if own is not None:
            anchor = canonicalize_location(r.state, anchors)
            own[r.event_index] = anchor.name if anchor else None
    tracks: dict[str, list[str | None]] = {}
    for key, own in moves.items():
        room = None
        track = [room]
        for index in range(1, n + 1):
            room = own.get(index, room)
            track.append(room)
        tracks[key] = track
    return tracks


def _container_rooms(
    story: Story,
    located: dict[int, list[EntityStateRecord]],
    tracks: dict[str, list[str | None]],
    anchors: list[LocationAnchor],
) -> dict[str, str]:
    """Room of each container, resolved story-wide.

    Two sources: a container's own location record whose state names a room,
    and moves (when a character in a room moves something into a container,
    the container is in that room).
    """
    rooms: dict[str, str] = {}
    for index, event in enumerate(story.events, start=1):
        objects = [r for r in located.get(index, ()) if r.entity.casefold() not in tracks]
        if not objects:
            continue
        actors = [n for n in leading_subjects(event.text) if n.casefold() in tracks]
        actor_room = tracks[actors[0].casefold()][index] if actors else None
        for r in objects:
            anchor = canonicalize_location(r.state, anchors)
            if anchor is not None:
                rooms[normalize_place(r.entity)] = anchor.name
            else:
                place = normalize_place(r.state)
                if place and actor_room is not None:
                    rooms[place] = actor_room
    return rooms


def build_omniscient_graph(
    story: Story, records: list[EntityStateRecord], anchors: list[LocationAnchor]
) -> SceneGraph:
    """Assign each event the room where it occurs, from an all-seeing view.

    Events with an acting character take the actor's resolved room (an exit
    keeps the room being exited). Object declarations take the room holding
    the container, resolved after the whole story is read, falling back to
    the previous event's room. Unresolvable events get the null node.
    """
    if not anchors:
        raise ValidationError("cannot build a scene graph without location anchors")
    tracks = _location_tracks(story, records, anchors, story.characters)
    located: dict[int, list[EntityStateRecord]] = {}
    for r in records:
        if r.attribute == LOCATION:
            located.setdefault(r.event_index, []).append(r)
    container_rooms = _container_rooms(story, located, tracks, anchors)

    assignment: list[str | None] = []
    previous: str | None = None
    for index, event in enumerate(story.events, start=1):
        room: str | None = None
        here = located.get(index, ())
        movers = [r.entity.casefold() for r in here if r.entity.casefold() in tracks]
        actors = [n for n in leading_subjects(event.text) if n.casefold() in tracks]
        if story.kind == DIALOGUE_KIND and event.speaker is not None:
            actors = [event.speaker] + actors

        if movers:
            # A mover's arrival names the room; when every mover leaves (an
            # exit), the room being exited is where the first stood before.
            room = next((tracks[m][index] for m in movers if tracks[m][index] is not None), None)
            if room is None:
                room = tracks[movers[0]][index - 1]
        elif actors:
            room = tracks[actors[0].casefold()][index]
        elif here:
            state = here[0].state
            anchor = canonicalize_location(state, anchors)
            if anchor is not None:
                room = anchor.name
            else:
                room = container_rooms.get(normalize_place(state), previous)

        assignment.append(room)
        if room is not None:
            previous = room
    return SceneGraph(
        assignment=tuple(assignment), location_set=frozenset(a.name for a in anchors)
    )


def build_character_graph(
    story: Story,
    records: list[EntityStateRecord],
    anchors: list[LocationAnchor],
    character: str,
    omniscient: SceneGraph,
) -> SceneGraph:
    """The omniscient graph restricted to events the character witnessed.

    A character witnesses an event when the event's room matches the place
    the character was in immediately before or after the event's records
    apply; the "after" side makes arrivals self-observed, the "before" side
    makes departures self-observed.
    """
    if not story.has_character(character):
        raise ValidationError(f"{character!r} is not a character of the story")
    if len(omniscient) != len(story.events):
        raise ValidationError("omniscient graph does not cover the story")
    track = _location_tracks(story, records, anchors, [character])[character.casefold()]
    assignment = tuple(
        room if room is not None and room in (track[index], track[index - 1]) else NULL
        for index, room in enumerate(omniscient.assignment, start=1)
    )
    return SceneGraph(assignment=assignment, location_set=omniscient.location_set)


def mask(g: SceneGraph, gc: SceneGraph) -> SceneGraph:
    """Null every event of `g` that is null in `gc`; the masking operator."""
    if len(g) != len(gc):
        raise ValidationError(f"cannot mask graphs of different sizes ({len(g)} vs {len(gc)})")
    assignment = tuple(
        room if room is not None and other is not None else NULL
        for room, other in zip(g.assignment, gc.assignment)
    )
    return SceneGraph(assignment=assignment, location_set=g.location_set)


def mask_chain(g: SceneGraph, chain: list[SceneGraph]) -> SceneGraph:
    """Left fold of :func:`mask` over the chain; the empty chain is identity."""
    masked = g
    for gc in chain:
        masked = mask(masked, gc)
    return masked


def retrieve_events(masked: SceneGraph, augmented_texts: list[str]) -> MaskedView:
    """Surviving event indices with their (augmented) texts, in story order."""
    if len(augmented_texts) != len(masked):
        raise ValidationError("augmented texts are not aligned with the graph")
    surviving = masked.surviving()
    return MaskedView(
        surviving=surviving, texts=tuple(augmented_texts[i - 1] for i in surviving)
    )


@dataclass(frozen=True)
class GraphBuildCounts:
    """How many graphs each strategy builds for m characters up to order k."""

    scene_graphs: int  # one omniscient graph plus one per character
    chain_graphs: int  # one belief graph per ordered character chain


def graph_build_counts(m: int, k: int) -> GraphBuildCounts:
    """Worst-case graph counts: m + 1 for the masking pipeline versus
    sum over i of m!/(m-i)! when every ordered chain needs its own graph."""
    if m < 1:
        raise ValidationError("need at least one character")
    if k < 0 or k > m:
        raise ValidationError(f"ToM order {k} must lie in 0..{m} (chains cannot repeat)")
    chain_graphs = sum(math.perm(m, i) for i in range(1, k + 1))
    return GraphBuildCounts(scene_graphs=m + 1, chain_graphs=chain_graphs)
