"""Spatial scene graphs and the iterative masking operator.

A scene graph assigns every event of a story to the room where it happens,
or to the null node (``None``) when the room is unknown. Its ``bits`` holds
the same graph as an integer: bit i-1 is set when event i has a room.

:func:`build_omniscient_graph` does a story's scene work in one loop over
three per-event columns (:class:`mindmask.nkb.EventColumns`): the event's
movers, each character it moves to a location state, its placements, the
other location records, and its actors, the characters its text opens
with. The rule scan gives the columns as it reads each distinct line, and
the remote backend as it reads a story's state rows
(:func:`mindmask.remote.row_columns`); from a direct caller's records one
pass buckets them. Outside a rule scan the loop parses each event's actors
from its text. The loop resolves each location string once per room table
(the columns' table for the anchor set, which a backend keeps for its
lifetime, or the story's own when an alias repeats), keeps
each character's current room, opening and closing runs of one room as the
character moves, assigns each event its room and collects each room's
events as a bitset; an object declaration that names no room waits until
it ends, then takes its container's room or the nearest earlier room. The
graph it returns carries one observation bitset per character: bit i-1 is
set when event i's room is the character's room before or after the event,
which is an OR over the character's runs of the run's room bits under the
run's span. A character-centric graph is a view of that bitset. Masking one
graph by another nulls every event the second graph cannot see, which is an
integer AND, so folding a belief chain's graphs over the omniscient graph
leaves exactly the events the whole chain observed. :func:`mask_bits` is
that fold; the symbolic reader reads its integer, and :func:`mask_chain`
wraps it in a graph view for callers that want rooms or texts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

from .errors import ValidationError
from .nkb import LOCATION, EntityStateRecord, EventColumns, LocationAnchor, canonicalize_location
from .story import DIALOGUE_KIND, Story, leading_subjects
from .textnorm import normalize_place

# The distinguished null location: unknown or unobserved.
NULL = None


@dataclass(frozen=True)
class SceneGraph:
    """Total assignment of 1-based event indices to rooms (or the null node)."""

    assignment: tuple[str | None, ...]
    location_set: frozenset[str]
    # Set on graphs from build_omniscient_graph only: the records and anchors
    # it was built from, and each character's observation bitset by
    # casefolded name.
    _observations: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # Not a field. Set on views from _view only: the graph the view nulls.
    # A view holds its bits and makes `assignment` the first time it is read.
    _base = None

    def __post_init__(self):
        rooms = set(self.assignment)
        rooms.discard(NULL)
        if not rooms <= self.location_set:
            room = next(r for r in self.assignment if r is not None and r not in self.location_set)
            raise ValidationError(f"assignment uses {room!r}, not in the location set")

    def __getattr__(self, name: str):
        base = self._base
        if name != "assignment" or base is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rooms = self.__dict__["assignment"] = _kept_rooms(base.assignment, self.bits)
        return rooms

    def __len__(self) -> int:
        base = self._base
        return len(self.assignment if base is None else base)

    @cached_property
    def bits(self) -> int:
        """The events with a room, as an integer: bit i-1 stands for event i."""
        flags = ["0" if room is None else "1" for room in self.assignment]
        return int("".join(flags[::-1]) or "0", 2)

    def surviving(self) -> tuple[int, ...]:
        flags = f"{self.bits:b}"[::-1]
        return tuple(i for i, flag in enumerate(flags, start=1) if flag == "1")

    def to_json(self) -> dict:
        return {"assignment": {str(i): room for i, room in enumerate(self.assignment, start=1)}}


def _kept_rooms(rooms: tuple[str | None, ...], bits: int) -> tuple[str | None, ...]:
    """`rooms` with every event outside `bits` nulled."""
    flags = f"{bits:0{len(rooms)}b}"[::-1]
    return tuple(room if flag == "1" else NULL for room, flag in zip(rooms, flags))


def _view(graph: SceneGraph, bits: int) -> SceneGraph:
    """`graph` with every event outside `bits` nulled, `bits` a subset of
    `graph.bits`. The view keeps `graph` and makes its rooms on first read;
    they are a subset of valid `graph`'s, so ``__post_init__`` is skipped."""
    view = object.__new__(SceneGraph)
    view.__dict__.update(  # "bits" seeds the cached property
        location_set=graph.location_set, bits=bits, _base=graph
    )
    return view


@dataclass(frozen=True)
class MaskedView:
    """Events that survived masking, with their (augmented) texts."""

    surviving: tuple[int, ...]
    texts: tuple[str, ...] = ()

    def __post_init__(self):
        if list(self.surviving) != sorted(set(self.surviving)):
            raise ValidationError("surviving indices must be strictly increasing")


class _Rooms(dict):
    """Room name (or None) of each location string resolved against one
    anchor list, asked of :func:`canonicalize_location` the first time it is
    looked up."""

    def __init__(self, anchors: list[LocationAnchor]):
        super().__init__()
        self.anchors = anchors

    def __missing__(self, state: str) -> str | None:
        anchor = canonicalize_location(state, self.anchors)
        room = self[state] = anchor.name if anchor else None
        return room


def _columns(story: Story, records: list[EntityStateRecord]) -> EventColumns:
    """The scene columns of a direct caller's state records, with actors
    left to the text: each event's character moves (a character's last
    record at the event wins, whatever its other records) and its other
    location records, every one in record order. A location record whose
    entity is named like a character moves that character; the records
    alone cannot tell a person from an object. The columns carry fresh
    room tables; the backends give their columns themselves."""
    n = len(story.events)
    characters = story.characters_by_key
    movers: list[dict[str, str]] = [{} for _ in range(n)]
    placements: list = [()] * n
    for r in records:
        i = r.event_index - 1
        if not 0 <= i < n:
            raise ValidationError(f"record references unknown event index {r.event_index}")
        key, attribute = r.key
        if attribute == LOCATION:
            if key in characters:
                movers[i][key] = r.state
            elif placements[i]:
                placements[i].append(r)
            else:
                placements[i] = [r]
    return EventColumns(movers, placements, None, {})


def build_omniscient_graph(
    story: Story, records: list[EntityStateRecord] | EventColumns, anchors: list[LocationAnchor]
) -> SceneGraph:
    """Assign each event the room where it occurs, from an all-seeing view.

    `records` are the story's state records, or a backend's scene columns,
    a rule scan's (:meth:`mindmask.nkb.RuleBackend.scene_columns`, with
    each event's actors read once per distinct line) or a remote backend's
    (:meth:`mindmask.remote.RemoteBackend.state_columns`). The columns carry
    the backend's room tables, so a location string resolves once per room
    set for the backend's lifetime; from records, once per story. A
    repeated alias (or anchor) always gets a table of the story's own.
    Events with an acting character take the actor's resolved room (an exit
    keeps the room being exited). An object declaration that names no room
    waits until the one pass over the events ends, then takes its
    container's room, else the room of the nearest earlier event that has
    one. Unresolvable events get the null node. The graph carries every
    character's observation bitset, for :func:`build_character_graph`.
    """
    if not anchors:
        raise ValidationError("cannot build a scene graph without location anchors")
    columns = records if isinstance(records, EventColumns) else _columns(story, records)
    # Resolution depends on the anchor set alone when no alias repeats; a
    # repeated alias (or anchor) makes it depend on the list, so its own table.
    if len({a.alias for a in anchors}) < len(anchors):
        rooms = _Rooms(anchors)
    else:
        tables, room_set = columns.rooms, frozenset(anchors)
        if room_set not in tables:
            tables[room_set] = _Rooms(anchors)
        rooms = tables[room_set]
    n = len(story.events)
    current: dict[str, str | None] = dict.fromkeys(story.characters_by_key)  # the room now

    # A character's whereabouts are runs (room, start, end) of one non-null
    # room, held from after event `start`'s records to before event `end`'s;
    # `since` is the start of the open run.
    since: dict[str, int] = {}
    runs: dict[str, list[tuple[str, int, int]]] = {key: [] for key in current}
    # An event's first acting character (casefolded) is read only when no
    # character moves in it or it has a placement. Containers take rooms
    # anywhere in the story, from their own location records or from the
    # actor who puts something in them, so a declaration that names no room
    # waits, with the index of the nearest earlier event that has a room or
    # waits.
    containers: dict[str, str] = {}
    waiting: list[tuple[int, str, int]] = []
    room_bits: dict[str, int] = {}  # each room's events as a bitset
    dialogue = story.kind == DIALOGUE_KIND
    assignment: list[str | None] = []
    last = 0
    events = zip(story.events, columns.movers, columns.placements, columns.actors or repeat(None))
    for index, (event, moved, here, subjects) in enumerate(events, start=1):
        room: str | None = None
        actor = None
        if here or not moved:
            if subjects is None:
                for name in leading_subjects(event.text):
                    if (key := name.casefold()) in current:
                        actor = key
                        break
            else:
                for key in subjects:
                    if key in current:
                        actor = key
                        break
        if moved:
            # A mover's arrival names the room.
            for key, state in moved.items():
                new = rooms[state]
                if room is None:
                    room = new
                if current[key] is not None:
                    runs[key].append((current[key], since[key], index))
                current[key], since[key] = new, index
            if room is None:
                # Every mover left (an exit): the room being exited is where
                # the first mover by key stood before, whatever the order of
                # the event's records, so the room of its run that ends here.
                spans = runs[min(moved)]
                if spans and spans[-1][2] == index:
                    room = spans[-1][0]
        elif dialogue and event.speaker is not None:
            room = current[event.speaker.casefold()]
        elif actor is not None:
            room = current[actor]
        elif here:
            state = here[0].state
            room = rooms[state]
            if room is None:
                waiting.append((index, normalize_place(state), last))
                last = index
        # The actor's room once the event's moves apply.
        actor_room = current[actor] if actor is not None else None
        for r in here:
            state_room = rooms[r.state]
            if state_room is not None:
                containers[normalize_place(r.entity)] = state_room
            elif actor_room is not None and (place := normalize_place(r.state)):
                containers[place] = actor_room
        assignment.append(room)
        if room is not None:
            last = index
            room_bits[room] = room_bits.get(room, 0) | 1 << (index - 1)
    # In story order, so a fallback that waited is resolved before it is read.
    for index, place, before in waiting:
        room = containers.get(place, assignment[before - 1] if before else None)
        if room is not None:
            assignment[index - 1] = room
            room_bits[room] = room_bits.get(room, 0) | 1 << (index - 1)
    graph = SceneGraph(
        assignment=tuple(assignment), location_set=frozenset(a.name for a in anchors)
    )
    # A run of `room` sees that room's events start..end: event i is seen
    # when its room is the character's room before or after it.
    observed = dict.fromkeys(current, 0)
    for key, spans in runs.items():
        if current[key] is not None:
            spans.append((current[key], since[key], n))
        for room, start, end in spans:
            observed[key] |= room_bits.get(room, 0) & (1 << end) - (1 << (start - 1))
    graph.__dict__.update(  # "bits" seeds the cached property; rooms' bits are disjoint
        bits=sum(room_bits.values()), _observations=(records, anchors, observed)
    )
    return graph


def _built_from(graph: SceneGraph, records, anchors: list[LocationAnchor]) -> bool:
    """Whether `graph` came from :func:`build_omniscient_graph` called with
    these `records` and `anchors` objects. A graph built from a backend's
    columns was also built from their `locations`, once they are built."""
    seen = graph._observations
    if seen is None or seen[1] is not anchors:
        return False
    source = seen[0]
    return source is records or (
        records is not None and isinstance(source, EventColumns) and vars(source).get("locations") is records
    )


def build_character_graph(
    story: Story,
    records: list[EntityStateRecord] | EventColumns,
    anchors: list[LocationAnchor],
    character: str,
    omniscient: SceneGraph,
) -> SceneGraph:
    """The omniscient graph restricted to events the character witnessed.

    A character witnesses an event when the event's room matches the place
    the character was in immediately before or after the event's records
    apply; the "after" side makes arrivals self-observed, the "before" side
    makes departures self-observed. The witnessed events are the observation
    bitset the omniscient graph carries, so `omniscient` must come from
    :func:`build_omniscient_graph` called with these same `records` and
    `anchors` objects; any other graph raises :class:`ValidationError`. A
    graph built from a backend's columns takes the columns, or their
    `locations` once they are built.
    """
    if not story.has_character(character):
        raise ValidationError(f"{character!r} is not a character of the story")
    if len(omniscient) != len(story.events):
        raise ValidationError("omniscient graph does not cover the story")
    if not _built_from(omniscient, records, anchors):
        raise ValidationError("omniscient graph was not built from these records and anchors")
    return _view(omniscient, omniscient._observations[2][character.casefold()])


def mask(g: SceneGraph, gc: SceneGraph) -> SceneGraph:
    """Null every event of `g` that is null in `gc`; the masking operator."""
    return mask_chain(g, [gc])


def mask_bits(g: SceneGraph, chain: list[SceneGraph]) -> int:
    """The events of `g` that every graph of the chain also places, as one
    AND of the graphs' bits."""
    bits, n = g.bits, len(g)
    for gc in chain:
        if len(gc) != n:
            raise ValidationError(f"cannot mask graphs of different sizes ({n} vs {len(gc)})")
        bits &= gc.bits
    return bits


def mask_chain(g: SceneGraph, chain: list[SceneGraph]) -> SceneGraph:
    """Left fold of :func:`mask` over the chain: the graph view of
    :func:`mask_bits`; the empty chain is identity."""
    if not chain:
        return g
    return _view(g, mask_bits(g, chain))


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

    m: int
    k: int
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
    return GraphBuildCounts(m=m, k=k, scene_graphs=m + 1, chain_graphs=chain_graphs)
