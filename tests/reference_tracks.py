"""Per-character room tracks, the reference the scene tests check against.

`build_omniscient_graph` keeps only each character's current room and its
runs. The tests compare it with this older formulation, which builds every
track in full, so that no reference shares track or run code with
`mindmask.scene`.
"""

from __future__ import annotations

from mindmask.errors import ValidationError
from mindmask.nkb import LOCATION, EntityStateRecord
from mindmask.story import Story


def location_tracks(story: Story, records: list[EntityStateRecord], rooms) -> tuple:
    """(tracks, runs, movers, objects): each character's room track and its
    runs, and each event's movers and object location records.

    `rooms` maps a location string to its room (a `scene._Rooms`). Track keys
    are casefolded names. ``track[i]`` is the room once the records of event
    `i` apply; ``track[0]``, before the story, is the null node. A run
    ``(room, start, end)`` is a non-null `room` held from track index `start`
    up to `end`, exclusive. ``movers[i]`` lists the characters with a
    location record at event `i` and ``objects[i]`` the other location
    records, both in record order.
    """
    n = len(story.events)
    moves: dict[str, dict[int, str | None]] = {key: {} for key in story.characters_by_key}
    movers: list[list[str]] = [[] for _ in range(n + 1)]
    objects: list[list[EntityStateRecord]] = [[] for _ in range(n + 1)]
    for r in records:
        if not 1 <= r.event_index <= n:
            raise ValidationError(f"record references unknown event index {r.event_index}")
        key, attribute = r.key
        if attribute == LOCATION:
            own = moves.get(key)
            if own is None:
                objects[r.event_index].append(r)
            else:
                own[r.event_index] = rooms[r.state]
                movers[r.event_index].append(key)
    tracks, runs = {}, {}
    for key, own in moves.items():
        track: list[str | None] = [None] * (n + 1)
        spans = []
        room, start = None, 0
        for index, new in [*sorted(own.items()), (n + 1, None)]:
            if room is not None:
                track[start:index] = [room] * (index - start)
                spans.append((room, start, index))
            room, start = new, index
        tracks[key], runs[key] = track, spans
    return tracks, runs, movers, objects


def observed(spans: list[tuple[str, int, int]], room_bits: dict[str, int], n: int) -> int:
    """Bitset of the events whose room is the track's room before or after:
    a run of `room` over track indices ``start..end-1`` sees that room's
    events ``start..end``, since event i reads ``track[i-1]`` and ``track[i]``."""
    bits = 0
    for room, start, end in spans:
        bits |= room_bits.get(room, 0) & ((1 << min(end, n)) - (1 << (start - 1)))
    return bits
