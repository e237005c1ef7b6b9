"""The fast paths of story preparation against their plain definitions.

Each fast path must give what the rule it replaced gives:
- observation bitsets, an OR over a track's room runs, against the per-event
  rule: event i is seen when its room is the character's room before or
  after it;
- the one-regex `is_negated_place` against the token rule;
- records built by the rule scan with their key in hand against records
  built through the dataclass;
- the per-story place resolver against `canonicalize_location`;
- the one-name shortcut of `split_name_list` against the separator regex.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mindmask.nkb import (
    EntityStateRecord,
    LocationAnchor,
    RuleBackend,
    _scan,
    canonicalize_location,
    extract_locations,
    generate_states,
    identify_key_entities,
)
from mindmask.scene import _Rooms, build_omniscient_graph
from mindmask.story import _NAME_SEP_RE, split_name_list
from mindmask.textnorm import is_negated_place
from mindmask.worldgen import GrammarConfig, generate_story
from reference_tracks import location_tracks, observed

PROFILE = settings(max_examples=300, deadline=None, derandomize=True)

# The story shapes of the benchmark workloads (remote_replay shares the
# deep_chains shape), a few seeds each.
SHAPES = {
    "deep_chains": dict(num_characters=5, num_rooms=4, max_order=4, allow_reentry=True),
    "long_stories": dict(
        num_characters=2,
        num_rooms=12,
        num_containers_per_room=3,
        moves_per_room=3,
        max_order=2,
        allow_reentry=True,
    ),
    "oracle_grid": dict(
        num_characters=4, num_rooms=3, num_objects=2, num_containers_per_room=4, max_order=3
    ),
}
STORIES = [
    generate_story(GrammarConfig(seed=seed, **shape))
    for shape in SHAPES.values()
    for seed in range(6)
]


def _prepared(story, questions):
    backend = RuleBackend()
    records = generate_states(story, identify_key_entities(story, questions, backend), backend)
    return records, extract_locations(story, backend)


def _seen_by_rule(assignment, track) -> int:
    """The per-event definition: bit i-1 is set when event i's room is the
    track's room before or after the event."""
    bits = 0
    for i, room in enumerate(assignment, start=1):
        if room is not None and room in (track[i - 1], track[i]):
            bits |= 1 << (i - 1)
    return bits


def _runs(track):
    """The (room, start, end) runs of a track, null runs left out."""
    runs, start = [], 0
    for index in range(1, len(track) + 1):
        if index == len(track) or track[index] != track[start]:
            if track[start] is not None:
                runs.append((track[start], start, index))
            start = index
    return runs


@PROFILE
@given(st.integers(65, 160), st.floats(0.0, 1.0), st.integers(0, 2**32))
def test_run_bitsets_match_the_per_event_rule_past_64_events(n, move_rate, seed):
    rng = random.Random(seed)
    rooms = ["hall", "attic", "porch", None]
    assignment = tuple(rng.choice(rooms) for _ in range(n))
    track = [None]  # track[0], before the story, is the null node
    for _ in range(n):
        track.append(rng.choice(rooms) if rng.random() < move_rate else track[-1])
    room_bits: dict[str, int] = {}
    for i, room in enumerate(assignment):
        if room is not None:
            room_bits[room] = room_bits.get(room, 0) | 1 << i
    assert observed(_runs(track), room_bits, n) == _seen_by_rule(assignment, track)


@pytest.mark.parametrize("story, questions", STORIES)
def test_story_bitsets_match_the_per_event_rule(story, questions):
    records, anchors = _prepared(story, questions)
    graph = build_omniscient_graph(story, records, anchors)
    tracks, runs, _, _ = location_tracks(story, records, _Rooms(anchors))
    assert graph.bits == sum(1 << i for i, room in enumerate(graph.assignment) if room is not None)
    for key, track in tracks.items():
        assert runs[key] == _runs(track)
        assert graph._observations[2][key] == _seen_by_rule(graph.assignment, track)


def _negated_by_tokens(raw: str) -> bool:
    """The token rule: "not in", or a negation word as a whole run of letters."""
    s = raw.casefold()
    if re.search(r"\bnot\s+in\b", s):
        return True
    return bool(set(re.findall(r"[a-z]+", s)) & {"outside", "absent", "left", "away"})


_PLACE_PIECES = st.sampled_from(
    ["not", "in", "Not", "IN", "outside", "absent", "left", "away", "the", "kitchen",
     "side", "out", "xleft", "_", "-", ",", " ", "  ", "\t", "\n", "1", "ß", "K", "İ", "é"]
)


@PROFILE
@given(st.one_of(st.lists(_PLACE_PIECES, max_size=8).map("".join), st.text(max_size=20)))
def test_negation_regex_matches_the_token_rule(raw):
    assert is_negated_place(raw) == _negated_by_tokens(raw)


@pytest.mark.parametrize("story, questions", STORIES)
def test_scanned_records_equal_dataclass_records(story, questions):
    for r in _scan(story, {}, {}).records:
        built = EntityStateRecord(r.event_index, r.entity, r.attribute, r.state)
        assert type(r) is EntityStateRecord
        assert r == built
        assert hash(r) == hash(built)
        assert repr(r) == repr(built)
        assert r.key == built.key


def test_scanned_records_stay_frozen(cupboard_story):
    record = _scan(cupboard_story, {}, {}).records[0]
    with pytest.raises(AttributeError):
        record.state = "in the attic"


@pytest.mark.parametrize("story, questions", STORIES)
def test_rooms_match_canonicalize_location(story, questions):
    records, anchors = _prepared(story, questions)
    rooms = _Rooms(anchors)
    for state in {r.state for r in records}:
        anchor = canonicalize_location(state, anchors)
        assert rooms[state] == (anchor.name if anchor else None)


def test_rooms_take_the_first_anchor_of_an_alias():
    anchors = [LocationAnchor("Attic", "attic"), LocationAnchor("the attic", "attic")]
    assert _Rooms(anchors)["in the attic"] == canonicalize_location("in the attic", anchors).name
    assert _Rooms(anchors)["in the attic"] == "Attic"


@PROFILE
@given(st.lists(st.sampled_from(["Ava", "Ben", "Alexandra", ",", " and ", "and", " ", ", and "]),
                max_size=6).map("".join))
def test_single_names_split_as_the_regex_does(subject):
    assert split_name_list(subject) == [n for n in _NAME_SEP_RE.split(subject) if n]
