from __future__ import annotations

import pytest

from mindmask.errors import ValidationError
from mindmask.inject import inject, render_augmented
from mindmask.nkb import EntityStateRecord


def test_cupboard_injection_structure(cupboard_setup):
    story, _, records, _, _ = cupboard_setup
    augmented = inject(story, records)

    assert len(augmented) == len(story.events)
    bare = {1, 2, 3, 6, 9, 10, 11}
    for a in augmented:
        if a.event.index in bare:
            assert a.injected == (), a
    assert augmented[6].injected == (
        "content of basket becomes T-shirt",
        "content of cupboard becomes empty",
        "location of T-shirt becomes in basket",
    )
    assert augmented[3].injected == ("location of T-shirt becomes in the cupboard",)
    assert augmented[4].injected == ("location of cupboard becomes in the crawlspace",)
    assert augmented[7].injected == ("location of basket becomes in the crawlspace",)


def test_no_character_location_bullets(cupboard_setup, melon_setup):
    for setup in (cupboard_setup, melon_setup):
        story, _, records = setup[0], setup[1], setup[2]
        person = {c.casefold() for c in story.characters}
        for a in inject(story, records):
            for bullet in a.injected:
                for name in person:
                    assert not bullet.casefold().startswith(f"location of {name}"), bullet


def test_base_texts_preserved(melon_setup):
    story, _, records, _, _ = melon_setup
    augmented = inject(story, records)
    assert [a.event for a in augmented] == list(story.events)


def test_stripping_bullets_recovers_story(cupboard_setup):
    story, _, records, _, _ = cupboard_setup
    rendered = render_augmented(inject(story, records))
    kept = [line for line in rendered.splitlines() if not line.startswith("- ")]
    assert kept == [f"{e.index}: {e.text}" for e in story.events]


def test_empty_records_is_identity(cupboard_story):
    augmented = inject(cupboard_story, [])
    assert all(a.injected == () for a in augmented)
    assert [a.event for a in augmented] == list(cupboard_story.events)


def test_bullets_sorted_by_entity_attribute(cupboard_setup):
    story, _, records, _, _ = cupboard_setup
    for a in inject(story, records):
        keys = [tuple(b.split(" becomes ")[0].rsplit(" of ", 1)[::-1]) for b in a.injected]
        assert keys == sorted(keys, key=lambda pair: (pair[0].casefold(), pair[1].casefold()))


def test_unknown_event_index_rejected(cupboard_story):
    bad = [EntityStateRecord(99, "ball", "location", "in box")]
    with pytest.raises(ValidationError):
        inject(cupboard_story, bad)


def test_render_numbered(cupboard_setup):
    story, _, records, _, _ = cupboard_setup
    lines = render_augmented(inject(story, records)).splitlines()
    assert lines[0] == "1: Benjamin entered the crawlspace."
    assert "- location of T-shirt becomes in basket" in lines
