"""Knowledge injection: append entity-state bullets to their source events.

Characters' location records never appear as bullets; the masking stage
consumes those instead. Everything else the backend emitted is kept, cascade
records included.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .errors import ValidationError
from .nkb import LOCATION, EntityStateRecord
from .story import Event, Story


@dataclass(frozen=True)
class AugmentedEvent:
    event: Event
    injected: tuple[str, ...]

    def render(self) -> str:
        """The numbered event line, then one ``- `` line per bullet."""
        head = self.event.render()
        if not self.injected:
            return head
        return head + "\n" + "\n".join(f"- {line}" for line in self.injected)


def inject(story: Story, records: list[EntityStateRecord]) -> list[AugmentedEvent]:
    """One augmented event per story event, in order, bullets attached.

    Bullets are the rendered records of the event, sorted by (entity,
    attribute) for determinism, minus character-location records.
    """
    person = story.characters_by_key
    n = len(story.events)
    keyed: list[tuple[tuple[int, tuple[str, str]], EntityStateRecord]] = []
    for r in records:
        if not 1 <= r.event_index <= n:
            raise ValidationError(f"record references unknown event index {r.event_index}")
        if r.attribute == LOCATION and r.key[0] in person:
            continue
        keyed.append(((r.event_index, r.key), r))
    # Stable, so records with equal keys keep their input order.
    keyed.sort(key=itemgetter(0))

    bullets: list[list[str]] = [[] for _ in range(n + 1)]
    for (index, _), r in keyed:
        bullets[index].append(r.render())
    return [
        AugmentedEvent(event=event, injected=tuple(bullets[event.index]))
        for event in story.events
    ]


def render_augmented(events: list[AugmentedEvent]) -> str:
    return "\n".join(e.render() for e in events)
