"""A digest of the generator's output on the benchmark corpora and the
criterion-2 grid, so a change to `worldgen` that shifts one draw, one line,
one gold answer or one observed set fails here.

The digest covers each story's events, characters and metadata (in its key
order, as a dataset file holds it), each question's text and gold, and each
character's ``observed_set``. It was taken before the generator's container
pool, metadata and oracle matching were last reworked, and it reads the same
under Python 3.10, 3.11 and 3.12.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from test_location_records import SHAPES
from mindmask.worldgen import GrammarConfig, generate_story, observed_set

# The corpus shapes of perfbench/workloads.py; remote_replay uses deep_chains'.
DEEP_CHAINS = SHAPES["deep_chains"]
LONG_STORIES = SHAPES["long_stories"]


def base_seed(workload: str, seed: int) -> int:
    """The first story seed of a benchmark corpus, as the benchmark draws it."""
    return random.Random(f"{workload}/{seed}").randrange(1 << 30)


def grid_configs(base: int) -> list[GrammarConfig]:
    """The criterion-2 grid of tests/test_acceptance.py, shifted by `base`."""
    configs = []
    for num_characters in (2, 3, 4, 5):
        for max_order in range(1, min(4, num_characters) + 1):
            for allow_reentry in (False, True):
                for draw in range(40):
                    configs.append(
                        GrammarConfig(
                            num_characters=num_characters,
                            num_rooms=1 + draw % 3,
                            num_objects=1 + draw % 2,
                            num_containers_per_room=2 + draw % 3,
                            moves_per_room=1 + draw % 3,
                            max_order=max_order,
                            seed=base + draw * 104729 + num_characters * 31 + max_order * 7
                            + (1 if allow_reentry else 0),
                            allow_reentry=allow_reentry,
                        )
                    )
    return configs


def corpus_configs(seed: int) -> list[GrammarConfig]:
    """Every story of the four benchmark corpora at benchmark seed `seed`,
    then the criterion-2 grid shifted by `seed` itself."""
    configs = []
    for workload, shape, count in (
        ("deep_chains", DEEP_CHAINS, 400),
        ("long_stories", LONG_STORIES, 200),
        ("remote_replay", DEEP_CHAINS, 400),
    ):
        base = base_seed(workload, seed)
        configs += [GrammarConfig(seed=base + i, **shape) for i in range(count)]
    return configs + grid_configs(base_seed("oracle_grid", seed)) + grid_configs(seed)


def story_digest(configs: list[GrammarConfig]) -> str:
    digest = hashlib.sha256()
    for config in configs:
        story, questions = generate_story(config)
        payload = {
            "events": [[e.index, e.text, e.speaker] for e in story.events],
            "characters": list(story.characters),
            "kind": story.kind,
            "metadata": story.metadata,
            "questions": [[q.raw, q.gold] for q in questions],
            "observed": {c: sorted(observed_set(story, c)) for c in story.characters},
        }
        digest.update(json.dumps(payload).encode())
        digest.update(b"\n")
    return digest.hexdigest()


EXPECTED = {
    1: "7f9d0e83b821e95b564b1520daeda7f752f6812d57846e442759b36d04ce0de7",
    1009: "504576047dfb42bcba33388339210352fb2f8a92d71ebecd944e9c4dc7508752",
}


@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_generator_output_is_pinned(seed):
    assert story_digest(corpus_configs(seed)) == EXPECTED[seed]


def test_grid_covers_criterion_2():
    # 26 (characters, order, re-entry) cells of 40 draws each.
    assert len(grid_configs(0)) == 26 * 40
    assert len(corpus_configs(1)) == 400 + 200 + 400 + 2 * 26 * 40
