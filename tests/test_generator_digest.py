"""One digest per output, over one shared corpus per seed.

`corpus(seed)` is every story of `corpus_configs(seed)`: the four benchmark
corpora at benchmark seed `seed`, then the criterion-2 grid twice. It is
generated once per test session and read here, by
``test_rule_prep.py`` and by ``test_gold_shortcuts.py``.

The generator digest covers each story's events, characters and metadata (in
its key order, as a dataset file holds it), each question's text and gold, and
each character's ``observed_set``. It was taken before the generator's
container pool, metadata and oracle matching were last reworked, and it
reads the same under Python 3.10, 3.11 and 3.12.

Each pipeline part pins one output, one SHA-256 per seed:

- ``rule``: every story, rule backend and symbolic reader: each question's
  outcome, the records and anchors, the omniscient graph's rooms and bits,
  and every character graph's bits;
- ``texts``: the event texts with and without injected bullets, every 10th
  story;
- ``eval``: the ``eval`` JSON report on 100 ``deep_chains`` stories, full and
  under each ablation;
- ``text_reader``: what a text reader is shown and answers, with injection on
  and off, every 20th story;
- ``remote``: 100 ``remote_replay`` stories through the remote backend and a
  replayed chat endpoint, a cold then a warm record-cache pass: the answers,
  the graph bits and the bytes of ``records.log``;
- ``cli``: ``extract``, ``eval --json`` (full, ``--no-ki``, ``--no-im``),
  ``inject``, ``mask --dump-graphs`` and ``answer`` on a 20-story dataset.

Only reprs, texts and file bytes are hashed, never ``hash()`` and never a
graph's repr, whose frozenset follows ``PYTHONHASHSEED``; every digest reads
the same under any hash seed. A change that means to move an output updates
that part's value and says which outputs moved and why.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random

import pytest

from conftest import RecordingAnswerer
from test_location_records import SHAPES
from test_record_log import Transport
from mindmask.cli import main
from mindmask.pipeline import PipelineConfig, answer_question, evaluate, prepare_story
from mindmask.remote import LOG_NAME, ChatClient, RecordCache, RemoteBackend
from mindmask.worldgen import GrammarConfig, generate_story, observed_set

# The corpus shapes of perfbench/workloads.py; remote_replay uses deep_chains'.
DEEP_CHAINS = SHAPES["deep_chains"]
LONG_STORIES = SHAPES["long_stories"]

# Where the remote_replay corpus starts in `corpus(seed)`; deep_chains starts at 0.
REMOTE_REPLAY_AT = 400 + 200


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


def story_line(story, questions) -> bytes:
    """One story's line of the generator digest."""
    payload = {
        "events": [[e.index, e.text, e.speaker] for e in story.events],
        "characters": list(story.characters),
        "kind": story.kind,
        "metadata": story.metadata,
        "questions": [[q.raw, q.gold] for q in questions],
        "observed": {c: sorted(observed_set(story, c)) for c in story.characters},
    }
    return json.dumps(payload).encode() + b"\n"


@functools.lru_cache(maxsize=2)
def generated(seed: int) -> tuple[tuple, str]:
    """The stories and questions of `corpus_configs(seed)`, generated once,
    and their generator digest. Each story's line is taken as it is drawn,
    while the oracle still holds the trace it built for the story's gold."""
    items, digest = [], hashlib.sha256()
    for config in corpus_configs(seed):
        story, questions = generate_story(config)
        items.append((story, questions))
        digest.update(story_line(story, questions))
    return tuple(items), digest.hexdigest()


def corpus(seed: int) -> tuple:
    """The stories and questions of `corpus_configs(seed)`."""
    return generated(seed)[0]


EXPECTED = {
    1: "7f9d0e83b821e95b564b1520daeda7f752f6812d57846e442759b36d04ce0de7",
    1009: "504576047dfb42bcba33388339210352fb2f8a92d71ebecd944e9c4dc7508752",
}


@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_generator_output_is_pinned(seed):
    assert generated(seed)[1] == EXPECTED[seed]


def test_grid_covers_criterion_2():
    # 26 (characters, order, re-entry) cells of 40 draws each.
    assert len(grid_configs(0)) == 26 * 40
    assert len(corpus_configs(1)) == 400 + 200 + 400 + 2 * 26 * 40


# -- pipeline outputs -------------------------------------------------------------


class Digest:
    """SHA-256 over a sequence of texts, each ended by a newline."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def add(self, *values) -> None:
        for value in values:
            text = value if isinstance(value, str) else repr(value)
            self.sha.update(text.encode())
            self.sha.update(b"\n")

    def add_bytes(self, data: bytes) -> None:
        self.add(len(data))
        self.sha.update(data)

    def hexdigest(self) -> str:
        return self.sha.hexdigest()


def rule_part(seed, tmp_path, digest):
    cfg = PipelineConfig()
    for story, questions in corpus(seed):
        artifacts = prepare_story(story, questions, cfg)
        digest.add(*[answer_question(artifacts, q, cfg) for q in questions])
        digest.add(artifacts.records, artifacts.anchors)
        digest.add(artifacts.omniscient.assignment, artifacts.omniscient.bits)
        digest.add(*[artifacts.character_graph(name).bits for name in story.characters])


def texts_part(seed, tmp_path, digest):
    cfg = PipelineConfig()
    for story, questions in corpus(seed)[::10]:
        artifacts = prepare_story(story, questions, cfg)
        digest.add(*artifacts.view_texts(True))
        digest.add(*artifacts.view_texts(False))


def eval_part(seed, tmp_path, digest):
    items = list(corpus(seed)[:100])
    for cfg in (
        PipelineConfig(),
        PipelineConfig(inject_knowledge=False),
        PipelineConfig(apply_masking=False),
    ):
        digest.add(evaluate(items, cfg).to_json())


def text_reader_part(seed, tmp_path, digest):
    rule = PipelineConfig()
    for story, questions in corpus(seed)[::20]:
        artifacts = prepare_story(story, questions, rule)
        for inject_knowledge in (True, False):
            reader = RecordingAnswerer()
            cfg = PipelineConfig(answer_backend=reader, inject_knowledge=inject_knowledge)
            outcomes = [answer_question(artifacts, q, cfg) for q in questions]
            for (view, asked, space, reply), outcome in zip(reader.calls, outcomes, strict=True):
                digest.add(view.surviving, *view.texts, asked, space, reply, outcome)


def remote_part(seed, tmp_path, digest):
    items = corpus(seed)[REMOTE_REPLAY_AT:REMOTE_REPLAY_AT + 100]
    transport = Transport(items)
    client = ChatClient(base_url="http://llm.test/v1", model="replay", transport=transport)
    for requests_per_story in (3, 0):  # the cold pass, then the warm one
        cfg = PipelineConfig(nkb_backend=RemoteBackend(client, cache=RecordCache(tmp_path)))
        for story, questions in items:
            before = len(transport.requests)
            artifacts = prepare_story(story, questions, cfg)
            digest.add(*[answer_question(artifacts, q, cfg) for q in questions])
            digest.add(artifacts.omniscient.bits)
            digest.add(*[artifacts.character_graph(name).bits for name in story.characters])
            assert len(transport.requests) - before == requests_per_story
    digest.add_bytes((tmp_path / LOG_NAME).read_bytes())


def cli_part(seed, tmp_path, digest):
    dataset, out = tmp_path / "d.jsonl", tmp_path / "out"

    def run(*argv) -> str:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main([str(arg) for arg in argv]) == 0
        return printed.getvalue()

    run("generate", "--seed", seed, "--count", 20, "-o", dataset)
    run("extract", "--dataset", dataset, "-o", out)
    digest.add_bytes(out.read_bytes())
    for ablation in ([], ["--no-ki"], ["--no-im"]):
        run("eval", "--dataset", dataset, "--json", out, *ablation)
        digest.add_bytes(out.read_bytes())
    digest.add(run("inject", "--dataset", dataset, "--story", 0))
    digest.add(run("mask", "--dataset", dataset, "--story", 0, "--question", 2, "--dump-graphs"))
    digest.add(run("answer", "--dataset", dataset, "--story", 0, "--question", 2))


PARTS = {
    "rule": rule_part,
    "texts": texts_part,
    "eval": eval_part,
    "text_reader": text_reader_part,
    "remote": remote_part,
    "cli": cli_part,
}

PIPELINE_EXPECTED = {
    (1, "rule"): "fc86125d93f72dbadc730916110afb5e700ec3b562127ae12379dd0efce05f11",
    (1, "texts"): "4d0f5f5e4ae231284958dc78422b90e682e28a3ec750a0a7cb02520fe1ca1416",
    (1, "eval"): "f875f9e02b55603ead363a796c2c0de23a4ea5ff5b9acf7cf27fd30ac487d2f6",
    (1, "text_reader"): "ba1f29fcca3a53a2ba6fbcbb506d1edfa96d1cc0d0b8c82310a9b7f5b22f848e",
    (1, "remote"): "f69549568660db244d6ef99400dcfd5a2bca749ee8dd08133911121e9940238e",
    (1, "cli"): "a50312c07d998e6d13b6e933da9bf6f5f44af1a1f17a13a3512dfc7903bb98f5",
    (1009, "rule"): "a71ea26ab0c3ad544e556997c09856f9cef8efa104cdc0a6920821ec33ea22dd",
    (1009, "texts"): "34b732fc203c2d2033198ea04c6673b6df66ad3eb3cd70433e57e587050623bb",
    (1009, "eval"): "f34a9cf30eda0a036df85521bd3deec7cd44b4c976486d2ebc89e9d3a02f1f5c",
    (1009, "text_reader"): "caa8231647fe829cd3f72d23ec018bb8850fbf120948743ed5f893ce1ecc4c91",
    (1009, "remote"): "4b4cdfd8bdea423b0b2076b061dcbba98fd0a49fa16caa9260d8859f18b203b8",
    (1009, "cli"): "48288200476d6bd41811dc723b2fbc32644fbfb10ed2cc32d7e5061fbaecc69b",
}


@pytest.mark.parametrize("seed, part", sorted(PIPELINE_EXPECTED), ids=str)
def test_pipeline_output_is_pinned(seed, part, tmp_path):
    digest = Digest()
    PARTS[part](seed, tmp_path, digest)
    assert digest.hexdigest() == PIPELINE_EXPECTED[seed, part]
