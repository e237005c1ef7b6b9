"""Workload corpora, set-up, timed passes and the correctness gate.

Every mindmask function the benchmark times is looked up on its module at
call time (``pipeline.prepare_story``, ``worldgen.generate_story``...), so
the tracer in :mod:`tracing` can wrap it. One story is one request: the
harness prepares it, answers each of its questions, and only then starts the
next story (a closed loop with one client, as ``evaluate(workers=1)`` runs).
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from mindmask import dataset, pipeline, worldgen
from mindmask.errors import MindmaskError
from mindmask.nkb import RuleBackend
from mindmask.remote import RecordCache, RemoteBackend
from mindmask.scene import graph_build_counts
from mindmask.worldgen import GrammarConfig

from replay import ReplayTransport, replay_client
from speed import Clock

DEEP_CHAINS = dict(num_characters=5, num_rooms=4, max_order=4, allow_reentry=True)
LONG_STORIES = dict(
    num_characters=2,
    num_rooms=12,
    num_containers_per_room=3,
    moves_per_room=3,
    max_order=2,
    allow_reentry=True,
)


def _shaped(shape: dict, count: int):
    def configs(base: int) -> list[GrammarConfig]:
        return [GrammarConfig(seed=base + i, **shape) for i in range(count)]

    return configs


def _oracle_grid(base: int) -> list[GrammarConfig]:
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


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Callable[[int], list[GrammarConfig]]  # first story seed -> corpus
    remote: bool = False
    oracle: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("deep_chains", _shaped(DEEP_CHAINS, 400)),
        Workload("long_stories", _shaped(LONG_STORIES, 200)),
        Workload("oracle_grid", _oracle_grid, oracle=True),
        Workload("remote_replay", _shaped(DEEP_CHAINS, 400), remote=True),
    )
}


def base_seed(workload: str, seed: int) -> int:
    """First story seed of a workload's corpus; distinct per workload and seed."""
    return random.Random(f"{workload}/{seed}").randrange(1 << 30)


def scene_graph_bound(story, questions) -> int:
    """The paper's m + 1: ``graph_build_counts(m, k).scene_graphs`` for a story."""
    m = len(story.characters)
    return graph_build_counts(m, min(max(q.order for q in questions), m)).scene_graphs


@dataclass
class Gate:
    """Counts checked operations and lists every one that failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what() if callable(what) else what)

    def errors(self, count: int, what: str) -> None:
        self.attempted += count
        self.failures.extend([what] * count)


def set_up(configs, scratch: Path, gate: Gate, clock: Clock):
    """Generate the corpus with gold, then round-trip it through a dataset
    file, as ``mindmask generate`` followed by ``mindmask eval`` does.

    Returns the loaded items and the scaled seconds the round trip took,
    timed story by story, then the dump, then the load; the check that the
    loaded corpus matches the generated one is not timed.
    """
    path = scratch / "corpus.jsonl"
    items = []
    clock.open()
    for config in configs:
        clock.begin()
        items.append(worldgen.generate_story(config))
        clock.end()
    clock.begin()
    dataset.dump_dataset(items, path)
    clock.end()
    clock.begin()
    loaded = dataset.load_dataset(path)
    clock.end()
    seconds = sum(scaled for _, scaled in clock.close())
    path.unlink()
    for i, ((story, questions), (got, got_questions)) in enumerate(zip(items, loaded)):
        gate.check(
            story.events == got.events
            and [(q.raw, q.gold) for q in questions] == [(q.raw, q.gold) for q in got_questions],
            f"set-up story {i}: dataset round trip changed the story or its gold",
        )
    gate.check(len(items) == len(loaded), "set-up: dataset round trip lost stories")
    return loaded, seconds


@dataclass
class PassResult:
    """One pass: per-story scaled latencies, and the pass's wall seconds."""

    seconds: float = 0.0
    questions: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    abstentions: int = 0
    empty_views: int = 0


def _answer_story(i, story, questions, cfg, gate: Gate, result: PassResult):
    try:
        artifacts = pipeline.prepare_story(story, questions, cfg)
    except MindmaskError as exc:
        gate.errors(len(questions), f"story {i}: prepare_story raised {exc!r}")
        return None
    for q in questions:
        result.questions += 1
        try:
            outcome = pipeline.answer_question(artifacts, q, cfg)
        except MindmaskError as exc:
            gate.errors(1, f"story {i} {q.raw!r}: answer_question raised {exc!r}")
            continue
        result.abstentions += outcome.predicted == pipeline.ABSTAIN
        result.empty_views += outcome.empty_view
        gate.check(
            pipeline.answers_match(outcome.predicted, q.gold),
            lambda: f"story {i} {q.raw!r}: predicted {outcome.predicted!r}, gold {q.gold!r}",
        )
    return artifacts


def _record_times(result: PassResult, clock: Clock) -> None:
    for wall, scaled in clock.close():
        result.seconds += wall
        result.latencies_ms.append(scaled * 1e3)


def corpus_pass(items, cfg, gate: Gate, clock: Clock, tracer=None) -> PassResult:
    """Answer every question of the loaded corpus, one story at a time."""
    result = PassResult()
    clock.open()
    for i, (story, questions) in enumerate(items):
        if tracer is not None:
            tracer.request = i
        clock.begin()
        _answer_story(i, story, questions, cfg, gate, result)
        clock.end()
    _record_times(result, clock)
    return result


def oracle_pass(configs, items, cfg, gate: Gate, clock: Clock, tracer=None) -> PassResult:
    """Generate each grid story with gold, answer it, and compare every
    character graph with the oracle's observed set."""
    result = PassResult()
    generated = []
    clock.open()
    for i, config in enumerate(configs):
        if tracer is not None:
            tracer.request = i
        clock.begin()
        story, questions = worldgen.generate_story(config)
        artifacts = _answer_story(i, story, questions, cfg, gate, result)
        if artifacts is not None:
            for name in story.characters:
                graph_side = set(artifacts.character_graph(name).surviving())
                oracle_side = worldgen.observed_set(story, name)
                gate.check(
                    graph_side == oracle_side,
                    lambda: f"story {i} {name}: graph {sorted(graph_side)} "
                    f"!= oracle {sorted(oracle_side)}",
                )
        clock.end()
        generated.append((story.events, [q.gold for q in questions]))
    _record_times(result, clock)
    for i, ((events, golds), (story, questions)) in enumerate(zip(generated, items)):
        gate.check(
            events == story.events and golds == [q.gold for q in questions],
            f"story {i}: regenerated story or gold differs from the set-up corpus",
        )
    return result


class Backends:
    """Fresh pipeline configs for the cold and warm pass of one round.

    Cold gets a new state backend with an empty cache. Warm reuses what the
    cold pass cached: the same RuleBackend (its per-story replay cache) on the
    rule workloads, or a new RemoteBackend over the cold pass's RecordCache
    directory on ``remote_replay``.

    Each round's cache directory stays until the run's scratch directory is
    removed. The file system discards freed blocks, and deleting a cache
    between rounds made the next cold pass's cache writes take up to three
    times as long, varying from pass to pass.
    """

    def __init__(self, transport: ReplayTransport | None, scratch: Path):
        self.transport = transport
        self.scratch = scratch
        self._cache_dir: Path | None = None
        self._rounds = 0
        self._cold: pipeline.PipelineConfig | None = None

    def _remote(self) -> pipeline.PipelineConfig:
        backend = RemoteBackend(replay_client(self.transport), cache=RecordCache(self._cache_dir))
        return pipeline.PipelineConfig(nkb_backend=backend)

    def cold(self) -> pipeline.PipelineConfig:
        if self.transport is None:
            self._cold = pipeline.PipelineConfig(nkb_backend=RuleBackend())
            return self._cold
        self._rounds += 1
        self._cache_dir = self.scratch / f"record-cache-{self._rounds}"
        return self._remote()

    def warm(self) -> pipeline.PipelineConfig:
        if self.transport is None:
            return self._cold
        return self._remote()


class Runner:
    """A workload's corpus, its gate, and the passes over it."""

    def __init__(self, workload, configs, gate, scratch: Path):
        self.workload = workload
        self.configs = configs
        self.gate = gate
        self.scratch = scratch
        self.clock = Clock()
        self.setup_seconds = [self.set_up()]
        self.transport = ReplayTransport(self.items) if workload.remote else None
        self.backends = Backends(self.transport, scratch)
        self.questions = sum(len(qs) for _, qs in self.items)

    def set_up(self) -> float:
        """One timed set-up; its corpus replaces the current one."""
        self.items = None
        gc.collect()
        self.items, seconds = set_up(self.configs, self.scratch, self.gate, self.clock)
        return seconds

    def one_pass(self, cfg, tracer=None):
        gc.collect()
        if self.workload.oracle:
            return oracle_pass(self.configs, self.items, cfg, self.gate, self.clock, tracer)
        return corpus_pass(self.items, cfg, self.gate, self.clock, tracer)
