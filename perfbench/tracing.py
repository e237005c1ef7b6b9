"""In-memory span tracer that wraps mindmask's public functions from outside.

Each wrapped function is replaced at the name its caller looks up (a module
global such as ``mindmask.pipeline.generate_states``, or a class attribute
such as ``Story.key``), so the package itself carries no tracing code. A span
is ``(name, start_ns, end_ns, parent, request)``: ``parent`` is the index of
the enclosing span in the same buffer (-1 at top level) and ``request`` is
the story the harness was serving when the span opened (-1 during set-up).
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict


def _targets():
    """(owner, attribute, span name) for every traced call site."""
    from mindmask import dataset, nkb, pipeline, remote, scene, story, worldgen

    return [
        (pipeline, "prepare_story", "pipeline.prepare_story"),
        (pipeline, "answer_question", "pipeline.answer_question"),
        (pipeline, "identify_key_entities", "nkb.identify_key_entities"),
        (pipeline, "generate_states", "nkb.generate_states"),
        (pipeline, "extract_locations", "nkb.extract_locations"),
        (pipeline, "inject", "inject.inject"),
        (pipeline, "build_omniscient_graph", "scene.build_omniscient_graph"),
        (pipeline, "build_character_graph", "scene.build_character_graph"),
        (pipeline, "mask_chain", "scene.mask_chain"),
        (pipeline, "retrieve_events", "scene.retrieve_events"),
        (pipeline, "reduce_order", "question.reduce_order"),
        (pipeline, "symbolic_reader", "pipeline.symbolic_reader"),
        (scene, "canonicalize_location", "nkb.canonicalize_location"),
        (nkb.RuleBackend, "event_states", "nkb.event_states"),
        (remote.RemoteBackend, "event_states", "nkb.event_states"),
        (story.Story, "key", "story.key"),
        (worldgen, "generate_story", "worldgen.generate_story"),
        (worldgen, "simulate_beliefs", "worldgen.simulate_beliefs"),
        (worldgen, "observed_set", "worldgen.observed_set"),
        (dataset, "load_dataset", "dataset.load_dataset"),
        (dataset, "dump_dataset", "dataset.dump_dataset"),
        (remote.RecordCache, "load", "remote.RecordCache.load"),
        (remote.RecordCache, "store", "remote.RecordCache.store"),
    ]


class Tracer:
    """Collects spans while installed; the harness drains them after each phase."""

    def __init__(self):
        self.spans: list = []
        self.request = -1
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, tracer.request)

        return traced

    def install(self) -> None:
        for owner, attr, name in _targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def drain(self) -> list:
        """Closed spans so far; the buffer starts empty again."""
        if self._stack:
            raise RuntimeError("drain() called with spans still open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def fold(*phases: list) -> dict[str, dict[str, float]]:
    """Per-name call count, total ms and self ms (total minus child spans).

    Each phase is one drained buffer; parent indices point into their own.
    """
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
    for spans in phases:
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns[i]) / 1e6
    return out


def graphs_per_request(spans: list) -> dict[int, int]:
    """Scene graphs actually built for each story served."""
    built: dict[int, int] = defaultdict(int)
    for name, _, _, _, request in spans:
        if name in ("scene.build_omniscient_graph", "scene.build_character_graph"):
            built[request] += 1
    return built


def write_spans(spans: list, path) -> None:
    """Gzipped JSON lines, one array a span: [id, name, parent, request, start_ns, end_ns]."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        for i, (name, start, end, parent, request) in enumerate(spans):
            handle.write(json.dumps([i, name, parent, request, start, end]) + "\n")
