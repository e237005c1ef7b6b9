"""mindmask benchmark: one workload per run, every answer checked against gold.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload deep_chains --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's ``src/``; a directory without it
is an error (exit 2, no result). The run sets up the workload's corpus
several times, then repeats rounds of one cold and one warm pass until
``--seconds`` have passed. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` wraps the package's public functions and
reports the per-layer metrics. The last line of standard output is the
result object; a fuller record of the run, with the machine it ran on and
every mismatch, goes to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _per_story(passes: list[list[float]]) -> list[float]:
    """Each story's scaled latency, as its median over the run's passes."""
    return [statistics.median(samples) for samples in zip(*passes)]


def _questions_per_s(questions: int, passes: list[list[float]]) -> float:
    return questions / (sum(_per_story(passes)) / 1e3)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mindmask").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def _measure(runner, seconds: float, record: dict) -> dict:
    """Untraced rounds; the end-to-end metrics except memory.

    The set-ups after the first are spread between rounds: back to back, one
    burst of interference could slow all of them.
    """
    cold, warm = [], []
    started = time.perf_counter()
    while not cold or time.perf_counter() - started < seconds:
        cold.append(runner.one_pass(runner.backends.cold()))
        warm.append(runner.one_pass(runner.backends.warm()))
        if len(runner.setup_seconds) < SETUP_REPEATS:
            runner.setup_seconds.append(runner.set_up())
    record["measured_seconds"] = time.perf_counter() - started
    record["rounds"] = len(cold)
    record["cold_pass_wall_questions_per_s"] = [p.questions / p.seconds for p in cold]
    record["warm_pass_wall_questions_per_s"] = [p.questions / p.seconds for p in warm]
    cold_ms = _per_story([p.latencies_ms for p in cold])
    record["story_latency_samples"] = len(cold_ms)
    return {
        "questions_per_s": _questions_per_s(runner.questions, [p.latencies_ms for p in cold]),
        "warm_questions_per_s": _questions_per_s(
            runner.questions, [p.latencies_ms for p in warm]
        ),
        "story_ms_p50": statistics.median(cold_ms),
        "story_ms_p95": statistics.quantiles(cold_ms, n=100)[94],
        "setup_s": statistics.median(runner.setup_seconds),
    }


_TIMED = (
    "scene.build_character_graph", "scene.build_omniscient_graph", "scene.mask_chain",
    "scene.retrieve_events", "nkb.generate_states", "nkb.canonicalize_location", "story.key",
    "nkb.identify_key_entities", "nkb.extract_locations", "inject.inject",
    "question.reduce_order", "pipeline.symbolic_reader", "worldgen.generate_story",
    "worldgen.simulate_beliefs", "worldgen.observed_set", "dataset.dump_dataset",
    "dataset.load_dataset", "remote.RecordCache.load", "remote.RecordCache.store",
)
_COUNTED = (
    "scene.build_character_graph", "nkb.event_states", "story.key",
    "nkb.canonicalize_location", "worldgen.simulate_beliefs", "worldgen.observed_set",
)


def _traced_round(runner, tracer) -> tuple[dict, dict, list[float]]:
    """Set-up, cold pass and warm pass with every span recorded.

    Returns this round's per-layer numbers, its spans by phase, and the
    traced cold pass's story latencies.
    """
    from workloads import scene_graph_bound

    transport = runner.transport
    tracer.install()
    try:
        runner.set_up()
        spans = {"setup": tracer.drain()}
        calls_before = transport.calls.copy() if transport else None
        cold_cfg = runner.backends.cold()
        cold = runner.one_pass(cold_cfg, tracer)
        spans["cold"] = tracer.drain()
        calls_middle = transport.calls.copy() if transport else None
        warm_cfg = runner.backends.warm()
        warm = runner.one_pass(warm_cfg, tracer)
        spans["warm"] = tracer.drain()
    finally:
        tracer.uninstall()

    folded = tracing.fold(*spans.values())
    empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0}
    layers = {f"{name}.ms": folded.get(name, empty)["ms"] for name in _TIMED}
    layers.update({f"{name}.calls": folded.get(name, empty)["calls"] for name in _COUNTED})
    for name in ("pipeline.prepare_story", "pipeline.answer_question"):
        layers[f"{name}.self_ms"] = folded.get(name, empty)["self_ms"]
    layers["pipeline.abstentions"] = cold.abstentions + warm.abstentions
    layers["scene.empty_views"] = cold.empty_views + warm.empty_views

    # Graphs built per story, counted from spans, against m + 1.
    built_max = 0
    for phase in ("cold", "warm"):
        for index, built in tracing.graphs_per_request(spans[phase]).items():
            bound = scene_graph_bound(*runner.items[index])
            built_max = max(built_max, built)
            runner.gate.check(
                built <= bound, f"story {index}: built {built} scene graphs, m + 1 = {bound}"
            )
    layers["scene.graphs_per_story.max"] = built_max

    # The warm pass's record-cache hit ratio: state lookups the cache served
    # over all state lookups; every miss sends a state prompt.
    layers["remote.transport.calls"] = 0
    layers["remote.cache_hit_ratio"] = 0.0
    layers["remote.skipped_lines"] = 0
    if transport is not None:
        after = transport.calls
        loads = tracing.fold(spans["warm"]).get("remote.RecordCache.load", empty)["calls"]
        misses = after["generate_states"] - calls_middle["generate_states"]
        layers["remote.transport.calls"] = after.total() - calls_before.total()
        layers["remote.cache_hit_ratio"] = (loads - misses) / loads if loads else 0.0
        layers["remote.skipped_lines"] = (
            cold_cfg.nkb_backend.skipped_lines + warm_cfg.nkb_backend.skipped_lines
        )
    return layers, spans, cold.latencies_ms


def _measure_traced(runner, seconds: float, record: dict) -> dict:
    """Traced rounds, each after one untraced cold pass, the overhead baseline.

    Every per-layer number is the median over rounds of one round's total.
    """
    from workloads import scene_graph_bound

    tracer = tracing.Tracer()
    plain, traced, rounds = [], [], []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        plain.append(runner.one_pass(runner.backends.cold()).latencies_ms)
        layers, spans, latencies_ms = _traced_round(runner, tracer)
        traced.append(latencies_ms)
        if not rounds:
            path = OUT / f"spans-{runner.workload.name}-seed{record['seed']}.jsonl.gz"
            tracing.write_spans(spans["cold"], path)
            record["spans_file"] = str(path.relative_to(ROOT))
        rounds.append(layers)
    record["measured_seconds"] = time.perf_counter() - started
    record["rounds"] = len(rounds)

    metrics = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    metrics["scene.graphs_per_story.max"] = max(r["scene.graphs_per_story.max"] for r in rounds)
    metrics["scene.graphs_per_story.formula"] = max(
        scene_graph_bound(story, questions) for story, questions in runner.items
    )
    untraced = _questions_per_s(runner.questions, plain)
    metrics["trace.questions_per_s"] = _questions_per_s(runner.questions, traced)
    metrics["trace.overhead_pct"] = 100 * (untraced - metrics["trace.questions_per_s"]) / untraced
    record["untraced_questions_per_s"] = untraced
    return metrics


def run(args) -> dict:
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    gate = workloads.Gate()
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    record["context"] = _context()
    record["base_story_seed"] = workloads.base_seed(workload.name, args.seed)
    configs = workload.configs(record["base_story_seed"])
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        runner = workloads.Runner(workload, configs, gate, scratch)
        if args.trace:
            metrics = _measure_traced(runner, args.seconds, record)
        else:
            metrics = _measure(runner, args.seconds, record)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(scratch)

    record["setup_seconds"] = runner.setup_seconds
    record["context"]["speed"] = runner.clock.speed()
    record["stories"] = len(runner.items)
    record["questions_per_pass"] = runner.questions
    record["attempted"] = gate.attempted
    record["failed"] = len(gate.failures)
    record["failed_frac"] = len(gate.failures) / gate.attempted
    record["failures"] = gate.failures
    record["metrics"] = metrics
    record["context"]["loadavg_end"] = list(os.getloadavg())
    return record


def _pin_hash_seed() -> None:
    """Re-execute this script once under a fixed string-hash seed.

    With per-process hash randomization, set and dict layouts differ from run
    to run, and on a 2-core machine that alone more than doubled the spread
    of questions_per_s across runs. ``exec`` replaces the process, so no child
    process is left to manage.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        script = str(Path(__file__).resolve())
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], env)


def main(argv=None) -> int:
    _pin_hash_seed()
    args = _parse_args(argv)
    if not (SRC / "mindmask" / "__init__.py").is_file():
        print(f"perfbench: no mindmask package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    record = run(args)
    missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
    if missing:
        print(f"perfbench: run did not measure {missing}", file=sys.stderr)
        return 3
    metrics = {
        m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]} for m in declared
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    for failure in record["failures"]:
        print(f"MISMATCH {failure}", file=sys.stderr)
    summary = {k: record[k] for k in ("workload", "seed", "rounds", "stories", "failed_frac")}
    summary["context"] = record["context"]
    print(json.dumps(summary))
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
