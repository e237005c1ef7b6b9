"""Command-line surface: generate, extract, inject, mask, answer, eval, complexity."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .dataset import dump_dataset, load_dataset
from .errors import MindmaskError, ValidationError
from .inject import render_augmented
from .nkb import generate_states, identify_key_entities
from .pipeline import (
    PipelineConfig,
    answer_question,
    complexity_csv,
    complexity_report,
    complexity_table,
    evaluate,
    mask_question,
    prepare_story,
)
from .worldgen import GrammarConfig, generate_story


def _add_backend_flags(parser, *, ablations: bool, answerer: bool):
    """The state-backend flags, then the two ablation switches and the
    answerer choice for the commands that read them; an unread flag is a
    usage error."""
    parser.add_argument("--nkb", choices=("rule", "remote"), default="rule")
    parser.add_argument("--model", default=None, help="model name for remote backends")
    parser.add_argument("--base-url", default=None, help="chat endpoint base URL")
    parser.add_argument("--cache-dir", default=None, help="record cache directory")
    parser.set_defaults(answerer="symbolic", no_ki=False, no_im=False)
    if ablations:
        parser.add_argument("--no-ki", action="store_true", help="disable knowledge injection")
        parser.add_argument("--no-im", action="store_true", help="disable iterative masking")
    if answerer:
        parser.add_argument("--answerer", choices=("symbolic", "remote"), default="symbolic")


def _remote_flag_error(args) -> str | None:
    """The usage error in the remote flags, if any: a remote backend or
    answerer needs ``--model`` and ``--base-url``, and reads ``--cache-dir``,
    and nothing else reads them."""
    if args.nkb != "remote" and args.answerer != "remote":
        given = {"--model": args.model, "--base-url": args.base_url, "--cache-dir": args.cache_dir}
        unread = [flag for flag, value in given.items() if value is not None]
        if unread:
            flags = ", ".join(unread)
            return f"nothing reads {flags} without a remote backend (--nkb or --answerer remote)"
    elif not (args.model and args.base_url):
        return "remote backends need --model and --base-url"
    return None


def _seed_list(text: str) -> list[int]:
    try:
        seeds = [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}") from None
    if len(set(seeds)) < len(seeds):
        raise argparse.ArgumentTypeError(f"a seed is given more than once: {text!r}")
    return seeds


def _non_negative(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _pipeline_config(args) -> PipelineConfig:
    cfg = PipelineConfig(inject_knowledge=not args.no_ki, apply_masking=not args.no_im)
    if args.nkb == "remote" or args.answerer == "remote":
        from .remote import ChatClient, RecordCache, RemoteAnswerer, RemoteBackend

        client = ChatClient(base_url=args.base_url, model=args.model)
        cache = RecordCache(args.cache_dir) if args.cache_dir else None
        if args.nkb == "remote":
            cfg.nkb_backend = RemoteBackend(client, cache=cache)
        if args.answerer == "remote":
            cfg.answer_backend = RemoteAnswerer(client, cache=cache)
    return cfg


def _cmd_generate(args):
    """Each story is written as soon as it is generated. The configs differ
    only in their seed, so the first one is checked before the output file
    is opened, and a refused config writes no file."""
    if args.count < 1:
        raise ValidationError(f"count must be at least 1, not {args.count}")
    config = GrammarConfig(
        num_characters=args.characters,
        num_rooms=args.rooms,
        num_objects=args.objects,
        num_containers_per_room=args.containers,
        moves_per_room=args.moves,
        max_order=args.max_order,
        seed=args.seed,
        allow_reentry=args.reentry,
        distractor_rate=args.distractor_rate,
    )
    config.validate()
    stories = (
        generate_story(replace(config, seed=config.seed + offset)) for offset in range(args.count)
    )
    dump_dataset(stories, args.output)
    print(f"wrote {args.count} stories to {args.output}")


def _cmd_extract(args):
    items = load_dataset(args.dataset)
    cfg = _pipeline_config(args)
    backend = cfg.nkb_backend
    rows = []
    for story_index, (story, questions) in enumerate(items):
        if not questions:
            # No key entity to ask for; `evaluate` prepares no such story either.
            continue
        targets = identify_key_entities(story, questions, backend)
        records = generate_states(story, targets, backend)
        for r in records:
            rows.append(
                {
                    "story_index": story_index,
                    "event_index": r.event_index,
                    "entity": r.entity,
                    "attribute": r.attribute,
                    "state": r.state,
                }
            )
    with open(args.output, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    print(f"wrote {len(rows)} records to {args.output}")


def _pick(items: list, index: int, what: str):
    if not 0 <= index < len(items):
        raise ValidationError(f"{what} index {index} out of range 0..{len(items) - 1}")
    return items[index]


def _story_artifacts(args):
    """The chosen story's artifacts, with the chosen question for the
    commands that take ``--question``."""
    items = load_dataset(args.dataset)
    if not items:
        raise ValidationError("the dataset has no stories")
    story, questions = _pick(items, args.story, "story")
    if not questions:
        raise ValidationError(f"story {args.story} has no questions")
    q = _pick(questions, args.question, "question") if hasattr(args, "question") else None
    cfg = _pipeline_config(args)
    return q, cfg, prepare_story(story, questions, cfg)


def _cmd_inject(args):
    _, _, artifacts = _story_artifacts(args)
    print(render_augmented(artifacts.augmented))


def _cmd_mask(args):
    q, cfg, artifacts = _story_artifacts(args)
    masked, view = mask_question(artifacts, q, cfg)
    if args.dump_graphs:
        graphs = {"omniscient": artifacts.omniscient.to_json(), "masked": masked.to_json()}
        for name in q.chain_names:
            graphs[name] = artifacts.character_graph(name).to_json()
        print(json.dumps(graphs, indent=2))
    print(f"question: {q.raw}")
    print(f"surviving events: {list(view.surviving)}")
    for text in view.texts:
        print(text)


def _cmd_answer(args):
    q, cfg, artifacts = _story_artifacts(args)
    outcome = answer_question(artifacts, q, cfg)
    print(f"question: {q.raw}")
    print(f"answer: {outcome.predicted}")
    if q.gold is not None:
        print(f"gold: {q.gold}")
    if outcome.empty_view:
        print("note: every event was masked; answered from initial declarations")


def _cmd_eval(args):
    items = load_dataset(args.dataset)
    cfg = _pipeline_config(args)
    report = evaluate(items, cfg, seeds=args.seeds, subset_size=args.subset_size)
    print(report.table())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"wrote JSON report to {args.json}")


def _cmd_complexity(args):
    rows = complexity_report(range(args.m_min, args.m_max + 1), range(args.k_min, args.k_max + 1))
    print(complexity_table(rows))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(complexity_csv(rows))
        print(f"wrote CSV to {args.csv}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mindmask", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset with gold answers")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--characters", type=int, default=3)
    p.add_argument("--rooms", type=int, default=1)
    p.add_argument("--objects", type=int, default=1)
    p.add_argument("--containers", type=int, default=3)
    p.add_argument("--moves", type=int, default=2)
    p.add_argument("--max-order", type=int, default=2)
    p.add_argument("--reentry", action="store_true")
    p.add_argument("--distractor-rate", type=float, default=0.2)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("extract", help="run entity/state extraction, write records")
    p.add_argument("--dataset", required=True)
    p.add_argument("-o", "--output", required=True)
    _add_backend_flags(p, ablations=False, answerer=False)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("inject", help="print a story with injected knowledge")
    p.add_argument("--dataset", required=True)
    p.add_argument("--story", type=int, default=0)
    _add_backend_flags(p, ablations=False, answerer=False)
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("mask", help="show the masked view for a question")
    p.add_argument("--dataset", required=True)
    p.add_argument("--story", type=int, default=0)
    p.add_argument("--question", type=int, default=0)
    p.add_argument("--dump-graphs", action="store_true")
    _add_backend_flags(p, ablations=True, answerer=False)
    p.set_defaults(func=_cmd_mask)

    p = sub.add_parser("answer", help="answer one question end to end")
    p.add_argument("--dataset", required=True)
    p.add_argument("--story", type=int, default=0)
    p.add_argument("--question", type=int, default=0)
    _add_backend_flags(p, ablations=True, answerer=True)
    p.set_defaults(func=_cmd_answer)

    p = sub.add_parser("eval", help="evaluate over seeded subsets")
    p.add_argument("--dataset", required=True)
    p.add_argument("--seeds", type=_seed_list, default="0", help="comma-separated seeds, e.g. 12,42,96")
    p.add_argument("--subset-size", type=_non_negative, default=None)
    p.add_argument("--json", default=None, help="write the full JSON report here")
    _add_backend_flags(p, ablations=True, answerer=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("complexity", help="graph-count comparison table")
    p.add_argument("--m-min", type=int, default=5)
    p.add_argument("--m-max", type=int, default=5)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=5)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_complexity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "nkb") and (error := _remote_flag_error(args)):
        parser.error(error)
    try:
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`mindmask eval ... | head`): nothing is wrong,
        # so stop quietly. Point stdout at the null device, or the
        # interpreter's final flush of what is still buffered raises again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except (MindmaskError, OSError) as exc:
        print(f"mindmask: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
