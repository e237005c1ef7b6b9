"""End-to-end pipeline: extract, inject, mask, answer, evaluate.

The full path per question: identify key entities, generate state records,
build the omniscient and character scene graphs, fold the belief chain's
masks, reduce the question to first order, and read the answer. The
symbolic reader reads the masked bitset: it needs only which of the
target's records survived. Injected text, the events with their
non-spatial knowledge bullets, is built only for a text reader (an
``answer_backend``) and only the first time one asks; so are the rule
backend's non-location records, which only those bullets read. That backend
states every entity whatever the targets, so it is never asked for key
entities, and a story is prepared with one scan and one scene pass, which
reads the scan's per-event columns: the characters' location records are
built only when something first reads `StoryArtifacts.records`, the
columns' `locations`. The remote backend is asked for key entities, then
gives the scene pass the columns of its state rows, read in one pass; both
backends' columns hold the same members, and their records are built only
when something reads them, so neither symbolic path merges a record. Two
ablation switches reproduce the "no knowledge injection" and "no iterative
masking" variants; with masking off the reader sees the whole story and
fails on false-belief questions, which is the point.
"""

from __future__ import annotations

import json
import re
import statistics
from dataclasses import asdict, dataclass, field
from functools import cached_property

from .errors import ValidationError
from .inject import AugmentedEvent, inject
from .nkb import (
    EntityStateRecord,
    EventColumns,
    LOCATION,
    RuleBackend,
    StateBackend,
    extract_locations,
    generate_states,
    identify_key_entities,
    merge_states,
)
from .question import ToMQuestion, reduce_order
from .scene import (
    GraphBuildCounts,
    MaskedView,
    SceneGraph,
    build_character_graph,
    build_omniscient_graph,
    graph_build_counts,
    mask_bits,
    mask_chain,
    retrieve_events,
)
from .story import Story
from .textnorm import LEADING_PREPOSITIONS, is_negated_place, normalize_answer, normalize_place

ABSTAIN = "<abstain>"

_ANSWER_SPAN = re.compile(r"<answer>((?:(?!</?answer>).)*)</answer>", re.IGNORECASE | re.DOTALL)


@dataclass
class PipelineConfig:
    """Which backends run and which stages stay on."""

    nkb_backend: StateBackend = field(default_factory=RuleBackend)
    answer_backend: object = None  # None = the symbolic reader
    inject_knowledge: bool = True  # off = the "w/o KI" ablation
    apply_masking: bool = True  # off = the "w/o IM" ablation


class StoryArtifacts:
    """Everything computable once per story and shared across its questions.

    `records` are the records the graphs stand for: a record list, or the
    :class:`EventColumns` of a backend's ``scene_columns`` (the rule
    backend) or ``state_columns`` (the remote backend), which are kept in
    `_scan`. `records` are then the columns' `locations`, the location
    records alone, built the first time they are read, and `augmented`
    injects ``merge_states`` of the columns' `records`, content records
    included. Given a list, `records` is that list, holding every record,
    and `augmented` injects it.
    """

    def __init__(
        self, story: Story, records: list[EntityStateRecord] | EventColumns,
        anchors: list, omniscient: SceneGraph,
    ):
        self.story, self.anchors, self.omniscient = story, anchors, omniscient
        self._scan = records if isinstance(records, EventColumns) else None
        if self._scan is None:
            self.records = records  # hides the property below
        self._char_graphs: dict[str, SceneGraph] = {}
        self._texts: dict[bool, list[str]] = {}
        self._by_target: dict[tuple[str, str], list[EntityStateRecord]] = {}

    @cached_property
    def records(self) -> list[EntityStateRecord]:
        return self._scan.locations

    def target_records(self, q: ToMQuestion) -> list[EntityStateRecord]:
        """The location records of the question's target, in record order;
        filtered once per target, the first time a question asks. An
        object's records are all placements, so a scan's are read from its
        columns and no character record is built."""
        key = (q.target_entity.casefold(), LOCATION)
        if key not in self._by_target:
            scan = self._scan
            if scan is None or key[0] in self.story.characters_by_key:
                records = self.records
            else:
                records = (r for placed in scan.placements for r in placed)
            self._by_target[key] = [r for r in records if r.key == key]
        return self._by_target[key]

    def character_graph(self, name: str) -> SceneGraph:
        key = name.casefold()
        if key not in self._char_graphs:
            source = self.records if self._scan is None else self._scan
            self._char_graphs[key] = build_character_graph(
                self.story, source, self.anchors, name, self.omniscient
            )
        return self._char_graphs[key]

    @cached_property
    def augmented(self) -> list[AugmentedEvent]:
        """The story's events with injected bullets; built, with every record
        they need, the first time a text reader asks."""
        if self._scan is None:
            return inject(self.story, self.records)
        return inject(self.story, merge_states(self._scan.records))

    def view_texts(self, with_knowledge: bool) -> list[str]:
        """Numbered event texts, with injected bullets when `with_knowledge`;
        rendered once per story."""
        if with_knowledge not in self._texts:
            if with_knowledge:
                texts = [a.render() for a in self.augmented]
            else:
                texts = [e.render() for e in self.story.events]
            self._texts[with_knowledge] = texts
        return self._texts[with_knowledge]


@dataclass(frozen=True)
class QuestionOutcome:
    predicted: str
    empty_view: bool = False
    flagged: bool = False


def prepare_story(story: Story, questions: list[ToMQuestion], cfg: PipelineConfig) -> StoryArtifacts:
    """The records, anchors and omniscient graph of a story. A backend with
    ``scene_columns`` gives the scene pass its scan in one call, and states
    every entity, so no key entities are asked for; any other backend is
    asked for its key entities, then a backend with ``state_columns`` for
    the scene columns of its state rows, and any other for every record.
    Columns' records are built when first read."""
    if not questions:
        raise ValidationError("prepare_story needs at least one question")
    backend = cfg.nkb_backend
    scene_columns = getattr(backend, "scene_columns", None)
    if scene_columns is not None:
        source = scene_columns(story)
    elif (state_columns := getattr(backend, "state_columns", None)) is not None:
        source = state_columns(story, identify_key_entities(story, questions, backend))
    else:
        source = generate_states(story, identify_key_entities(story, questions, backend), backend)
    anchors = extract_locations(story, backend)
    return StoryArtifacts(story, source, anchors, build_omniscient_graph(story, source, anchors))


def _chain_graphs(artifacts: StoryArtifacts, q: ToMQuestion, cfg: PipelineConfig) -> list[SceneGraph]:
    """The character graphs that mask the question: its chain's with masking
    on and order 1 or more, else none, so the omniscient graph stands."""
    if cfg.apply_masking and q.order >= 1:
        return [artifacts.character_graph(c) for c in q.chain_names]
    return []


def mask_question(
    artifacts: StoryArtifacts, q: ToMQuestion, cfg: PipelineConfig
) -> tuple[SceneGraph, MaskedView]:
    """The question's masked graph and the events that survive it, with
    their texts, for a text reader.

    With masking on, a question of order 1 or more folds its chain's
    character graphs over the omniscient graph; otherwise the omniscient
    graph stands and every event with a room survives.
    """
    masked = mask_chain(artifacts.omniscient, _chain_graphs(artifacts, q, cfg))
    return masked, retrieve_events(masked, artifacts.view_texts(cfg.inject_knowledge))


def answer_question(artifacts: StoryArtifacts, q: ToMQuestion, cfg: PipelineConfig) -> QuestionOutcome:
    """Answer one question. The symbolic reader reads only the target and
    `asks_initial`, which order reduction keeps, so only a text reader is
    handed the reduced question."""
    if cfg.answer_backend is None:
        bits = mask_bits(artifacts.omniscient, _chain_graphs(artifacts, q, cfg))
        predicted = symbolic_reader(bits, q, artifacts.target_records(q))
        return QuestionOutcome(predicted=predicted, empty_view=bits == 0, flagged=predicted == ABSTAIN)

    asked = reduce_order(q) if q.order >= 1 else q
    _, view = mask_question(artifacts, q, cfg)
    space = tuple(answer_space_for(asked, artifacts.story, artifacts.records))
    raw = cfg.answer_backend.answer(view, asked, space)
    parsed = parse_answer(raw, space or None)
    return QuestionOutcome(
        predicted=parsed.value,
        empty_view=not view.surviving,
        flagged=parsed.flagged,
    )


def run_pipeline(story: Story, q: ToMQuestion, cfg: PipelineConfig | None = None) -> str:
    """Answer one question; order-0 questions skip masking by construction."""
    cfg = cfg or PipelineConfig()
    artifacts = prepare_story(story, [q], cfg)
    return answer_question(artifacts, q, cfg).predicted


def symbolic_reader(bits: int, q: ToMQuestion, records: list[EntityStateRecord]) -> str:
    """Deterministic reader: the last surviving state of the question's
    target, falling back to its initial declaration; ABSTAIN without one, or
    when it names no place (".", "the"). `bits` holds the surviving events
    (bit i-1 for event i), as :func:`scene.mask_bits` gives them; `records`
    are the target's own, in record order, as
    :meth:`StoryArtifacts.target_records` gives them."""
    if not records:
        return ABSTAIN
    chosen = records[0]
    if not q.asks_initial:
        chosen = next((r for r in reversed(records) if bits >> (r.event_index - 1) & 1), chosen)
    return _state_to_answer(chosen.state) or ABSTAIN


def _state_to_answer(state: str) -> str:
    """A location state as an answer: the normalized place, or the state
    as written when it denies a place ("outside the attic"). A state that
    opens with a preposition names a place even when a negation word is in
    it ("in the left drawer" -> "left drawer")."""
    if is_negated_place(state) and state.split(maxsplit=1)[0].casefold() not in LEADING_PREPOSITIONS:
        return state.strip()
    return normalize_place(state)


def answer_space_for(q: ToMQuestion, story: Story, records: list[EntityStateRecord]) -> list[str]:
    """Candidate answers for a location question: each answer the symbolic
    reader could give from the target's location records, else from every
    object's, once each, in record order, empty answers dropped."""
    target = (q.target_entity.casefold(), LOCATION)
    chosen = [r for r in records if r.key == target] or [
        r for r in records if r.key[1] == LOCATION and r.key[0] not in story.characters_by_key
    ]
    return [a for a in dict.fromkeys(_state_to_answer(r.state) for r in chosen) if a]


def match_candidates(value: str, space) -> tuple[str | None, bool]:
    """(candidate, ambiguous): exact normalized match first, then a unique
    substring match in either direction. A value that normalizes to nothing
    matches no candidate."""
    normalized = normalize_answer(value)
    if not normalized:
        return None, False
    exact = [c for c in space if normalize_answer(c) == normalized]
    if len(exact) == 1:
        return exact[0], False
    if len(exact) > 1:
        return None, True
    partial = [
        c
        for c in space
        if normalize_answer(c)
        and (normalize_answer(c) in normalized or normalized in normalize_answer(c))
    ]
    if len(partial) == 1:
        return partial[0], False
    return None, len(partial) > 1


@dataclass(frozen=True)
class ParsedAnswer:
    value: str
    flagged: bool = False
    ambiguous: bool = False


def parse_answer(llm_text: str, space=None) -> ParsedAnswer:
    """Total answer extractor for model output.

    The innermost, last ``<answer>...</answer>`` span wins. Without a
    complete pair, text after the last opening tag is used when one exists,
    else the last non-empty line, split at line feeds alone; both fallbacks
    are flagged. Candidates, when given, match exactly (normalized) or by
    unique substring; an ambiguous match keeps the raw extraction and is
    flagged ambiguous.
    """
    text = llm_text or ""
    flagged = False
    spans = _ANSWER_SPAN.findall(text)
    if spans:
        extracted = spans[-1].strip()
    elif "<answer>" in text.casefold():
        tail = re.split(r"<answer>", text, flags=re.IGNORECASE)[-1]
        extracted = re.sub(r"</answer>.*", "", tail, flags=re.IGNORECASE | re.DOTALL).strip()
        flagged = True
    else:
        lines = [line.strip() for line in text.split("\n") if line.strip()]
        extracted = lines[-1] if lines else ""
        flagged = True

    if space:
        matched, ambiguous = match_candidates(extracted, space)
        if matched is not None:
            return ParsedAnswer(value=matched, flagged=flagged)
        return ParsedAnswer(value=extracted.casefold().strip(), flagged=True, ambiguous=ambiguous)
    return ParsedAnswer(value=extracted.casefold().strip(), flagged=flagged)


# ---------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class QuestionRow:
    seed: int
    story_index: int
    question: str
    order: int
    predicted: str
    gold: str | None
    correct: bool | None
    empty_view: bool
    flagged: bool


@dataclass
class EvalReport:
    rows: list[QuestionRow]
    seed_accuracies: dict[int, float]
    per_order: dict[int, float]
    graph_counts: dict
    skipped: int

    @property
    def accuracy_mean(self) -> float:
        values = list(self.seed_accuracies.values())
        return statistics.fmean(values) if values else 0.0

    @property
    def accuracy_variance(self) -> float | None:
        values = list(self.seed_accuracies.values())
        return statistics.pvariance(values) if len(values) >= 2 else None

    def to_json(self) -> str:
        payload = {
            "accuracy_mean": self.accuracy_mean,
            "accuracy_variance": self.accuracy_variance,
            "seed_accuracies": {str(k): v for k, v in sorted(self.seed_accuracies.items())},
            "per_order": {str(k): v for k, v in sorted(self.per_order.items())},
            "graph_counts": self.graph_counts,
            "skipped": self.skipped,
            "questions": [asdict(r) for r in self.rows],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def table(self) -> str:
        lines = [
            f"questions: {len(self.rows)}  skipped (no gold): {self.skipped}",
            f"accuracy: mean={self.accuracy_mean:.4f}"
            + (
                f" variance={self.accuracy_variance:.6f}"
                if self.accuracy_variance is not None
                else ""
            ),
            "per-order accuracy:",
        ]
        for order, acc in sorted(self.per_order.items()):
            lines.append(f"  order {order}: {acc:.4f}")
        gc = self.graph_counts
        lines.append(
            f"graphs built (m={gc['m']}, k={gc['k']}): "
            f"{gc['scene_graphs']} scene graphs vs {gc['chain_graphs']} per-chain belief graphs"
        )
        return "\n".join(lines)


def answers_match(predicted: str, gold: str) -> bool:
    return normalize_answer(predicted) == normalize_answer(gold)


def evaluate(
    items: list[tuple[Story, list[ToMQuestion]]],
    cfg: PipelineConfig | None = None,
    seeds: list[int] | None = None,
    subset_size: int | None = None,
) -> EvalReport:
    """Run the pipeline over seeded story subsets and report accuracy.

    Each seed samples its own subset (the whole set when subset_size is
    None); a repeated seed or a subset_size below 1 raises
    :class:`ValidationError`. The mean and variance are taken over the
    per-seed accuracies.
    A story is prepared and answered once per run, the first time a subset
    holds it; every seed that samples it again reuses those outcomes.
    Questions without gold answers are skipped and counted; a story with
    none that has gold is not prepared. The report's graph counts take m
    and k over the prepared stories and the questions answered (m = 1 and
    k = 0 when there are none).
    """
    import random

    if subset_size is not None and subset_size < 1:
        raise ValidationError(f"subset_size must be at least 1, not {subset_size}")
    cfg = cfg or PipelineConfig()
    seeds = list(seeds) if seeds else [0]
    repeated = next((seed for i, seed in enumerate(seeds) if seed in seeds[:i]), None)
    if repeated is not None:
        raise ValidationError(f"seed {repeated} is given more than once")

    rows: list[QuestionRow] = []
    skipped = 0
    seed_accuracies: dict[int, float] = {}
    max_m = 1
    max_k = 0
    answered: dict[int, list[QuestionOutcome | None]] = {}

    for seed in seeds:
        indexed = list(enumerate(items))
        if subset_size is not None and subset_size < len(indexed):
            indexed = random.Random(seed).sample(indexed, subset_size)

        seed_rows = []
        for story_index, (story, questions) in indexed:
            if story_index not in answered:  # None stands for a question without gold
                orders = [q.order for q in questions if q.gold is not None]
                artifacts = None
                if orders:
                    artifacts = prepare_story(story, questions, cfg)
                    max_m = max(max_m, len(story.characters))
                    max_k = max(max_k, *orders)
                answered[story_index] = [
                    None if q.gold is None else answer_question(artifacts, q, cfg) for q in questions
                ]
            for q, outcome in zip(questions, answered[story_index]):
                if outcome is None:
                    skipped += 1
                    continue
                seed_rows.append(
                    QuestionRow(
                        seed=seed,
                        story_index=story_index,
                        question=q.raw,
                        order=q.order,
                        predicted=outcome.predicted,
                        gold=q.gold,
                        correct=answers_match(outcome.predicted, q.gold),
                        empty_view=outcome.empty_view,
                        flagged=outcome.flagged,
                    )
                )
        rows.extend(seed_rows)
        seed_accuracies[seed] = (
            sum(r.correct for r in seed_rows) / len(seed_rows) if seed_rows else 0.0
        )

    per_order: dict[int, float] = {}
    for order in sorted({r.order for r in rows}):
        scored = [r for r in rows if r.order == order]
        per_order[order] = sum(r.correct for r in scored) / len(scored) if scored else 0.0

    return EvalReport(
        rows=rows,
        seed_accuracies=seed_accuracies,
        per_order=per_order,
        graph_counts=asdict(graph_build_counts(max_m, min(max_k, max_m))),
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# Complexity report


def complexity_report(m_range, k_range) -> list[GraphBuildCounts]:
    """Graph-count rows for every (m, k) pair with k <= m."""
    rows = [graph_build_counts(m, k) for m in m_range for k in k_range if k <= m]
    if not rows:
        raise ValidationError("empty complexity report: no (m, k) pair with k <= m")
    return rows


def complexity_table(rows: list[GraphBuildCounts]) -> str:
    lines = ["  m  k  scene-graphs  per-chain-graphs"]
    for row in rows:
        lines.append(f"{row.m:>3} {row.k:>2} {row.scene_graphs:>13} {row.chain_graphs:>17}")
    return "\n".join(lines)


def complexity_csv(rows: list[GraphBuildCounts]) -> str:
    lines = ["m,k,scene_graphs,chain_graphs"]
    for row in rows:
        lines.append(f"{row.m},{row.k},{row.scene_graphs},{row.chain_graphs}")
    return "\n".join(lines) + "\n"
