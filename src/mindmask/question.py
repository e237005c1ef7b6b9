"""Question parsing: belief chains and order reduction.

The rule parser covers the location-question templates of the supported
datasets and of the synthetic generator:

    Where does A think [B thinks ...] the X is?
    Where does A think [that] B search(es) for the X?
    Where will A search/look for the X?
    Where is the X really? / Where is the X in the beginning? / Where is the X?

Anything else raises :class:`QuestionParseError` listing these templates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .errors import QuestionParseError, ValidationError
from .story import NAME, Story

SUPPORTED_TEMPLATES = (
    "Where does A think [B thinks ...] the X is?",
    "Where does A think [that] B search(es) for the X?",
    "Where will A search for the X? / Where will A look for the X?",
    "Where is the X really?",
    "Where is the X in the beginning?",
    "Where is the X?",
)

_THINK_STEP = re.compile(rf"^(?:does )?({NAME}) (?:really )?thinks? (?:that )?")
_THINK_TERMINAL = re.compile(r"^(?:the )?(.+?) is\s*\?$")
_SEARCH_TERMINAL = re.compile(rf"^({NAME}) (?:will )?(?:search(?:es)?|looks?) for (?:the )?(.+?)\s*\?$")
_WILL_SEARCH = re.compile(rf"^will ({NAME}) (?:search(?:es)?|looks?) for (?:the )?(.+?)\s*\?$")
_FACT_INITIAL = re.compile(r"^is (?:the )?(.+?) in the begin?ning\s*\?$")
_FACT_REALLY = re.compile(r"^is (?:the )?(.+?) really\s*\?$")
_FACT_PLAIN = re.compile(r"^is (?:the )?(.+?)\s*\?$")
# A belief verb left in a target phrase: a chain step the parser did not read.
_BELIEF_VERB = re.compile(r"\bthinks?\b", re.IGNORECASE)


@dataclass(frozen=True)
class BeliefChain:
    """Ordered believers of a nested-belief question, outermost first."""

    characters: tuple[str, ...]

    def __post_init__(self):
        if not self.characters:
            raise ValidationError("a belief chain needs at least one character")
        for a, b in zip(self.characters, self.characters[1:]):
            if a.casefold() == b.casefold():
                raise ValidationError(f"adjacent duplicate {a!r} in belief chain")

    @property
    def order(self) -> int:
        return len(self.characters)

    @property
    def innermost(self) -> str:
        return self.characters[-1]


@dataclass(frozen=True)
class ToMQuestion:
    """A parsed question: whose belief (the chain, None for a factual
    question) about where `target_entity` is; every template asks a
    location."""

    raw: str
    chain: BeliefChain | None
    target_entity: str
    asks_initial: bool = False
    gold: str | None = None

    @property
    def order(self) -> int:
        return 0 if self.chain is None else self.chain.order

    @property
    def chain_names(self) -> tuple[str, ...]:
        return () if self.chain is None else self.chain.characters


def render_question(chain: tuple[str, ...], entity: str) -> str:
    """Render the canonical template for a chain (empty chain = factual)."""
    if not chain:
        return f"Where is the {entity} really?"
    head, rest = chain[0], chain[1:]
    middle = "".join(f"{name} thinks " for name in rest)
    return f"Where does {head} think {middle}the {entity} is?"


def _canonical_chain(names: list[str], story: Story) -> BeliefChain:
    resolved = []
    for name in names:
        stored = story.characters_by_key.get(name.casefold())
        if stored is None:
            raise QuestionParseError(
                f"question names {name!r}, which is not a character of the story"
            )
        resolved.append(stored)
    return BeliefChain(tuple(resolved))


def parse_question(text: str, story: Story, gold: str | None = None) -> ToMQuestion:
    """Parse a question against a story, raising QuestionParseError with the
    supported template list when nothing matches, and naming the text when
    the target phrase still holds a belief verb (``think``, ``thinks``)."""
    raw = text.strip()
    if not raw.lower().startswith("where "):
        raise _parse_error(raw)
    rest = raw[len("where ") :]

    m = _WILL_SEARCH.match(rest)
    if m:
        return _question(raw, [m.group(1)], m.group(2), story, gold)

    if rest.startswith("does "):
        names: list[str] = []
        remaining = rest
        while True:
            m = _THINK_STEP.match(remaining)
            if not m:
                break
            names.append(m.group(1))
            remaining = remaining[m.end() :]
        if names:
            m = _THINK_TERMINAL.match(remaining)
            if m:
                return _question(raw, names, m.group(1), story, gold)
            m = _SEARCH_TERMINAL.match(remaining)
            if m:
                return _question(raw, [*names, m.group(1)], m.group(2), story, gold)
        raise _parse_error(raw)

    if rest.startswith("is "):
        m = _FACT_INITIAL.match(rest)
        if m:
            return _question(raw, [], m.group(1), story, gold, asks_initial=True)
        m = _FACT_REALLY.match(rest) or _FACT_PLAIN.match(rest)
        if m:
            return _question(raw, [], m.group(1), story, gold)

    raise _parse_error(raw)


def _question(raw, names, target, story, gold, asks_initial=False) -> ToMQuestion:
    """The question of the chain ``names`` (none for a factual question)
    about ``target``, which must hold no belief verb."""
    chain = _canonical_chain(names, story) if names else None
    if _BELIEF_VERB.search(target):
        raise QuestionParseError(f"question {raw!r} has a belief verb left in its target {target!r}")
    return ToMQuestion(raw=raw, chain=chain, target_entity=target, asks_initial=asks_initial, gold=gold)


def _parse_error(raw: str) -> QuestionParseError:
    templates = "\n  ".join(SUPPORTED_TEMPLATES)
    return QuestionParseError(f"unsupported question {raw!r}; supported templates:\n  {templates}")


def reduce_order(q: ToMQuestion) -> ToMQuestion:
    """Rewrite a high-order question as the first-order question about the
    innermost believer; valid only after chain masking has been applied."""
    if q.chain is None:
        raise ValidationError("cannot reduce a factual (order-0) question")
    if q.order == 1:
        return q
    innermost = q.chain.innermost
    return replace(
        q,
        raw=render_question((innermost,), q.target_entity),
        chain=BeliefChain((innermost,)),
    )

