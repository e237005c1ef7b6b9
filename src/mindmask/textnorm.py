"""Normalization helpers for place phrases and answer strings."""

from __future__ import annotations

import functools
import re

ARTICLES = {"the", "a", "an"}
LEADING_PREPOSITIONS = {"in", "at", "on", "inside", "into", "within", "near"}

# State values carrying any of these deny co-location and resolve to the null
# node ("outside the crawlspace", "absent", "left the room", "not in ..."): the
# phrase "not in", or one of four words standing alone as a run of letters.
_NEGATED_RE = re.compile(r"\bnot\s+in\b|(?<![a-z])(?:outside|absent|left|away)(?![a-z])")
_PUNCT_RE = re.compile(r"[^\w\s]")


@functools.lru_cache(maxsize=4096)
def normalize_place(raw: str) -> str:
    """Lowercase a place phrase and drop punctuation, hyphens, articles, and
    leading prepositions: ``"in the Waiting-Room."`` -> ``"waiting room"``.
    Memoized, boundedly: a story names a handful of places many times."""
    s = raw.casefold().replace("-", " ")
    s = _PUNCT_RE.sub(" ", s)
    tokens = s.split()
    while tokens and tokens[0] in LEADING_PREPOSITIONS:
        tokens.pop(0)
    tokens = [t for t in tokens if t not in ARTICLES]
    return " ".join(tokens)


def is_negated_place(raw: str) -> bool:
    return _NEGATED_RE.search(raw.casefold()) is not None


@functools.lru_cache(maxsize=4096)
def normalize_answer(raw: str) -> str:
    """Answer-matching normal form: lowercase, no punctuation, no articles.
    Memoized, boundedly: a corpus answers with a few hundred places."""
    s = raw.casefold().replace("-", " ")
    s = _PUNCT_RE.sub(" ", s)
    tokens = [t for t in s.split() if t not in ARTICLES]
    return " ".join(tokens)
