"""Reading a chat model's reply lines, against the lazy-tail patterns they
replaced, and hashing each prompt template once.

`remote._RECORD_LINE` and `remote._BULLET_LINE` end in a greedy tail; the
code then trims what the lazy tail ``(.+?)\\s*\\.?\\s*$`` and ``(.+?)\\s*$``
left out: trailing whitespace, and for a state one trailing period after
something else. `reference_record` and `reference_bullet` keep the lazy
patterns, and every drawn line must read the same under both.
"""

from __future__ import annotations

import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mindmask.remote as remote
from test_record_log import NAME, Transport, corpus
from mindmask.errors import ExtractionError
from mindmask.pipeline import PipelineConfig, prepare_story
from mindmask.remote import ChatClient, RecordCache, RemoteBackend, load_prompt

PROFILE = settings(max_examples=300, deadline=None, derandomize=True)

TEMPLATES = ("key_entities", "extract_locations", "generate_states")


# -- the lazy patterns the greedy ones replace ----------------------------------

LAZY_RECORD_LINE = re.compile(
    r"^\s*-?\s*\[?\s*(?:event\s*)?(\d+)\s*\]?\s*:\s*(.+?)\s+of\s+(.+?)\s+becomes\s+(.+?)\s*\.?\s*$",
    re.IGNORECASE,
)
LAZY_BULLET_LINE = re.compile(r"^\s*-\s*(.+?)\s*$")


def reference_record(line: str):
    """(index, attribute, entity, state) as the lazy pattern read ``line``."""
    m = LAZY_RECORD_LINE.match(line)
    if not line.strip() or not m:
        return None
    index, attribute, entity, state = m.groups()
    return int(index), attribute.strip(), entity.strip(), state.strip()


def reference_bullet(line: str):
    m = LAZY_BULLET_LINE.match(line)
    return m.group(1) if m else None


def record(line: str):
    """(index, attribute, entity, state) as `RemoteBackend` reads ``line``."""
    backend = RemoteBackend(ChatClient(base_url="http://llm.test/v1", model="test-model"))
    try:
        ((index, entity, attribute, state),) = backend._parse_records(line)
    except ExtractionError:
        return None
    return index, attribute, entity, state


def bullet(line: str):
    items = remote._bullets(line)
    return items[0] if items else None


# -- drawn lines ------------------------------------------------------------------

# Whitespace that `str.splitlines` does not split on: a reply line holds it.
SPACE = st.sampled_from([" ", "\t", "\xa0", "\u2003", "\u3000", "\u202f", "\x1f"])
SPACES = st.lists(SPACE, max_size=3).map("".join)
SPACES1 = st.lists(SPACE, min_size=1, max_size=3).map("".join)
OF = st.sampled_from(["of", "OF", "Of", "oF"])
BECOMES = st.sampled_from(["becomes", "BECOMES", "Becomes", "becomeſ", "BECOMEſ"])
WORDS = st.lists(
    st.sampled_from(["a", "x", "T-shirt", ".", "..", "of", "becomes", "in the", "é", " ", "\xa0", "\t"]),
    max_size=5,
).map("".join)
ENDINGS = st.sampled_from(["", ".", " .", "..", ". .", " ", "  ", ".\t", "\xa0.\xa0"])


@st.composite
def state_lines(draw):
    parts = [
        draw(SPACES),
        draw(st.sampled_from(["", "-", "- "])),
        draw(SPACES),
        draw(st.sampled_from(["", "[", "[event", "[Event ", "EVENT ", "event"])),
        draw(SPACES),
        str(draw(st.integers(0, 120))),
        draw(SPACES),
        draw(st.sampled_from(["", "]"])),
        draw(SPACES),
        draw(st.sampled_from([":", ": ", ""])),
        draw(SPACES),
        draw(WORDS),
        draw(SPACES1), draw(OF), draw(SPACES1),
        draw(WORDS),
        draw(SPACES1), draw(BECOMES), draw(SPACES1),
        draw(WORDS),
        draw(ENDINGS),
    ]
    return "".join(parts)


@st.composite
def bullet_lines(draw):
    return draw(SPACES) + draw(st.sampled_from(["-", "", "*"])) + draw(SPACES) + draw(WORDS) + draw(ENDINGS)


@PROFILE
@given(state_lines())
def test_a_state_line_reads_as_the_lazy_tail_read_it(line):
    assert record(line) == reference_record(line)


@PROFILE
@given(st.one_of(state_lines(), bullet_lines()).flatmap(
    lambda line: st.sampled_from([line, line.replace("-", "", 1), line[: len(line) // 2]])
))
def test_any_line_reads_as_the_lazy_tail_read_it(line):
    assert record(line) == reference_record(line)
    assert bullet(line) == reference_bullet(line)


@PROFILE
@given(bullet_lines())
def test_a_bullet_line_reads_as_the_lazy_tail_read_it(line):
    assert bullet(line) == reference_bullet(line)


@pytest.mark.parametrize(
    "line, state",
    [
        ("- 4: location of T-shirt becomes  ", ""),
        ("- 4: location of T-shirt becomes .", "."),
        ("- 4: location of T-shirt becomes x. .", "x."),
        ("- 4: location of T-shirt becomes x..", "x."),
        ("- 4: location of T-shirt becomes in the cupboard .\xa0", "in the cupboard"),
        ("[event 4] : location OF T-shirt BECOMEſ in basket", "in basket"),
    ],
)
def test_hand_written_state_lines(line, state):
    assert record(line) == reference_record(line)
    assert record(line)[3] == state


@pytest.mark.parametrize(
    "line, item",
    [("- ", " "), ("-  \t", "\t"), ("- kitchen. ", "kitchen."), ("  -\xa0hall\u3000", "hall"), ("hall", None)],
)
def test_hand_written_bullet_lines(line, item):
    assert bullet(line) == reference_bullet(line) == item


# -- one hash per template text and backend name ----------------------------------


@pytest.fixture
def hashed(monkeypatch):
    """Every text `remote._digest` hashes, from a cleared per-process memo."""
    texts: Counter[str] = Counter()
    digest = remote._digest
    monkeypatch.setattr(remote, "_digest", lambda text: texts.update([text]) or digest(text))
    remote._fixed_digest.cache_clear()
    yield texts
    remote._fixed_digest.cache_clear()


def test_each_template_text_and_the_backend_name_are_hashed_once(hashed, tmp_path):
    items = corpus(4)
    transport = Transport(items)
    client = ChatClient(base_url="http://llm.test/v1", model="test-model", transport=transport)
    for _ in ("cold", "warm"):
        cfg = PipelineConfig(nkb_backend=RemoteBackend(client, cache=RecordCache(tmp_path)))
        for story, questions in items:
            prepare_story(story, questions, cfg)
    assert sorted(transport.requests) == sorted(list(TEMPLATES) * len(items))
    assert all(hashed[load_prompt(name)] == 1 for name in TEMPLATES)
    assert hashed[NAME] == 1


def test_an_edited_template_changes_the_key(hashed, cupboard_story, tmp_path, monkeypatch):
    cache = RecordCache(tmp_path)
    keys = {name: cache.key(name, cupboard_story, "", NAME) for name in TEMPLATES}
    assert all(hashed[load_prompt(name)] == 1 for name in TEMPLATES)
    shipped = remote.load_prompt
    monkeypatch.setattr(remote, "load_prompt", lambda name: shipped(name) + "\nAnswer tersely.")
    for name in TEMPLATES:
        edited = cache.key(name, cupboard_story, "", NAME)
        assert edited != keys[name]
        assert edited == cache.key(name, cupboard_story, "", NAME)
        assert hashed[shipped(name) + "\nAnswer tersely."] == 1
    assert hashed[NAME] == 1
