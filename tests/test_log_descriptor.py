"""The record cache reads its entries through one descriptor it holds.

Indexing the log opens it for reading once; every lookup after that is one
``pread`` on that descriptor. A log that another writer cut or replaced is
indexed afresh, through a new descriptor, when the next store sees it, and a
dropped cache closes the descriptor it held.
"""

from __future__ import annotations

import gc
import os

import pytest

import mindmask.remote as remote
from mindmask.pipeline import PipelineConfig, answer_question, prepare_story
from mindmask.remote import LOG_NAME, ChatClient, RecordCache, RemoteBackend
from test_record_log import OTHER, ROWS, TARGETS, Transport, corpus


def reads_of(monkeypatch, path) -> list[int]:
    """The descriptors ``mindmask.remote`` opens on ``path`` for reading
    alone, appended as they are opened."""
    opened = []
    real = remote.os.open

    def counted(file, flags, *args, **kwargs):
        fd = real(file, flags, *args, **kwargs)
        if os.fspath(file) == os.fspath(path) and not flags & (os.O_WRONLY | os.O_RDWR):
            opened.append(fd)
        return fd

    monkeypatch.setattr(remote.os, "open", counted)
    return opened


def is_open_on(fd: int, path) -> bool:
    try:
        return os.path.samestat(os.fstat(fd), os.stat(path))
    except OSError:
        return False


def answers(items, backend):
    cfg = PipelineConfig(nkb_backend=backend)
    result = []
    for story, questions in items:
        artifacts = prepare_story(story, questions, cfg)
        result.append([answer_question(artifacts, q, cfg).predicted for q in questions])
    return result


def test_a_warm_pass_opens_the_log_for_reading_once_per_cache(tmp_path, monkeypatch):
    items = corpus(4)
    transport = Transport(items)
    client = ChatClient(base_url="http://llm.test/v1", model="test-model", transport=transport)
    cold = answers(items, RemoteBackend(client, cache=RecordCache(tmp_path)))
    asked = len(transport.requests)
    assert asked == 3 * len(items)

    opened = reads_of(monkeypatch, tmp_path / LOG_NAME)
    for passes in (1, 2):
        assert answers(items, RemoteBackend(client, cache=RecordCache(tmp_path))) == cold
        assert len(opened) == passes
    assert len(transport.requests) == asked


@pytest.mark.parametrize("rewrite", ["cut in place", "replaced, shorter", "replaced, longer"])
def test_a_log_another_writer_rewrote_is_read_afresh_after_a_store(
    cupboard_story, tmp_path, monkeypatch, rewrite
):
    cache = RecordCache(tmp_path / "log")
    cache.store(cupboard_story, TARGETS, "remote:a", ROWS)
    cache.store(cupboard_story, TARGETS, "remote:b", ROWS)
    assert cache.load(cupboard_story, TARGETS, "remote:b") == ROWS

    other = RecordCache(tmp_path / "other")
    other.store(cupboard_story, TARGETS, "remote:a", OTHER)
    if rewrite == "replaced, longer":
        for name in ("remote:d", "remote:e"):
            other.store(cupboard_story, TARGETS, name, OTHER)
    opened = reads_of(monkeypatch, cache.path)
    if rewrite == "cut in place":
        with open(cache.path, "r+b") as handle:
            handle.truncate(0)
            handle.write(other.path.read_bytes())
    else:
        os.replace(other.path, cache.path)

    cache.store(cupboard_story, TARGETS, "remote:c", ROWS)
    assert len(opened) == 1
    assert cache.load(cupboard_story, TARGETS, "remote:a") == OTHER
    assert cache.load(cupboard_story, TARGETS, "remote:b") is None
    assert cache.load(cupboard_story, TARGETS, "remote:c") == ROWS
    if rewrite == "replaced, longer":
        assert cache.load(cupboard_story, TARGETS, "remote:e") == OTHER
    assert len(opened) == 1
    assert RecordCache(tmp_path / "log").load(cupboard_story, TARGETS, "remote:c") == ROWS


def test_a_log_replaced_by_a_copy_of_itself_is_read_afresh_after_a_store(cupboard_story, tmp_path):
    cache = RecordCache(tmp_path)
    cache.store(cupboard_story, TARGETS, "remote:a", ROWS)
    assert cache.load(cupboard_story, TARGETS, "remote:a") == ROWS
    copy = tmp_path / "copy"
    copy.write_bytes(cache.path.read_bytes())
    os.replace(copy, cache.path)

    cache.store(cupboard_story, TARGETS, "remote:b", OTHER)
    assert cache.load(cupboard_story, TARGETS, "remote:a") == ROWS
    assert cache.load(cupboard_story, TARGETS, "remote:b") == OTHER


def test_a_dropped_cache_closes_its_descriptor(cupboard_story, tmp_path, monkeypatch):
    RecordCache(tmp_path).store(cupboard_story, TARGETS, "remote:a", ROWS)
    opened = reads_of(monkeypatch, tmp_path / LOG_NAME)
    reader = RecordCache(tmp_path)
    assert reader.load(cupboard_story, TARGETS, "remote:a") == ROWS
    [fd] = opened
    assert is_open_on(fd, reader.path)
    del reader
    gc.collect()
    assert not is_open_on(fd, tmp_path / LOG_NAME)
