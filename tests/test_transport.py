"""The default HTTP transport and the chat client fail with `BackendError`.

Each failure comes from a fake ``urllib.request.urlopen`` or a fake
transport; no request leaves the process.
"""

from __future__ import annotations

import http.client
import json
import urllib.error

import pytest

import mindmask.remote as remote
from mindmask.cli import main
from mindmask.errors import BackendError
from mindmask.remote import ChatClient

URL = "http://llm.test/v1"


class Response:
    """A response whose ``read`` returns ``body`` or raises it."""

    def __init__(self, body):
        self.body = body

    def read(self, *args):
        if isinstance(self.body, BaseException):
            raise self.body
        return self.body

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def serve(monkeypatch, body):
    """Make `urlopen` answer with a `Response` of ``body``."""
    monkeypatch.setattr(remote.urllib.request, "urlopen", lambda request, timeout: Response(body))


def refuse(monkeypatch, error):
    """Make `urlopen` raise ``error``."""

    def urlopen(request, timeout):
        raise error

    monkeypatch.setattr(remote.urllib.request, "urlopen", urlopen)


def http_error(body) -> urllib.error.HTTPError:
    return urllib.error.HTTPError(URL, 500, "Internal Server Error", {}, Response(body))


def test_a_json_body_reads_as_the_reply(monkeypatch):
    serve(monkeypatch, b'{"choices": [{"message": {"content": "ok"}}]}')
    assert ChatClient(base_url=URL, model="m").complete("hi") == "ok"


@pytest.mark.parametrize(
    "body",
    [
        b"\xff\xfe{}",
        b"not json",
        http.client.IncompleteRead(b"{", 10),
        ConnectionResetError(104, "Connection reset by peer"),
        TimeoutError("timed out"),
    ],
    ids=["not-utf8", "not-json", "incomplete-read", "reset-on-read", "timeout-on-read"],
)
def test_a_body_that_does_not_read_is_a_backend_error(monkeypatch, body):
    serve(monkeypatch, body)
    with pytest.raises(BackendError, match="chat endpoint failed") as info:
        ChatClient(base_url=URL, model="m").complete("hi")
    if isinstance(body, Exception):
        assert info.value.__cause__ is body
    else:
        assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize(
    "error",
    [
        # `urlopen` does not wrap what `getresponse()` raises in a `URLError`.
        http.client.RemoteDisconnected("Remote end closed connection without response"),
        ConnectionResetError(104, "Connection reset by peer"),
        urllib.error.URLError(ConnectionRefusedError(111, "Connection refused")),
        TimeoutError("timed out"),
    ],
    ids=["remote-disconnected", "reset", "refused", "timeout"],
)
def test_a_request_that_fails_is_a_backend_error(monkeypatch, error):
    refuse(monkeypatch, error)
    with pytest.raises(BackendError, match="chat endpoint failed") as info:
        ChatClient(base_url=URL, model="m").complete("hi")
    assert info.value.__cause__ is error


@pytest.mark.parametrize(
    "body, raw",
    [
        (b'{"error": "overloaded"}', '{"error": "overloaded"}'),
        (b"\xffoops", "\ufffdoops"),
        (ConnectionResetError(104, "Connection reset by peer"), "ConnectionResetError"),
        (http.client.IncompleteRead(b"{", 10), "IncompleteRead"),
    ],
    ids=["body", "not-utf8-body", "reset-on-body", "incomplete-body"],
)
def test_an_http_error_is_a_backend_error_whatever_its_body(monkeypatch, body, raw):
    error = http_error(body)
    refuse(monkeypatch, error)
    with pytest.raises(BackendError, match="HTTP 500") as info:
        ChatClient(base_url=URL, model="m").complete("hi")
    assert info.value.__cause__ is error
    assert raw in info.value.raw_response


def test_eval_reports_a_transport_failure_without_a_traceback(monkeypatch, tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    assert main(["generate", "--count", "2", "-o", str(dataset)]) == 0
    serve(monkeypatch, http.client.IncompleteRead(b"{", 10))
    cache = tmp_path / "rc"
    capsys.readouterr()
    argv = ["eval", "--dataset", str(dataset), "--nkb", "remote", "--model", "m",
            "--base-url", URL, "--cache-dir", str(cache)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("mindmask: chat endpoint failed: IncompleteRead")
    # A failed reply is never cached.
    log = cache / remote.LOG_NAME
    assert not log.exists() or log.read_bytes() == b""


# -- reply content ---------------------------------------------------------------


def reply(content):
    def transport(url, headers, payload, timeout):
        return {"choices": [{"message": {"content": content}}]}

    return ChatClient(base_url=URL, model="m", transport=transport)


@pytest.mark.parametrize("content", [["a", "b"], [{"type": "text", "text": "- 1: x"}], 3, 0, False, {}])
def test_content_that_is_not_text_is_a_malformed_response(content):
    with pytest.raises(BackendError, match="malformed chat response") as info:
        reply(content).complete("hi")
    assert json.dumps(content) in info.value.raw_response


@pytest.mark.parametrize("content, text", [(None, ""), ("", ""), ("- kitchen", "- kitchen")])
def test_text_content_and_none_read_as_text(content, text):
    assert reply(content).complete("hi") == text


def test_content_that_json_cannot_write_is_reported_by_its_repr():
    with pytest.raises(BackendError, match="malformed chat response") as info:
        reply(b"- kitchen").complete("hi")
    assert "b'- kitchen'" in info.value.raw_response
