from __future__ import annotations

import json
import logging
from dataclasses import replace

import pytest

from mindmask.errors import (
    BackendError,
    CacheFormatError,
    ExtractionError,
    MindmaskError,
    ProtocolError,
)
from mindmask.nkb import (
    EntityAttribute,
    extract_locations,
    generate_states,
    identify_key_entities,
)
from mindmask.pipeline import PipelineConfig, evaluate
from mindmask.question import parse_question
from mindmask.remote import (
    LOG_NAME,
    ChatClient,
    RecordCache,
    RemoteAnswerer,
    RemoteBackend,
    fill_prompt,
    indexed_narrative,
    load_prompt,
)
from mindmask.scene import MaskedView
from mindmask.story import Story
from mindmask.worldgen import GrammarConfig, generate_story


class FakeTransport:
    """Canned chat endpoint; records every request it serves."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = []

    def __call__(self, url, headers, payload, timeout):
        self.requests.append({"url": url, "headers": headers, "payload": payload})
        if not self.replies:
            raise AssertionError("unexpected extra chat call")
        return {"choices": [{"message": {"content": self.replies.pop(0)}}]}


def make_client(replies, **kwargs):
    transport = FakeTransport(replies)
    client = ChatClient(
        base_url="http://llm.test/v1", model="test-model", transport=transport, **kwargs
    )
    return client, transport


def test_client_payload_shape(monkeypatch):
    monkeypatch.setenv("MINDMASK_API_KEY", "sekrit")
    client, transport = make_client(["hello"])
    assert client.complete("hi") == "hello"
    request = transport.requests[0]
    assert request["url"] == "http://llm.test/v1/chat/completions"
    assert request["headers"]["Authorization"] == "Bearer sekrit"
    assert request["payload"]["temperature"] == 0.0
    assert request["payload"]["model"] == "test-model"
    assert request["payload"]["messages"] == [{"role": "user", "content": "hi"}]


def test_client_without_key_sends_no_auth_header(monkeypatch):
    monkeypatch.delenv("MINDMASK_API_KEY", raising=False)
    client, transport = make_client(["ok"])
    client.complete("x")
    assert "Authorization" not in transport.requests[0]["headers"]


def test_client_malformed_response():
    def broken(url, headers, payload, timeout):
        return {"nope": True}

    client = ChatClient(base_url="http://llm.test", model="m", transport=broken)
    with pytest.raises(BackendError) as err:
        client.complete("x")
    assert err.value.raw_response


def test_remote_key_entities(cupboard_story, cupboard_questions):
    reply = (
        "Reasoning first...\n<entities>\n- location of t-shirt\n- location of Abigail\n"
        "- content of cupboard\n</entities>"
    )
    client, transport = make_client([reply])
    backend = RemoteBackend(client)
    pairs = identify_key_entities(cupboard_story, cupboard_questions, backend)
    keys = {(p.entity.casefold(), p.attribute) for p in pairs}
    # mandated pairs come first even if the model forgot them
    assert ("t-shirt", "location") in keys
    assert ("abigail", "location") in keys
    assert ("benjamin", "location") in keys
    assert len(pairs) <= 5
    prompt = transport.requests[0]["payload"]["messages"][0]["content"]
    assert "1: Benjamin entered the crawlspace." in prompt
    assert "- Where will Abigail search for the t-shirt?" in prompt


def test_state_prompt_names_every_chain_character(melon_story):
    # Six mandated pairs (the melon and five chain characters), one past the
    # cap; the model names none of them. The state prompt must still list
    # every chain character, or their states are never asked for.
    questions = [
        parse_question("Where does Emma think Lily thinks William thinks the melon is?", melon_story),
        parse_question("Where does Isla think the melon is?", melon_story),
        parse_question("Where does Aiden think the melon is?", melon_story),
    ]
    client, transport = make_client(
        ["<entities>\n- content of bathtub\n</entities>", "- 1: location of Emma becomes in the lounge\n"]
    )
    backend = RemoteBackend(client)
    targets = identify_key_entities(melon_story, questions, backend)
    generate_states(melon_story, targets, backend)
    prompt = transport.requests[1]["payload"]["messages"][0]["content"]
    eoi = [line for line in prompt.splitlines() if line.startswith("- location of ")]
    for name in ("melon", "Emma", "Lily", "William", "Isla", "Aiden"):
        assert f"- location of {name}" in eoi
    assert "- content of bathtub" not in prompt


def test_remote_key_entities_empty_is_error(cupboard_story, cupboard_questions):
    client, _ = make_client(["no bullets here"])
    backend = RemoteBackend(client)
    with pytest.raises(ExtractionError):
        backend.key_entities(cupboard_story, cupboard_questions)


def test_remote_locations(cupboard_story):
    client, transport = make_client(["- crawlspace\n- attic"])
    backend = RemoteBackend(client)
    anchors = extract_locations(cupboard_story, backend)
    assert [a.name for a in anchors] == ["crawlspace", "attic"]
    prompt = transport.requests[0]["payload"]["messages"][0]["content"]
    assert "What are the rooms mentioned in these events?" in prompt


def test_remote_locations_empty_is_error(cupboard_story):
    client, _ = make_client(["I see no rooms."])
    backend = RemoteBackend(client)
    with pytest.raises(ExtractionError):
        backend.location_names(cupboard_story)


def test_remote_generate_states_single_prompt(cupboard_story):
    reply = (
        "- 4: location of T-shirt becomes in the cupboard\n"
        "- 7: location of T-shirt becomes in basket\n"
        "- [7]: content of cupboard becomes empty\n"
        "- Event 10: location of Emily becomes outside the crawlspace\n"
    )
    client, transport = make_client([reply])
    backend = RemoteBackend(client)
    targets = [EntityAttribute("t-shirt", "location")]
    records = generate_states(cupboard_story, targets, backend)
    assert [(r.event_index, r.render()) for r in records] == [
        (4, "location of T-shirt becomes in the cupboard"),
        (7, "content of cupboard becomes empty"),
        (7, "location of T-shirt becomes in basket"),
        (10, "location of Emily becomes outside the crawlspace"),
    ]
    # one chat call serves every event of the story
    assert len(transport.requests) == 1
    prompt = transport.requests[0]["payload"]["messages"][0]["content"]
    assert "- location of t-shirt" in prompt


def test_remote_unparseable_bullet_is_skipped(cupboard_story, caplog):
    reply = "- 4: location of T-shirt becomes in the cupboard\n- gibberish bullet\nloose prose"
    client, _ = make_client([reply])
    backend = RemoteBackend(client)
    with caplog.at_level(logging.WARNING):
        records = generate_states(cupboard_story, [EntityAttribute("t-shirt", "location")], backend)
    assert len(records) == 1
    assert backend.skipped_lines == 1
    assert "skipping unparseable" in caplog.text


def test_remote_unknown_event_index_is_protocol_error(cupboard_story):
    client, _ = make_client(["- 99: location of T-shirt becomes in basket"])
    backend = RemoteBackend(client)
    with pytest.raises(ProtocolError):
        generate_states(cupboard_story, [EntityAttribute("t-shirt", "location")], backend)


def test_unknown_event_index_is_never_cached(cupboard_story, tmp_path):
    targets = [EntityAttribute("t-shirt", "location")]
    client, _ = make_client(["- 99: location of ball becomes in basket"])
    backend = RemoteBackend(client, cache=RecordCache(tmp_path))
    with pytest.raises(ProtocolError):
        generate_states(cupboard_story, targets, backend)
    assert list(tmp_path.iterdir()) == []

    # A fresh backend on the same directory asks the model again.
    client2, transport2 = make_client(["- 4: location of T-shirt becomes in the cupboard"])
    backend2 = RemoteBackend(client2, cache=RecordCache(tmp_path))
    records = generate_states(cupboard_story, targets, backend2)
    assert len(transport2.requests) == 1
    assert [r.event_index for r in records] == [4]


def test_record_cache_round_trip(cupboard_story, tmp_path):
    reply = "- 4: location of T-shirt becomes in the cupboard"
    targets = [EntityAttribute("t-shirt", "location")]

    client, transport = make_client([reply])
    backend = RemoteBackend(client, cache=RecordCache(tmp_path))
    first = generate_states(cupboard_story, targets, backend)
    assert len(transport.requests) == 1

    # A fresh backend over the same cache must not hit the network at all.
    client2, transport2 = make_client([])
    backend2 = RemoteBackend(client2, cache=RecordCache(tmp_path))
    second = generate_states(cupboard_story, targets, backend2)
    assert transport2.requests == []
    assert [r.render() for r in first] == [r.render() for r in second]

    # Different targets miss the cache.
    client3, transport3 = make_client([reply])
    backend3 = RemoteBackend(client3, cache=RecordCache(tmp_path))
    generate_states(cupboard_story, [EntityAttribute("basket", "content")], backend3)
    assert len(transport3.requests) == 1


def log_lines(directory) -> list[bytes]:
    """The cache log's lines; the log is the directory's only file."""
    [log] = directory.iterdir()
    assert log.name == LOG_NAME
    return log.read_bytes().splitlines(keepends=True)


def test_cache_log_lines_are_key_tab_json(cupboard_story, tmp_path):
    client, _ = make_client(["- 4: location of T-shirt becomes in the cupboard"])
    backend = RemoteBackend(client, cache=RecordCache(tmp_path))
    generate_states(cupboard_story, [EntityAttribute("t-shirt", "location")], backend)
    [line] = log_lines(tmp_path)
    key, body = line.split(b"\t")
    assert key.startswith(b"generate_states-")
    # A state row is an array in `EntityStateRecord`'s field order.
    assert json.loads(body) == [[4, "T-shirt", "location", "in the cupboard"]]


def test_interrupted_store_leaves_no_entry(cupboard_story, tmp_path, monkeypatch):
    import mindmask.remote as remote

    def failing_write(fd, data):
        raise OSError("disk full")

    targets = [EntityAttribute("t-shirt", "location")]
    monkeypatch.setattr(remote.os, "write", failing_write)
    client, _ = make_client(["- 4: location of T-shirt becomes in the cupboard"])
    backend = RemoteBackend(client, cache=RecordCache(tmp_path))
    with pytest.raises(OSError):
        generate_states(cupboard_story, targets, backend)
    assert log_lines(tmp_path) == []
    assert RecordCache(tmp_path).load(cupboard_story, targets, backend.name) is None


def two_state_entries(story, targets, directory) -> RecordCache:
    """A log whose line 1 holds other targets' rows and line 2 ``targets``' rows."""
    cache = RecordCache(directory)
    other = [{"event_index": 4, "attribute": "content", "entity": "basket", "state": "empty"}]
    cache.store(story, [EntityAttribute("basket", "content")], "remote:test-model", other)
    reply = "- 4: location of T-shirt becomes in the cupboard\n- 5: location of cupboard becomes in the crawlspace"
    client, _ = make_client([reply])
    generate_states(story, targets, RemoteBackend(client, cache=cache))
    return cache


def test_truncated_cache_raises_typed_error(cupboard_story, tmp_path):
    """An entry cut short, or one that decodes but is not a list of records."""
    targets = [EntityAttribute("t-shirt", "location")]
    log = two_state_entries(cupboard_story, targets, tmp_path).path
    first, second = log_lines(tmp_path)
    key, body = second.split(b"\t")
    rows = json.loads(body)
    not_a_record = json.dumps([rows[0], ["5", *rows[1][1:]]]).encode()
    shapes = [body[:-10] + b"\n", b"{}\n", b"[1, 2]\n", not_a_record + b"\n"]
    for bad in shapes:
        log.write_bytes(first + key + b"\t" + bad)
        client2, transport2 = make_client([])
        backend2 = RemoteBackend(client2, cache=RecordCache(tmp_path))
        with pytest.raises(CacheFormatError, match=rf"{LOG_NAME}: line 2 "):
            generate_states(cupboard_story, targets, backend2)
        assert transport2.requests == []
    assert isinstance(CacheFormatError("x"), MindmaskError)


def test_cache_line_holding_two_rows_raises_typed_error(cupboard_story, tmp_path):
    """Two entries' bodies on one line, after a blank line: the entry fails,
    naming the line that holds both."""
    targets = [EntityAttribute("t-shirt", "location")]
    log = two_state_entries(cupboard_story, targets, tmp_path).path
    first, second = log_lines(tmp_path)
    log.write_bytes(first + b"\n" + second.rstrip(b"\n") + b", " + second.split(b"\t")[1])
    client2, transport2 = make_client([])
    with pytest.raises(CacheFormatError, match=rf"{LOG_NAME}: line 3 does not decode"):
        generate_states(cupboard_story, targets, RemoteBackend(client2, cache=RecordCache(tmp_path)))
    assert transport2.requests == []


def test_remote_answerer_prompt(melon_setup):
    story, q, records, anchors, omniscient = melon_setup
    client, transport = make_client(["<answer>blue pantry</answer>"])
    answerer = RemoteAnswerer(client)
    view = MaskedView(surviving=(1, 2), texts=("1: a", "2: b"))
    raw = answerer.answer(view, q, ("blue pantry", "red bucket"))
    assert raw == "<answer>blue pantry</answer>"
    prompt = transport.requests[0]["payload"]["messages"][0]["content"]
    assert "1: a\n2: b" in prompt
    assert q.raw in prompt
    assert "Choose one of: blue pantry, red bucket." in prompt
    assert "<answer>" in prompt


def answering_transport(prompts):
    """A chat endpoint answering each answer prompt with its first
    candidate, in tags; keeps every prompt."""

    def transport(url, headers, payload, timeout):
        prompt = payload["messages"][0]["content"]
        prompts.append(prompt)
        _, _, candidates = prompt.partition("Choose one of: ")
        first = candidates.split(".\n", 1)[0].split(", ", 1)[0]
        return {"choices": [{"message": {"content": f"<answer>{first or 'nowhere'}</answer>"}}]}

    return transport


def test_remote_answerer_caches_each_reply_text(tmp_path):
    # Three stories, four questions each, whose 12 answer prompts differ.
    items = [generate_story(GrammarConfig(seed=seed, num_characters=4, max_order=3)) for seed in (1, 3, 8)]
    prompts = []
    client = ChatClient(base_url="http://llm.test/v1", model="reader", transport=answering_transport(prompts))

    def run():
        return evaluate(items, PipelineConfig(answer_backend=RemoteAnswerer(client, cache=RecordCache(tmp_path))))

    first = run()
    assert len(prompts) == len(set(prompts)) == 12
    prompts.clear()
    assert run().to_json() == first.to_json()
    assert prompts == []
    # The log holds each reply's raw text, one entry a prompt.
    lines = (tmp_path / LOG_NAME).read_bytes().splitlines()
    assert len(lines) == 12 and all(line.startswith(b"answer_question-") for line in lines)
    assert all(json.loads(line.split(b"\t", 1)[1]).startswith("<answer>") for line in lines)


def test_remote_answerer_never_caches_a_reply_that_raised(melon_setup, tmp_path):
    story, q, *_ = melon_setup
    view = MaskedView(surviving=(1,), texts=("1: a",))

    def refusing(url, headers, payload, timeout):
        raise BackendError("chat endpoint failed")

    client = ChatClient(base_url="http://llm.test/v1", model="reader", transport=refusing)
    with pytest.raises(BackendError):
        RemoteAnswerer(client, cache=RecordCache(tmp_path)).answer(view, q, ())
    assert not (tmp_path / LOG_NAME).exists()
    # Another model name misses the entry of the first.
    first, _ = make_client(["<answer>a</answer>"])
    RemoteAnswerer(first, cache=RecordCache(tmp_path)).answer(view, q, ())
    other, transport = make_client(["<answer>b</answer>"])
    other.model = "other-model"
    assert RemoteAnswerer(other, cache=RecordCache(tmp_path)).answer(view, q, ()) == "<answer>b</answer>"
    assert len(transport.requests) == 1


def test_prompt_templates_ship_with_placeholders():
    assert "{{indexed narrative}}" in load_prompt("key_entities")
    assert "{{question list}}" in load_prompt("key_entities")
    assert "{{eoi list}}" in load_prompt("generate_states")
    assert "{{indexed narrative}}" in load_prompt("extract_locations")
    filled = fill_prompt("a {{x}} b", {"x": "Y"})
    assert filled == "a Y b"


def test_slot_markers_in_filled_text_stay_as_written():
    """Every slot is filled in one pass: a marker inside a story line or a
    view is text, never a slot, and a marker no slot names stays."""
    from mindmask.story import parse_story

    assert fill_prompt("{{a}} {{b}} {{c}}", {"a": "{{b}}", "b": "{{a}}"}) == "{{b}} {{a}} {{c}}"
    line = "Ava said {{question}}, {{eoi list}} and {{question list}} loudly."
    story = parse_story(f"Ava entered the hall.\nThe coin is in the red box.\n{line}")
    q = parse_question("Where does Ava think the coin is?", story)
    client, transport = make_client([
        "<entities>\n- location of coin\n</entities>",
        "- 2: location of coin becomes in the red box\n",
        "<answer>red box</answer>",
    ])
    backend = RemoteBackend(client)
    backend.key_entities(story, [q])
    backend.story_states(story, [EntityAttribute("coin", "location")])
    RemoteAnswerer(client).answer(MaskedView(surviving=(3,), texts=(f"3: {line}",)), q, ())
    key_prompt, state_prompt, answer_prompt = (
        r["payload"]["messages"][0]["content"] for r in transport.requests
    )
    for prompt in (key_prompt, state_prompt, answer_prompt):
        assert f"3: {line}\n" in prompt
    assert key_prompt.count(q.raw) == 1
    assert state_prompt.count("- location of coin") == 1
    assert answer_prompt.count(q.raw) == 1


def test_indexed_narrative_marks_speakers():
    from mindmask.story import parse_story

    story = parse_story("Ava: hi there.\nNoah: hello.")
    assert indexed_narrative(story) == "1: Ava: hi there.\n2: Noah: hello."


def test_edited_state_prompt_misses_the_cache(cupboard_story, tmp_path, monkeypatch):
    import mindmask.remote as remote

    reply = "- 4: location of T-shirt becomes in the cupboard"
    targets = [EntityAttribute("t-shirt", "location")]
    client, _ = make_client([reply])
    generate_states(cupboard_story, targets, RemoteBackend(client, cache=RecordCache(tmp_path)))

    shipped = remote.load_prompt

    def edited(name):
        text = shipped(name)
        return text + "\nAnswer tersely." if name == "generate_states" else text

    monkeypatch.setattr(remote, "load_prompt", edited)
    client2, transport2 = make_client([reply])
    generate_states(cupboard_story, targets, RemoteBackend(client2, cache=RecordCache(tmp_path)))
    assert len(transport2.requests) == 1
    assert len({line.split(b"\t")[0] for line in log_lines(tmp_path)}) == 2


def test_state_reply_without_records_is_never_cached(cupboard_story, tmp_path):
    targets = [EntityAttribute("t-shirt", "location")]
    client, _ = make_client(["Sorry, I cannot help with that."])
    backend = RemoteBackend(client, cache=RecordCache(tmp_path))
    with pytest.raises(ExtractionError, match="Sorry, I cannot help with that."):
        generate_states(cupboard_story, targets, backend)
    assert list(tmp_path.iterdir()) == []

    # A rerun on the same directory asks the model again.
    client2, transport2 = make_client(["- 4: location of T-shirt becomes in the cupboard"])
    records = generate_states(cupboard_story, targets, RemoteBackend(client2, cache=RecordCache(tmp_path)))
    assert len(transport2.requests) == 1
    assert [r.event_index for r in records] == [4]


def test_backend_names_that_spell_alike_keep_their_entries_apart(cupboard_story, tmp_path):
    # "remote:a/b" and "remote:a:b" both spell "remote_a_b" with every
    # character but letters, digits, "." and "-" replaced.
    targets = [EntityAttribute("t-shirt", "location")]
    cache = RecordCache(tmp_path)
    slash = [{"event_index": 4, "attribute": "location", "entity": "T-shirt", "state": "in the cupboard"}]
    colon = [{"event_index": 7, "attribute": "location", "entity": "T-shirt", "state": "in basket"}]
    cache.store(cupboard_story, targets, "remote:a/b", slash)
    assert cache.load(cupboard_story, targets, "remote:a:b") is None
    cache.store(cupboard_story, targets, "remote:a:b", colon)
    assert cache.load(cupboard_story, targets, "remote:a/b") == slash
    assert cache.load(cupboard_story, targets, "remote:a:b") == colon
    assert len({line.split(b"\t")[0] for line in log_lines(tmp_path)}) == 2

    # Through the backend: a model named "a:b" never reads the entry of "a/b".
    directory = tmp_path / "backend"
    first, _ = make_client(["- 4: location of T-shirt becomes in the cupboard"])
    first.model = "a/b"
    generate_states(cupboard_story, targets, RemoteBackend(first, cache=RecordCache(directory)))
    second, transport = make_client(["- 7: location of T-shirt becomes in basket"])
    second.model = "a:b"
    records = generate_states(cupboard_story, targets, RemoteBackend(second, cache=RecordCache(directory)))
    assert len(transport.requests) == 1
    assert [r.event_index for r in records] == [7]


def test_evaluate_asks_the_model_once_per_story_for_all_seeds(cupboard_story, melon_story):
    # Seeds choose subsets; with no subset size every seed holds every story,
    # and each story's three prompts are still sent once.
    def transport(url, headers, payload, timeout):
        prompt = payload["messages"][0]["content"]
        requests.append(prompt)
        if "<Questions>" in prompt:
            reply = "<entities>\n- location of t-shirt\n</entities>"
        elif "<Entity-of-Interest>" in prompt:
            reply = "- 1: location of Benjamin becomes in the crawlspace"
        else:
            reply = "- crawlspace\n- porch"
        return {"choices": [{"message": {"content": reply}}]}

    requests: list[str] = []
    client = ChatClient(base_url="http://llm.test/v1", model="test-model", transport=transport)
    items = [
        (cupboard_story, [parse_question("Where is the t-shirt really?", cupboard_story, gold="basket")]),
        (melon_story, [parse_question("Where is the melon really?", melon_story, gold="red bucket")]),
    ]
    report = evaluate(items, PipelineConfig(nkb_backend=RemoteBackend(client)), seeds=[12, 42])
    assert len(requests) == 3 * len(items)
    for story, _ in items:
        assert sum(indexed_narrative(story) in prompt for prompt in requests) == 3
    assert [r.seed for r in report.rows] == [12, 12, 42, 42]
    assert [replace(r, seed=0) for r in report.rows[:2]] == [replace(r, seed=0) for r in report.rows[2:]]


def test_record_cache_hashes_a_story_once_and_keys_each_input(cupboard_story, tmp_path, monkeypatch):
    import mindmask.remote as remote

    keyed = []
    story_key = Story.key
    monkeypatch.setattr(Story, "key", lambda story: keyed.append(story) or story_key(story))
    targets = [EntityAttribute("t-shirt", "location")]
    client, transport = make_client(["- 4: location of T-shirt becomes in the cupboard"])
    cache = RecordCache(tmp_path)
    generate_states(cupboard_story, targets, RemoteBackend(client, cache=cache))
    assert len(transport.requests) == 1
    assert len(keyed) == 1  # the miss and the store share one key

    # The same cache object: other targets, another backend name or an edited
    # state prompt each miss, though the story is the same object.
    rows = cache.load(cupboard_story, targets, "remote:test-model")
    assert rows is not None
    assert cache.load(cupboard_story, [EntityAttribute("basket", "content")], "remote:test-model") is None
    assert cache.load(cupboard_story, targets, "remote:other") is None
    shipped = remote.load_prompt
    monkeypatch.setattr(remote, "load_prompt", lambda name: shipped(name) + "\nAnswer tersely.")
    assert cache.load(cupboard_story, targets, "remote:test-model") is None
    monkeypatch.setattr(remote, "load_prompt", shipped)
    assert cache.load(cupboard_story, list(targets), "remote:test-model") == rows


def test_remote_blank_reply_lines_are_skipped_and_not_counted(cupboard_story):
    reply = (
        "\n- 4: location of T-shirt becomes in the cupboard\n   \n"
        "\n- 7: location of T-shirt becomes in basket\n"
    )
    client, _ = make_client([reply])
    backend = RemoteBackend(client)
    records = generate_states(cupboard_story, [EntityAttribute("t-shirt", "location")], backend)
    assert [r.event_index for r in records] == [4, 7]
    assert backend.skipped_lines == 0


# Characters `str.splitlines` breaks a line at besides the line feed.
LINE_BREAKS_BUT_LF = ["\u2028", "\u2029", "\x85", "\f", "\v", "\x1c"]


@pytest.mark.parametrize("sep", LINE_BREAKS_BUT_LF, ids=ascii)
def test_reply_lines_break_at_line_feeds_alone(cupboard_story, cupboard_questions, sep):
    client, _ = make_client([
        f"- 4: location of T-shirt becomes in the{sep}cupboard\r\n- 7: location of T-shirt becomes in basket\n",
        f"<entities>\r\n- location of T-{sep}shirt\r\n</entities>",
        f"- waiting{sep}room\r\n- porch\n",
    ])
    backend = RemoteBackend(client)
    records = backend.story_states(cupboard_story, [EntityAttribute("t-shirt", "location")])
    assert [(r.event_index, r.state) for r in records] == [(4, f"in the{sep}cupboard"), (7, "in basket")]
    [pair] = backend.key_entities(cupboard_story, cupboard_questions)
    assert (pair.entity, pair.attribute) == (f"T-{sep}shirt", "location")
    assert backend.location_names(cupboard_story) == [f"waiting{sep}room", "porch"]


# A state entry's body as logs held it before state rows were arrays: dict
# rows, keys in the order the reply's fields were read.
DICT_ROWS_REPLY = "- 4: Location of T-shirt becomes in the cupboard.\n- 7: location of T-Shirt becomes in basket\n"
DICT_ROWS_BODY = (
    b'[{"event_index": 4, "attribute": "Location", "entity": "T-shirt", "state": "in the cupboard"}, '
    b'{"event_index": 7, "attribute": "location", "entity": "T-Shirt", "state": "in basket"}]\n'
)


def test_a_log_of_dict_rows_is_served_without_a_request(cupboard_story, cupboard_questions, tmp_path):
    targets = [EntityAttribute("t-shirt", "location")]
    client, _ = make_client(["<entities>\n- location of T-shirt\n</entities>", "- crawlspace\n", DICT_ROWS_REPLY])
    backend = RemoteBackend(client, cache=RecordCache(tmp_path))
    backend.key_entities(cupboard_story, cupboard_questions)
    backend.location_names(cupboard_story)
    backend.story_states(cupboard_story, targets)
    entities, rooms, states = log_lines(tmp_path)
    (tmp_path / LOG_NAME).write_bytes(entities + rooms + states.split(b"\t")[0] + b"\t" + DICT_ROWS_BODY)

    fresh, transport = make_client([])
    backend = RemoteBackend(fresh, cache=RecordCache(tmp_path))
    [pair] = backend.key_entities(cupboard_story, cupboard_questions)
    assert (pair.entity, pair.attribute) == ("T-shirt", "location")
    assert backend.location_names(cupboard_story) == ["crawlspace"]
    records = backend.story_states(cupboard_story, targets)
    assert transport.requests == []
    parsed = RemoteBackend(make_client([DICT_ROWS_REPLY])[0]).story_states(cupboard_story, targets)
    assert records == parsed
    assert [r.key for r in records] == [r.key for r in parsed]
    assert [repr(r) for r in records] == [repr(r) for r in parsed]

    # A later array entry for the same key wins.
    RecordCache(tmp_path).store(cupboard_story, targets, backend.name, [[7, "T-shirt", "location", "in the crate"]])
    fresh, transport = make_client([])
    records = RemoteBackend(fresh, cache=RecordCache(tmp_path)).story_states(cupboard_story, targets)
    assert transport.requests == []
    assert [(r.event_index, r.render()) for r in records] == [(7, "location of T-shirt becomes in the crate")]
