from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from test_record_log import Transport
from mindmask import cli, remote
from mindmask.cli import main
from mindmask.dataset import load_dataset
from mindmask.worldgen import generate_story


@pytest.fixture
def dataset_path(tmp_path):
    path = tmp_path / "stories.jsonl"
    main(
        [
            "generate",
            "--seed", "7",
            "--count", "4",
            "--characters", "3",
            "--max-order", "2",
            "-o", str(path),
        ]
    )
    return path


def test_generate_writes_dataset(dataset_path):
    items = load_dataset(dataset_path)
    assert len(items) == 4
    story, questions = items[0]
    assert [q.order for q in questions] == [0, 1, 2]
    assert all(q.gold for q in questions)


def test_generate_is_reproducible(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["generate", "--seed", "3", "--count", "2", "-o"]
    main(args + [str(a)])
    main(args + [str(b)])
    assert a.read_text() == b.read_text()


def test_eval_full_pipeline(dataset_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["eval", "--dataset", str(dataset_path), "--seeds", "12,42", "--json", str(out)])
    printed = capsys.readouterr().out
    assert "accuracy: mean=1.0000" in printed
    payload = json.loads(out.read_text())
    assert payload["accuracy_mean"] == 1.0
    assert payload["seed_accuracies"] == {"12": 1.0, "42": 1.0}


def test_eval_no_im_drops_accuracy(dataset_path, capsys):
    main(["eval", "--dataset", str(dataset_path), "--no-im"])
    printed = capsys.readouterr().out
    assert "accuracy: mean=" in printed
    mean = float(printed.split("mean=")[1].split()[0])
    assert mean < 1.0


def test_answer_command(dataset_path, capsys):
    main(["answer", "--dataset", str(dataset_path), "--story", "0", "--question", "1"])
    printed = capsys.readouterr().out
    assert "question: " in printed and "answer: " in printed and "gold: " in printed


def test_mask_command_dumps_graphs(dataset_path, capsys):
    main(["mask", "--dataset", str(dataset_path), "--story", "0", "--question", "2", "--dump-graphs"])
    printed = capsys.readouterr().out
    assert "surviving events:" in printed
    assert '"omniscient"' in printed


def _surviving(printed):
    line = next(l for l in printed.splitlines() if l.startswith("surviving events: "))
    return json.loads(line.split(": ", 1)[1])


def test_mask_no_im_keeps_every_event(tmp_path, capsys):
    path = tmp_path / "one.jsonl"
    main(
        [
            "generate",
            "--seed", "7",
            "--count", "1",
            "--characters", "3",
            "--rooms", "2",
            "--max-order", "2",
            "--reentry",
            "-o", str(path),
        ]
    )
    story, questions = load_dataset(path)[0]
    index = next(i for i, q in enumerate(questions) if q.order >= 1)
    base = ["mask", "--dataset", str(path), "--question", str(index)]
    capsys.readouterr()

    main(base)
    masked = _surviving(capsys.readouterr().out)
    main(base + ["--no-im"])
    unmasked = _surviving(capsys.readouterr().out)
    assert unmasked == list(range(1, len(story.events) + 1))
    assert len(masked) < len(unmasked)


def test_inject_command(dataset_path, capsys):
    main(["inject", "--dataset", str(dataset_path), "--story", "1"])
    printed = capsys.readouterr().out
    assert printed.startswith("1: ")
    assert "- location of " in printed


def test_extract_command(dataset_path, tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    main(["extract", "--dataset", str(dataset_path), "-o", str(out)])
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert rows and set(rows[0]) == {"story_index", "event_index", "entity", "attribute", "state"}


def test_extract_skips_a_story_without_questions(dataset_path, tmp_path):
    # A copy of the first story without questions, put first: it gets no
    # rows, and every other story keeps its index in the file.
    lines = dataset_path.read_text(encoding="utf-8").splitlines(keepends=True)
    bare = tmp_path / "bare.jsonl"
    bare.write_text(json.dumps(dict(json.loads(lines[0]), questions=[])) + "\n" + "".join(lines))
    out, bare_out = tmp_path / "records.jsonl", tmp_path / "bare_records.jsonl"
    assert main(["extract", "--dataset", str(dataset_path), "-o", str(out)]) == 0
    assert main(["extract", "--dataset", str(bare), "-o", str(bare_out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    bare_rows = [json.loads(line) for line in bare_out.read_text().splitlines()]
    assert rows and bare_rows == [dict(r, story_index=r["story_index"] + 1) for r in rows]


def test_complexity_command(tmp_path, capsys):
    csv = tmp_path / "counts.csv"
    main(["complexity", "--m-min", "5", "--m-max", "5", "--k-min", "1", "--k-max", "5", "--csv", str(csv)])
    printed = capsys.readouterr().out
    assert "325" in printed
    assert "5,5,6,325" in csv.read_text()


def test_remote_flags_require_model(dataset_path):
    with pytest.raises(SystemExit):
        main(["answer", "--dataset", str(dataset_path), "--nkb", "remote"])


def test_malformed_dataset_prints_the_line_not_a_traceback(dataset_path, capsys):
    with dataset_path.open("a", encoding="utf-8") as handle:
        handle.write('{"events": [{"text": "Mia entered the den."}], "questions": 5}\n')
    capsys.readouterr()
    assert main(["eval", "--dataset", str(dataset_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"mindmask: {dataset_path}:5: ")
    assert "'questions' must be a list" in captured.err


def test_missing_dataset_prints_a_message_not_a_traceback(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    assert main(["eval", "--dataset", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("mindmask: ")
    assert str(missing) in captured.err


@pytest.mark.parametrize(
    "flags, limit",
    [
        (["--rooms", "13"], "num_rooms must be at most 12"),
        (["--objects", "13"], "num_objects must be at most 12"),
        (["--rooms", "11", "--containers", "7"], "must be at most 72"),
        # The last --count given wins.
        (["--count", "0"], "count must be at least 1, not 0"),
        (["--count", "-2"], "count must be at least 1, not -2"),
    ],
)
def test_generate_beyond_the_draw_pools_prints_the_limit(tmp_path, flags, limit, capsys):
    out = tmp_path / "bad.jsonl"
    assert main(["generate", "--count", "1", *flags, "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("mindmask: ") and limit in captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_a_refused_config_leaves_the_output_as_it_was(tmp_path, capsys):
    out = tmp_path / "kept.jsonl"
    out.write_text("kept\n")
    assert main(["generate", "--count", "3", "--rooms", "13", "-o", str(out)]) == 1
    assert "num_rooms must be at most 12" in capsys.readouterr().err
    assert out.read_text() == "kept\n"


def test_generate_writes_each_story_before_the_next_but_one(tmp_path, monkeypatch):
    """Memory does not grow with --count: while a story is generated, no
    story before the last one written is still held."""
    made = []

    def tracked(config):
        gc.collect()
        assert all(ref() is None for ref in made[:-1])
        story, questions = generate_story(config)
        made.append(weakref.ref(story))
        return story, questions

    monkeypatch.setattr(cli, "generate_story", tracked)
    out = tmp_path / "streamed.jsonl"
    assert main(["generate", "--count", "5", "-o", str(out)]) == 0
    assert len(made) == 5 and len(load_dataset(out)) == 5


@pytest.mark.parametrize(
    "flags", [["--workers", "2"], ["--no-reduce"]], ids=["workers", "no-reduce"]
)
def test_removed_eval_flags_are_usage_errors(dataset_path, flags, capsys):
    with pytest.raises(SystemExit) as info:
        main(["eval", "--dataset", str(dataset_path), *flags])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seeds", "1,x"], "argument --seeds: not a comma-separated list of integers: '1,x'"),
        (["--subset-size=-1"], "argument --subset-size: not a non-negative integer: '-1'"),
        (["--seeds", "1,1"], "argument --seeds: a seed is given more than once: '1,1'"),
    ],
    ids=["seeds", "subset-size", "repeated-seed"],
)
def test_malformed_eval_numbers_are_usage_errors(dataset_path, flags, message, capsys):
    with pytest.raises(SystemExit) as info:
        main(["eval", "--dataset", str(dataset_path), *flags])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_eval_subset_size_zero_prints_one_message(dataset_path, capsys):
    capsys.readouterr()
    assert main(["eval", "--dataset", str(dataset_path), "--subset-size", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mindmask: subset_size must be at least 1, not 0\n"


def test_eval_scores_a_valid_subset_size(dataset_path, capsys):
    capsys.readouterr()
    assert main(["eval", "--dataset", str(dataset_path), "--seeds", "3", "--subset-size", "2"]) == 0
    printed = capsys.readouterr().out
    # Two of the four stories, three questions each.
    assert printed.startswith("questions: 6  skipped (no gold): 0\n")
    assert "accuracy: mean=1.0000" in printed


class RemoteReplay(Transport):
    """The chat endpoint: rule-backend replies to the three state prompts,
    and the first candidate, in answer tags, to each answer prompt, which it
    keeps."""

    def __init__(self, items):
        super().__init__(items)
        self.answer_prompts: list[str] = []

    def __call__(self, url, headers, payload, timeout):
        prompt = payload["messages"][0]["content"]
        if not prompt.startswith("Read the following events"):
            return super().__call__(url, headers, payload, timeout)
        self.requests.append("answer_question")
        self.answer_prompts.append(prompt)
        first = prompt.split("Choose one of: ", 1)[1].split(", ", 1)[0].split(".\n", 1)[0]
        return {"choices": [{"message": {"content": f"<answer>{first}</answer>"}}]}


def test_eval_with_a_remote_backend_and_answerer(dataset_path, tmp_path, monkeypatch, capsys):
    items = load_dataset(dataset_path)
    transport = RemoteReplay(items)
    monkeypatch.setattr(remote, "_default_transport", transport)
    cache = tmp_path / "cache"
    argv = [
        "eval", "--dataset", str(dataset_path), "--nkb", "remote", "--answerer", "remote",
        "--model", "m", "--base-url", "http://llm.test/v1", "--cache-dir", str(cache),
    ]
    capsys.readouterr()
    assert main(argv) == 0
    report = capsys.readouterr().out
    assert report.startswith("questions: 12  skipped (no gold): 0\n")
    assert (cache / remote.LOG_NAME).exists()
    # Three state prompts a story, and one answer prompt a distinct prompt:
    # two of the 12 questions send the same one, answered once.
    answers = transport.requests.count("answer_question")
    assert answers == len(set(transport.answer_prompts)) == 11
    assert len(transport.requests) == 3 * 4 + answers

    # A rerun reads every reply, answers included, from the cache.
    transport.requests.clear()
    assert main(argv) == 0
    assert transport.requests == []
    assert capsys.readouterr().out == report


def test_answer_notes_a_fully_masked_view(tmp_path, capsys):
    # Cleo is never in a room, so her graph masks every event.
    doc = {
        "characters": ["Ava", "Cleo"],
        "events": [
            {"text": "Ava entered the hall."},
            {"text": "The apple is in the box."},
            {"text": "Ava moved the apple to the crate."},
        ],
        "questions": [{"text": "Where does Cleo think the apple is?", "gold": "box"}],
    }
    path = tmp_path / "masked.jsonl"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    assert main(["answer", "--dataset", str(path)]) == 0
    printed = capsys.readouterr().out
    assert "answer: box\n" in printed
    assert printed.endswith("note: every event was masked; answered from initial declarations\n")


@pytest.mark.parametrize(
    "flags",
    [["--nkb", "remote"], ["--answerer", "remote", "--model", "m"]],
    ids=["nkb", "answerer"],
)
def test_remote_backend_without_endpoint_is_a_usage_error(dataset_path, flags, capsys):
    with pytest.raises(SystemExit) as info:
        main(["answer", "--dataset", str(dataset_path), *flags])
    assert info.value.code == 2
    assert "mindmask: error: remote backends need --model and --base-url" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, index, message",
    [
        ("inject", ["--story", "4"], "story index 4 out of range 0..3"),
        ("mask", ["--story", "-1"], "story index -1 out of range 0..3"),
        ("mask", ["--question", "3"], "question index 3 out of range 0..2"),
        ("answer", ["--question", "-1"], "question index -1 out of range 0..2"),
    ],
)
def test_out_of_range_index_prints_a_message(dataset_path, command, index, message, capsys):
    capsys.readouterr()
    assert main([command, "--dataset", str(dataset_path), *index]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mindmask: {message}\n"


@pytest.mark.parametrize(
    "command, dataset, message",
    [
        ("inject", "empty", "the dataset has no stories"),
        ("mask", "empty", "the dataset has no stories"),
        ("answer", "empty", "the dataset has no stories"),
        ("inject", "bare", "story 1 has no questions"),
        ("mask", "bare", "story 1 has no questions"),
        ("answer", "bare", "story 1 has no questions"),
    ],
)
def test_an_empty_list_is_named_not_a_range(
    dataset_path, tmp_path, command, dataset, message, capsys
):
    first = json.loads(dataset_path.read_text(encoding="utf-8").splitlines()[0])
    paths = {"empty": tmp_path / "empty.jsonl", "bare": tmp_path / "bare.jsonl"}
    paths["empty"].write_text("")
    bare = dict(first, questions=[])
    paths["bare"].write_text(json.dumps(first) + "\n" + json.dumps(bare) + "\n")
    capsys.readouterr()
    assert main([command, "--dataset", str(paths[dataset]), "--story", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mindmask: {message}\n"


@pytest.mark.parametrize(
    "command, flag",
    [
        ("extract", "--no-ki"),
        ("extract", "--no-im"),
        ("extract", "--answerer=symbolic"),
        ("inject", "--no-ki"),
        ("inject", "--no-im"),
        ("inject", "--answerer=symbolic"),
        ("mask", "--answerer=symbolic"),
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(
    dataset_path, tmp_path, command, flag, capsys
):
    output = ["-o", str(tmp_path / "records.jsonl")] if command == "extract" else []
    with pytest.raises(SystemExit) as info:
        main([command, "--dataset", str(dataset_path), *output, flag])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flags, unread",
    [
        ("extract", ["--cache-dir", "c", "--model", "m"], ["--model", "--cache-dir"]),
        ("mask", ["--base-url", "http://llm.test/v1"], ["--base-url"]),
        ("eval", ["--cache-dir", "c"], ["--cache-dir"]),
    ],
)
def test_remote_flags_without_a_remote_backend_are_usage_errors(
    dataset_path, tmp_path, command, flags, unread, capsys
):
    output = ["-o", str(tmp_path / "records.jsonl")] if command == "extract" else []
    with pytest.raises(SystemExit) as info:
        main([command, "--dataset", str(dataset_path), *output, *flags])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"nothing reads {', '.join(unread)} without a remote backend" in err
    assert not (tmp_path / "records.jsonl").exists()


def test_closed_pipe_exits_quietly(dataset_path):
    # The reader closes its end before the command writes anything, as
    # `mindmask eval ... | head -2` does once it has its lines.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "mindmask.cli", "eval", "--dataset", str(dataset_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert stderr.decode() == ""
    assert proc.returncode == 0
