"""Masking never lengthens what a text reader is sent.

For every question, the answer prompt `RemoteAnswerer` sends with masking on
is no longer than the one it sends with masking off (the "w/o IM" ablation):
the masked view keeps a subset of the unmasked view's events, and the
question and its candidates do not depend on masking. Checked on small
corpora in each benchmark workload's shape, with knowledge injection on and
off; ``remote_replay``'s stories go through the remote state backend and a
replayed chat endpoint, as the benchmark runs them.
"""

from __future__ import annotations

import pytest

from test_generator_digest import DEEP_CHAINS, LONG_STORIES, base_seed, grid_configs
from test_record_log import Transport
from mindmask.nkb import RuleBackend
from mindmask.pipeline import PipelineConfig, answer_question, prepare_story
from mindmask.remote import ChatClient, RemoteAnswerer, RemoteBackend
from mindmask.worldgen import GrammarConfig, generate_story


def shaped(workload, shape, count):
    base = base_seed(workload, 1)
    return [GrammarConfig(seed=base + i, **shape) for i in range(count)]


WORKLOADS = {
    "deep_chains": shaped("deep_chains", DEEP_CHAINS, 100),
    "long_stories": shaped("long_stories", LONG_STORIES, 60),
    "oracle_grid": grid_configs(base_seed("oracle_grid", 1))[::4],
    "remote_replay": shaped("remote_replay", DEEP_CHAINS, 100),
}


class PromptRecorder:
    """Chat endpoint that records each prompt and answers with no candidate."""

    def __init__(self):
        self.prompts: list[str] = []

    def __call__(self, url, headers, payload, timeout):
        self.prompts.append(payload["messages"][0]["content"])
        return {"choices": [{"message": {"content": "<answer>nowhere</answer>"}}]}


def answer_prompts(items, state_backend, inject_knowledge, apply_masking) -> list[str]:
    recorder = PromptRecorder()
    reader = RemoteAnswerer(ChatClient(base_url="http://llm.test/v1", model="reader", transport=recorder))
    cfg = PipelineConfig(
        nkb_backend=state_backend,
        answer_backend=reader,
        inject_knowledge=inject_knowledge,
        apply_masking=apply_masking,
    )
    for story, questions in items:
        artifacts = prepare_story(story, questions, cfg)
        for q in questions:
            answer_question(artifacts, q, cfg)
    return recorder.prompts


@pytest.mark.parametrize("inject_knowledge", [True, False], ids=["ki", "no-ki"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_masked_answer_prompt_is_no_longer_than_the_unmasked_one(workload, inject_knowledge):
    items = [generate_story(config) for config in WORKLOADS[workload]]
    if workload == "remote_replay":
        client = ChatClient(base_url="http://llm.test/v1", model="replay", transport=Transport(items))
        state_backend = RemoteBackend(client)
    else:
        state_backend = RuleBackend()
    masked, unmasked = (
        answer_prompts(items, state_backend, inject_knowledge, apply_masking)
        for apply_masking in (True, False)
    )
    assert len(masked) == len(unmasked) == sum(len(questions) for _, questions in items)
    assert all(len(m) <= len(u) for m, u in zip(masked, unmasked))
    # Masking leaves some question a shorter prompt, so the check is not vacuous.
    assert any(len(m) < len(u) for m, u in zip(masked, unmasked))
