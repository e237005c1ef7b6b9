from __future__ import annotations

import pytest

from mindmask.nkb import RuleBackend, extract_locations, generate_states, identify_key_entities
from mindmask.inject import render_augmented
from mindmask.pipeline import PipelineConfig, answer_question, mask_question, prepare_story
from mindmask.question import parse_question
from mindmask.remote import ChatClient, RemoteBackend
from mindmask.scene import build_character_graph, build_omniscient_graph
from mindmask.story import parse_story

DIALOGUE_TEXT = """Armani: I keep the key in the drawer.
Troy: Good to know, thanks.
Troy left the conversation.
Armani: Cynthia, I just moved the key to the safe.
Cynthia: Understood.
Troy joined the conversation.
Troy: Sorry, I missed a bit."""


@pytest.fixture
def dialogue_story():
    return parse_story(DIALOGUE_TEXT)


def test_dialogue_parse(dialogue_story):
    assert dialogue_story.kind == "dialogue"
    assert dialogue_story.characters == ("Armani", "Troy", "Cynthia")
    assert dialogue_story.events[2].speaker is None  # narration line


@pytest.mark.parametrize("inject_knowledge", [True, False])
def test_text_views_name_the_speaker(dialogue_story, inject_knowledge):
    cfg = PipelineConfig(inject_knowledge=inject_knowledge)
    q = parse_question("Where does Troy think the key is?", dialogue_story)
    artifacts = prepare_story(dialogue_story, [q], cfg)
    _, view = mask_question(artifacts, q, cfg)
    assert view.texts == (
        "2: Troy: Good to know, thanks.",
        "3: Troy left the conversation.",
        "6: Troy joined the conversation.",
        "7: Troy: Sorry, I missed a bit.",
    )
    lines = render_augmented(artifacts.augmented).splitlines()
    assert lines[3] == "4: Armani: Cynthia, I just moved the key to the safe."


def test_presence_windows_from_rule_backend(dialogue_story):
    backend = RuleBackend()
    q = parse_question("Where is the key really?", dialogue_story)
    targets = identify_key_entities(dialogue_story, [q], backend)
    records = generate_states(dialogue_story, targets, backend)
    anchors = extract_locations(dialogue_story, backend)
    assert [a.name for a in anchors] == ["conversation"]

    omniscient = build_omniscient_graph(dialogue_story, records, anchors)
    assert omniscient.assignment == ("conversation",) * 7

    troy = build_character_graph(dialogue_story, records, anchors, "Troy", omniscient)
    # Troy speaks at 2 (implicit join), leaves at 3, rejoins at 6.
    assert troy.surviving() == (2, 3, 6, 7)
    cynthia = build_character_graph(dialogue_story, records, anchors, "Cynthia", omniscient)
    assert cynthia.surviving() == (5, 6, 7)
    armani = build_character_graph(dialogue_story, records, anchors, "Armani", omniscient)
    assert armani.surviving() == (1, 2, 3, 4, 5, 6, 7)


def test_dialogue_false_belief_via_remote_backend(dialogue_story):
    # Utterance semantics are beyond the rule grammar; a chat backend supplies
    # the same record protocol and the masking machinery does the rest.
    reply = (
        "- 1: location of Armani becomes in the conversation\n"
        "- 1: location of key becomes in the drawer\n"
        "- 2: location of Troy becomes in the conversation\n"
        "- 3: location of Troy becomes outside the conversation\n"
        "- 4: location of key becomes in the safe\n"
        "- 5: location of Cynthia becomes in the conversation\n"
        "- 6: location of Troy becomes in the conversation\n"
    )
    replies = [reply, "- conversation"]

    def transport(url, headers, payload, timeout):
        prompt = payload["messages"][0]["content"]
        if "extract at most five entities" in prompt:
            content = "<entities>\n- location of key\n</entities>"
        elif "What are the rooms" in prompt:
            content = "- conversation"
        else:
            content = reply
        return {"choices": [{"message": {"content": content}}]}

    client = ChatClient(base_url="http://llm.test", model="m", transport=transport)
    cfg = PipelineConfig(nkb_backend=RemoteBackend(client))

    believed = parse_question("Where does Troy think the key is?", dialogue_story)
    factual = parse_question("Where is the key really?", dialogue_story)
    artifacts = prepare_story(dialogue_story, [believed, factual], cfg)

    # Troy missed the move at utterance 4; the world moved on.
    assert answer_question(artifacts, believed, cfg).predicted == "drawer"
    assert answer_question(artifacts, factual, cfg).predicted == "safe"
