"""Offline chat transport that replays rule-backend output for the remote path.

The replies for the key-entity, location and state prompts of every story are
built once, during set-up, from :class:`mindmask.nkb.RuleBackend`. A prompt is
identified by its ``<Events>`` block and by the template it was filled from.
Any prompt outside the table raises, so a missed reply fails the run instead
of falling through to a real endpoint.
"""

from __future__ import annotations

from collections import Counter

from mindmask.nkb import RuleBackend
from mindmask.remote import ChatClient, indexed_narrative, load_prompt

# Loopback with the discard port: never leaves the host, and the transport
# below always answers first.
UNREACHABLE_BASE_URL = "http://127.0.0.1:9/v1"
_EVENTS_HEAD = "<Events>\n"
_NARRATIVE_SLOT = "{{indexed narrative}}"
TEMPLATES = ("key_entities", "extract_locations", "generate_states")


class UnknownPrompt(Exception):
    """The replay table holds no reply for this prompt."""


def _template_marker(name: str) -> str:
    """The fixed template text that directly follows the narrative block."""
    template = load_prompt(name)
    if not template.startswith(_EVENTS_HEAD + _NARRATIVE_SLOT):
        raise ValueError(f"prompt template {name!r} no longer opens with an <Events> block")
    tail = template[len(_EVENTS_HEAD + _NARRATIVE_SLOT):]
    return tail.split("{{", 1)[0]


class ReplayTransport:
    """A ``ChatClient.transport`` serving recorded replies; counts every call
    per template, unknown prompts included."""

    def __init__(self, items):
        self.calls: Counter[str] = Counter()
        self._markers = {name: _template_marker(name) for name in TEMPLATES}
        self._replies: dict[tuple[str, str], str] = {}
        rule = RuleBackend()
        for story, questions in items:
            block = indexed_narrative(story)
            pairs = rule.key_entities(story, questions)
            self._replies[("key_entities", block)] = (
                "<entities>\n"
                + "".join(f"- {p.attribute} of {p.entity}\n" for p in pairs)
                + "</entities>"
            )
            self._replies[("extract_locations", block)] = "".join(
                f"- {name}\n" for name in rule.location_names(story)
            )
            lines = []
            for index in range(1, len(story.events) + 1):
                for entity, attribute, state in rule.event_states(story, index, pairs):
                    lines.append(f"- {index}: {attribute} of {entity} becomes {state}\n")
            self._replies[("generate_states", block)] = "".join(lines)

    def identify(self, prompt: str) -> tuple[str, str]:
        if not prompt.startswith(_EVENTS_HEAD):
            raise UnknownPrompt(f"prompt without an <Events> block: {prompt[:80]!r}")
        block, _, rest = prompt[len(_EVENTS_HEAD):].partition("\n\n")
        for name, marker in self._markers.items():
            if ("\n\n" + rest).startswith(marker):
                return name, block
        raise UnknownPrompt(f"prompt matches no known template: {rest[:80]!r}")

    def __call__(self, url, headers, payload, timeout):
        try:
            key = self.identify(payload["messages"][0]["content"])
        except UnknownPrompt:
            self.calls["unknown"] += 1
            raise
        self.calls[key[0]] += 1
        reply = self._replies.get(key)
        if reply is None:
            raise UnknownPrompt(f"no recorded {key[0]} reply for this <Events> block")
        return {"choices": [{"message": {"content": reply}}]}


def replay_client(transport: ReplayTransport) -> ChatClient:
    return ChatClient(base_url=UNREACHABLE_BASE_URL, model="replay", transport=transport)
