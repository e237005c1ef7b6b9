"""A clock whose readings are scaled to the machine's speed at that moment.

The benchmark runs on a few cores of a shared host. Other tenants slow this
process by up to about 2x, in bursts from tens of milliseconds to minutes,
and CPU time rises with wall time while they do, so the slowdown is
contention for the core, not preemption. No estimator over wall time alone
(fastest repetition, median) survives a slowdown that covers a whole run.

So timed steps are interleaved with probes: a fixed reference loop that does
the same kind of work as mindmask (a tree of objects with parent links, small
frozen dataclasses, dicts, sets, string building), but calls no mindmask
code, so no change to the package can speed it up or slow it down. A probe
runs after at least ``SEGMENT_S`` of timed steps, so it costs about a tenth
of the timed work. A step's scaled time is its wall time times
``REFERENCE_S`` over the mean of the probe readings just before and just
after it: the time the step would have taken at the speed at which the probe
takes ``REFERENCE_S``.

Among several designs tried, this loop slowed most nearly as much as a
``deep_chains`` pass under sustained contention (1.65x against 1.62x); a
smaller loop of dataclasses and dicts alone slowed 1.75x, and scaled by it,
a run on a busy machine read about 7% faster than one on a quiet machine.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

# The probe's time on a quiet 2-vCPU x86_64 VM (Intel Xeon, Python 3.11.7).
# Scaled times are in the seconds of that machine at rest.
REFERENCE_S = 0.000_46
SEGMENT_S = 0.010


@dataclass(frozen=True)
class _Record:
    name: str
    path: str
    fanout: int


class _Node:
    def __init__(self, name: str, parent: _Node | None):
        self.name = name
        self.parent = parent
        self.children: list[_Node] = []

    def path(self) -> str:
        names = []
        node = self
        while node is not None:
            names.append(node.name)
            node = node.parent
        return "/".join(reversed(names))


_NAMES = tuple(f"w{i}" for i in range(200))


def _reference_work() -> int:
    root = _Node("root", None)
    nodes = [root]
    for i, name in enumerate(_NAMES):
        parent = nodes[i * 7 % len(nodes)]
        node = _Node(name, parent)
        parent.children.append(node)
        nodes.append(node)
    by_fanout: dict[int, list[_Record]] = {}
    for node in nodes:
        record = _Record(node.name, node.path(), len(node.children))
        by_fanout.setdefault(record.fanout, []).append(record)
    seen = {(r.name, r.fanout) for records in by_fanout.values() for r in records}
    text = " ".join(f"{node.name}:{len(node.children)}" for node in nodes)
    return len(seen) + len(text.split())


def probe() -> float:
    """Seconds one reference loop takes now.

    The loop runs once untimed first, so the timed run does not pay for
    refilling caches the previous step evicted. The collector is off while
    it runs: a collection here would scan mindmask's heap, and its size must
    not change the reading. Everything the loop allocates is freed by the
    time it returns.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _reference_work()
        started = time.perf_counter()
        _reference_work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Times a batch of steps in wall seconds and in scaled seconds.

    ``open`` starts a batch with a probe; ``begin`` and ``end`` bracket each
    step; ``close`` takes the last probe and returns every step's times. No
    untimed work may come between steps of one batch.
    """

    def __init__(self):
        self.readings: list[float] = []
        self._steps: list[tuple[float, int]] = []  # (wall, index of the probe before it)
        self._unprobed = 0.0
        self._started = 0.0

    def _probe(self) -> None:
        self.readings.append(probe())
        self._unprobed = 0.0

    def open(self) -> None:
        self._steps = []
        self._probe()

    def begin(self) -> None:
        self._started = time.perf_counter()

    def end(self) -> None:
        wall = time.perf_counter() - self._started
        self._steps.append((wall, len(self.readings) - 1))
        self._unprobed += wall
        if self._unprobed >= SEGMENT_S:
            self._probe()

    def close(self) -> list[tuple[float, float]]:
        """(wall seconds, scaled seconds) of each step of the batch."""
        if self._unprobed:
            self._probe()
        readings = self.readings
        return [
            (wall, wall * REFERENCE_S * 2 / (readings[before] + readings[before + 1]))
            for wall, before in self._steps
        ]

    def speed(self) -> dict:
        """Probe readings of the run, in ms: how busy the machine was."""
        if not self.readings:
            return {}
        quartiles = statistics.quantiles(self.readings, n=4) if len(self.readings) > 1 else []
        return {
            "probes": len(self.readings),
            "reference_ms": REFERENCE_S * 1e3,
            "probe_ms_min": min(self.readings) * 1e3,
            "probe_ms_quartiles": [q * 1e3 for q in quartiles],
            "probe_ms_max": max(self.readings) * 1e3,
        }
