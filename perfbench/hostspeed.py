"""How fast the host runs right now, and phase time corrected for it.

On a shared machine the host's speed drifts: the same pure-Python loop
takes 27 ms in one minute and 45 ms in the next, in CPU time as well as
in wall time, so a run of the benchmark measures the neighbours as much
as the program. ``probe()`` times a fixed piece of work that uses no
code of the program: a ``json`` round trip, ``csv`` parses and small
NumPy products, about 3 ms. ``Phases`` samples it before and after
timed calls, at most ``SAMPLE_EVERY_S`` seconds apart, and divides the
wall time of each call by the host's slowness around it. The result is
the time the phases would have taken on a host that runs the probe in
``NOMINAL_S``: a slower program still takes longer, a slower host does
not.

Logged against 1 600 ``read`` rounds while the host drifted, each of
these parts moved about one for one with the rounds' time (log-log
slopes 0.8-1.1, correlation 0.8-0.9 over 30-round stretches), while a
pure-Python loop moved twice as much as the rounds did and would
over-correct; so the probe has no such loop.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import statistics
import time
from collections import defaultdict

import numpy as np

#: The probe's time on the reference host (a 2-vCPU VM, in a quiet
#: minute). A fixed constant: it sets the scale of corrected times, never
#: their spread.
NOMINAL_S = 0.003

#: Time allowed between two probe samples, checked around each timed call.
SAMPLE_EVERY_S = 0.1

#: How far before and after a call the samples that correct it are taken.
WINDOW_S = 1.0

_DOCUMENT = [
    {"id": index, "name": f"column_{index}", "values": [j * 0.5 for j in range(16)],
     "label": "sample text " * 4}
    for index in range(120)
]
_CSV = "\n".join(f"{i},name_{i},{i * 0.25},2023-05-{i % 28 + 1:02d}" for i in range(300))
_MATRIX = np.random.default_rng(7).random((96, 64))


def probe() -> float:
    """Seconds this host takes for one fixed piece of work, now."""
    start = time.perf_counter()
    json.loads(json.dumps(_DOCUMENT))
    for _ in range(4):
        rows = list(csv.reader(io.StringIO(_CSV)))
    assert len(rows) == 300
    for _ in range(6):
        np.argsort(_MATRIX @ _MATRIX.T, axis=1)
    return time.perf_counter() - start


class Phases:
    """Accumulates the time of timed calls per key, raw and host-corrected.

    ``raw[key]`` is wall time. ``corrected[key]``, filled in by
    ``finish()``, is each call's wall time divided by the host's slowness
    around it: the median of the probe samples taken from ``WINDOW_S``
    before the call began to ``WINDOW_S`` after it ended (and at least
    the last one before it and the first one after it), over
    ``NOMINAL_S``. A single sample moves by a third between neighbours;
    the median of a window of them follows the host's drift without
    that noise. With ``correct=False`` (serve's fixed-length phases,
    traced replays) no probe runs and ``corrected`` stays empty.
    """

    def __init__(self, tracer=None, correct: bool = True) -> None:
        self.tracer = tracer
        self.correct = correct
        self.total_s = 0.0
        self.cpu_s = 0.0
        #: Operations completed, where a phase's work is not fixed (serve).
        self.ops = 0
        self.raw: dict = defaultdict(float)
        self.corrected: dict = defaultdict(float)
        #: (when, seconds) of every probe sample taken.
        self.samples: list[tuple[float, float]] = []
        #: (key, start, end) of every timed call.
        self._calls: list[tuple[object, float, float]] = []

    def timed(self, key, function, *args, **kwargs):
        """Run ``function`` as phase ``key``; returns (result, wall seconds)."""
        self._sample_if_due()
        if self.tracer is not None:
            self.tracer.enabled = True
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if self.tracer is not None:
                self.tracer.enabled = False
        elapsed = end - start
        self.total_s += elapsed
        self.cpu_s += time.process_time() - cpu
        self.raw[key] += elapsed
        if self.correct:
            self._calls.append((key, start, end))
            self._sample_if_due()
        return result, elapsed

    def _sample_if_due(self) -> None:
        if self.correct and (
            not self.samples or time.perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY_S
        ):
            seconds = probe()
            self.samples.append((time.perf_counter(), seconds))

    def finish(self) -> "Phases":
        """Divide every call's time by the host's slowness around it."""
        if not self.correct:
            return self
        self.corrected.clear()
        times = [when for when, _ in self.samples]
        for key, start, end in self._calls:
            # At least the samples just before and just after the call.
            low = min(bisect.bisect_left(times, start - WINDOW_S),
                      max(0, bisect.bisect_left(times, start) - 1))
            high = max(bisect.bisect_right(times, end + WINDOW_S),
                       bisect.bisect_right(times, end) + 1)
            slowness = statistics.median(
                seconds for _, seconds in self.samples[low:high]) / NOMINAL_S
            self.corrected[key] += (end - start) / slowness
        return self

    def slowness(self) -> float:
        """The host's mean slowness over the corrected calls (1 = reference)."""
        raw = sum(self.raw.values())
        corrected = sum(self.corrected.values())
        return raw / corrected if corrected else 1.0
