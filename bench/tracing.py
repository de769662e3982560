"""In-memory spans for the traced replay, and their per-layer summary.

A span records its name, start, end, parent span and run id.  Spans stay
in a list until the replay ends and are then written as JSON lines.  The
first dotted part of a span name is its layer (``lrgmm_prior.denoiser`` is
in ``lrgmm_prior``).  Standard library only: the harness process imports
this module without numpy.
"""

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans; with ``enabled=False`` every hook is a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans = []   # {"name", "start", "end", "parent": index or None, "run"}
        self._stack = []

    @contextmanager
    def span(self, name: str, run_id=None):
        if not self.enabled:
            yield
            return
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None, "run": run_id}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, run_id=None, **kwargs):
        """fn(*args, **kwargs) inside a span."""
        with self.span(name, run_id):
            return fn(*args, **kwargs)

    def wrap(self, name: str, fn, run_id=None):
        """A callable that runs fn inside a span on every call."""
        if not self.enabled:
            return fn

        def traced(*args, **kwargs):
            with self.span(name, run_id):
                return fn(*args, **kwargs)

        return traced

    def write(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            for index, record in enumerate(self.spans):
                fh.write(json.dumps(dict(record, id=index)) + "\n")


def read_spans(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def durations(spans, name) -> list:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover.

    The replay is sequential, so children of one span never overlap.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_table(spans) -> dict:
    """{layer: {"calls", "busy_s", "self_s"}} over every span name."""
    table = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s["name"].split(".", 1)[0],
                               {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += s["end"] - s["start"]
        row["self_s"] += own
    return table


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) of values; 0.0 when there are none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
