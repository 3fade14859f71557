"""Spans recorded from the benchmark side, around calls into the
program's public functions.  Spans stay in memory and are written out
once, when the run ends."""

from __future__ import annotations

import contextlib
import json
import os
import time


class Tracer:
    """Spans are dicts: name, start, end (perf_counter seconds), parent
    span id, the trace id shared by one operation, and counts.
    ``overhead_s`` sums the time of the tracer's own calls into the
    program (the counts read after each span), which untraced runs skip."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.trace_id = 0
        self.overhead_s = 0.0

    @contextlib.contextmanager
    def overhead(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.overhead_s += time.perf_counter() - t0

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        rec = {
            "id": len(self.spans),
            "name": name,
            "trace_id": self.trace_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": dict(counts),
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def new_trace(self) -> None:
        self.trace_id += 1

    def last(self, name: str) -> dict | None:
        """The latest span called ``name`` in the current trace."""
        for rec in reversed(self.spans):
            if rec["name"] == name and rec["trace_id"] == self.trace_id:
                return rec
        return None

    @staticmethod
    def seconds(rec: dict | None) -> float:
        return 0.0 if rec is None else rec["end"] - rec["start"]

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w") as f:
            json.dump(self.spans, f)
        os.replace(path + ".tmp", path)


@contextlib.contextmanager
def traced_pipeline(tracer: Tracer):
    """One "pipeline" span for the block, and below it the pipeline's
    stage boundaries: ``Checkpointer.run`` (one span per materialized
    stage, with rows and bytes out) and ``connected_components`` (edges
    in, which path ran)."""
    import pyarrow as pa

    import raydedup.pipeline as P

    orig_run = P.Checkpointer.run
    orig_cc = P.connected_components

    def run(self, name, build):
        # the pipeline's own "pairs" stage is the edge multiset (union of
        # the pair branches); "stage.pairs" is the distinct pair table
        with tracer.span("stage.edges" if name == "pairs" else f"stage.{name}") as rec:
            ds = orig_run(self, name, build)
        # materialized stage: both counts read block metadata only
        with tracer.overhead():
            rec["counts"]["rows_out"] = ds.count()
            rec["counts"]["bytes_out"] = ds.size_bytes()
        return ds

    def connected_components(pairs_ds, *args, **kwargs):
        with tracer.overhead():
            edges_in = pairs_ds.count()  # pinned stage: metadata only
        with tracer.span("stage.components", edges_in=edges_in) as rec:
            out = orig_cc(pairs_ds, *args, **kwargs)
            distributed = not isinstance(out, pa.Table)
            if distributed:
                out = out.materialize()  # the caller collects it next
        rec["counts"]["distributed"] = int(distributed)
        return out

    P.Checkpointer.run = run
    P.connected_components = connected_components
    try:
        with tracer.span("pipeline"):
            yield
    finally:
        P.Checkpointer.run = orig_run
        P.connected_components = orig_cc
