"""In-memory span recorder for the traced run.

Spans are recorded by the benchmark around the calls it makes into the
package; nothing inside the package is instrumented. Each span holds its
name, start, end, parent span and operation id, and the whole list is
written out once, when the run ends.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op_id: int
    calls: int = 1
    witness: bool = False
    scale: float = 1.0  # calibration factor of the pass the span ran in

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []

    def open(self, name: str, layer: str, parent: int | None, op_id: int) -> Span:
        span = Span(len(self.spans), name, layer, perf_counter(), 0.0, parent, op_id)
        self.spans.append(span)
        return span

    @staticmethod
    def close(span: Span) -> None:
        span.end = perf_counter()

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time covered by its direct children."""
        out = {s.sid: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            [s.sid, s.name, s.start, s.end, s.parent, s.op_id, s.calls, s.witness]
            for s in self.spans
        ]
        fields = ["id", "name", "start", "end", "parent", "op_id", "calls", "witness"]
        path.write_text(json.dumps({"fields": fields, "spans": rows}))
