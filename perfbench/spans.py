"""In-memory spans for the traced run, written out when the run ends."""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    """Spans of (name, start, end (ns), parent span, op id).

    ``begin_op``/``end_op`` bracket one op with a root span; every span
    recorded in between is its child.  ``scale`` is the factor from wall
    clock to the reference speed when the op began (see ``run.REFERENCE_S``).
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_scale: list[float] = []
        self.scale = 1.0
        self._root = -1

    def span(self, name: str, start: int, end: int) -> None:
        self.spans.append((name, start, end, self._root, len(self.op_scale) - 1))

    def begin_op(self, name: str) -> None:
        self.op_scale.append(self.scale)
        self._root = -1
        self.span(name, perf_counter_ns(), 0)
        self._root = len(self.spans) - 1

    def end_op(self) -> None:
        name, start, _, parent, op = self.spans[self._root]
        self.spans[self._root] = (name, start, perf_counter_ns(), parent, op)
        self._root = -1

    def durations_ns(self) -> dict[str, list[float]]:
        """Span durations at the reference speed, grouped by span name."""
        out: dict[str, list[float]] = defaultdict(list)
        for name, start, end, _, op in self.spans:
            out[name].append((end - start) * self.op_scale[op])
        return out

    def write(self, path) -> None:
        """Tab-separated: a header, then id, name, start_ns, end_ns (wall
        clock), parent, op and the op's scale to the reference speed."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\top\tscale\n")
            fh.writelines(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{op}\t"
                          f"{self.op_scale[op]:.6f}\n"
                          for i, (name, start, end, parent, op) in enumerate(self.spans))
