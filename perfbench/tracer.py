"""Layer spans for the traced benchmark run, recorded from outside the program.

:meth:`Tracer.install` replaces, at runtime, every function that
``semcontrol.cli`` imports from another semcontrol module with a wrapper
that records a span, plus ``Dataset.to_csv``, ``Dataset.from_csv`` and
``RegressionBlocks.from_moments``.  Each span is therefore a call from the
CLI layer into another layer (or, for the class methods, any call of
them).  Spans stay in memory as ``[name, start, end, parent]`` rows, with
``parent`` the index of the enclosing span or -1.  Nothing in ``src/`` is
modified.
"""

from __future__ import annotations

import functools
import inspect
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
            self._open.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index][1:3] = start, end

        return traced

    def install(self, cli) -> None:
        """Wrap the layer entry points that the ``cli`` module calls."""
        from semcontrol.effects import RegressionBlocks
        from semcontrol.estimation import Dataset

        for attr, value in list(vars(cli).items()):
            module = getattr(value, "__module__", "") or ""
            if (inspect.isfunction(value) and module.startswith("semcontrol.")
                    and module != cli.__name__):
                layer = module.rsplit(".", 1)[1]
                setattr(cli, attr, self.wrap(f"{layer}.{value.__name__}", value))
        Dataset.to_csv = self.wrap("estimation.to_csv", Dataset.to_csv)
        Dataset.from_csv = classmethod(
            self.wrap("estimation.from_csv", Dataset.__dict__["from_csv"].__func__))
        RegressionBlocks.from_moments = classmethod(
            self.wrap("effects.regression_blocks",
                      RegressionBlocks.__dict__["from_moments"].__func__))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_spans(spans: list[list], tol: float = 1e-9) -> list[str]:
    """Spans nest inside their parents, and self times add up to the root span."""
    problems = []
    for name, start, end, parent in spans:
        if end < start:
            problems.append(f"span {name} ends before it starts")
        elif parent >= 0 and not (spans[parent][1] <= start and end <= spans[parent][2]):
            problems.append(f"span {name} lies outside its parent {spans[parent][0]}")
    roots = [s for s in spans if s[3] < 0]
    if len(roots) != 1:
        problems.append(f"expected one root span, found {len(roots)}")
    else:
        total = sum(self_times(spans))
        root = roots[0][2] - roots[0][1]
        if abs(total - root) > tol:
            problems.append(f"self times sum to {total!r}, root span lasts {root!r}")
    return problems
