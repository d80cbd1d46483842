"""Benchmark-side spans around the pipeline's public entry points.

A traced pass wraps the calls into each layer — ``RInGen.solve`` and,
as :mod:`repro.core.ringen` calls them, ``preprocess`` and
``search_counterexample``, then ``ModelFinder.search``,
``RegularModel.from_finite_model``, ``verify_exact`` and
``verify_bounded`` — and turns on the existing ``repro.obs`` metrics
registry for the SAT-level ``phase.*`` timers and ``sat.*`` counters.
Nothing in the program changes: the wrappers are installed for the
traced pass only and removed afterwards, so untraced passes run the
unmodified code.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import time

#: (span name, module or class path, attribute)
TARGETS = (
    ("ringen.solve", "repro.core.ringen:RInGen", "solve"),
    ("chc.preprocess", "repro.core.ringen", "preprocess"),
    ("core.cex", "repro.core.ringen", "search_counterexample"),
    ("mace.search", "repro.mace.finder:ModelFinder", "search"),
    (
        "automata.from_model",
        "repro.core.regular_model:RegularModel",
        "from_finite_model",
    ),
    (
        "automata.verify_exact",
        "repro.core.regular_model:RegularModel",
        "verify_exact",
    ),
    (
        "automata.verify_bounded",
        "repro.core.regular_model:RegularModel",
        "verify_bounded",
    ),
)


def _resolve(path: str):
    module, _, attr = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, attr) if attr else owner


class Recorder:
    """In-memory spans: ``[id, parent id, name, start, end]`` rows."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.cex_found = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(
                [sid, stack[-1] if stack else None, name,
                 time.perf_counter(), None]
            )
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
                if name == "core.cex" and result.found:
                    self.cex_found += 1
                return result
            finally:
                stack.pop()
                spans[sid][4] = time.perf_counter()

        return wrapper

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``n`` calls, ``total_s`` and ``self_s`` — the
        duration minus the part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, _, name, start, end in self.spans:
            row = out.setdefault(name, {"n": 0, "total_s": 0.0, "self_s": 0.0})
            row["n"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return out


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Install the span wrappers and a fresh metrics registry; yields
    the registry, whose counters stay readable after the block."""
    from repro.obs import runtime

    installed = []
    try:
        for name, path, attr in TARGETS:
            owner = _resolve(path)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                patched = staticmethod(
                    recorder.wrap(name, raw.__get__(None, owner))
                )
            else:
                patched = recorder.wrap(name, raw)
            setattr(owner, attr, patched)
            installed.append((owner, attr, raw))
        runtime.configure(metrics=True)
        yield runtime.METRICS
    finally:
        runtime.reset()
        for owner, attr, raw in reversed(installed):
            setattr(owner, attr, raw)
