"""In-memory span recorder and the wrappers that trace helmlayer's layers.

A span is (name, start, end, parent). Spans are recorded only around
calls into the package's layers, wrapped where the calling module looks them
up (for example ``helmlayer.corrector.solve``), so a traced run executes the
same package code as an untraced one. Nothing is written while a run is
traced; the harness turns the spans into metrics at the end.
"""

from __future__ import annotations

import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    tag: str | None = None
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part of it covered by child spans (any thread)."""
        covered = 0.0
        cursor = self.start
        for c in sorted(self.children, key=lambda s: s.start):
            lo, hi = max(c.start, cursor), min(c.end, self.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return self.duration - covered


class SpanRecorder:
    """Collects spans and exact counters from any number of threads.

    Each thread keeps its own parent stack. A span opened on a worker thread
    with an empty stack takes as parent the innermost open span of the main
    thread, which is the call that fanned the work out.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    @contextmanager
    def span(self, name: str, tag: str | None = None) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        s = Span(name, time.perf_counter(), parent, tag=tag)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(s)
                if parent is not None:
                    parent.children.append(s)

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, value), value)

    def wrap(self, fn: Callable, name: str,
             on_result: Callable[["SpanRecorder", object], object] | None = None,
             tag: Callable[..., str | None] | None = None) -> Callable:
        """Traced stand-in for fn; on_result sees (and may replace) the result."""

        def traced(*args, **kwargs):
            with self.span(name, tag(*args, **kwargs) if tag else None):
                result = fn(*args, **kwargs)
                if on_result is not None:
                    replaced = on_result(self, result)
                    if replaced is not None:
                        result = replaced
            return result

        traced.__wrapped__ = fn
        return traced


class _CountingLU:
    """SuperLU factor whose solve calls are recorded; all else is delegated."""

    def __init__(self, lu, recorder: SpanRecorder) -> None:
        self._lu = lu
        self._recorder = recorder

    def solve(self, *args, **kwargs):
        with self._recorder.span("solver.lu_solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _on_sample(rec: SpanRecorder, config) -> None:
    rec.add("geometry.draws")
    rec.add("geometry.particles", len(config))


def _on_tags(rec: SpanRecorder, tags) -> None:
    rec.add("grid.unknowns", tags.size)
    rec.add("grid.dirichlet", int((tags == 1).sum()))  # NodeClass.PARTICLE_DIRICHLET


def _on_system(rec: SpanRecorder, system) -> None:
    rec.add("assemble.local_nnz", system.local.nnz)


def _on_materialize(rec: SpanRecorder, _matrix) -> None:
    rec.add("solver.path.materialized")


def _on_bordered(rec: SpanRecorder, out) -> None:
    rec.add("solver.path.bordered")
    rec.add("assemble.n_aux", out[2])


def _on_solve(rec: SpanRecorder, out) -> None:
    rec.maximum("solver.residual_max", out[1].residual)


def _on_splu(rec: SpanRecorder, lu) -> _CountingLU:
    # SuperLU's own count of the entries it stores for L and U
    rec.add("solver.fill_nnz", lu.nnz)
    return _CountingLU(lu, rec)


def _k2e_tag(scene, wave, *_args, **_kwargs) -> str:
    return f"k2e{round(scene.epsilon * wave.k2, 6):g}"


def _targets() -> list[tuple[object, str, str, Callable | None, Callable | None]]:
    """(owner, attribute, span name, on_result, tag) for every traced entry point."""
    mod = importlib.import_module
    geometry = mod("helmlayer.geometry")
    corrector = mod("helmlayer.corrector")
    scattering = mod("helmlayer.scattering")
    experiments = mod("helmlayer.experiments")
    assemble = mod("helmlayer.assemble")
    targets = [
        (geometry, "check_hypotheses", "geometry.check_hypotheses", None, None),
        (geometry, "distance_field", "geometry.distance_field", None, None),
        (corrector, "estimate_c1", "corrector.estimate_c1", None, None),
        (corrector, "solve_w1", "corrector.solve_w1", None, None),
        (experiments, "run_sweep", "experiments.run_sweep", None, None),
        (experiments, "reference_solve", "scattering.reference_solve", None, _k2e_tag),
        (assemble.DiscreteSystem, "materialize", "assemble.materialize", _on_materialize, None),
        (assemble.DiscreteSystem, "bordered", "assemble.bordered", _on_bordered, None),
        (mod("scipy.sparse.linalg"), "splu", "solver.splu", _on_splu, None),
    ]
    for owner in (geometry, corrector, experiments):
        targets.append((owner, "sample_matern", "geometry.sample_matern", _on_sample, None))
    for owner in (corrector, scattering):
        targets += [
            (owner, "build_grid", "grid.build_grid", None, None),
            (owner, "classify_nodes", "grid.classify_nodes", _on_tags, None),
            (owner, "assemble", "assemble.assemble", _on_system, None),
            (owner, "solve", "solver.solve", _on_solve, None),
        ]
    return targets


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Swap every traced entry point for its wrapper; restore them on exit."""
    saved = []
    try:
        for owner, attr, name, on_result, tag in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name, on_result, tag))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
