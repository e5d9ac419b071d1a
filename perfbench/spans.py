"""Spans around the public calls of each repro layer, and their self times.

The benchmark never edits the package: :func:`instrument` swaps the name each
caller looks up (a module global, a class attribute or an attribute of a
shared instance) for a timing wrapper, and :meth:`Tracer.restore` puts the
originals back.  A span records its name, layer, the instance it belongs to,
its start and end (``perf_counter_ns``) and the span that caused it.  Spans
stay in memory until the run ends.

A span opened on a thread with no open span of its own (the service
coordinator's event-loop thread) takes as parent the innermost open span of
the thread that created the tracer, which in a closed loop is the request it
is serving.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: The layers a row flows through, in pipeline order; ``bench`` is the
#: benchmark's own root span, whose self time is the uncovered share.
LAYERS = ("graphs", "core", "api", "backends", "analysis", "store", "service")
ROOT_LAYER = "bench"


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    layer: str
    trace: str
    start: int
    end: int


def union_length(intervals: Iterable[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Span id -> its duration minus the part its children's spans cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - union_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def layer_self_seconds(spans: Iterable[Span]) -> Dict[str, float]:
    """Self time per layer (seconds), including the ``bench`` root layer."""
    spans = list(spans)
    own = self_times(spans)
    out = {layer: 0.0 for layer in (ROOT_LAYER,) + LAYERS}
    for span in spans:
        out[span.layer] = out.get(span.layer, 0.0) + own[span.id] / 1e9
    return out


class Tracer:
    """In-memory span and counter recorder; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: List[Tuple[int, str, str]] = self._stack()
        self._key_trace: Dict[str, str] = {}
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[Tuple[int, str, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_instance(self, trace: str) -> None:
        """Spans opened on this thread from now on belong to ``trace``."""
        self._local.instance = trace

    def remember_key(self, key: str, trace: str) -> None:
        """Record that store ``key`` belongs to instance ``trace``."""
        self._key_trace[key] = trace

    def trace_of_key(self, key: str) -> Optional[str]:
        return self._key_trace.get(key)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def call(self, name: str, layer: str, func: Callable, args: tuple,
             kwargs: dict, trace: Optional[str] = None) -> Any:
        """Run ``func(*args, **kwargs)`` inside one span."""
        stack = self._stack()
        if stack:
            parent, parent_trace, _ = stack[-1]
        elif threading.get_ident() != self._main and self._main_stack:
            try:
                parent, parent_trace, _ = self._main_stack[-1]
            except IndexError:  # the main thread closed its span meanwhile
                parent, parent_trace = 0, ""
        else:
            parent, parent_trace = 0, ""
        if trace is None:
            trace = getattr(self._local, "instance", None) or parent_trace
        span_id = next(self._ids)
        stack.append((span_id, trace, layer))
        start = time.perf_counter_ns()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, layer, trace, start, end))

    def in_layer(self, layer: str) -> bool:
        """True when this thread's innermost open span belongs to ``layer``."""
        stack = self._stack()
        return bool(stack) and stack[-1][2] == layer

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def patch(self, owner: Any, attr: str, wrapper_of: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``wrapper_of(original)`` until restore."""
        had_own = attr in getattr(owner, "__dict__", {})
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, wrapper_of(original))

    def timed(self, owner: Any, attr: str, name: str, layer: str,
              trace_of: Optional[Callable[..., Optional[str]]] = None) -> None:
        """Patch ``owner.attr`` so every call records one ``name`` span."""

        def wrapper_of(original: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                trace = trace_of(*args, **kwargs) if trace_of else None
                return self.call(name, layer, original, args, kwargs, trace)

            return wrapper

        self.patch(owner, attr, wrapper_of)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #
    def total_seconds(self, name: str) -> float:
        """Summed duration of every span called ``name`` (inclusive)."""
        return sum(s.end - s.start for s in self.spans if s.name == name) / 1e9

    def span_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_seconds_of(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        own = self_times(self.spans)
        return sum(own[s.id] for s in self.spans if s.name == name) / 1e9

    def dump(self, path: Any) -> None:
        """Write every span as one JSON line (ids, names, ns timestamps)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict(), separators=(",", ":")))
                handle.write("\n")


def _instance_id(family: Any, size: Any, rep: Any) -> str:
    return f"{family}:{size}:{rep}"


def instrument(tracer: Tracer, backend: str) -> None:
    """Wrap the public call of every layer at the name its caller uses.

    ``backend`` names the requested engine; its shared instance (and the
    reference engine it falls back to) get their ``run_task`` wrapped.
    """
    import repro.analysis.sweep as sweep
    import repro.api.grid as grid
    import repro.core.labeling as labeling
    import repro.core.sequences as sequences
    from repro.api.schemes import get_scheme, scheme_names
    from repro.backends import resolve_backend
    from repro.store import ResultStore

    # graphs: materialize_instance (seed + generator + source) and the
    # generator itself; the grid runner imports materialize_instance from
    # the sweep module at call time.
    def materialize_of(original: Callable) -> Callable:
        def wrapper(config: Any, family: str, size: int, rep: int) -> Any:
            trace = _instance_id(family, size, rep)
            tracer.set_instance(trace)
            return tracer.call("graphs.materialize", "graphs", original,
                               (config, family, size, rep), {}, trace)

        return wrapper

    tracer.patch(sweep, "materialize_instance", materialize_of)
    tracer.timed(sweep, "generate_family", "graphs.generate", "graphs")

    # core: the Section 2.1 construction and the per-stage dominating sets.
    tracer.timed(labeling, "build_sequences", "core.build_sequences", "core")
    tracer.timed(sequences, "minimal_dominating_subset", "core.dominating", "core")

    # core / api: every registered scheme is one shared instance, so an
    # instance attribute shadows the class method for every caller.
    for name in scheme_names():
        scheme = get_scheme(name)
        tracer.timed(scheme, "build_labels", "core.build_labels", "core")
        tracer.timed(scheme, "run", "api.run", "api")
        tracer.timed(scheme, "build_task", "api.build_task", "api")
        tracer.timed(scheme, "derive_outcome", "api.derive_outcome", "api")

    # backends: the shared engine instance and its reference fallback.
    engine = resolve_backend(backend)
    engines = [engine]
    fallback = getattr(engine, "_fallback", None)
    if fallback is not None:
        engines.append(fallback)
    for obj in engines:
        def run_task_of(original: Callable) -> Callable:
            def wrapper(task: Any) -> Any:
                nested = tracer.in_layer("backends")
                result = tracer.call("backends.run_task", "backends", original,
                                     (task,), {})
                if not nested:
                    tracer.count("backends.tasks")
                    tracer.count("backends.rounds", result.simulation.stop_round)
                return result

            return wrapper

        tracer.patch(obj, "run_task", run_task_of)

    # analysis: the row flattening, whose cost is mostly the radius BFS.
    tracer.timed(grid, "metrics_from_run", "analysis.metrics_from_run", "analysis")

    # store: key hashing (grid runner and coordinator both look it up in
    # repro.api.grid) and the three store accesses.
    def grid_unit_key_of(original: Callable) -> Callable:
        def wrapper(config: Any, unit: Any, **kwargs: Any) -> str:
            trace = _instance_id(*unit[:3])
            key = tracer.call("store.grid_unit_key", "store", original,
                              (config, unit), kwargs, trace)
            tracer.remember_key(key, trace)
            return key

        return wrapper

    tracer.patch(grid, "grid_unit_key", grid_unit_key_of)

    def by_key(store: Any, key: str, *_: Any, **__: Any) -> Optional[str]:
        return tracer.trace_of_key(key)

    tracer.timed(ResultStore, "put", "store.put", "store", trace_of=by_key)
    tracer.timed(ResultStore, "get", "store.get", "store", trace_of=by_key)

    def contains_of(original: Callable) -> Callable:
        def wrapper(store: Any, key: str) -> bool:
            hit = tracer.call("store.contains", "store", original, (store, key),
                              {}, tracer.trace_of_key(key))
            tracer.count("store.hits", 1 if hit else 0)
            return hit

        return wrapper

    tracer.patch(ResultStore, "__contains__", contains_of)
