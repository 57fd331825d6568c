"""Spans around the public functions of each layer, recorded from outside.

The program itself carries no tracing.  For a traced run, :func:`install`
replaces each layer function listed in :data:`LAYERS` with a wrapper that
records one :class:`Span` per call: name, start, end, parent span, request id
and any exact counts the layer's result carries.  :func:`uninstall` puts every
original back, and :func:`installed` lets an untraced run prove that nothing
is wrapped.

Where a module imported a layer function by name (``core.problem`` imports
``provenance_relation``, ``solver.backends`` imports scipy's ``milp``), the
wrapper is set on every ``repro`` module whose attribute *is* the original,
so it patches the name each caller actually looks up.

Spans inherit their parent through a context variable.  The partitioned
solver fans partitions out to a thread pool, and pool threads start with an
empty context, so the pool class the solver looks up is replaced by one that
runs each task in a copy of the submitting context; Stage-2 spans in worker
threads then hang off the ``stage2`` span that waited for them.

Spans are kept in memory and written out when the run ends.  A wrapper
records only inside a request (a root span opened by the benchmark or by the
daemon's request handler), so the benchmark's own checking code, which calls
some of the same functions after the timed window, never shows up.
"""

from __future__ import annotations

import contextvars
import functools
from contextlib import contextmanager
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)
_MARK = "__perfbench_original__"


class Span:
    __slots__ = ("span_id", "name", "start", "end", "parent", "request", "counts")

    def __init__(self, span_id, name, start, parent, request):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.counts = {}

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "counts": self.counts,
        }


class Recorder:
    """An in-memory span store shared by every thread of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def open(self, name: str, request=None):
        """Open a span; a span without a request id and without a parent is root-less
        and not recorded (returns ``None``)."""
        parent = _CURRENT.get()
        if parent is None and request is None:
            return None, None
        span = Span(
            next(self._ids),
            name,
            time.perf_counter(),
            parent.span_id if parent is not None else None,
            request if request is not None else parent.request,
        )
        return span, _CURRENT.set(span)

    def close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def root(self, name: str, request):
        """A request's root span around the ``with`` body."""
        span, token = self.open(name, request)
        try:
            yield span
        finally:
            self.close(span, token)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump([span.to_dict() for span in self.spans], handle)


# ---------------------------------------------------------------------------
# Counts taken from a layer's arguments and result
# ---------------------------------------------------------------------------

def _rows(result, args, kwargs):
    return {"rows": len(result.tuples)}


def _candidates(result, args, kwargs):
    return {"count": len(result)}


def _partitions(result, args, kwargs):
    sizes = [part.size for part in result.partitions]
    return {"partitions": len(sizes), "largest_partition": max(sizes, default=0)}


def _milp_model(result, args, kwargs):
    return {"models": 1, "vars": result.num_variables, "constraints": result.num_constraints}


def _array_bytes(result, args, kwargs):
    total = 0
    for value in result.values():
        total += getattr(value, "nbytes", 0)
    return {"bytes": total}


def _patterns(result, args, kwargs):
    return {"patterns": len(result.patterns)}


def _cache_get(result, args, kwargs):
    cache = args[0]
    default = args[2] if len(args) > 2 else kwargs.get("default")
    outcome = "misses" if result is default else "hits"
    return {f"{cache.name}.{outcome}": 1}


def _explain_result(result, args, kwargs):
    return {
        "cached_report": int(result.cached_report),
        "cached_problem": int(result.cached_problem),
    }


def _ingest(result, args, kwargs):
    caches = result.get("caches", {})
    return {
        "ingests": 1,
        "rewired": caches.get("rewired", 0),
        "evicted": caches.get("evicted", 0),
    }


def _count_calls(result, args, kwargs):
    return {"calls": 1}


#: (span name, module, attribute path, counts-from-result).  Span names are the
#: metric stems reported by the benchmark; several functions may share one.
LAYERS = (
    ("stage1", "repro.core.problem", "build_problem", None),
    ("plan.provenance", "repro.relational.provenance", "provenance_relation", _rows),
    ("plan.scalar", "repro.relational.executor", "scalar_result", None),
    ("canonical", "repro.core.canonical", "canonicalize", None),
    ("matching.features", "repro.matching.features", "TupleFeatureCache.from_tuples", None),
    ("matching.candidates", "repro.matching.tuple_matching", "generate_candidates", _candidates),
    ("matching.calibrate", "repro.matching.calibration", "calibrate_matches", None),
    ("graphs.partition", "repro.graphs.smart_partition", "SmartPartitioner.partition", _partitions),
    ("stage2", "repro.core.partitioning", "PartitionedSolver.solve", None),
    ("milp.build", "repro.core.milp_model", "MILPTransformation.build", _milp_model),
    ("solver.lower", "repro.solver.model", "MILPModel.to_arrays", _array_bytes),
    ("solver.highs", "repro.solver.backends", "milp", None),
    ("summarize", "repro.core.summarize", "PatternSummarizer.summarize", _patterns),
    ("runs.compile", "repro.runs.spec", "compile_runs_payload", _count_calls),
    ("runs.align", "repro.runs.align", "align_runs", None),
    ("service.explain", "repro.service.engine", "ExplainService.explain", _explain_result),
    ("service.cache_get", "repro.service.cache", "ArtifactCache.get", _cache_get),
    ("api.parse", "repro.service.api", "request_from_payload", _count_calls),
    ("api.serialize", "repro.service.engine", "ServiceResult.to_dict", None),
    ("live.ingest", "repro.service.engine", "ExplainService.ingest", _ingest),
    ("live.apply", "repro.live.delta", "apply_changes_copy", None),
    ("live.invalidate", "repro.live.invalidation", "delta_affects", None),
)


def wrap(recorder: Recorder, name: str, function, counts=None):
    """``function`` recording a ``name`` span per call inside a request."""
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span, token = recorder.open(name)
        if span is None:
            return function(*args, **kwargs)
        try:
            result = function(*args, **kwargs)
            if counts is not None:
                span.counts = counts(result, args, kwargs)
            return result
        finally:
            recorder.close(span, token)

    setattr(wrapper, _MARK, function)
    return wrapper


class _ContextThreadPool(ThreadPoolExecutor):
    """A thread pool whose tasks run in a copy of the submitting context."""

    def submit(self, fn, /, *args, **kwargs):
        context = contextvars.copy_context()
        return super().submit(context.run, fn, *args, **kwargs)


class Installation:
    """The set of patches one :func:`install` made, undone by :meth:`restore`."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(recorder: Recorder) -> Installation:
    """Wrap every layer function for ``recorder``; returns the undo record."""
    installation = Installation()
    importlib.import_module("repro.service")
    for name, module_name, path, counts in LAYERS:
        owner, attribute = _resolve(module_name, path)
        raw = owner.__dict__[attribute]
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrap(recorder, name, raw.__func__, counts))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrap(recorder, name, raw.__func__, counts))
            else:
                wrapped = wrap(recorder, name, raw, counts)
            installation.patch(owner, attribute, wrapped)
            continue
        wrapped = wrap(recorder, name, raw, counts)
        for module in _repro_modules():
            if module.__dict__.get(attribute) is raw:
                installation.patch(module, attribute, wrapped)
    partitioning = importlib.import_module("repro.core.partitioning")
    installation.patch(partitioning, "ThreadPoolExecutor", _ContextThreadPool)
    return installation


def installed() -> list[str]:
    """Every layer name that currently reaches a wrapper (empty when untraced)."""
    found = []
    for name, module_name, path, _ in LAYERS:
        owner, attribute = _resolve(module_name, path)
        raw = owner.__dict__[attribute]
        function = getattr(raw, "__func__", raw)
        if hasattr(function, _MARK):
            found.append(name)
            continue
        if not isinstance(owner, type):
            for module in _repro_modules():
                if hasattr(module.__dict__.get(attribute), _MARK):
                    found.append(name)
                    break
    partitioning = sys.modules.get("repro.core.partitioning")
    if partitioning is not None and partitioning.ThreadPoolExecutor is _ContextThreadPool:
        found.append("thread-pool")
    return found


# ---------------------------------------------------------------------------
# From spans to per-layer metrics
# ---------------------------------------------------------------------------

#: Layers reported with their whole duration; every other layer is reported
#: as self time (its duration minus the part its child spans cover).
INCLUSIVE = ("stage1", "stage2", "service.explain", "live.ingest")


def _covered(intervals) -> float:
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def per_request(spans: list[dict]) -> dict:
    """``{request: {"self": {name: s}, "inclusive": {name: s}, "counts": {...}}}``."""
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    requests: dict = {}
    for span in spans:
        entry = requests.setdefault(
            span["request"], {"self": {}, "inclusive": {}, "counts": {}}
        )
        duration = span["end"] - span["start"]
        kids = [
            (max(kid["start"], span["start"]), min(kid["end"], span["end"]))
            for kid in children.get(span["id"], ())
        ]
        own = duration - _covered([k for k in kids if k[1] > k[0]])
        name = span["name"]
        entry["self"][name] = entry["self"].get(name, 0.0) + own
        entry["inclusive"][name] = entry["inclusive"].get(name, 0.0) + duration
        for key, value in span["counts"].items():
            counter = f"{name}.{key}"
            entry["counts"][counter] = entry["counts"].get(counter, 0) + value
    return requests


def layer_metrics(spans: list[dict]) -> tuple[dict, dict]:
    """Per-layer seconds and exact counts of one traced run.

    A layer's time is the median, over the requests that entered the layer,
    of the seconds the layer took in that request (self time, or the whole
    duration for :data:`INCLUSIVE` layers).  ``stage2.self`` is the Stage-2
    span's own self time: partition set-up, pool wait and merge.  Counts are
    totals over the run.  Returns ``(seconds, counts)``.
    """
    requests = per_request(spans)
    samples: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    for entry in requests.values():
        for name, own in entry["self"].items():
            value = entry["inclusive"][name] if name in INCLUSIVE else own
            samples.setdefault(name, []).append(value)
            if name == "stage2":
                samples.setdefault("stage2.self", []).append(own)
        for key, value in entry["counts"].items():
            counts[key] = counts.get(key, 0) + value
    seconds = {name: statistics.median(values) for name, values in samples.items()}
    return seconds, counts
