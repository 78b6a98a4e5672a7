"""Span recording around the public calls of each layer.

The benchmark never edits the program: it attributes time to layers by
replacing, for the duration of a traced run, the module and class
attributes through which the layers call each other (for example
``repro.api.provenance_circuit`` or ``MaintainedFixpoint.retract``)
with wrappers that record a span.  A span is ``(name, layer, start,
end, parent, counters)``; spans stay in memory and are written out once
the run ends.  A layer's *self time* is its span time minus the time
covered by its child spans, so a stream event's maintain time excludes
the served-circuit rebuild nested inside it.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable, Dict, List, Optional, Tuple

# A site's *namer* maps (args, kwargs, result) to the span name; its
# *counter* maps them to a dict of counts recorded on the span.


def _fixed(name: str):
    return lambda args, kwargs, result: name


def _fixpoint_name(args, kwargs, result):
    return f"fixpoint.{result.semiring.name}"


def _fixpoint_counts(args, kwargs, result):
    return {"rounds": result.iterations, "rule_evals": result.rule_evaluations}


def _construct_name(args, kwargs, result):
    return f"construct.{result.construction}"


def _ground_counts(args, kwargs, result):
    return {"rules": len(result)}


def _compile_counts(args, kwargs, result):
    return {"segments": result.num_segments}


def _cone_counts(args, kwargs, result):
    return {"cone": args[0].last_cone_size}


def _maintain_name(kind: str):
    return _fixed(f"maintain.{kind}")


#: Every wrapped call site: (module or "module:Class", attribute, layer,
#: namer, counter).  Each entry names the attribute a caller looks up,
#: so the wrapper sits exactly on the path the call takes.
SITES: Tuple[Tuple[str, str, str, Callable, Optional[Callable]], ...] = (
    ("repro.datalog.parser", "parse_program", "parse", _fixed("parse"), None),
    ("repro.api", "analyze_program", "analyze", _fixed("analyze"), None),
    ("repro.api", "prune_unreachable", "analyze", _fixed("analyze"), None),
    ("repro.datalog.seminaive", "require_valid", "analyze", _fixed("analyze"), None),
    ("repro.datalog.seminaive", "prune_unreachable", "analyze", _fixed("analyze"), None),
    ("repro.datalog.seminaive", "relevant_grounding", "ground", _fixed("ground"), _ground_counts),
    ("repro.datalog.seminaive", "columnar_grounding", "ground", _fixed("ground"), _ground_counts),
    ("repro.datalog.analysis", "relevant_grounding", "ground", _fixed("ground"), _ground_counts),
    ("repro.constructions.generic", "relevant_grounding", "ground", _fixed("ground"), _ground_counts),
    ("repro.constructions.generic", "columnar_grounding", "ground", _fixed("ground"), _ground_counts),
    ("repro.datalog.incremental", "columnar_grounding", "ground", _fixed("ground"), _ground_counts),
    ("repro.datalog.seminaive:FixpointEngine", "evaluate", "fixpoint", _fixpoint_name, _fixpoint_counts),
    ("repro.api", "provenance_circuit", "construct", _construct_name, None),
    ("repro.constructions.auto", "compile_circuit", "compile", _fixed("compile"), _compile_counts),
    ("repro.circuits.runtime:IncrementalEvaluator", "__init__", "evaluate", _fixed("evaluate.seed"), None),
    ("repro.circuits.runtime:IncrementalEvaluator", "update", "evaluate", _fixed("evaluate.update"), _cone_counts),
    ("repro.api:StreamSession", "insert", "maintain", _maintain_name("insert"), None),
    ("repro.api:StreamSession", "retract", "maintain", _maintain_name("retract"), None),
    ("repro.api:StreamSession", "set_weight", "maintain", _maintain_name("weight"), None),
    ("repro.datalog.incremental:MaintainedFixpoint", "insert", "maintain", _maintain_name("insert"), None),
    ("repro.datalog.incremental:MaintainedFixpoint", "retract", "maintain", _maintain_name("retract"), None),
)


def paused(tracer: Optional["Tracer"]):
    """:meth:`Tracer.paused`, or nothing when the run is untraced."""
    return tracer.paused() if tracer is not None else nullcontext()


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "counts", "child_time")

    def __init__(self, name: str, layer: str, start: float, parent: int):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: Dict[str, float] = {}
        self.child_time = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.end - self.start - self.child_time


class Tracer:
    """In-memory span recorder; :meth:`installed` wraps every site."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.enabled = True

    def record(self, name: str, layer: str, start: float, end: float) -> None:
        """Add a finished top-level span timed by the caller (the
        client-timed serve routes, whose requests overlap)."""
        span = Span(name, layer, start, -1)
        span.end = end
        self.spans.append(span)

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, time.perf_counter(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.seconds

    def _wrap(self, original: Callable, layer: str, namer: Callable, counter: Optional[Callable]):
        tracer = self
        # Ground spans also count join probes, through the program's own
        # capture protocol.
        probed = layer == "ground"
        if probed:
            from repro.datalog.grounding import count_join_probes

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            index = tracer._open(layer, layer)
            try:
                if probed:
                    probes, result = count_join_probes(lambda: original(*args, **kwargs))
                else:
                    result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            span = tracer.spans[index]
            span.name = namer(args, kwargs, result)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            if probed:
                span.counts["probes"] = probes
            return result

        wrapper.__wrapped__ = original
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every call site in :data:`SITES`; restore on exit."""
        restore = []
        try:
            for where, attribute, layer, namer, counter in SITES:
                module_name, _, class_name = where.partition(":")
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attribute] if class_name else getattr(owner, attribute)
                restore.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(original, layer, namer, counter))
            yield self
        finally:
            for owner, attribute, original in reversed(restore):
                setattr(owner, attribute, original)

    @contextmanager
    def paused(self):
        """Record nothing inside the block (untimed work of a traced run)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- summaries -------------------------------------------------------

    def self_seconds_by(self, key: Callable[[Span], str]) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[key(span)] += span.self_seconds
        return dict(totals)

    def by_name(self) -> Dict[str, List[Span]]:
        groups: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans:
            groups[span.name].append(span)
        return dict(groups)

    def dump(self, path, extra: dict) -> None:
        """Write every span (and *extra*) as JSON to *path*."""
        origin = self.spans[0].start if self.spans else 0.0
        payload = dict(extra)
        payload["spans"] = [
            {
                "name": s.name,
                "layer": s.layer,
                "start_ms": round((s.start - origin) * 1e3, 4),
                "end_ms": round((s.end - origin) * 1e3, 4),
                "parent": s.parent,
                "counts": s.counts,
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))

