"""In-memory span recorder for the benchmark's traced runs.

The recorder wraps mhmm's layer functions as module or class attributes at
the places where the package looks them up, records one span per call
(name, start, end, parent span, session id), and restores every original
attribute when the traced session ends. Nothing under ``src/`` knows about
it. A lookup site that no longer exists is skipped; a layer whose sites are
all gone is reported as absent instead of failing the run, so private
helpers can be renamed or deleted without breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property

# Layer name -> lookup sites "module:attribute[.attribute]". A name is wrapped
# where it is looked up: cli.py, modelspec.py and fit.py import functions into
# their own namespaces, and the benchmark calls through the package namespace.
LAYERS = {
    "modelspec.parse": ("mhmm.cli:read_model_spec", "mhmm.modelspec:parse_model_spec"),
    "constraints.compile": ("mhmm.modelspec:ModelSpec.compile",),
    "interactions.space_build": (
        "mhmm.interactions:InteractionSpace.__init__",
        "mhmm.interactions:InteractionSpace.zeta",
        "mhmm.interactions:InteractionSpace.moebius",
        "mhmm.interactions:InteractionSpace.marginalizer",
        "mhmm.interactions:InteractionSpace.contrast",
    ),
    "interactions.invert": ("mhmm.fit:_invert_rows", "mhmm.interactions:_invert_rows"),
    "fit.m_step": ("mhmm.fit:constrained_m_step", "mhmm:constrained_m_step"),
    "fit.scoring": ("mhmm.fit:_MStepProblem.gradient_and_info",),
    "fit.em_fit": ("mhmm.modelspec:em_fit",),
    "model.forward_backward": ("mhmm.fit:forward_backward",),
    "model.log_likelihood": ("mhmm:log_likelihood",),
    "model.viterbi": ("mhmm:viterbi",),
    "model.simulate": ("mhmm.cli:simulate",),
    "model.read_series_csv": ("mhmm.cli:read_series_csv", "mhmm:read_series_csv"),
    "model.write_series_csv": ("mhmm.cli:write_series_csv",),
    "model.state_indices": ("mhmm.model:ObservedSeries.state_indices",),
    "selection.model_table": ("mhmm.cli:model_table", "mhmm.selection:lrt"),
}

# Sites whose calls and failures are counted without a span, so that their
# time stays in the caller's self time. em_fit drops restarts that raise.
COUNTED = {"fit.restarts": ("mhmm.fit:_run_em",)}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    session: int
    failed: bool


def _resolve(site: str):
    """Return (owner, attribute name, raw attribute) for a lookup site."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *owners, name = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, raw


def _count_result(counts: Counter, layer: str, args, result) -> None:
    if layer == "model.forward_backward":
        counts["model.forward_backward.steps"] += len(args[1])
    elif layer == "fit.em_fit":
        counts["fit.em_iterations"] += result.iterations


class Tracer:
    """Records spans of the calls made inside ``run_session``."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._session = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- installing wrappers --------------------------------------------------

    def _install(self, site: str, make_wrapper) -> bool:
        try:
            owner, name, raw = _resolve(site)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(site)
            return False
        if isinstance(raw, cached_property):
            wrapped = cached_property(make_wrapper(raw.func))
            wrapped.__set_name__(owner, name)
        else:
            wrapped = make_wrapper(raw)
        self._saved.append((owner, name, raw))
        setattr(owner, name, wrapped)
        return True

    def _span_wrapper(self, layer: str):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self._call(layer, fn, args, kwargs)

            return traced

        return make

    def _count_wrapper(self, layer: str):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts = self.counts[self._session]
                counts[f"{layer}.calls"] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    counts[f"{layer}.failed"] += 1
                    raise

            return counted

        return make

    def _call(self, layer, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_id)
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = Span(layer, start, end, parent, self._session, failed)
        _count_result(self.counts[self._session], layer, args, result)
        return result

    def absent_layers(self) -> list[str]:
        """Layers none of whose lookup sites exist any more."""
        gone = set(self.missing)
        everything = {**LAYERS, **COUNTED}
        return sorted(layer for layer, sites in everything.items() if gone.issuperset(sites))

    # -- sessions ---------------------------------------------------------------

    def run_session(self, session_id: int, body):
        """Run ``body()`` under a root span with every layer wrapped."""
        self.missing.clear()
        self._session = session_id
        try:
            for layer, sites in LAYERS.items():
                for site in sites:
                    self._install(site, self._span_wrapper(layer))
            for layer, sites in COUNTED.items():
                for site in sites:
                    self._install(site, self._count_wrapper(layer))
            return self._call("session", body, (), {})
        finally:
            while self._saved:
                owner, name, raw = self._saved.pop()
                setattr(owner, name, raw)

    # -- reporting ---------------------------------------------------------------

    def session_totals(self, session_id: int) -> dict[str, float]:
        """Per-layer self seconds, calls and failures of one session.

        Self time is a span's duration minus the durations of its child
        spans; calls are synchronous, so children never overlap.
        """
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.session == session_id and span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float, self.counts[session_id])
        for span_id, span in enumerate(self.spans):
            if span.session != session_id:
                continue
            totals[f"{span.name}.self_s"] += span.end - span.start - covered[span_id]
            totals[f"{span.name}.calls"] += 1
            totals[f"{span.name}.failed"] += span.failed
            if span.name == "session":
                totals["session.wall_s"] = span.end - span.start
        return totals

    def write(self, path, header: dict) -> None:
        """Write the header and one JSON array per span:
        [id, name, start, end, parent, session, failed]."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for span_id, s in enumerate(self.spans):
                row = [span_id, s.name, round(s.start - origin, 9), round(s.end - origin, 9),
                       s.parent, s.session, s.failed]
                out.write(json.dumps(row) + "\n")
