"""Spans around the calls the experiment harness makes into each layer.

The tracer swaps each layer function for a timing wrapper at the name the
caller looks it up by (``gwfam.experiment.simulate_aggregate``,
``gwfam.estimators.perron``, ...), so nothing under ``src/`` changes. A
name that no longer exists is listed as absent instead of failing the run.
Spans stay in memory; ``write_spans`` stores them once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields
from time import perf_counter

import numpy as np

# (module the caller looks the name up in, attribute, span name)
WRAPS = (
    ("gwfam.experiment", "model_from_dict", "models.model_from_dict"),
    ("gwfam.experiment", "mitosis_model", "models.mitosis_model"),
    ("gwfam.experiment", "reproduction_matrix", "spectral.reproduction_matrix"),
    ("gwfam.experiment", "perron", "spectral.perron"),
    ("gwfam.experiment", "asymptotic_variances", "spectral.asymptotic_variances"),
    ("gwfam.estimators", "reproduction_matrix", "spectral.reproduction_matrix"),
    ("gwfam.estimators", "perron", "spectral.perron"),
    ("gwfam.experiment", "simulate_aggregate", "simulate.simulate_aggregate"),
    ("gwfam.experiment", "sampling_view", "simulate.sampling_view"),
    ("gwfam.experiment", "draw_family_sample", "sampling.draw_family_sample"),
    ("gwfam.experiment", "is_non_sibling", "sampling.is_non_sibling"),
    ("gwfam.experiment", "prob_distinct_exact", "sampling.prob_distinct_exact"),
    ("gwfam.experiment", "mitosis_counts", "estimators.mitosis_counts"),
    ("gwfam.experiment", "mitosis_closed_form", "estimators.mitosis_closed_form"),
    ("gwfam.experiment", "amle_fit", "estimators.amle_fit"),
)
ROOT = "experiment.run_experiment"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos] if len(args) > pos else None


def _simulate_note(args, kwargs, trace) -> dict:
    totals = trace.totals()
    return {"parents": int(totals[-2]), "population": int(totals[-1])}


# Counts read off a call's arguments or result; they are computed, not timed.
NOTES = {
    "simulate.simulate_aggregate": _simulate_note,
    "spectral.perron": lambda args, kwargs, pair: {"iterations": pair.iterations},
    "sampling.prob_distinct_exact": lambda args, kwargs, _: {
        "distinct_sizes": len(_arg(args, kwargs, 0, "family_sizes"))
    },
    "estimators.amle_fit": lambda args, kwargs, fit: {
        "evaluations": fit.n_evaluations,
        "converged": bool(fit.converged),
    },
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    id: int  # replicate index within the batch, -1 outside a replicate
    batch: int
    note: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the layer functions while active and records one span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.batch = -1
        self._replicate = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    @contextmanager
    def span(self, name: str, note: dict | None = None):
        """A span opened by the benchmark itself, such as one harness call."""
        span = self._open(name)
        span.note = note
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        if self._stack:
            parent = self._stack[-1]
        else:
            parent = self._replicate = -1
        span = Span(name, perf_counter(), 0.0, parent, self._replicate, self.batch)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "simulate.simulate_aggregate":
                # every replicate starts with its simulation
                self._replicate = getattr(_arg(args, kwargs, 3, "seed"), "replicate", -1)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced


def write_spans(spans: list[Span], path) -> None:
    """One JSON array per line, after a first line naming the fields."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps([f.name for f in fields(Span)]) + "\n")
        for span in spans:
            fh.write(json.dumps(astuple(span)) + "\n")


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, replicates: int, r: int) -> dict[str, float]:
    """Per-layer figures of one traced pass over ``replicates`` replicates.

    ``.calls`` and ``.s_total`` are per replicate; ``s_p50``/``s_p90`` are
    percentiles over single calls; ``self_s`` is a span's time minus the
    time of the spans it directly encloses.
    """
    spans = tracer.spans
    by_name: dict[str, list[int]] = defaultdict(list)
    self_s = [s.seconds for s in spans]
    for i, span in enumerate(spans):
        by_name[span.name].append(i)
        if span.parent >= 0:
            self_s[span.parent] -= span.seconds

    def seconds(name):
        return [spans[i].seconds for i in by_name[name]]

    def notes(name, key):
        return [spans[i].note[key] for i in by_name[name] if spans[i].note]

    out: dict[str, float] = {}
    for name in (
        "models.mitosis_model",
        "spectral.perron",
        "spectral.reproduction_matrix",
        "simulate.simulate_aggregate",
        "sampling.draw_family_sample",
        "sampling.prob_distinct_exact",
        "estimators.amle_fit",
        "estimators.mitosis_closed_form",
    ):
        out[f"{name}.calls"] = len(by_name[name]) / replicates
        out[f"{name}.s_total"] = sum(seconds(name)) / replicates
        out[f"{name}.s_p50"] = _pct(seconds(name), 50)
        out[f"{name}.s_p90"] = _pct(seconds(name), 90)
    out["spectral.perron.iterations_p50"] = _pct(notes("spectral.perron", "iterations"), 50)
    sims = [spans[i] for i in by_name["simulate.simulate_aggregate"] if spans[i].note]
    parents = [s.note["parents"] for s in sims]
    out["simulate.parents_final"] = _pct(parents, 50)
    out["simulate.ns_per_parent"] = _pct([s.seconds * 1e9 / s.note["parents"] for s in sims], 50)
    out["sampling.records_per_parent_walked"] = _pct([r / p for p in parents], 50)
    out["sampling.distinct_sizes"] = _pct(notes("sampling.prob_distinct_exact", "distinct_sizes"), 50)
    out["estimators.amle_fit.evaluations_p50"] = _pct(notes("estimators.amle_fit", "evaluations"), 50)
    out["estimators.amle_fit.nonconverged"] = float(
        sum(not c for c in notes("estimators.amle_fit", "converged"))
    )
    out["estimators.amle_fit.self_s"] = _pct([self_s[i] for i in by_name["estimators.amle_fit"]], 50)
    out["experiment.self_s"] = _pct(
        [self_s[i] / spans[i].note["replicates"] for i in by_name[ROOT]], 50
    )
    return out
