"""Spans around calls into stratograph, recorded from outside the package.

A traced run replaces each public stage function, at the module attribute
its callers look it up by, with a wrapper that records a span: name,
start, end, parent span and trial id.  A span is named after the module
that defines the function (``dimension.classify_all``), so the layer comes
from the program, not from a list kept here.  A wrapped name that does not
exist yields no span.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

# Stage functions that reconstruct_structure looks up in its own module.
STRATIFY_STAGES = ("build_graph", "classify_all", "cluster_vertices",
                   "cluster_edges", "assign_incidence")
# Package names the benchmark's library trials call.
LIBRARY_CALLS = ("sample_graph", "validate_epsilon_sample",
                 "reconstruct_structure", "FitProblem", "fit",
                 "graph_isomorphic", "vertex_error")
# Classes the CLI constructs as a stage; its other imported classes
# (options, cloud, exceptions) are not stages.
CLI_STAGE_CLASSES = ("FitProblem",)

# Per-layer time metric -> span names whose self time it sums.
TIME_METRICS = {
    "sampler.sample_ms": ("sampler.sample_graph",),
    "sampler.certify_ms": ("sampler.validate_epsilon_sample",),
    "neighbors.build_graph_ms": ("neighbors.build_graph",),
    "dimension.classify_ms": ("dimension.classify_all",),
    "stratify.cluster_vertices_ms": ("stratify.cluster_vertices",),
    "stratify.cluster_edges_ms": ("stratify.cluster_edges",),
    "stratify.incidence_ms": ("stratify.assign_incidence",),
    "stratify.reconstruct_self_ms": ("stratify.reconstruct_structure",),
    "fit.fit_ms": ("fit.FitProblem", "fit.fit"),
    "metrics.score_ms": ("metrics.graph_isomorphic", "metrics.vertex_error"),
    "cli.command_ms": ("cli.main",),
}
# io functions are many and named by what they move.
IO_PREFIXES = {"io.write_": "io.write_ms", "io.read_": "io.read_ms"}

ROOT = "trial"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    trial: int


def metric_of(name: str) -> str | None:
    for metric, names in TIME_METRICS.items():
        if name in names:
            return metric
    for prefix, metric in IO_PREFIXES.items():
        if name.startswith(prefix):
            return metric
    return None


class Tracer:
    """Records spans for calls made inside ``trial`` blocks.

    Calls made outside a trial (set-up, checks) go straight through.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._trial = -1
        self._ranges: dict = {}
        self._patched: list = []

    def _wrap(self, module, attr: str):
        fn = getattr(module, attr, None)
        if fn is None or not callable(fn):
            return
        layer = getattr(fn, "__module__", "").rpartition(".")[2]
        name = f"{layer}.{getattr(fn, '__name__', attr)}"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self._trial)

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def install(self):
        """Wrap the stage names; restore them with ``uninstall``."""
        package = importlib.import_module("stratograph")
        for attr in LIBRARY_CALLS:
            self._wrap(package, attr)
        stratify = importlib.import_module("stratograph.stratify")
        for attr in STRATIFY_STAGES:
            self._wrap(stratify, attr)
        cli = importlib.import_module("stratograph.cli")
        for attr, obj in sorted(vars(cli).items()):
            defined_in = getattr(obj, "__module__", "") or ""
            if not defined_in.startswith("stratograph.") or defined_in == cli.__name__:
                continue
            if inspect.isfunction(obj) or attr in CLI_STAGE_CLASSES:
                self._wrap(cli, attr)
        self._wrap(cli, "main")

    def uninstall(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    @contextmanager
    def trial(self, trial_id: int):
        """Root span of one trial; every stage span of the trial nests in it."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._trial = trial_id
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = Span(ROOT, start, end, None, trial_id)
            self._ranges[trial_id] = (index, len(self.spans))

    def trial_spans(self, trial_id: int) -> list:
        first, stop = self._ranges[trial_id]
        return self.spans[first:stop]


def layer_times(spans: list) -> dict:
    """Per trial id: self time in ms of each layer metric.

    A span's self time is its duration minus the time its direct children
    cover.  The root's self time is the part of the trial no stage span
    covers; it is reported as ``unattributed_ms`` beside ``trial_ms``.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    per_trial = {}
    for s, child in zip(spans, covered):
        own_ms = ((s.end - s.start) - child) * 1e3
        row = per_trial.setdefault(s.trial, {})
        if s.name == ROOT:
            row["trial_ms"] = (s.end - s.start) * 1e3
            row["unattributed_ms"] = own_ms
            continue
        metric = metric_of(s.name)
        if metric is not None:
            row[metric] = row.get(metric, 0.0) + own_ms
    return per_trial
