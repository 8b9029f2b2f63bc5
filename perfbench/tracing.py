"""Spans around the public functions of ``interference_lab``, recorded from outside.

``install`` replaces each traced function in every module namespace that
binds it (``clustering.exposure_share`` as well as
``clickstream.exposure_share``), and ``Tracer.restore`` puts the originals
back. Spans are kept in memory as (name, start, end, parent). A span's self
time is its duration minus the durations of its children; spans nest
strictly because the traced run is single-threaded (``--workers 1``).

Nothing called once per session or per edge is wrapped, so the overhead
stays proportional to the number of layer calls.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

PACKAGE = "interference_lab"
CLI_COMMANDS = ("gen", "simulate", "sweep", "cluster", "exposure", "frontier",
                "meta", "coverage")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), 0.0, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def wrap(self, fn, name: str, count=None):
        """``fn`` inside a span; ``count(counts, args, result)`` runs in a child
        span named ``trace.count`` so its cost is not charged to any layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                self.call("trace.count", count, self.counts, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _add(key: str, value):
    def count(counts, args, result):
        counts[key] += value(args, result)
    return count


def _bytes_written(counts, args, result):
    counts["reports.bytes_written"] += os.path.getsize(args[0])


def _sessions(counts, args, result):
    counts["clickstream.sessions"] += len(result)
    counts["clickstream.views"] += sum(len(s.viewed) for s in result)


def _read_rows(counts, args, result):
    _sessions(counts, args, result)
    with open(args[0], "rb") as fh:
        counts["clickstream.read_sessions.rows"] += sum(1 for _ in fh) - 1


# (module, function, counter run on its arguments and result)
TARGETS = [
    ("demand", "demand_at", None),
    ("demand", "generate_demand_system", None),
    ("experiment", "assign", None),
    ("experiment", "run_experiment", None),
    ("experiment", "monte_carlo_bias", _add("experiment.draws", lambda a, r: r.p)),
    ("experiment", "coverage_analysis", _add("experiment.draws", lambda a, r: 2 * r.p)),
    ("experiment", "sweep_substitution", None),
    # The chunks handed to the process pool, or run inline with one worker.
    ("experiment", "_parallel_map", _add("experiment.pool_jobs", lambda a, r: len(a[1]))),
    ("clickstream", "generate_sessions", _sessions),
    ("clickstream", "read_sessions", _read_rows),
    ("clickstream", "write_sessions", None),
    ("clickstream", "build_graph", _add("clickstream.edges", lambda a, r: len(r.edges))),
    ("clickstream", "exposure_share", None),
    ("clustering", "louvain",
     _add("clustering.louvain.n_clusters", lambda a, r: r.n_clusters)),
    ("clustering", "modularity", None),
    ("clustering", "frontier", None),
    ("reports", "read_partition", None),
    ("metaexp", "compare", None),
] + [("reports", f"write_{kind}", _bytes_written)
     for kind in ("bias_report", "sweep", "exposure", "frontier", "coverage",
                  "partition", "meta")]


def install(tracer: Tracer) -> None:
    """Wrap every target in every package namespace that binds it.

    A target the package no longer defines is skipped, and its metrics read 0.
    """
    importlib.import_module(f"{PACKAGE}.cli")
    modules = _package_modules()
    for module_name, attr, count in TARGETS:
        original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr, None)
        if original is None:
            continue
        traced = tracer.wrap(original, f"{module_name}.{attr}", count)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    tracer.patch(module, name, traced)
    system_cls = sys.modules[f"{PACKAGE}.demand"].DemandSystem
    load = system_cls.__dict__["load"]
    tracer.patch(system_cls, "load",
                 classmethod(tracer.wrap(load.__func__, "demand.load")))


def _total(durations: dict, name: str) -> float:
    return sum(durations.get(name, []))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from spans and counts.

    Each ``cli.<command>`` span covers one ``cli.main`` call.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    own: dict[str, float] = defaultdict(float)
    for span, self_time in zip(tracer.spans, tracer.self_times()):
        durations[span.name].append(span.end - span.start)
        own[span.name] += self_time
    calls = {name: len(d) for name, d in durations.items()}
    c = tracer.counts
    m = {
        "demand.demand_at.calls": calls.get("demand.demand_at", 0),
        "demand.demand_at.self_s": own["demand.demand_at"],
        "demand.load.s": _total(durations, "demand.load"),
        "demand.generate_demand_system.s":
            _total(durations, "demand.generate_demand_system"),
        "experiment.assign.calls": calls.get("experiment.assign", 0),
        "experiment.assign.self_s": own["experiment.assign"],
        "experiment.run_experiment.calls": calls.get("experiment.run_experiment", 0),
        "experiment.run_experiment.self_s": own["experiment.run_experiment"],
        "experiment.draws": c["experiment.draws"],
        "experiment.pool_jobs": c["experiment.pool_jobs"],
        "clickstream.generate_sessions.s":
            _total(durations, "clickstream.generate_sessions"),
        "clickstream.sessions": c["clickstream.sessions"],
        "clickstream.views": c["clickstream.views"],
        "clickstream.read_sessions.s": _total(durations, "clickstream.read_sessions"),
        "clickstream.read_sessions.rows": c["clickstream.read_sessions.rows"],
        "clickstream.write_sessions.s": _total(durations, "clickstream.write_sessions"),
        "clickstream.build_graph.s": _total(durations, "clickstream.build_graph"),
        "clickstream.edges": c["clickstream.edges"],
        "clickstream.exposure_share.calls": calls.get("clickstream.exposure_share", 0),
        "clickstream.exposure_share.s": _total(durations, "clickstream.exposure_share"),
        "clustering.louvain.calls": calls.get("clustering.louvain", 0),
        "clustering.louvain.s": _total(durations, "clustering.louvain"),
        "clustering.louvain.n_clusters": c["clustering.louvain.n_clusters"],
        "clustering.modularity.s": _total(durations, "clustering.modularity"),
        "clustering.frontier.self_s": own["clustering.frontier"],
        "reports.write.s": sum(_total(durations, n) for n in durations
                               if n.startswith("reports.write_")),
        "reports.bytes_written": c["reports.bytes_written"],
        "reports.read_partition.s": _total(durations, "reports.read_partition"),
        "metaexp.compare.calls": calls.get("metaexp.compare", 0),
        "cli.self_s": sum(t for n, t in own.items() if n.startswith("cli.")),
        "trace.spans": len(tracer.spans),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = _total(durations, f"cli.{command}")
    return m
