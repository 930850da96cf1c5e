"""Spans around divga's layers, recorded from outside the library.

For a traced call the tracer replaces each timed function under the
name its caller looks it up by (``divga.engine.select_diverse``, not
``divga.selection.select_diverse``, because the engine imported it by
name) and puts the originals back afterwards.

A span is a row of five columns kept in memory: name, start, end,
parent span and call id. A span's self time is its duration minus the
durations of its children, so the self times of one call add up to the
duration of its top-level ``call`` span.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

CALL = "call"


def _plain(fn):
    return fn


class TracedFitness:
    """Fitness wrapper that records one ``bench.fitness`` span per call.

    It pickles as the plain fitness, so worker processes evaluate
    untraced: their spans could not reach this process anyway.
    """

    def __init__(self, fn, tracer: "Tracer"):
        self.fn = fn
        self.tracer = tracer
        self.name_id = tracer.name_id("bench.fitness")

    def __call__(self, genes):
        span = self.tracer.open(self.name_id)
        try:
            return self.fn(genes)
        finally:
            self.tracer.close(span)

    def __reduce__(self):
        return _plain, (self.fn,)


class Tracer:
    """Span store plus named counters, both totals over the traced calls."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self.current = -1
        self.call_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        span = len(self.end)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.call.append(self.call_id)
        self.end.append(0.0)
        self.current = span
        self.start.append(perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = perf_counter()
        self.current = self.parent[span]

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, counter=None):
        """fn inside a span; counter(tracer, args, result) adds counts."""
        name_id = self.name_id(name)

        def traced(*args, **kwargs):
            span = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    @contextmanager
    def traced_call(self, call_id: int, patches):
        """One top-level call span with the layer patches installed."""
        saved = []
        try:
            for owner, attr, replacement in patches:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, replacement)
            self.call_id = call_id
            span = self.open(self.name_id(CALL))
            try:
                yield
            finally:
                self.close(span)
                self.call_id = -1
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def columns(self) -> dict:
        return {"names": np.array(self.names),
                "name": np.frombuffer(self.name, dtype=np.intc),
                "parent": np.frombuffer(self.parent, dtype=np.intc),
                "call": np.frombuffer(self.call, dtype=np.intc),
                "start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float)}

    def times(self) -> tuple[dict, dict, dict]:
        """Per span name: total seconds, total self seconds, span count."""
        cols = self.columns()
        duration = cols["end"] - cols["start"]
        parent = cols["parent"]
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested],
                               minlength=len(duration))
        own = duration - children
        k = len(self.names)
        inclusive = np.bincount(cols["name"], weights=duration, minlength=k)
        exclusive = np.bincount(cols["name"], weights=own, minlength=k)
        spans = np.bincount(cols["name"], minlength=k)
        return (dict(zip(self.names, inclusive.tolist())),
                dict(zip(self.names, exclusive.tolist())),
                dict(zip(self.names, spans.tolist())))

    def save(self, path) -> None:
        np.savez(path, **self.columns())


def _count_children(tracer, args, result):
    tracer.count("variation.children", len(result))


def _count_selection(tracer, args, result):
    tracer.count("selection.candidates", len(args[0]))
    tracer.count("selection.picks", len(result))


def _count_rows(tracer, args, result):
    tracer.count("distance.to_point_calls", 1)
    tracer.count("distance.rows", len(args[1]))


def _count_evaluations(tracer, args, result):
    tracer.count("engine.evaluations", result)


def layer_patches(tracer: Tracer, divga) -> list:
    """(owner, attribute, replacement) for every timed divga function."""
    engine, baselines, distance = divga.engine, divga.baselines, divga.distance
    pool_class = engine.ProcessPoolExecutor

    class CountingPool(pool_class):
        def __init__(self, *args, **kwargs):
            tracer.count("engine.pools", 1)
            super().__init__(*args, **kwargs)

    patches = [
        (divga, "run", tracer.wrap("engine.run", divga.run)),
        (divga, "run_de", tracer.wrap("baselines.de", divga.run_de)),
        (divga, "random_scan",
         tracer.wrap("baselines.scan", divga.random_scan)),
        (engine, "seed_population",
         tracer.wrap("genome.seed", engine.seed_population)),
        (engine, "produce_offspring",
         tracer.wrap("variation.offspring", engine.produce_offspring,
                     _count_children)),
        (engine, "select_diverse",
         tracer.wrap("selection.select", engine.select_diverse,
                     _count_selection)),
        (engine, "select_top_n",
         tracer.wrap("selection.select", engine.select_top_n,
                     _count_selection)),
        (engine, "default_r0", tracer.wrap("distance.r0", engine.default_r0)),
        (engine, "evaluate_population",
         tracer.wrap("engine.evaluate", engine.evaluate_population,
                     _count_evaluations)),
        (engine, "ProcessPoolExecutor", CountingPool),
        (baselines, "evaluate_population",
         tracer.wrap("baselines.de_evaluate", baselines.evaluate_population)),
    ]
    for method in ("__init__", "append", "close"):
        patches.append((engine.RunWriter, method,
                        tracer.wrap("engine.write",
                                    getattr(engine.RunWriter, method))))
    for cls in (distance.DistanceMeasure, distance.EuclideanSq,
                distance.DynamicSq, distance.HammingSq):
        if "to_point" in vars(cls):
            patches.append((cls, "to_point",
                            tracer.wrap("distance.to_point", cls.to_point,
                                        _count_rows)))
    return patches
