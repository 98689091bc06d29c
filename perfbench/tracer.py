"""Per-layer tracing of ``catens`` from outside the package.

A :class:`Tracer` replaces public functions and methods of ``catens`` with
wrappers that record one span per call.  A layer's self time is the span's
duration minus the time spent in wrapped calls it made; the work done inside
each span (cells compared, merges, columns, ...) is counted from the call's
arguments and result.  Nothing in ``src/`` is edited: wrappers are installed
by attribute assignment and :meth:`Tracer.restore` puts every original back.

``from .core import hamming``-style imports bind a function under several
modules, so a function layer is patched in every loaded ``catens`` module
whose namespace holds the same function object.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

Counter = Callable[[inspect.BoundArguments, Any], dict]


def _hamming(a: inspect.BoundArguments, result: Any) -> dict:
    x = a.arguments["x"]
    return {"cells": x.n * x.n * x.J, "gap_calls": int(x.has_gaps)}


def _select_columns(a: inspect.BoundArguments, result: Any) -> dict:
    return {"cols": result.J}


def _encode(a: inspect.BoundArguments, result: Any) -> dict:
    return {"cells": result.n * result.J}


def _wr_subspaces(a: inspect.BoundArguments, result: Any) -> dict:
    return {
        "share_sum": sum(s.size for s in result.subsets) / result.source_J,
        "subsets": result.R,
    }


def _agglomerate(a: inspect.BoundArguments, result: Any) -> dict:
    return {"merges": len(result.merges), "n_max": result.n}


def _cut_deferral(a: inspect.BoundArguments, result: Any) -> dict:
    return {"k_requested": int(a.arguments["k"]), "k_realised": result.K}


def _build_incidence(a: inspect.BoundArguments, result: Any) -> dict:
    return {"columns": result.B}


def _ensemble_dissimilarity(a: inspect.BoundArguments, result: Any) -> dict:
    w = a.arguments["w"]
    return {"cells": w.n * w.n * w.B}


def _kmodes(a: inspect.BoundArguments, result: Any) -> dict:
    return {"iters": result.n_iter}


@dataclass(frozen=True)
class Layer:
    """One traced public callable: ``module.qualname`` inside ``catens``.

    ``name`` is the metric prefix, ``<module>.<function>`` with ``init``
    standing for a dataclass's ``__post_init__``.
    """

    name: str
    module: str
    qualname: str
    count: Counter | None = None


LAYERS: tuple[Layer, ...] = (
    Layer("core.hamming", "catens.core", "hamming", _hamming),
    Layer("core.select_columns", "catens.core", "CategoricalMatrix.select_columns", _select_columns),
    Layer("core.CategoricalMatrix.init", "catens.core", "CategoricalMatrix.__post_init__"),
    Layer("core.DissimilarityMatrix.init", "catens.core", "DissimilarityMatrix.__post_init__"),
    Layer("core.encode", "catens.core", "encode", _encode),
    Layer("subspace.wr_subspaces", "catens.subspace", "wr_subspaces", _wr_subspaces),
    Layer("subspace.subspace_ensemble", "catens.subspace", "subspace_ensemble"),
    Layer("hclust.agglomerate", "catens.hclust", "agglomerate", _agglomerate),
    Layer("hclust.cut", "catens.hclust", "cut"),
    Layer("hclust.cut_with_outlier_deferral", "catens.hclust", "cut_with_outlier_deferral", _cut_deferral),
    Layer("ensemble.build_incidence", "catens.ensemble", "build_incidence", _build_incidence),
    Layer(
        "ensemble.ensemble_dissimilarity", "catens.ensemble", "ensemble_dissimilarity", _ensemble_dissimilarity
    ),
    Layer("ensemble.IncidenceMatrix.init", "catens.ensemble", "IncidenceMatrix.__post_init__"),
    Layer("kmodes.kmodes", "catens.kmodes", "kmodes", _kmodes),
    Layer("kmodes.en_kmodes", "catens.kmodes", "en_kmodes"),
    Layer("io.read_fasta", "catens.io", "read_fasta"),
    Layer("io.load_fasta_matrix", "catens.io", "load_fasta_matrix"),
    Layer("io.write_newick", "catens.io", "write_newick"),
    Layer("io.write_labels_csv", "catens.io", "write_labels_csv"),
    Layer("metrics.classification_rate", "catens.metrics", "classification_rate"),
    Layer("cli.run_method", "catens.cli", "run_method"),
)

# every per-layer metric a traced run reports, with its unit and direction;
# BENCHMARK.json's ``per_layer`` list is this table
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("core.hamming.self_s", "s", "lower"),
    ("core.hamming.calls", "count", "lower"),
    ("core.hamming.cells", "count", "lower"),
    ("core.hamming.gap_calls", "count", "lower"),
    ("core.select_columns.self_s", "s", "lower"),
    ("core.select_columns.calls", "count", "lower"),
    ("core.select_columns.cols", "count", "lower"),
    ("core.CategoricalMatrix.init.self_s", "s", "lower"),
    ("core.CategoricalMatrix.init.calls", "count", "lower"),
    ("core.DissimilarityMatrix.init.self_s", "s", "lower"),
    ("core.DissimilarityMatrix.init.calls", "count", "lower"),
    ("core.encode.self_s", "s", "lower"),
    ("core.encode.cells", "count", "lower"),
    ("subspace.wr_subspaces.self_s", "s", "lower"),
    ("subspace.wr_subspaces.cols_share", "ratio", "lower"),
    ("subspace.subspace_ensemble.self_s", "s", "lower"),
    ("hclust.agglomerate.self_s", "s", "lower"),
    ("hclust.agglomerate.calls", "count", "lower"),
    ("hclust.agglomerate.merges", "count", "lower"),
    ("hclust.agglomerate.n_max", "count", "lower"),
    ("hclust.cut.self_s", "s", "lower"),
    ("hclust.cut.calls", "count", "lower"),
    ("hclust.cut_with_outlier_deferral.self_s", "s", "lower"),
    ("hclust.cut_with_outlier_deferral.calls", "count", "lower"),
    ("hclust.cut_with_outlier_deferral.k_realised_ratio", "ratio", "higher"),
    ("ensemble.build_incidence.self_s", "s", "lower"),
    ("ensemble.build_incidence.columns", "count", "lower"),
    ("ensemble.ensemble_dissimilarity.self_s", "s", "lower"),
    ("ensemble.ensemble_dissimilarity.cells", "count", "lower"),
    ("ensemble.IncidenceMatrix.init.self_s", "s", "lower"),
    ("kmodes.kmodes.self_s", "s", "lower"),
    ("kmodes.kmodes.calls", "count", "lower"),
    ("kmodes.kmodes.iters", "count", "lower"),
    ("kmodes.en_kmodes.self_s", "s", "lower"),
    ("io.read_fasta.self_s", "s", "lower"),
    ("io.load_fasta_matrix.self_s", "s", "lower"),
    ("io.write_newick.self_s", "s", "lower"),
    ("io.write_labels_csv.self_s", "s", "lower"),
    ("metrics.classification_rate.self_s", "s", "lower"),
    ("cli.run_method.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


class Tracer:
    """Records self time, call counts and work counters per layer.

    Spans nest through a stack of child-time accumulators.  Counting work
    after a call is charged to neither the call nor its caller, so it shows
    up in ``trace.unattributed_s`` rather than in any layer's self time.
    """

    def __init__(self, layers: tuple[Layer, ...] = LAYERS, clock: Callable[[], float] = time.perf_counter):
        self.layers = layers
        self.clock = clock
        self.stats: dict[str, dict[str, float]] = {l.name: {"self_s": 0.0, "calls": 0} for l in layers}
        self._stack: list[float] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, count: Counter | None = None) -> Callable:
        """``fn`` wrapped so that each call records a span under ``name``."""
        rec = self.stats.setdefault(name, {"self_s": 0.0, "calls": 0})
        signature = inspect.signature(fn) if count is not None else None
        clock, stack = self.clock, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                try:
                    return_value = fn(*args, **kwargs)
                finally:
                    children = stack.pop()
                    rec["self_s"] += clock() - start - children
                    rec["calls"] += 1
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    for key, value in count(bound, return_value).items():
                        old = rec.get(key, 0)
                        rec[key] = max(old, value) if key.endswith("_max") else old + value
                return return_value
            finally:
                # the caller's child time covers the span and the counting
                if stack:
                    stack[-1] += clock() - start

        return traced

    def install(self) -> None:
        """Patch every layer into the loaded ``catens`` modules."""
        for layer in self.layers:
            owner_name, _, attr = layer.qualname.rpartition(".")
            module = sys.modules[layer.module]
            if owner_name:
                owner = getattr(module, owner_name)
                self._patch(owner, attr, self.wrap(layer.name, owner.__dict__[attr], layer.count))
                continue
            original = module.__dict__[attr]
            traced = self.wrap(layer.name, original, layer.count)
            for name, mod in list(sys.modules.items()):
                if (name == "catens" or name.startswith("catens.")) and mod is not None:
                    if mod.__dict__.get(attr) is original:
                        self._patch(mod, attr, traced)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every original that :meth:`install` replaced."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def self_total(self) -> float:
        return sum(rec["self_s"] for rec in self.stats.values())


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced pass; layers that were
    not called report zero."""
    values: dict[str, float] = {}
    for name, rec in tracer.stats.items():
        for key, value in rec.items():
            values[f"{name}.{key}"] = value
    subsets = values.get("subspace.wr_subspaces.subsets", 0)
    values["subspace.wr_subspaces.cols_share"] = (
        values.get("subspace.wr_subspaces.share_sum", 0.0) / subsets if subsets else 0.0
    )
    requested = values.get("hclust.cut_with_outlier_deferral.k_requested", 0)
    values["hclust.cut_with_outlier_deferral.k_realised_ratio"] = (
        values.get("hclust.cut_with_outlier_deferral.k_realised", 0) / requested if requested else 0.0
    )
    values["trace.wall_s"] = traced_wall
    values["trace.unattributed_s"] = traced_wall - tracer.self_total()
    values["trace_overhead"] = traced_wall / untraced_wall
    return {name: values.get(name, 0) for name, _, _ in PER_LAYER}
