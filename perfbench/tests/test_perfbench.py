"""Self-tests of the benchmark: span arithmetic, patch hygiene, seeded inputs.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import catens  # noqa: E402
from catens.core import CategoricalMatrix, DissimilarityMatrix  # noqa: E402
from catens.ensemble import EnsembleConfig, ensemble_cluster  # noqa: E402

import run  # noqa: E402
from tracer import LAYERS, PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, oracle_hamming, oracle_problems  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> None:
        self.now += dt


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(layers=(), clock=clock)

    def leaf():
        clock.tick(2.0)

    def failing():
        clock.tick(0.5)
        raise KeyError("boom")

    def middle():
        clock.tick(1.0)
        leaf()
        leaf()
        clock.tick(3.0)

    def counted(result):
        clock.tick(10.0)  # counting is charged to no layer
        return {"work": 7, "n_max": 4}

    def root():
        clock.tick(0.25)
        middle()
        with pytest.raises(KeyError):
            failing()
        clock.tick(0.75)

    leaf = tracer.wrap("leaf", leaf)
    failing = tracer.wrap("failing", failing)
    middle = tracer.wrap("middle", middle, count=lambda bound, result: counted(result))
    root = tracer.wrap("root", root)
    root()

    stats = tracer.stats
    assert stats["leaf"] == {"self_s": 4.0, "calls": 2}
    assert stats["failing"] == {"self_s": 0.5, "calls": 1}
    assert stats["middle"] == {"self_s": 4.0, "calls": 1, "work": 7, "n_max": 4}
    assert stats["root"] == {"self_s": 1.0, "calls": 1}
    traced_wall = clock.now
    assert traced_wall == 19.5
    assert traced_wall - tracer.self_total() == 10.0


def test_max_counters_keep_the_largest_value():
    tracer = Tracer(layers=(), clock=FakeClock())
    sized = tracer.wrap("sized", lambda n: n, count=lambda bound, result: {"n_max": result, "cells": result})
    for n in (3, 9, 5):
        sized(n)
    assert tracer.stats["sized"]["n_max"] == 9
    assert tracer.stats["sized"]["cells"] == 17


def _same_bindings(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def _catens_bindings() -> dict[tuple[str, str], object]:
    snapshot = {}
    for name, mod in list(sys.modules.items()):
        if name == "catens" or name.startswith("catens."):
            for attr, value in vars(mod).items():
                snapshot[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("catens"):
                    for cattr, cvalue in vars(value).items():
                        snapshot[(f"{name}.{attr}", cattr)] = cvalue
    return snapshot


def test_wrappers_are_restored_after_a_traced_run():
    import catens.cli  # noqa: F401  load every module the layers live in
    import catens.io  # noqa: F401

    before = _catens_bindings()
    codes = np.array([[0, 1, 2, 0], [0, 1, 1, 0], [1, 0, 2, 2], [1, 0, 2, 1], [0, 1, 2, 1]])
    x = CategoricalMatrix(codes=codes, cardinalities=[2, 2, 3, 3])
    with Tracer() as tracer:
        core, ensemble = sys.modules["catens.core"], sys.modules["catens.ensemble"]
        assert core.hamming is ensemble.hamming is sys.modules["catens.cli"].hamming
        assert core.hamming is not before[("catens.core", "hamming")]
        labels, _ = ensemble_cluster(x, EnsembleConfig(B=4, seed=3), 2)
    assert _same_bindings(_catens_bindings(), before)
    assert tracer.stats["core.hamming"]["calls"] == 1
    assert tracer.stats["hclust.agglomerate"]["calls"] == 2
    assert tracer.stats["ensemble.build_incidence"]["columns"] == 4
    assert tracer.stats["core.CategoricalMatrix.init"]["calls"] == 0
    metrics = layer_metrics(tracer, traced_wall=1.0, untraced_wall=0.5)
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    assert metrics["trace_overhead"] == 2.0
    assert metrics["core.hamming.cells"] == 5 * 5 * 4


def test_restore_after_an_exception_inside_the_traced_region():
    before = _catens_bindings()
    with pytest.raises(catens.DataError):
        with Tracer():
            catens.hamming(CategoricalMatrix(codes=[[0, 1]], cardinalities=[1, 2]))
    assert _same_bindings(_catens_bindings(), before)


def test_every_layer_names_a_real_callable():
    for layer in LAYERS:
        owner = sys.modules[layer.module]
        for part in layer.qualname.split("."):
            owner = getattr(owner, part)
        assert callable(owner), layer


def test_oracle_skips_gap_positions():
    assert oracle_hamming("AC-GT", "AGTG-", "-") == (1, 3)
    assert oracle_hamming([0, 1, 2], [0, 2, 2], None) == (1, 3)


def test_oracle_flags_a_wrong_kernel_value():
    rows = [[0, 1, 2, 0], [0, 1, 1, 0], [1, 0, 2, 2]]
    x = CategoricalMatrix(codes=rows, cardinalities=[2, 2, 3, 3])
    good = catens.hamming(x)
    assert oracle_problems(rows, None, good, seed=1) == []
    values = good.values.copy()
    values[0, 2] = values[2, 0] = values[0, 2] + 1
    assert oracle_problems(rows, None, DissimilarityMatrix(values, "raw-count"), seed=1)


def _inputs(workload) -> bytes:
    if hasattr(workload, "draws"):
        return b"".join(x.codes.tobytes() + truth.labels.tobytes() for x, truth in workload.draws)
    if hasattr(workload, "x"):
        return workload.x.codes.tobytes() + workload.truth.labels.tobytes()
    if hasattr(workload, "fasta"):
        return workload.fasta.read_bytes() + workload.truth.labels.tobytes()
    return workload.first_replicate().codes.tobytes()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_inputs_are_reproducible_from_the_seed(name, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = WORKLOADS[name](7, dirs[0])
    again = WORKLOADS[name](7, dirs[1])
    other = WORKLOADS[name](8, dirs[2])
    assert _inputs(first) == _inputs(again)
    assert _inputs(first) != _inputs(other)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
