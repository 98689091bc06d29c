"""Clustering evaluation: classification rate and replicate summaries.

The classification rate of a predicted clustering against a reference is
the fraction of rows matched under the best one-to-one relabeling of the
predicted clusters, found by the Hungarian algorithm on the confusion
matrix (rectangular shapes are allowed; unmatched clusters contribute
nothing, as with zero padding).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import Clustering, DataError


def _as_labels(c: Clustering | Sequence[int] | np.ndarray) -> np.ndarray:
    labels = c.labels if isinstance(c, Clustering) else np.asarray(c)
    return np.asarray(labels, dtype=np.int64)


def confusion(pred, truth) -> np.ndarray:
    """Overlap counts between predicted (rows) and true (columns) labels."""
    p, t = _as_labels(pred), _as_labels(truth)
    if p.shape != t.shape:
        raise DataError("predicted and true label vectors must have equal length")
    if p.size == 0:
        raise DataError("label vectors must be non-empty")
    if p.min() < 0 or t.min() < 0:
        raise DataError("labels must be non-negative")
    kp, kt = int(p.max()) + 1, int(t.max()) + 1
    counts = np.zeros((kp, kt), dtype=np.int64)
    np.add.at(counts, (p, t), 1)
    return counts


def classification_rate(pred, truth) -> float:
    """Fraction of rows correctly assigned under the optimal one-to-one
    matching of predicted to true cluster labels."""
    cm = confusion(pred, truth)
    rows, cols = linear_sum_assignment(cm, maximize=True)
    return float(cm[rows, cols].sum()) / cm.sum()


def replicate_summary(crs: Sequence[float]) -> tuple[float, float]:
    """Sample mean and sample standard deviation (``n - 1`` denominator).

    A single replicate reports a standard deviation of zero, matching the
    convention that deterministic methods carry no spread.
    """
    arr = np.asarray(list(crs), dtype=np.float64)
    if arr.size == 0:
        raise DataError("replicate summary needs at least one value")
    mean = float(arr.mean())
    sd = 0.0 if arr.size == 1 else float(arr.std(ddof=1))
    return mean, sd


def format_cell(mean: float, sd: float) -> str:
    """``mean(sd)`` to two decimals; the parenthesis is dropped when the
    spread is exactly zero."""
    cell = f"{mean:.2f}"
    if sd != 0.0:
        cell += f"({sd:.2f})"
    return cell


def format_results_table(results: Mapping[str, Mapping[str, tuple[float, float]]]) -> str:
    """TSV table with one row per method and one ``mean(sd)`` cell per
    dataset column, columns in order of first appearance."""
    methods = list(results)
    cols: list[str] = []
    for per_method in results.values():
        for name in per_method:
            if name not in cols:
                cols.append(name)
    lines = ["\t".join(["method", *cols])]
    for method in methods:
        cells = []
        for name in cols:
            if name in results[method]:
                cells.append(format_cell(*results[method][name]))
            else:
                cells.append("")
        lines.append("\t".join([method, *cells]))
    return "\n".join(lines) + "\n"
