"""Clustering evaluation: classification rate and replicate summaries.

The classification rate of a predicted clustering against a reference is
the fraction of rows matched under the best one-to-one relabeling of the
predicted clusters, found by the Hungarian algorithm (shortest augmenting
paths, integer potentials, O(K^3)) on the confusion matrix; rectangular
shapes are allowed, and unmatched clusters count nothing, as with padding.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

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
    return np.bincount(p * kt + t, minlength=kp * kt).reshape(kp, kt)


def classification_rate(pred, truth) -> float:
    """Fraction of rows correctly assigned under the optimal one-to-one
    matching of predicted to true cluster labels."""
    cm = confusion(pred, truth)
    return max_matching(cm) / cm.sum()


def max_matching(counts: np.ndarray) -> int:
    """Largest total of a one-to-one matching of rows to columns of a 2-D
    integer matrix: the Hungarian algorithm adds one row at a time along a
    shortest augmenting path of the negated counts, with integer potentials
    ``u`` (rows) and ``v`` (columns).  A tall matrix is transposed first."""
    cost = (-(counts.T if counts.shape[0] > counts.shape[1] else counts)).tolist()
    m = len(cost[0])
    # match[j]: the 1-based row on column j, 0 if free; column 0 is the root
    u, v, match = [0] * (len(cost) + 1), [0] * (m + 1), [0] * (m + 1)
    for i in range(1, len(cost) + 1):
        match[0], j0 = i, 0
        minv, way, used = [math.inf] * (m + 1), [0] * (m + 1), [False] * (m + 1)
        while match[j0]:
            used[j0] = True
            row, ui, delta, j1 = cost[match[j0] - 1], u[match[j0]], math.inf, 0
            for j in range(1, m + 1):
                if not used[j]:
                    cur = row[j - 1] - ui - v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(m + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
        while j0:  # flip the path back to the root
            match[j0], j0 = match[way[j0]], way[j0]
    return -sum(cost[i - 1][j - 1] for j, i in enumerate(match) if j and i)


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
    dataset column; every method has the same columns, in the order of the first."""
    cols = list(next(iter(results.values())))
    lines = ["\t".join(["method", *cols])]
    lines += ["\t".join([method, *(format_cell(*cells[c]) for c in cols)]) for method, cells in results.items()]
    return "\n".join(lines) + "\n"
