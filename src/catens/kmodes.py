"""K-modes baseline and its evidence-accumulation ensemble (EN-KM).

K-modes alternates nearest-mode assignment under the Hamming distance with
recomputation of each mode as the most frequent code per column among
members, counted in one ``k x J x span`` int64 table.  Ties are
deterministic: assignment prefers the lowest cluster index, mode updates
prefer the smallest code, and empty clusters are reseeded from the point
farthest from its current mode among points whose cluster keeps another member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CategoricalMatrix, Clustering, DataError, bit_planes, plane_mismatches
from .ensemble import EnsembleConfig, IncidenceMatrix, draw_sizes, recluster
from .rng import substream


@dataclass(frozen=True)
class KModesState:
    """Converged K-modes run: modes, assignments and total Hamming cost."""

    modes: np.ndarray
    labels: np.ndarray
    cost: int
    n_iter: int


def _assign(packed: np.ndarray, modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # ``packed`` is bit_planes(codes, 0, planes); only the k modes are packed here
    dist, _ = plane_mismatches(packed, bit_planes(modes, 0, packed.shape[0]))
    labels = dist.argmin(axis=1)
    return labels, dist[np.arange(packed.shape[1]), labels]


def _update_modes(codes: np.ndarray, labels: np.ndarray, k: int, span: int) -> np.ndarray:
    # one table of k * J * span int64 counts (12.8 MB at k = 8, J = 50,000, span 4)
    J = codes.shape[1]
    flat = (labels[:, None] * J + np.arange(J)) * span + codes
    counts = np.bincount(flat.ravel(), minlength=k * J * span).reshape(k, J, span)
    return counts.argmax(axis=2).astype(codes.dtype)


def kmodes(
    x: CategoricalMatrix,
    k: int,
    seed: int | np.random.Generator = 0,
    max_iter: int = 100,
) -> KModesState:
    """K-modes with random initial modes drawn from the observations.

    Stops at a label fixpoint or after ``max_iter`` iterations; the cost
    (total Hamming distance of points to their assigned modes) never
    increases across iterations.
    """
    if x.has_gaps:
        raise DataError("k-modes requires gap-free data")
    if not 1 <= k <= x.n:
        raise ValueError(f"cluster count must lie in [1, {x.n}], got {k}")
    rng = substream(seed)
    codes = x.codes
    span = int(x.cardinalities.max())
    packed = bit_planes(codes, 0, max(1, (span - 1).bit_length()))
    modes = codes[rng.choice(x.n, size=k, replace=False)].copy()
    labels, dist = _assign(packed, modes)
    _repair_empty(codes, modes, labels, dist, k)
    it = 0
    for it in range(1, max_iter + 1):
        modes = _update_modes(codes, labels, k, span)
        old = labels
        labels, dist = _assign(packed, modes)
        _repair_empty(codes, modes, labels, dist, k)
        if np.array_equal(labels, old):
            break
    # dist[i] is row i's mismatch count to its assigned mode (0 for a reseeded row)
    return KModesState(modes=modes, labels=labels, cost=int(dist.sum()), n_iter=it)


def _repair_empty(
    codes: np.ndarray, modes: np.ndarray, labels: np.ndarray, dist: np.ndarray, k: int
) -> None:
    # only a row whose cluster keeps another member moves; while a cluster is
    # empty the other k - 1 hold all n >= k rows, so one of them holds two
    sizes = np.bincount(labels, minlength=k)
    for c in np.flatnonzero(sizes == 0):
        far = int(np.argmax(np.where(sizes[labels] > 1, dist, -1)))
        sizes[labels[far]] -= 1
        sizes[c] += 1
        labels[far] = c
        modes[c] = codes[far]
        dist[far] = 0


def en_kmodes(
    x: CategoricalMatrix,
    k_final: int,
    B: int = 25,
    seed: int = 0,
) -> Clustering:
    """Evidence-accumulation ensemble over ``B`` randomized K-modes runs.

    Run sizes follow ``DUnif[2, ceil(sqrt(n))]`` and each run gets a fresh
    random initialization; the runs' raw labels form the incidence matrix
    (only equality within a run matters), whose ensemble dissimilarity is
    re-clustered under average linkage and cut at ``k_final``.
    """
    sizes = draw_sizes(EnsembleConfig(B=B, seed=seed), x.n)
    runs = [kmodes(x, int(k_b), seed=substream(seed, b)).labels for b, k_b in enumerate(sizes)]
    return recluster(IncidenceMatrix(np.stack(runs, axis=1)), "AL", k_final)[0]
