"""K-modes baseline and its evidence-accumulation ensemble (EN-KM).

K-modes alternates nearest-mode assignment under the Hamming distance with
componentwise recomputation of each mode as the most frequent code among
members.  Ties are deterministic: assignment prefers the lowest cluster
index, mode updates prefer the smallest code, and empty clusters are
reseeded from the point farthest from its current mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CategoricalMatrix, Clustering, DataError, bit_planes, plane_mismatches, relabel_dense
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
    n, J = codes.shape
    offsets = np.arange(J, dtype=np.int64) * span
    modes = np.empty((k, J), dtype=codes.dtype)
    for c in range(k):
        member = codes[labels == c]
        flat = (member.astype(np.int64) + offsets[None, :]).ravel()
        counts = np.bincount(flat, minlength=J * span).reshape(J, span)
        modes[c] = counts.argmax(axis=1)
    return modes


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
    n = x.n
    span = int(x.cardinalities.max())
    packed = bit_planes(codes, 0, max(1, (span - 1).bit_length()))
    modes = codes[rng.choice(n, size=k, replace=False)].copy()
    labels, dist = _assign(packed, modes)
    _repair_empty(codes, modes, labels, dist, k)
    it = 0
    for it in range(1, max_iter + 1):
        modes = _update_modes(codes, labels, k, span)
        new_labels, dist = _assign(packed, modes)
        _repair_empty(codes, modes, new_labels, dist, k)
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
    # dist[i] is row i's mismatch count to its assigned mode (0 for a reseeded row)
    return KModesState(modes=modes, labels=labels, cost=int(dist.sum()), n_iter=it)


def _repair_empty(
    codes: np.ndarray,
    modes: np.ndarray,
    labels: np.ndarray,
    dist: np.ndarray,
    k: int,
) -> None:
    present = np.bincount(labels, minlength=k) > 0
    for c in np.nonzero(~present)[0]:
        far = int(np.argmax(dist))
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
    random initialization; the runs are combined through the ensemble
    dissimilarity, re-clustered under average linkage and cut at
    ``k_final``.
    """
    sizes = draw_sizes(EnsembleConfig(B=B, seed=seed), x.n)
    runs = [
        relabel_dense(kmodes(x, int(k_b), seed=substream(seed, b)).labels)
        for b, k_b in enumerate(sizes)
    ]
    return recluster(IncidenceMatrix.of(runs), "AL", k_final)[0]
