"""K-modes baseline and its evidence-accumulation ensemble (EN-KM).

K-modes alternates nearest-mode assignment under the Hamming distance with recomputation
of each mode as the most frequent code per column among members.  Ties are deterministic:
assignment prefers the lowest cluster index, mode updates prefer the smallest code, and
empty clusters are reseeded from the point farthest from its current mode among points
whose cluster keeps another member.  Runs go in lockstep, :func:`kmodes` as a batch of one
and :func:`en_kmodes` with all ``B``: each iteration packs the modes of the active runs
once and updates them with one ``bincount``.  A run leaves the active set at its own label
fixpoint (or ``_MAX_ITER``), so ``n_iter`` is counted per run and every run ends as it
would alone.  A group of runs keeps its update's indices and counts within ``_BLOCK_ELEMS``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .core import _BLOCK_ELEMS, CategoricalMatrix, Clustering, DataError, bit_planes, plane_mismatches
from .ensemble import EnsembleConfig, IncidenceMatrix, draw_sizes, recluster
from .rng import substream

_MAX_ITER = 100  # iteration cap of every k-modes run


@dataclass(frozen=True)
class KModesState:
    """Converged K-modes run: modes, assignments and total Hamming cost."""

    modes: np.ndarray
    labels: np.ndarray
    cost: int
    n_iter: int


def _check(x: CategoricalMatrix, k: int) -> None:
    if x.has_gaps:
        raise DataError("k-modes requires gap-free data")
    if not 1 <= k <= x.n:
        raise ValueError(f"cluster count must lie in [1, {x.n}], got {k}")


def _assign(
    codes: np.ndarray, packed: np.ndarray, modes: np.ndarray, ks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # ``packed`` is bit_planes(codes, 0, planes).  Each run takes the first least of its k modes,
    # then reseeds its empty clusters: only a row whose cluster keeps another member moves; while
    # a cluster is empty the other k - 1 hold all n >= k rows, so one of them holds two
    first = np.cumsum(ks) - ks
    dist = plane_mismatches(packed, bit_planes(modes, 0, packed.shape[0]))[0].T
    least = np.minimum.reduceat(dist, first)
    at = np.where(dist == np.repeat(least, ks, axis=0), np.arange(len(dist))[:, None], len(dist))
    labels = np.minimum.reduceat(at, first)
    sizes = np.bincount(labels.ravel(), minlength=len(modes))  # labels number clusters across runs
    for c in np.flatnonzero(sizes == 0):
        b = np.searchsorted(first, c, side="right") - 1  # the run that owns cluster c
        lab, d = labels[b], least[b]
        far = int(np.argmax(np.where(sizes[lab] > 1, d, -1)))
        sizes[lab[far]] -= 1  # c's own count stays 0: a lone member never moves anyway
        lab[far] = c
        modes[c] = codes[far]
        d[far] = 0
    return labels - first[:, None], least


def _update_modes(codes: np.ndarray, labels: np.ndarray, ks: np.ndarray, span: int) -> np.ndarray:
    # one table of sum(k) * J * span int64 counts; run b's clusters start at first[b]
    J = codes.shape[1]
    first = np.cumsum(ks) - ks
    flat = ((labels + first[:, None])[:, :, None] * J + np.arange(J)) * span
    flat += codes  # in place: numpy makes a fresh temporary for a broadcast operand
    counts = np.bincount(flat.ravel(), minlength=int(ks.sum()) * J * span).reshape(-1, J, span)
    return counts.argmax(axis=2).astype(codes.dtype)


def _runs(x: CategoricalMatrix, ks: np.ndarray | list, rngs: list) -> Iterator[KModesState]:
    codes, span, ks = x.codes, int(x.cardinalities.max()), np.asarray(ks, dtype=np.int64)
    packed = bit_planes(codes, 0, max(1, (span - 1).bit_length()))
    # a group's update indices (n x J per run) and counts (k x J x span) stay within _BLOCK_ELEMS
    group = max(1, _BLOCK_ELEMS // (x.J * max(x.n, int(ks.max()) * span)))
    for g in range(0, len(ks), group):
        k, it, old = ks[g:g + group], 0, -1  # no label equals -1
        ids, states = np.arange(len(k)), [None] * len(k)
        modes = np.concatenate([codes[r.choice(x.n, size=c, replace=False)] for r, c in zip(rngs[g:], k)])
        while True:
            labels, dist = _assign(codes, packed, modes, k)
            done = (labels == old).all(axis=1) | (it == _MAX_ITER)
            end = np.cumsum(k)
            for i in np.flatnonzero(done):
                states[ids[i]] = KModesState(modes[end[i] - k[i]:end[i]], labels[i], int(dist[i].sum()), it)
            if done.all():
                break
            ids, k, old, it = ids[~done], k[~done], labels[~done], it + 1
            modes = _update_modes(codes, old, k, span)
        yield from states


def kmodes(x: CategoricalMatrix, k: int, seed: int = 0) -> KModesState:
    """K-modes with random initial modes drawn from the observations by ``substream(seed)``.

    Stops at a label fixpoint or after ``_MAX_ITER`` iterations; the cost
    (total Hamming distance of points to their assigned modes) never
    increases across iterations.
    """
    _check(x, k)
    return next(_runs(x, [k], [substream(seed)]))


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
    re-clustered under average linkage and cut at ``k_final``, checked before any run.
    """
    _check(x, k_final)
    sizes = draw_sizes(EnsembleConfig(B=B, seed=seed), x.n)
    runs = _runs(x, sizes, [substream(seed, b) for b in range(B)])
    return recluster(IncidenceMatrix(np.stack([r.labels for r in runs], axis=1)), "AL", k_final)[0]
