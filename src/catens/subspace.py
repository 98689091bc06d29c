"""Random-subspace ensembling for high-dimensional categorical data.

In high dimensions pairwise normalized mismatch fractions concentrate
(variance ``p(1-p)/J``), so distances between independent rows become
indistinguishable.  The workaround is to cluster many column subsets and
combine the per-subspace clusterings through a second-level ensemble
dissimilarity.  Two subset generators are provided: disjoint random blocks
covering every column (WOR) and a double bootstrap with duplicate removal
(WR) whose subsets keep roughly 47% of the columns each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import stirling2

from .core import CategoricalMatrix, Clustering, DataError
from .ensemble import EnsembleConfig, IncidenceMatrix, ensemble_cluster, recluster
from .hclust import Dendrogram
from .rng import child_seed, substream


@dataclass(frozen=True)
class SubspaceSet:
    """A family of column-index subsets over ``source_J`` columns."""

    subsets: tuple[np.ndarray, ...]
    mode: str
    source_J: int

    def __post_init__(self) -> None:
        if self.mode not in ("WOR", "WR"):
            raise ValueError(f"unknown subspace mode {self.mode!r}")
        if not self.subsets:
            raise DataError("subspace set must contain at least one subset")
        frozen = []
        for sub in self.subsets:
            arr = np.asarray(sub, dtype=np.intp)
            if arr.size == 0:
                raise DataError("empty subsets are not allowed")
            if np.unique(arr).size != arr.size:
                raise DataError("subset indices must be distinct")
            if arr.min() < 0 or arr.max() >= self.source_J:
                raise DataError("subset indices must lie in [0, source_J)")
            arr = np.ascontiguousarray(arr)
            arr.flags.writeable = False
            frozen.append(arr)
        if self.mode == "WOR":
            joined = np.concatenate(frozen)
            if joined.size != self.source_J or np.unique(joined).size != self.source_J:
                raise DataError("WOR subsets must partition the full column set")
        object.__setattr__(self, "subsets", tuple(frozen))

    @property
    def R(self) -> int:
        return len(self.subsets)


def wor_subspaces(J: int, h: int | None = None, seed: int = 0) -> SubspaceSet:
    """Chop a random permutation of the columns into disjoint blocks.

    With ``h`` given, the blocks all have length ``h`` (which must divide
    ``J``); with ``h=None`` the block lengths are drawn sequentially as
    ``DUnif[1, remaining]`` until the columns are exhausted.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    rng = substream(seed)
    perm = rng.permutation(J)
    if h is not None:
        if not 1 <= h <= J:
            raise ValueError(f"block size must lie in [1, {J}], got {h}")
        if J % h != 0:
            raise ValueError(f"block size {h} does not divide J={J}")
        lengths = [h] * (J // h)
    else:
        lengths = []
        remaining = J
        while remaining > 0:
            step = int(rng.integers(1, remaining + 1))
            lengths.append(step)
            remaining -= step
    subsets = []
    start = 0
    for length in lengths:
        subsets.append(np.sort(perm[start:start + length]))
        start += length
    return SubspaceSet(subsets=tuple(subsets), mode="WOR", source_J=J)


def wr_subspaces(J: int, M: int = 200, seed: int = 0) -> SubspaceSet:
    """Double-bootstrap column subsets with duplicate removal.

    Each subset starts from ``J`` draws with replacement, deduplicated
    (about ``1 - 1/e ~ 0.63`` of the columns survive); a second round of the
    same size is then drawn and deduplicated, leaving about 47% of the
    columns per subset.  Subsets use independent substreams keyed by their
    index, so any generation order yields the same family.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    if M < 1:
        raise ValueError("M must be >= 1")
    subsets = []
    for r in range(M):
        rng = substream(seed, r)
        first = np.unique(rng.integers(0, J, size=J))
        second = np.unique(rng.integers(0, J, size=first.size))
        subsets.append(second)
    return SubspaceSet(subsets=tuple(subsets), mode="WR", source_J=J)


def distinct_count_pmf(
    J: int,
    n_samples: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Distribution of the number of distinct values in ``J`` draws with
    replacement from ``J`` objects, as a vector over ``k = 1..J``.

    Exact for ``J <= 12`` (via Stirling numbers of the second kind for the
    surjection counts); beyond that a Monte Carlo estimate over
    ``n_samples`` bootstrap draws is returned.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    if J <= 12 and n_samples is None:
        total = J**J
        probs = [
            math.comb(J, k) * math.factorial(k) * stirling2(J, k, exact=True) / total
            for k in range(1, J + 1)
        ]
        return np.array(probs, dtype=np.float64)
    samples = 100_000 if n_samples is None else n_samples
    if samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = substream(seed)
    counts = np.zeros(J, dtype=np.int64)
    for _ in range(samples):
        k = np.unique(rng.integers(0, J, size=J)).size
        counts[k - 1] += 1
    return counts / samples


def subspace_ensemble(
    x: CategoricalMatrix,
    s: SubspaceSet,
    base_cfg: EnsembleConfig,
    k_final: int,
) -> tuple[Clustering, Dendrogram]:
    """Cluster every column subset, then ensemble the per-subspace results.

    Each subspace is clustered by :func:`ensemble_cluster` under
    ``base_cfg`` (ENAL by default) at its own size ``K_r`` drawn from the
    base size range; the resulting labelings form an incidence matrix whose
    ensemble dissimilarity is re-agglomerated under average linkage and cut
    at ``k_final``.  Subspace pipelines use substreams keyed by the
    subset index and can run in any order.
    """
    runs = []
    k_min, k_max = base_cfg.k_range(x.n)
    for r, sub in enumerate(s.subsets):
        if np.any(np.asarray(sub) >= x.J):
            raise DataError(f"subset {r} references columns beyond J={x.J}")
        seed_r = child_seed(base_cfg.seed, r)
        k_r = int(substream(seed_r, 1).integers(k_min, k_max + 1))
        runs.append(ensemble_cluster(x.select_columns(sub), replace(base_cfg, seed=seed_r), k_r)[0])
    return recluster(IncidenceMatrix.of(runs), "AL", k_final, base_cfg.alpha)
