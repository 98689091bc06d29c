"""Random-subspace ensembling for high-dimensional categorical data.

In high dimensions pairwise normalized mismatch fractions concentrate
(variance ``p(1-p)/J``), so distances between independent rows become
indistinguishable.  The workaround is to cluster many column subsets and
combine the per-subspace clusterings through a second-level ensemble
dissimilarity.  Two subset generators are provided: disjoint random blocks
covering every column (WOR) and a double bootstrap with duplicate removal
(WR) whose subsets keep roughly 47% of the columns each.

A subset is stored as sorted column indices in the narrowest unsigned type
that holds ``source_J - 1`` (:func:`index_dtype`): uint8 up to 256 columns,
uint16 up to 65,536 and uint32 beyond, so the paper's 200 WR subsets of
J = 50,000 columns take 9.4 MB, not 37.5 MB of int64.  The generators narrow
each subset as they draw it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import CategoricalMatrix, Clustering, DataError, _freeze
from .ensemble import EnsembleConfig, IncidenceMatrix, ensemble_cluster, recluster, size_range
from .hclust import Dendrogram
from .rng import child_seed, substream


def index_dtype(J: int) -> np.dtype:
    """The storage type of column indices below ``J``: the narrowest unsigned type holding ``J - 1``."""
    return np.min_scalar_type(int(J) - 1)


@dataclass(frozen=True)
class SubspaceSet:
    """Column-index subsets over ``source_J`` columns.  Checks that each is
    non-empty, of an integer type and within ``[0, source_J)``, in the input's
    own type, then stores it as ``index_dtype(source_J)``; an input of that type
    is not copied.  Sorted distinct indices (and for WOR a partition) are the
    generators' guarantee, not re-checked here."""

    subsets: tuple[np.ndarray, ...]
    source_J: int

    def __post_init__(self) -> None:
        if not self.subsets:
            raise DataError("subspace set must contain at least one subset")
        dtype = index_dtype(self.source_J)
        frozen = []
        for sub in self.subsets:
            arr = np.asarray(sub)
            if arr.size == 0:
                raise DataError("empty subsets are not allowed")
            if arr.dtype.kind not in "iu":  # a float would truncate, a bool is no index
                raise DataError(f"subset indices must be integers, got {arr.dtype}")
            if arr.min() < 0 or arr.max() >= self.source_J:
                raise DataError("subset indices must lie in [0, source_J)")
            # narrowed only now, so an out-of-range index has raised above and never wraps
            frozen.append(_freeze(np.ascontiguousarray(arr, dtype=dtype)))
        object.__setattr__(self, "subsets", tuple(frozen))

    @property
    def R(self) -> int:
        return len(self.subsets)


def wor_subspaces(J: int, blocks: int | None = None, seed: int = 0) -> SubspaceSet:
    """Chop a random permutation of the columns into disjoint blocks.

    With ``blocks`` given, the blocks all have length ``J / blocks`` (the
    count must divide ``J``); with ``blocks=None`` the block lengths are
    drawn sequentially as ``DUnif[1, remaining]`` until the columns are
    exhausted.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    if blocks is not None and (blocks < 1 or J % blocks != 0):
        raise ValueError(f"WOR block count {blocks} must be >= 1 and divide J={J}")
    rng = substream(seed)
    perm = rng.permutation(J).astype(index_dtype(J))
    if blocks is not None:
        lengths = [J // blocks] * blocks
    else:
        lengths = []
        remaining = J
        while remaining > 0:
            step = int(rng.integers(1, remaining + 1))
            lengths.append(step)
            remaining -= step
    subsets = tuple(np.sort(part) for part in np.split(perm, np.cumsum(lengths)[:-1]))
    return SubspaceSet(subsets=subsets, source_J=J)


def wr_subspaces(J: int, M: int | None = None, seed: int = 0) -> SubspaceSet:
    """``M`` (default 200) double-bootstrap column subsets with duplicate removal.

    Each subset starts from ``J`` draws with replacement, deduplicated
    (about ``1 - 1/e ~ 0.63`` of the columns survive); a second round of the
    same size is then drawn and deduplicated, leaving about 47% of the
    columns per subset.  Subsets use independent substreams keyed by their
    index, so any generation order yields the same family.
    """
    M = 200 if M is None else M
    if J < 1:
        raise ValueError("J must be >= 1")
    if M < 1:
        raise ValueError(f"WR subset count {M} must be >= 1")
    subsets, drawn, dtype = [], np.empty(J, dtype=bool), index_dtype(J)
    for r in range(M):
        rng = substream(seed, r)
        drawn[:] = False
        drawn[rng.integers(0, J, size=J)] = True
        first = np.count_nonzero(drawn)
        drawn[:] = False
        drawn[rng.integers(0, J, size=first)] = True
        subsets.append(np.flatnonzero(drawn).astype(dtype))
    return SubspaceSet(subsets=tuple(subsets), source_J=J)


def subspace_ensemble(
    x: CategoricalMatrix,
    s: SubspaceSet,
    base_cfg: EnsembleConfig,
    k_final: int,
) -> tuple[Clustering, Dendrogram]:
    """Cluster every column subset, then ensemble the per-subspace results.

    Each subspace is clustered by :func:`ensemble_cluster` under
    ``base_cfg`` (ENAL by default) at its own size ``K_r`` drawn from
    :func:`size_range`; the resulting labelings form an incidence matrix
    whose ensemble dissimilarity is re-agglomerated under average linkage
    and cut at ``k_final``.  Subspace pipelines use substreams keyed by the
    subset index and can run in any order.
    """
    if s.source_J != x.J:
        raise DataError(f"subsets drawn over {s.source_J} columns, data has J={x.J}")
    runs = []
    k_min, k_max = size_range(x.n)
    for r, sub in enumerate(s.subsets):
        seed_r = child_seed(base_cfg.seed, r)
        k_r = int(substream(seed_r, 1).integers(k_min, k_max + 1))
        try:
            runs.append(ensemble_cluster(x.select_columns(sub), replace(base_cfg, seed=seed_r), k_r)[0].labels)
        except DataError as e:   # a narrow block can fail where the whole table would not
            raise DataError(f"subspace {r + 1} of {s.R} ({len(sub)} of {x.J} columns): {e}") from e
    return recluster(IncidenceMatrix(np.stack(runs, axis=1)), "AL", k_final, base_cfg.alpha)
