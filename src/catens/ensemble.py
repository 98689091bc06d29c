"""Second-stage ensembling of base hierarchical clusterings.

A batch of base clusterings of sizes ``K_b ~ DUnif[2, ceil(sqrt n)]`` is cut
from one dendrogram and stacked into an incidence matrix; the ensemble
dissimilarity between two rows is the fraction of base clusterings that
separate them.  Re-clustering that matrix with the same linkage gives the
ensembled variants of single/average/complete linkage clustering.

The base cuts of one dendrogram are nested: with ``t_ij`` the index
(from 0) of the merge that first joins rows ``i`` and ``j``, the number of
base cuts separating them is ``count_ij = #{b : k_b >= n - t_ij}``.  So at
alpha = 0, when ``k_final`` is one of the drawn sizes, every pair inside a
cluster of the base ``k_final`` cut has a smaller count than every pair
across two of them, by at least one cut (1/B in dissimilarity), and ENxL
returns HCxL's partition at ``k_final``.  At any ``k_final`` ENxL's partition
refines HCxL's cut at the largest drawn size <= ``k_final`` (1 if none) and is
coarser than its cut at the smallest drawn size >= ``k_final`` (n if none): at
alpha = 0 the ensemble can only re-cut its base tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CategoricalMatrix, Clustering, DataError, DissimilarityMatrix, _freeze, hamming, mismatch_counts
from .hclust import Dendrogram, agglomerate, check_alpha, check_linkage, cut_with_outlier_deferral
from .rng import substream


@dataclass(frozen=True)
class IncidenceMatrix:
    """``n x B`` table whose column ``b`` holds each row's cluster index in
    the ``b``-th base clustering.  Labels are only compared within a column,
    so any integers serve and only the shape (non-empty, 2-D) is checked."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.ascontiguousarray(np.asarray(self.entries, dtype=np.int64))
        if entries.ndim != 2 or entries.shape[0] < 1 or entries.shape[1] < 1:
            raise DataError("incidence matrix must be a non-empty 2-D array")
        object.__setattr__(self, "entries", _freeze(entries))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def B(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class EnsembleConfig:
    """Knobs for one ensembling stage; base sizes come from :func:`size_range`."""

    B: int = 25
    linkage: str = "AL"
    seed: int = 0
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.B < 1:
            raise ValueError("ensemble size B must be >= 1")
        check_alpha(self.alpha)
        check_linkage(self.linkage)


def size_range(n: int) -> tuple[int, int]:
    """The base clustering sizes ``(k_min, k_max) = (2, ceil(sqrt n))`` for ``n`` rows."""
    if n < 2:
        raise DataError(f"base clusterings need at least 2 rows, got {n}")
    return 2, math.ceil(math.sqrt(n))


def draw_sizes(cfg: EnsembleConfig, n: int) -> np.ndarray:
    """Draw the ``B`` base clustering sizes for a dataset of ``n`` rows."""
    k_min, k_max = size_range(n)
    return substream(cfg.seed).integers(k_min, k_max + 1, size=cfg.B)


def build_incidence(
    d: DissimilarityMatrix,
    sizes: np.ndarray,
    linkage: str = "AL",
    alpha: float = 0.0,
) -> IncidenceMatrix:
    """Cut one dendrogram of ``d`` at every requested size: once per distinct size, as a cut
    is a pure function of (tree, size, alpha), each column repeating its size's cut.  The
    only ensemble randomness lives in the size draws."""
    tree = agglomerate(d, linkage)
    distinct, column = np.unique(sizes, return_inverse=True)
    cuts = np.stack([cut_with_outlier_deferral(tree, int(k), alpha).labels for k in distinct], axis=1)
    return IncidenceMatrix(cuts[:, column])


def ensemble_dissimilarity(w: IncidenceMatrix) -> DissimilarityMatrix:
    """Fraction of base clusterings separating each pair of rows.

    Entries are compared within their own column only; the result takes
    values in {0, 1/B, ..., 1} and is exactly symmetric with zero diagonal.
    """
    counts, _ = mismatch_counts(w.entries)
    counts /= w.B
    return DissimilarityMatrix(values=counts, kind="ensemble")


def recluster(
    w: IncidenceMatrix, linkage: str, k_final: int, alpha: float = 0.0
) -> tuple[Clustering, Dendrogram]:
    """The second stage shared by every ensemble: the ensemble dissimilarity
    of ``w``, agglomerated under ``linkage`` and cut at ``k_final`` with
    small-cluster deferral at ``alpha``."""
    tree = agglomerate(ensemble_dissimilarity(w), linkage)
    return cut_with_outlier_deferral(tree, k_final, alpha), tree


def ensemble_cluster(
    data: CategoricalMatrix | DissimilarityMatrix,
    cfg: EnsembleConfig,
    k_final: int,
) -> tuple[Clustering, Dendrogram]:
    """Two-stage ensembled clustering (ENSL/ENAL/ENCL by ``cfg.linkage``).

    Base dissimilarity -> incidence matrix of base cuts -> ensemble
    dissimilarity -> re-agglomeration under the same linkage -> cut at
    ``k_final``.  Using the same linkage at both stages follows the finding
    that mixed-linkage pipelines do worse.  The base dissimilarity is dropped
    before the second stage, so one ``n x n`` table of each stage is alive at a time.
    """
    d = hamming(data, normalized=True) if isinstance(data, CategoricalMatrix) else data
    w = build_incidence(d, draw_sizes(cfg, d.n), cfg.linkage, cfg.alpha)
    del d
    return recluster(w, cfg.linkage, k_final, cfg.alpha)
