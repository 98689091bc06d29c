"""Agglomerative hierarchical clustering over a dissimilarity matrix.

Single, average and complete linkage via Lance-Williams updates, with a
deterministic tie-break: among all cluster pairs attaining the minimal
dissimilarity, the pair whose (smaller, larger) original smallest-leaf
indices are lexicographically least is merged.  Average linkage is the
unweighted pair-group mean (size-weighted Lance-Williams update).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Clustering, DataError, DissimilarityMatrix, relabel_dense

LINKAGES = ("SL", "AL", "CL")


def check_linkage(linkage: str) -> None:
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}; expected one of SL, AL, CL")


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: children node ids, merge height, merged size.

    Node ids follow the usual convention: leaves are ``0..n-1``, the cluster
    created by the ``t``-th merge is ``n + t``.  ``left`` is the child whose
    cluster contains the smaller original leaf index.
    """

    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    """The full merge history of an agglomeration over ``n`` leaves.  Checks
    ``n >= 1``, ``n - 1`` merges and a root of size ``n``; that each node is
    one merge's child and each size sums its children's is :func:`agglomerate`'s
    guarantee, not replayed here."""

    n: int
    merges: tuple[Merge, ...]
    source: DissimilarityMatrix | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DataError("dendrogram needs at least one leaf")
        if len(self.merges) != self.n - 1:
            raise DataError("a dendrogram over n leaves has exactly n-1 merges")
        if self.merges and self.merges[-1].size != self.n:
            raise DataError("root size must equal the leaf count")

    @property
    def heights(self) -> np.ndarray:
        return np.array([m.height for m in self.merges], dtype=np.float64)


def agglomerate(d: DissimilarityMatrix, linkage: str = "AL") -> Dendrogram:
    """Build the full dendrogram of ``d`` under the given linkage.

    Repeatedly merges the pair of active clusters at minimal inter-cluster
    dissimilarity; the inter-cluster values are maintained by Lance-Williams
    updates (min for SL, max for CL, size-weighted mean for AL).
    """
    check_linkage(linkage)
    n = d.n
    if n < 2:
        raise DataError("agglomeration needs at least two rows")
    work = d.values.copy()
    np.fill_diagonal(work, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    node = np.arange(n, dtype=np.int64)   # dendrogram node id per slot
    merges: list[Merge] = []
    for t in range(n - 1):
        # a merge keeps the lower slot (its cluster's smallest leaf) and writes
        # one vector to row and column i, so ``work`` stays exactly symmetric and
        # argmin's first minimum is the tie-break: the first i < j, row-major
        i, j = divmod(int(work.argmin()), n)
        h = work[i, j]
        if linkage == "SL":
            row = np.minimum(work[i], work[j])
        elif linkage == "CL":
            row = np.maximum(work[i], work[j])
        else:
            row = (sizes[i] * work[i] + sizes[j] * work[j]) / (sizes[i] + sizes[j])
        work[i, :] = row
        work[:, i] = row
        work[i, i] = np.inf
        work[j, :] = np.inf
        work[:, j] = np.inf
        sizes[i] += sizes[j]
        merges.append(Merge(int(node[i]), int(node[j]), float(h), int(sizes[i])))
        node[i] = n + t
    return Dendrogram(n=n, merges=tuple(merges), source=d)


def _components(tree: Dendrogram, k: int) -> list[list[int]]:
    """Member lists of the ``k`` clusters left after the first ``n - k``
    merges, ordered by smallest member; each list is in merge order."""
    if not 1 <= k <= tree.n:
        raise ValueError(f"cut size must be in [1, {tree.n}], got {k}")
    members: dict[int, list[int]] = {i: [i] for i in range(tree.n)}
    for t in range(tree.n - k):
        m = tree.merges[t]
        members[tree.n + t] = members.pop(m.left) + members.pop(m.right)
    return sorted(members.values(), key=min)


def cut(tree: Dendrogram, k: int) -> Clustering:
    """Undo the last ``k - 1`` merges; components are labeled in order of
    their smallest member index."""
    return cut_with_outlier_deferral(tree, k)


def cut_with_outlier_deferral(tree: Dendrogram, k: int, alpha: float = 0.0) -> Clustering:
    """Cut at ``k``, then absorb clusters holding less than ``alpha * n`` of
    the data into their nearest surviving cluster.

    Each deferred point is reassigned independently to the surviving cluster
    with the smallest average dissimilarity to its (original) members, so the
    result has at most ``k`` clusters, each of size >= ``alpha * n``, labeled
    by first appearance.  Only a cut that defers a point reads the
    dissimilarity the dendrogram was built from (``tree.source``).
    """
    if not 0.0 <= alpha < 0.5:
        raise ValueError("alpha must lie in [0, 0.5)")
    groups = _components(tree, k)
    threshold = alpha * tree.n
    survivors = [g for g in groups if len(g) >= threshold]
    if not survivors:
        raise DataError(f"alpha={alpha} leaves no cluster of size >= {threshold:.3g}")
    labels = np.empty(tree.n, dtype=np.int64)
    for idx, group in enumerate(survivors):
        labels[group] = idx
    deferred = [p for g in groups if len(g) < threshold for p in g]
    if not deferred:
        return Clustering(labels=labels, K=len(survivors))
    if tree.source is None:
        raise ValueError("outlier deferral needs the dendrogram's source dissimilarity")
    for p in deferred:
        # means over the member lists in merge order: the summation order sets
        # the last bit, which decides ties between ensemble values k/B
        labels[p] = int(np.argmin([tree.source.values[p, g].mean() for g in survivors]))
    return relabel_dense(labels)


_NEWICK_SAFE = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.|-"
)


def _quote_label(label: str) -> str:
    if label and set(label) <= _NEWICK_SAFE:
        return label
    return "'" + label.replace("'", "''") + "'"


def to_newick(tree: Dendrogram, labels: tuple[str, ...] | None = None) -> str:
    """Newick serialization with branch lengths taken from merge heights
    (child branch length = parent height - child height; leaves sit at 0).

    Leaf ``i`` is named ``labels[i]``, or ``i`` when no labels are given.
    Each node's text is built in merge order from its children's, so a deep
    tree (an SL chain, say) needs no recursion; a subtree's text is copied
    once per ancestor, O(n * depth) characters in all."""
    names = labels or tuple(str(i) for i in range(tree.n))
    if len(names) != tree.n:
        raise ValueError("one label per leaf required")
    text = {i: _quote_label(name) for i, name in enumerate(names)}
    heights = [0.0] * tree.n
    for m in tree.merges:
        kids = [f"{text.pop(c)}:{max(m.height - heights[c], 0.0):.10g}" for c in (m.left, m.right)]
        text[len(heights)] = f"({','.join(kids)})"
        heights.append(m.height)
    return f"{text.popitem()[1]};"
