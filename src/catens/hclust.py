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

_ALIASES = {
    "sl": "SL", "single": "SL",
    "al": "AL", "average": "AL",
    "cl": "CL", "complete": "CL",
}


def normalize_linkage(linkage: str) -> str:
    key = str(linkage).lower()
    if key not in _ALIASES:
        raise ValueError(f"unknown linkage {linkage!r}; expected one of SL, AL, CL")
    return _ALIASES[key]


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
    """The full merge history of an agglomeration over ``n`` leaves."""

    n: int
    merges: tuple[Merge, ...]
    source: DissimilarityMatrix | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DataError("dendrogram needs at least one leaf")
        if len(self.merges) != self.n - 1:
            raise DataError("a dendrogram over n leaves has exactly n-1 merges")
        seen: set[int] = set()
        size = {i: 1 for i in range(self.n)}
        for t, m in enumerate(self.merges):
            for child in (m.left, m.right):
                if child in seen or child not in size:
                    raise DataError("each node must be referenced exactly once as a child")
                seen.add(child)
            size[self.n + t] = size[m.left] + size[m.right]
            if m.size != size[self.n + t]:
                raise DataError("merged size must equal the sum of the children's sizes")
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
    link = normalize_linkage(linkage)
    n = d.n
    if n < 2:
        raise DataError("agglomeration needs at least two rows")
    work = d.values.copy()
    np.fill_diagonal(work, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    node = np.arange(n, dtype=np.int64)   # dendrogram node id per slot
    merges: list[Merge] = []
    for t in range(n - 1):
        h = work.min()
        # a merge keeps the lower slot, so each slot's index is its cluster's
        # smallest leaf and the tie-break is the first i < j in row-major order
        pos = np.argwhere(work == h)
        i, j = pos[pos[:, 0] < pos[:, 1]][0]
        if link == "SL":
            row = np.minimum(work[i], work[j])
        elif link == "CL":
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


def _labelled(groups: list[list[int]], n: int) -> Clustering:
    labels = np.empty(n, dtype=np.int64)
    for idx, group in enumerate(groups):
        labels[group] = idx
    return Clustering(labels=labels, K=len(groups))


def cut(tree: Dendrogram, k: int) -> Clustering:
    """Undo the last ``k - 1`` merges; components are labeled in order of
    their smallest member index."""
    return _labelled(_components(tree, k), tree.n)


def cut_with_outlier_deferral(tree: Dendrogram, k: int, alpha: float = 0.0) -> Clustering:
    """Cut at ``k``, then absorb clusters holding less than ``alpha * n`` of
    the data into their nearest surviving cluster.

    Each deferred point is reassigned independently to the surviving cluster
    with the smallest average dissimilarity to its (original) members, so the
    result has at most ``k`` clusters, each of size >= ``alpha * n``.  The
    dendrogram must carry the dissimilarity it was built from.
    """
    if not 0.0 <= alpha < 0.5:
        raise ValueError("alpha must lie in [0, 0.5)")
    if alpha == 0.0:
        return cut(tree, k)
    groups = _components(tree, k)
    if tree.source is None:
        raise ValueError("outlier deferral needs the dendrogram's source dissimilarity")
    d = tree.source.values
    threshold = alpha * tree.n
    survivors = [g for g in groups if len(g) >= threshold]
    if not survivors:
        raise DataError(f"alpha={alpha} leaves no cluster of size >= {threshold:.3g}")
    if len(survivors) == len(groups):
        return _labelled(groups, tree.n)
    labels = np.empty(tree.n, dtype=np.int64)
    for idx, group in enumerate(survivors):
        labels[group] = idx
    for p in (p for g in groups if len(g) < threshold for p in g):
        # means over the member lists in merge order: the summation order sets
        # the last bit, which decides ties between ensemble values k/B
        labels[p] = int(np.argmin([d[p, g].mean() for g in survivors]))
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

    Leaf ``i`` is named ``labels[i]``, or ``i`` when no labels are given."""
    names = labels or tuple(str(i) for i in range(tree.n))
    if len(names) != tree.n:
        raise ValueError("one label per leaf required")

    def height(nid: int) -> float:
        return 0.0 if nid < tree.n else tree.merges[nid - tree.n].height

    if tree.n == 1:
        return f"{_quote_label(names[0])};"
    # an explicit stack of pending text and (node, parent height) items, so
    # that a deep tree (an SL chain, say) cannot exhaust the recursion limit
    parts: list[str] = []
    stack: list[str | tuple[int, float]] = []

    def open_node(m: Merge, tail: str) -> None:
        parts.append("(")
        stack.extend([tail, (m.right, m.height), ",", (m.left, m.height)])

    open_node(tree.merges[-1], ");")
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        nid, parent_h = item
        length = max(parent_h - height(nid), 0.0)
        if nid < tree.n:
            parts.append(f"{_quote_label(names[nid])}:{length:.10g}")
        else:
            open_node(tree.merges[nid - tree.n], f"):{length:.10g}")
    return "".join(parts)
