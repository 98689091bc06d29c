"""Agglomerative hierarchical clustering over a dissimilarity matrix.

Single, average and complete linkage via Lance-Williams updates, with a
deterministic tie-break: among all cluster pairs attaining the minimal
dissimilarity, the pair whose (smaller, larger) original smallest-leaf
indices are lexicographically least is merged.  Average linkage is the
unweighted pair-group mean (size-weighted Lance-Williams update).  The
merge search keeps a lower bound per row and rescans only the row of least
bound, and each merge writes its Lance-Williams row in place, into the kept
row's own slot: O(n^2) memory, O(n) numpy work per merge plus rescans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import Clustering, DataError, DissimilarityMatrix, _freeze, relabel_dense

LINKAGES = ("SL", "AL", "CL")


def check_linkage(linkage: str) -> None:
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}; expected one of SL, AL, CL")


def check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha < 0.5:
        raise ValueError(f"alpha must lie in [0, 0.5), got {alpha}")


class Merge(NamedTuple):
    """One agglomeration step: children node ids, merge height, merged size.

    Node ids follow the usual convention: leaves are ``0..n-1``, the cluster
    created by the ``t``-th merge is ``n + t``.  ``left`` is the child whose
    cluster contains the smaller original leaf index.  A tuple, so a merge
    equals the plain tuple ``(left, right, height, size)``.
    """

    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    """The full merge history of an agglomeration over ``n`` leaves.  Checks
    ``n >= 1``, ``n - 1`` merges and a root of size ``n``; that each node is
    one merge's child, each size sums its children's and each ``left`` holds
    the smaller leaf is :func:`agglomerate`'s guarantee, not replayed here."""

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

    @cached_property
    def leaf_order(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(order, start, size)``: the leaves in the order that puts every node's members
        together, left child first (so the first is the node's least leaf), and each node's
        first position in ``order`` and member count, by node id.  Built once per tree,
        root first, in O(n) over Python lists, made arrays once at the end."""
        n = self.n
        size = [1] * n + [m.size for m in self.merges]
        start = [0] * (2 * n - 1)
        for node, (left, right, _, _) in zip(range(2 * n - 2, n - 1, -1), reversed(self.merges)):
            start[left] = start[node]
            start[right] = start[node] + size[left]
        order = np.empty(n, dtype=np.int64)
        order[start[:n]] = np.arange(n)
        return _freeze(order), _freeze(np.array(start, dtype=np.int64)), _freeze(np.array(size, dtype=np.int64))


def agglomerate(d: DissimilarityMatrix, linkage: str = "AL") -> Dendrogram:
    """Build the full dendrogram of ``d`` under the given linkage.

    Repeatedly merges the pair of active clusters at minimal inter-cluster
    dissimilarity; the inter-cluster values are maintained by Lance-Williams
    updates (min for SL, max for CL, size-weighted mean for AL).  ``bound[r]``
    is never above row ``r``'s least live value; when the first row ``i`` of
    least bound attains it, every earlier row's minimum is larger, so ``(i, j)``
    is argmin's row-major first minimum, the tie-break.  Worst case O(n^3).

    The merged row is computed in place in row ``i`` (row ``j`` is dead after
    the merge, so AL may scale it too) by a fixed list of numpy calls, with the
    same float operations in the same order as ``(s_i * w_i + s_j * w_j) /
    (s_i + s_j)``, which ``tests/reference.py::argmin_agglomerate`` pins bit for
    bit.  A singleton side skips its multiply: a product by 1 is exact.
    """
    check_linkage(linkage)
    n = d.n
    if n < 2:
        raise DataError("agglomeration needs at least two rows")
    work = d.values.copy()
    np.fill_diagonal(work, np.inf)
    bound = work.min(axis=1)
    sizes = [1] * n
    node = list(range(n))   # dendrogram node id per slot
    merges: list[Merge] = []
    inf, minimum, maximum, multiply, add, divide = np.inf, np.minimum, np.maximum, np.multiply, np.add, np.divide
    for t in range(n - 1):
        while True:   # rescan the row of least bound until its bound is exact
            i = int(bound.argmin())
            j = int((wi := work[i]).argmin())
            if (h := wi[j]) == bound[i]:
                break
            bound[i] = h
        wj, si, sj = work[j], sizes[i], sizes[j]
        if linkage == "SL":
            minimum(wi, wj, out=wi)
        elif linkage == "CL":
            maximum(wi, wj, out=wi)
        else:
            if si > 1:   # a float size is exact (below 2**53) and costs numpy less to convert
                multiply(wi, float(si), out=wi)
            if sj > 1:
                multiply(wj, float(sj), out=wj)
            add(wi, wj, out=wi)
            divide(wi, float(si + sj), out=wi)
        # row and column i get one vector (exact symmetry); dead rows are never read
        wi[i] = wi[j] = inf
        work[:, i] = wi
        work[:, j] = inf
        minimum(bound, wi, out=bound)
        bound[i] = wi[wi.argmin()]   # ndarray.min's Python-level wrapper costs more; work holds no NaN
        bound[j] = inf
        sizes[i] = si = si + sj
        merges.append(Merge(node[i], node[j], float(h), si))
        node[i] = n + t
    return Dendrogram(n=n, merges=tuple(merges), source=d)


def _components(tree: Dendrogram, k: int) -> list[np.ndarray]:
    """Members of the ``k`` clusters left after the first ``n - k`` merges,
    ordered by smallest member, each in merge order: the clusters are the
    children of the last ``k - 1`` merges made before them (the root when
    ``k = 1``), each one slice of ``tree.leaf_order``."""
    n = tree.n
    if not 1 <= k <= n:
        raise ValueError(f"cut size must be in [1, {n}], got {k}")
    order, start, size = tree.leaf_order
    roots = [c for m in tree.merges[n - k:] for c in (m.left, m.right) if c < 2 * n - k] or [2 * n - 2]
    return [order[start[c]:start[c] + size[c]] for c in sorted(roots, key=lambda c: order[start[c]])]


def cut_with_outlier_deferral(tree: Dendrogram, k: int, alpha: float = 0.0) -> Clustering:
    """Cut at ``k``, then absorb clusters holding less than ``alpha * n`` of
    the data into their nearest surviving cluster.

    Each deferred point is reassigned independently to the surviving cluster
    with the smallest average dissimilarity to its (original) members, so the
    result has at most ``k`` clusters, each of size >= ``alpha * n``, labeled
    by first appearance.  Only a cut that defers a point reads the
    dissimilarity the dendrogram was built from (``tree.source``).
    """
    check_alpha(alpha)
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
    # a block row is p's values to a survivor in merge order, which numpy sums pairwise as it
    # sums the 1-D values[p, g]: the same last bit, which decides ties between ensemble values j/B
    means = [tree.source.values[np.ix_(deferred, g)].mean(axis=1) for g in survivors]
    labels[deferred] = np.argmin(means, axis=0)
    return relabel_dense(labels)


cut = cut_with_outlier_deferral  # the plain cut's name stays: tests call it, and the benchmark's tracer patches it


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
