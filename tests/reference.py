"""Independent brute-force oracles used to check the library.

These deliberately avoid the implementation's shortcuts: agglomeration
recomputes every inter-cluster linkage from the raw matrix at every step
(no Lance-Williams updates), the encoding of a string table, the ensemble
dissimilarity and the mismatch counts are plain loops, the matching rate
enumerates label injections, and the bootstrap distinct-count law
enumerates the whole sample space.  The Newick oracle walks the tree
top-down with an explicit stack.  The one-``argmin``-per-merge agglomeration
loop is kept as the exact-merge oracle of the lower-bound search, and the
member-list walk over the first ``n - k`` merges as the oracle of the
leaf-order cut.  The k-modes
mode update and the α-deferral of small clusters keep their loops: one
``bincount`` per cluster and one mean per deferred point and survivor.  One
k-modes run is a plain loop over rows, modes and columns.  The exact law of the
number of distinct columns in a WR subset, which no library code needs, lives
here beside the two oracles that check it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb, factorial

import numpy as np

from catens.core import (
    GAP_CODE,
    CategoricalMatrix,
    Clustering,
    DataError,
    DissimilarityMatrix,
    relabel_dense,
)
from catens.hclust import Dendrogram, Merge, _quote_label, check_linkage


def brute_force_agglomerate(values: np.ndarray, linkage: str):
    """Naive agglomeration: (merges, final labels per K) from first principles.

    Returns a list of (height, merged_members) and a dict K -> labels, using
    the same tie-break as the library: minimal linkage value, then the
    lexicographically smallest (smaller, larger) pair of original smallest
    member indices.
    """
    n = values.shape[0]
    clusters: list[tuple[int, ...]] = [(i,) for i in range(n)]
    merges: list[tuple[float, tuple[int, ...]]] = []
    cuts: dict[int, np.ndarray] = {len(clusters): _labels_of(clusters, n)}
    while len(clusters) > 1:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                sub = values[np.ix_(clusters[a], clusters[b])]
                if linkage == "SL":
                    v = float(sub.min())
                elif linkage == "CL":
                    v = float(sub.max())
                else:
                    v = float(sub.mean())
                ra, rb = min(clusters[a]), min(clusters[b])
                key = (v, min(ra, rb), max(ra, rb))
                if best is None or key < best[0]:
                    best = (key, a, b)
        (height, _, _), a, b = best
        merged = tuple(sorted(clusters[a] + clusters[b]))
        clusters = [c for i, c in enumerate(clusters) if i not in (a, b)] + [merged]
        merges.append((height, merged))
        cuts[len(clusters)] = _labels_of(clusters, n)
    return merges, cuts


def argmin_agglomerate(d: DissimilarityMatrix, linkage: str = "AL") -> Dendrogram:
    """Lance-Williams agglomeration with one whole-matrix ``argmin`` per merge:
    the loop the per-row lower-bound search replaced, merge for merge."""
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


def _labels_of(clusters: list[tuple[int, ...]], n: int) -> np.ndarray:
    labels = np.empty(n, dtype=np.int64)
    for idx, members in enumerate(sorted(clusters, key=min)):
        labels[list(members)] = idx
    return labels


def naive_ensemble_dissimilarity(entries: np.ndarray) -> np.ndarray:
    n, B = entries.shape
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            disagreements = 0
            for b in range(B):
                if entries[i, b] != entries[j, b]:
                    disagreements += 1
            out[i, j] = disagreements / B
    return out


def brute_force_classification_rate(pred: np.ndarray, truth: np.ndarray) -> float:
    """Best matched fraction over every injection of the smaller label set
    into the larger one."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    kp, kt = int(pred.max()) + 1, int(truth.max()) + 1
    counts = np.zeros((kp, kt), dtype=np.int64)
    for p, t in zip(pred, truth):
        counts[p, t] += 1
    size = max(kp, kt)
    best = 0
    for perm in itertools.permutations(range(size)):
        total = sum(
            counts[i, perm[i]] for i in range(kp) if perm[i] < kt
        )
        best = max(best, total)
    return best / len(pred)


def distinct_count_pmf(J: int) -> np.ndarray:
    """Distribution of the number of distinct values in ``J`` draws with
    replacement from ``J`` objects, as a vector over ``k = 1..J``.

    Exact for every ``J``: ``P(k) = C(J, k) T(J, k) / J^J``, with the surjection
    counts ``T(m, k) = k (T(m-1, k) + T(m-1, k-1))`` from ``T(0, 0) = 1`` built
    in integer arithmetic and divided once per ``k``.
    """
    if J < 1:
        raise ValueError("J must be >= 1")
    surj = [1] + [0] * J
    for _ in range(J):
        surj = [0] + [k * (surj[k] + surj[k - 1]) for k in range(1, J + 1)]
    total = J**J
    return np.array([comb(J, k) * surj[k] / total for k in range(1, J + 1)], dtype=np.float64)


def enumerate_distinct_pmf(J: int) -> np.ndarray:
    """P(#distinct = k) over all J^J equally likely bootstrap samples."""
    counts = np.zeros(J, dtype=np.int64)
    for draw in itertools.product(range(J), repeat=J):
        counts[len(set(draw)) - 1] += 1
    return counts / J**J


def exact_distinct_pmf_formula(J: int) -> np.ndarray:
    """The closed form C(J,k) * surjections(J, k) / J^J, independent of
    :func:`distinct_count_pmf`'s recurrence (surjections by inclusion-exclusion)."""
    total = J**J
    out = []
    for k in range(1, J + 1):
        surj = sum((-1) ** i * comb(k, i) * (k - i) ** J for i in range(k + 1))
        out.append(comb(J, k) * surj / total)
    return np.array(out)


def naive_mismatch_counts(a, b, gap=None):
    """(counts, compared) for every row pair of ``a`` x ``b`` by plain loops:
    a column counts as compared unless either row holds ``gap`` there."""
    counts = [[0] * len(b) for _ in a]
    compared = [[0] * len(b) for _ in a]
    for i, u in enumerate(a):
        for k, v in enumerate(b):
            for p, q in zip(u, v):
                if gap is not None and gap in (p, q):
                    continue
                compared[i][k] += 1
                counts[i][k] += p != q
    return counts, compared


def first_appearance_labels(labels) -> list[int]:
    """Renumber labels 0, 1, ... in the order each value first appears, by
    position in the list of distinct values (no hashing)."""
    order: list = []
    for v in labels:
        if v not in order:
            order.append(v)
    return [order.index(v) for v in labels]


def naive_encode(raw_table, gap_symbol=None, row_ids=None) -> CategoricalMatrix:
    """Per-cell loop with the contract of ``catens.core.encode``: codes in
    first-appearance order down each column, the gap symbol mapped to
    ``GAP_CODE`` and left out of the column alphabet."""
    rows = list(raw_table)
    if not rows or not rows[0]:
        raise DataError("empty table")
    n, J = len(rows), len(rows[0])
    if any(len(r) != J for r in rows):
        raise DataError("ragged rows: all rows must have the same length")
    codes = np.empty((n, J), dtype=np.int32)
    cards = np.empty(J, dtype=np.int64)
    for j in range(J):
        seen: dict[str, int] = {}
        for i in range(n):
            v = rows[i][j]
            if gap_symbol is not None and v == gap_symbol:
                codes[i, j] = GAP_CODE
                continue
            if v not in seen:
                seen[v] = len(seen)
            codes[i, j] = seen[v]
        if not seen:
            raise DataError(f"column {j} contains only gaps")
        cards[j] = len(seen)
    return CategoricalMatrix(
        codes=codes,
        cardinalities=cards,
        gap_code=GAP_CODE if gap_symbol is not None else None,
        row_ids=tuple(row_ids) if row_ids is not None else None,
    )


def stack_newick(tree: Dendrogram, labels: tuple[str, ...] | None = None) -> str:
    """Newick text of ``tree`` written top-down, the contract of
    ``catens.hclust.to_newick``."""
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


def per_cluster_modes(codes: np.ndarray, labels: np.ndarray, k: int, span: int) -> np.ndarray:
    """K-modes mode update with one ``bincount`` per cluster: each column's
    most frequent member code, the smallest on a tie, zeros when empty."""
    n, J = codes.shape
    offsets = np.arange(J, dtype=np.int64) * span
    modes = np.empty((k, J), dtype=codes.dtype)
    for c in range(k):
        member = codes[labels == c]
        flat = (member.astype(np.int64) + offsets[None, :]).ravel()
        counts = np.bincount(flat, minlength=J * span).reshape(J, span)
        modes[c] = counts.argmax(axis=1)
    return modes


def naive_kmodes(codes, k: int, rng: np.random.Generator, max_iter: int):
    """One k-modes run as plain loops: ``(labels, modes, cost, n_iter)``.

    The initial modes are the rows ``rng.choice(n, size=k, replace=False)``.  Each row
    goes to its nearest mode, the lowest index on a tie.  Then each empty cluster,
    lowest index first, takes the row farthest from its mode among rows whose cluster
    has another member (the first such row on a tie), as its only member and its mode.
    Each update makes a mode each column's most frequent member code, the smallest on
    a tie.  The run stops when an update leaves the labels unchanged or after
    ``max_iter`` updates.
    """
    rows = np.asarray(codes).tolist()
    n = len(rows)
    modes = [list(rows[i]) for i in rng.choice(n, size=k, replace=False)]

    def assign():
        dists = [[sum(a != b for a, b in zip(row, m)) for m in modes] for row in rows]
        labels = [min(range(k), key=lambda c: (d[c], c)) for d in dists]
        dist = [d[c] for d, c in zip(dists, labels)]
        for c in range(k):
            if c not in labels:
                sizes = Counter(labels)
                far = max((i for i in range(n) if sizes[labels[i]] > 1), key=lambda i: (dist[i], -i))
                labels[far], modes[c], dist[far] = c, list(rows[far]), 0
        return labels, dist

    labels, dist = assign()
    it = 0
    for it in range(1, max_iter + 1):
        for c in range(k):
            members = [rows[i] for i in range(n) if labels[i] == c]
            modes[c] = [min(set(col), key=lambda v: (-col.count(v), v)) for col in zip(*members)]
        old = labels
        labels, dist = assign()
        if labels == old:
            break
    return labels, modes, sum(dist), it


def member_lists(tree: Dendrogram, k: int) -> list[list[int]]:
    """Member lists of the ``k`` clusters left after the first ``n - k``
    merges, ordered by smallest member; each list is in merge order.  Every
    merge is replayed through a dict of lists."""
    if not 1 <= k <= tree.n:
        raise ValueError(f"cut size must be in [1, {tree.n}], got {k}")
    members: dict[int, list[int]] = {i: [i] for i in range(tree.n)}
    for t in range(tree.n - k):
        m = tree.merges[t]
        members[tree.n + t] = members.pop(m.left) + members.pop(m.right)
    return sorted(members.values(), key=min)


def per_point_deferral(tree: Dendrogram, k: int, alpha: float) -> Clustering:
    """Cut at ``k`` and move each point of a cluster smaller than
    ``alpha * n`` to the survivor of least mean dissimilarity, one point and
    one 1-D mean over the survivor's merge-order member list at a time."""
    groups = member_lists(tree, k)
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
    for p in deferred:
        labels[p] = int(np.argmin([tree.source.values[p, g].mean() for g in survivors]))
    return relabel_dense(labels)
