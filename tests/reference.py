"""Independent brute-force oracles used to check the library.

These deliberately avoid the implementation's shortcuts: agglomeration
recomputes every inter-cluster linkage from the raw matrix at every step
(no Lance-Williams updates), the encoding of a string table, the ensemble
dissimilarity and the mismatch counts are plain loops, the matching rate
enumerates label injections, and the bootstrap distinct-count law
enumerates the whole sample space.  The Newick oracle walks the tree
top-down with an explicit stack.
"""

from __future__ import annotations

import itertools
from math import comb, factorial

import numpy as np

from catens.core import GAP_CODE, CategoricalMatrix, DataError
from catens.hclust import Dendrogram, Merge, _quote_label


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


def enumerate_distinct_pmf(J: int) -> np.ndarray:
    """P(#distinct = k) over all J^J equally likely bootstrap samples."""
    counts = np.zeros(J, dtype=np.int64)
    for draw in itertools.product(range(J), repeat=J):
        counts[len(set(draw)) - 1] += 1
    return counts / J**J


def exact_distinct_pmf_formula(J: int) -> np.ndarray:
    """The closed form C(J,k) * surjections(J, k) / J^J, independent of the
    library's Stirling recurrence (surjections by inclusion-exclusion)."""
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
    labels: list[tuple[str, ...]] = []
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
        labels.append(tuple(seen))
    return CategoricalMatrix(
        codes=codes,
        cardinalities=cards,
        gap_code=GAP_CODE if gap_symbol is not None else None,
        labels=tuple(labels),
        gap_symbol=gap_symbol,
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
