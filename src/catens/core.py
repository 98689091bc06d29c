"""Domain types and pairwise dissimilarity kernels for categorical data.

A dataset is an ``n x J`` table of nominal codes (:class:`CategoricalMatrix`).
Column alphabets are finite and per-column bounded; an optional reserved gap
code marks alignment placeholders in pre-aligned sequence data.  Pairwise
mismatch counting (:func:`mismatch_counts`, wrapped for data rows by
:func:`hamming`) is the only notion of distance used anywhere in the
package: plain counts, counts normalized by the number of compared
positions, and the gap-aware variant that skips positions where either row
holds a gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Sequence

import numpy as np

GAP_CODE = -1

# cap on the uint64 words in one block temporary of plane_mismatches() (1 MB)
_BLOCK_ELEMS = 2**17
# cap on the int32 entries of encode()'s working table (16 MB)
_RANK_CELLS = 2**22


class DataError(ValueError):
    """Malformed input data (ragged table, bad file, incomparable rows)."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CategoricalMatrix:
    """An ``n x J`` observation table of per-column integer codes.

    ``codes[i, j]`` is a code in ``[0, cardinalities[j])`` or, when
    ``gap_code`` is set, the reserved gap value.  ``labels`` optionally maps
    codes back to the original strings per column; ``row_ids`` optionally
    names the rows (e.g. FASTA record ids).
    """

    codes: np.ndarray
    cardinalities: np.ndarray
    gap_code: int | None = None
    labels: tuple[tuple[str, ...], ...] | None = None
    gap_symbol: str | None = None
    row_ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        codes = np.ascontiguousarray(np.asarray(self.codes, dtype=np.int32))
        cards = np.asarray(self.cardinalities, dtype=np.int64)
        if codes.ndim != 2 or codes.shape[0] < 1 or codes.shape[1] < 1:
            raise DataError("observation table must be a non-empty 2-D array")
        if cards.shape != (codes.shape[1],):
            raise DataError("one cardinality per column required")
        if np.any(cards < 1):
            raise DataError("column cardinalities must be >= 1")
        valid = (codes >= 0) & (codes < cards[None, :])
        if self.gap_code is not None:
            valid |= codes == self.gap_code
        if not np.all(valid):
            raise DataError("non-gap codes must lie in [0, cardinality) for every column")
        if self.row_ids is not None and len(self.row_ids) != codes.shape[0]:
            raise DataError("one row id per row required")
        object.__setattr__(self, "codes", _freeze(codes))
        object.__setattr__(self, "cardinalities", _freeze(cards))

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def J(self) -> int:
        return self.codes.shape[1]

    @property
    def has_gaps(self) -> bool:
        return self.gap_code is not None and bool(np.any(self.codes == self.gap_code))

    def select_columns(self, indices: Sequence[int]) -> "CategoricalMatrix":
        """Restriction to the given columns, preserving metadata."""
        idx = np.asarray(indices, dtype=np.intp)
        labels = None
        if self.labels is not None:
            labels = tuple(map(self.labels.__getitem__, idx.tolist()))
        return CategoricalMatrix(
            codes=np.take(self.codes, idx, axis=1),  # C-ordered, unlike codes[:, idx]
            cardinalities=self.cardinalities[idx],
            gap_code=self.gap_code,
            labels=labels,
            gap_symbol=self.gap_symbol,
            row_ids=self.row_ids,
        )

    def decode(self) -> list[list[str]]:
        """Original string table; inverse of :func:`encode` when labels exist."""
        gap_sym = self.gap_symbol if self.gap_symbol is not None else "-"

        def symbol(j: int, c: int) -> str:
            if self.gap_code is not None and c == self.gap_code:
                return gap_sym
            return self.labels[j][c] if self.labels is not None else str(c)

        return [[symbol(j, int(c)) for j, c in enumerate(row)] for row in self.codes]


@dataclass(frozen=True)
class DissimilarityMatrix:
    """Symmetric non-negative ``n x n`` matrix with zero diagonal.

    ``kind`` is one of ``raw-count`` (integer mismatch counts), ``normalized``
    (counts divided by compared positions, in [0, 1]) or ``ensemble``
    (fraction of base clusterings separating a pair, in [0, 1]).
    """

    values: np.ndarray
    kind: str = "normalized"

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.ndim != 2 or vals.shape[0] != vals.shape[1] or vals.shape[0] < 1:
            raise DataError("dissimilarity matrix must be square and non-empty")
        if not np.all(np.isfinite(vals)):
            raise DataError("dissimilarity matrix contains NaN or infinite entries")
        if not np.array_equal(vals, vals.T):
            raise DataError("dissimilarity matrix must be symmetric")
        if np.any(np.diagonal(vals) != 0.0):
            raise DataError("dissimilarity matrix must have a zero diagonal")
        if np.any(vals < 0.0):
            raise DataError("dissimilarity values must be non-negative")
        if self.kind in ("normalized", "ensemble") and np.any(vals > 1.0):
            raise DataError(f"{self.kind} dissimilarities must lie in [0, 1]")
        if self.kind == "raw-count" and np.any(vals != np.floor(vals)):
            raise DataError("raw-count dissimilarities must be integers")
        if self.kind not in ("raw-count", "normalized", "ensemble"):
            raise ValueError(f"unknown dissimilarity kind: {self.kind!r}")
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def n(self) -> int:
        return self.values.shape[0]


def encode(
    raw_table: Sequence[Sequence[str]],
    gap_symbol: str | None = None,
    row_ids: Sequence[str] | None = None,
) -> CategoricalMatrix:
    """Encode a rectangular table of strings as dense per-column codes.

    Codes are assigned in first-appearance order down each column; the gap
    symbol (when given) maps to the reserved gap code and is excluded from
    the column alphabet.  The code-to-string maps are retained so the table
    round-trips through :meth:`CategoricalMatrix.decode`.

    Cost: a cell gets the id of its value among the table's ``S`` distinct values from an
    int32 table indexed by code point, one row at a time, when every row is a ``str`` (one
    character per cell, as in FASTA), else by one dict lookup per cell; numpy ranks the ids
    with an ``(S + 1) x w`` int32 table, one pass over the rows per
    ``w = max(1, _RANK_CELLS // (S + 1))`` columns.
    """
    rows = list(raw_table)
    if not rows or not rows[0]:
        raise DataError("empty table")
    n, J = len(rows), len(rows[0])
    if any(len(r) != J for r in rows):
        raise DataError("ragged rows: all rows must have the same length")
    symbols = list(set().union(*map(set, rows)))
    index = {s: i for i, s in enumerate(symbols)}
    if all(isinstance(r, str) for r in rows):
        lut = np.zeros(max(map(ord, symbols)) + 1, dtype=np.int32)
        lut[list(map(ord, symbols))] = np.arange(len(symbols))
        codes = np.empty((n, J), dtype=np.int32)
        for r, out in zip(rows, codes):
            np.take(lut, np.frombuffer(r.encode("utf-32-le", "surrogatepass"), "<u4"), out=out)
    else:
        codes = np.fromiter(map(index.__getitem__, chain.from_iterable(rows)), np.int32, n * J).reshape(n, J)
    # rank[s, j]: code of symbol s in column j, -2 until s first appears there;
    # the gap's row (a spare last row when there is no gap) holds GAP_CODE
    gap = len(symbols) if gap_symbol is None else index.get(gap_symbol, len(symbols))
    cards = np.zeros(J, dtype=np.int64)
    labels: list[tuple[str, ...]] = []
    width = max(1, _RANK_CELLS // (len(symbols) + 1))
    for a in range(0, J, width):
        cols = np.arange(min(width, J - a))
        rank = np.full((len(symbols) + 1, cols.size), -2, dtype=np.int32)
        rank[gap] = GAP_CODE
        for row in codes[:, a:a + width]:  # views: each row is recoded in place
            r = rank[row, cols]
            new = np.flatnonzero(r == -2)
            r[new] = rank[row[new], new] = cards[new + a]
            cards[new + a] += 1
            row[:] = r
        # each column's symbols in code order
        s, c = np.nonzero(rank >= 0)
        seq = map(symbols.__getitem__, s[np.lexsort((rank[s, c], c))].tolist())
        labels += [tuple(islice(seq, k)) for k in cards[a:a + cols.size].tolist()]
    if not cards.all():
        raise DataError(f"column {int(np.argmin(cards))} contains only gaps")
    gap_code = None if gap_symbol is None else GAP_CODE
    return CategoricalMatrix(codes=codes, cardinalities=cards, gap_code=gap_code, labels=tuple(labels),
                             gap_symbol=gap_symbol, row_ids=None if row_ids is None else tuple(row_ids))


def bit_planes(x: np.ndarray, lo: int, planes: int) -> np.ndarray:
    """``planes x n x words`` uint64 array: plane ``p`` holds bit ``p`` of
    ``x - lo``, 64 columns per word, with the padding bits zero.  ``x - lo`` wraps
    in the narrowest unsigned type of ``planes`` bits (one unsafe cast, no int64
    copy), so it is exact whenever ``hi - lo`` fits."""
    off = np.subtract(x, np.int64(lo), dtype=np.min_scalar_type((1 << planes) - 1), casting="unsafe")
    bits = np.zeros((planes, off.shape[0], -(-off.shape[1] // 64) * 64), dtype=off.dtype)
    bits[..., : off.shape[1]] = (off >> np.arange(planes, dtype=off.dtype)[:, None, None]) & 1
    return np.packbits(bits, axis=2, bitorder="little").view(np.uint64)


def plane_mismatches(
    pa: np.ndarray, pb: np.ndarray, va: np.ndarray | None = None, vb: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(counts, compared)`` between the rows of two :func:`bit_planes` packings.  With
    packed validity masks ``va``/``vb`` only columns valid in both rows count; without them
    ``compared`` is ``None``.  Rows of ``pa`` go in blocks whose temporary holds at most
    ``_BLOCK_ELEMS`` words.  A self-comparison (``pa is pb``, ``va is vb``) counts each
    pair ``i <= k`` once and mirrors it."""
    (planes, n, words), m = pa.shape, pb.shape[1]
    counts = np.empty((n, m), dtype=np.int64)
    compared = None if va is None else np.empty_like(counts)
    same = pa is pb and va is vb
    block = max(1, _BLOCK_ELEMS // (planes * m * words))
    for s in range(0, n, block):
        rows, cols = slice(s, s + block), slice(s if same else 0, m)
        diff = np.bitwise_or.reduce(pa[:, rows, None] ^ pb[:, None, cols], axis=0)
        if va is not None:
            both = va[rows, None] & vb[None, cols]
            compared[rows, cols] = np.bitwise_count(both).sum(axis=2, dtype=np.int64)
            diff &= both
        counts[rows, cols] = np.bitwise_count(diff).sum(axis=2, dtype=np.int64)
        if same:  # mirror the strip right of the block into the rows below it
            counts[s + block:, rows] = counts[rows, s + block:].T
            if va is not None:
                compared[s + block:, rows] = compared[rows, s + block:].T
    return counts, compared


def mismatch_counts(
    a: np.ndarray, b: np.ndarray, gap: int | None = None
) -> tuple[np.ndarray, np.ndarray | int]:
    """Mismatch counts between every row of ``a`` and every row of ``b``.

    Returns ``(counts, compared)``: ``counts[i, k]`` is the number of
    columns where ``a[i]`` and ``b[k]`` differ.  With ``gap`` set, columns
    where either row holds ``gap`` are skipped and ``compared[i, k]`` counts
    the columns actually compared; without it ``compared`` is the column
    count.  Both tables are bit-sliced over their joint value range and
    compared 64 columns per word with popcount, in exact integer sums.  With
    ``b is a`` each pair ``i <= k`` is counted once and mirrored.
    """
    lo, hi = min(a.min(), b.min()), max(a.max(), b.max())
    planes = max(1, (int(hi) - int(lo)).bit_length())
    pa = bit_planes(a, lo, planes)
    pb = pa if b is a else bit_planes(b, lo, planes)
    if gap is None:
        return plane_mismatches(pa, pb)[0], a.shape[1]
    va = bit_planes(a != gap, 0, 1)[0]
    return plane_mismatches(pa, pb, va, va if b is a else bit_planes(b != gap, 0, 1)[0])


def hamming(x: CategoricalMatrix, normalized: bool = False) -> DissimilarityMatrix:
    """Pairwise mismatch counts between all rows of ``x``.

    Positions where either row holds a gap are omitted from both the count and, in the
    normalized form, the denominator; a pair of rows with no comparable positions is an
    error.  Accumulation is pure integer work, with the normalizing division done once per
    pair at the end, so results are bitwise-identical however the row blocks are scheduled,
    and a mirrored entry equals the one counted directly.
    """
    if x.n < 2:
        raise DataError("need at least two rows to form pairwise dissimilarities")
    gap = x.gap_code if x.has_gaps else None
    counts, compared = mismatch_counts(x.codes, x.codes, gap)
    if gap is not None:
        off = ~np.eye(x.n, dtype=bool)
        if np.any(compared[off] == 0):
            i, k = np.argwhere((compared == 0) & off)[0]
            raise DataError(f"rows {i} and {k} share no comparable (non-gap) positions")
    # with every pair comparable no row is all gaps, so the diagonal of
    # ``compared`` (a row's own non-gap count) is non-zero too
    values = counts / compared if normalized else counts.astype(np.float64)
    np.fill_diagonal(values, 0.0)
    return DissimilarityMatrix(values=values, kind="normalized" if normalized else "raw-count")


@dataclass(frozen=True)
class Clustering:
    """A flat clustering: length-``n`` labels in ``[0, K)``, all present."""

    labels: np.ndarray
    K: int

    def __post_init__(self) -> None:
        labels = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        if labels.ndim != 1 or labels.shape[0] < 1:
            raise DataError("labels must be a non-empty 1-D vector")
        k = int(self.K)
        present = np.unique(labels)
        if present[0] < 0 or present[-1] >= k or present.size != k:
            raise DataError("labels must use every index in [0, K) at least once")
        object.__setattr__(self, "labels", _freeze(labels))
        object.__setattr__(self, "K", k)

    @property
    def n(self) -> int:
        return self.labels.shape[0]


def relabel_dense(labels: Sequence[int] | Sequence[str] | np.ndarray) -> Clustering:
    """Clustering from arbitrary labels, renumbered 0, 1, ... by first
    appearance in one dict pass, the package's only renumbering.  Labels
    compare as Python values, so strings keep any trailing NUL characters."""
    first: dict = {}
    dense = [first.setdefault(v, len(first)) for v in labels]
    return Clustering(labels=np.array(dense, dtype=np.int64), K=len(first))
