"""Domain types and pairwise dissimilarity kernels for categorical data.

A dataset is an ``n x J`` table of nominal codes (:class:`CategoricalMatrix`).
Column alphabets are finite and per-column bounded; an optional reserved gap
code marks alignment placeholders in pre-aligned sequence data.  Encoding is
one-way: the codes keep no map back to the strings they came from, because
every method reads codes only through equality.  Mismatch counting is the
only notion of distance used anywhere in the package: plain counts, counts
normalized by the number of compared positions, and the gap-aware variant
that skips positions where either row holds a gap.  :func:`mismatch_counts`
compares every pair of rows of one table (data rows for :func:`hamming`,
base-clustering labels for the ensemble); k-modes compares rows with modes
through :func:`plane_mismatches` directly.  Codes are stored in the narrowest
signed type that holds every code and the gap code (:func:`code_dtype`): int8
up to 128 symbols per column, int16 up to 32,768, int32 beyond (int64 past
2**31), so a nucleotide table costs one byte per cell.  Mismatch counts are
filled straight into a float64 table, exact because every count is an integer
below 2**53, so the kernel's table becomes the dissimilarity's values with one
in-place division: each ``n x n`` stage holds one table, not an integer one
and its float copy.  The kernel's row blocks reuse buffers allocated once per
call and sum popcounts in the narrowest exact type (:func:`plane_mismatches`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

GAP_CODE = -1

# cap on the uint64 words of plane_mismatches()' XOR buffer, all bit planes of one
# row block (1 MB), and on the cells of one block of DissimilarityMatrix's integrality check
_BLOCK_ELEMS = 2**17
# cap on the int32 entries of encode()'s working table (16 MB)
_RANK_CELLS = 2**22


class DataError(ValueError):
    """Malformed input data (ragged table, bad file, incomparable rows)."""


def code_dtype(max_cardinality: int) -> np.dtype:
    """The storage type of codes: the narrowest signed type holding ``-max_cardinality``."""
    return np.min_scalar_type(-int(max_cardinality))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CategoricalMatrix:
    """An ``n x J`` observation table of per-column integer codes.

    ``codes[i, j]`` is a code in ``[0, cardinalities[j])`` or, when
    ``gap_code`` is set (to ``GAP_CODE``, the only value allowed), the gap.
    ``row_ids`` optionally names the rows (e.g. FASTA record ids).  Codes are
    checked in the input's own integer type, then stored as
    ``code_dtype(max(cardinalities))``; an input of that type is not copied,
    so a column selection of a stored table is never converted.
    """

    codes: np.ndarray
    cardinalities: np.ndarray
    gap_code: int | None = None
    row_ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes)
        cards = np.asarray(self.cardinalities, dtype=np.int64)
        if codes.ndim != 2 or codes.shape[0] < 1 or codes.shape[1] < 1:
            raise DataError("observation table must be a non-empty 2-D array")
        if codes.dtype.kind not in "iu":  # a float would truncate, a bool is no code
            raise DataError(f"codes must be integers, got {codes.dtype}")
        if cards.shape != (codes.shape[1],):
            raise DataError("one cardinality per column required")
        if np.any(cards < 1):
            raise DataError("column cardinalities must be >= 1")
        if self.gap_code not in (None, GAP_CODE):
            raise DataError(f"the gap code must be None or {GAP_CODE}, got {self.gap_code}")
        # GAP_CODE is the one value below 0, so two reductions bound every code
        if codes.min() < (0 if self.gap_code is None else GAP_CODE) or np.any(codes.max(axis=0) >= cards):
            raise DataError("non-gap codes must lie in [0, cardinality) for every column")
        if self.row_ids is not None and len(self.row_ids) != codes.shape[0]:
            raise DataError("one row id per row required")
        # narrowed only now, so an out-of-range code has raised above and never wraps
        codes = np.ascontiguousarray(codes, dtype=code_dtype(cards.max()))
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
        return CategoricalMatrix(
            codes=np.take(self.codes, idx, axis=1),  # C-ordered, unlike codes[:, idx]
            cardinalities=self.cardinalities[idx],
            gap_code=self.gap_code,
            row_ids=self.row_ids,
        )


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
        lo, hi = vals.min(), vals.max()  # NaN and +-inf each reach one of the two
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise DataError("dissimilarity matrix contains NaN or infinite entries")
        # both checks below read rows of about _BLOCK_ELEMS cells at a time, so their
        # temporaries stay small; symmetry compares slice views, which copy nothing, and
        # reads each pair once: a strip's rows right of column s against its columns below
        step = max(1, _BLOCK_ELEMS // len(vals))
        if not all(np.array_equal(vals[s:s + step, s:], vals[s:, s:s + step].T) for s in range(0, len(vals), step)):
            raise DataError("dissimilarity matrix must be symmetric")
        if np.any(np.diagonal(vals) != 0.0):
            raise DataError("dissimilarity matrix must have a zero diagonal")
        if lo < 0.0:
            raise DataError("dissimilarity values must be non-negative")
        if self.kind in ("normalized", "ensemble") and hi > 1.0:
            raise DataError(f"{self.kind} dissimilarities must lie in [0, 1]")
        blocks = np.array_split(vals, -(-vals.size // _BLOCK_ELEMS)) if self.kind == "raw-count" else ()
        if any(np.any(r != np.floor(r)) for r in blocks):
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
    the column alphabet.  No code-to-string map is kept: every method
    compares codes only for equality, so no step after this one needs the
    strings, and a caller that writes symbols maps its own codes.

    Cost: when every row is a ``str`` (one character per cell, as in FASTA), each row is
    read as UTF-32 code points, a boolean array indexed by code point, up to the largest one
    in the table, marks its ``S`` distinct values, and their running count gives each cell
    its value's id, one row at a time; other rows take one dict lookup per cell.  numpy
    ranks the ids with an ``(S + 1) x w`` int32 table, read and written one row at a time
    through flat ``id * w + column`` indices, one pass over the rows per
    ``w = max(1, _RANK_CELLS // (S + 1))`` columns.
    """
    rows = list(raw_table)
    if not rows or not rows[0]:
        raise DataError("empty table")
    n, J = len(rows), len(rows[0])
    if any(len(r) != J for r in rows):
        raise DataError("ragged rows: all rows must have the same length")
    if all(isinstance(r, str) for r in rows):
        codes = np.empty((n, J), dtype=np.int32)
        for r, out in zip(rows, codes):  # code points first, symbol ids below
            out[:] = np.frombuffer(r.encode("utf-32-le", "surrogatepass"), "<u4")
        present = np.zeros(int(codes.max()) + 1, dtype=bool)
        present[codes] = True
        lut = np.cumsum(present, dtype=np.int32) - 1  # id of each present code point
        for row in codes:
            np.take(lut, row, out=row)
        n_ids = int(lut[-1]) + 1
        point = ord(gap_symbol) if gap_symbol is not None and len(gap_symbol) == 1 else present.size
        gap = int(lut[point]) if point < present.size and present[point] else n_ids
    else:
        index = {s: i for i, s in enumerate(set().union(*map(set, rows)))}
        codes = np.fromiter(map(index.__getitem__, chain.from_iterable(rows)), np.int32, n * J).reshape(n, J)
        n_ids = len(index)
        gap = index.get(gap_symbol, n_ids)
    # rank[s, j]: code of symbol id s in column j, -2 until s first appears
    # there; the gap's row (a spare last row when there is no gap) holds GAP_CODE
    cards = np.zeros(J, dtype=np.int64)
    width = max(1, _RANK_CELLS // (n_ids + 1))
    for a in range(0, J, width):
        w = min(width, J - a)
        cols = np.arange(w)
        rank = np.full((n_ids + 1, w), -2, dtype=np.int32)
        rank[gap] = GAP_CODE
        flat = rank.reshape(-1)  # a view: writes through it reach rank
        for row in codes[:, a:a + width]:  # views: each row is recoded in place
            at = row * w + cols
            np.take(flat, at, out=row)
            new = np.flatnonzero(row == -2)
            row[new] = flat[at[new]] = cards[new + a]
            cards[new + a] += 1
    if not cards.all():
        raise DataError(f"column {int(np.argmin(cards))} contains only gaps")
    gap_code = None if gap_symbol is None else GAP_CODE
    return CategoricalMatrix(codes=codes, cardinalities=cards, gap_code=gap_code,
                             row_ids=None if row_ids is None else tuple(row_ids))


def bit_planes(x: np.ndarray, lo: int, planes: int) -> np.ndarray:
    """``planes x n x words`` uint64 array: plane ``p`` holds bit ``p`` of
    ``x - lo``, 64 columns per word, with the padding bits zero.  ``x - lo`` wraps
    in the narrowest unsigned type of ``planes`` bits (one unsafe cast, no int64
    copy), so it is exact whenever ``hi - lo`` fits.  One ``n x J`` buffer masks one plane
    at a time for ``packbits``, which takes non-zero as 1: fresh ``planes x n x J``
    temporaries cost more in page faults than in arithmetic."""
    off = np.subtract(x, np.int64(lo), dtype=np.min_scalar_type((1 << planes) - 1), casting="unsafe")
    out = np.zeros((planes, off.shape[0], -(-off.shape[1] // 64) * 8), dtype=np.uint8)
    buf = np.empty_like(off)
    for p in range(planes):
        np.bitwise_and(off, off.dtype.type(1 << p), out=buf)
        out[p, :, : -(-off.shape[1] // 8)] = np.packbits(buf, axis=1, bitorder="little")
    return out.view(np.uint64)


def plane_mismatches(
    pa: np.ndarray, pb: np.ndarray, va: np.ndarray | None = None, vb: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(counts, compared)`` between the rows of two :func:`bit_planes` packings.  With
    packed validity masks ``va``/``vb`` only columns valid in both rows count; without them
    ``compared`` is ``None``.  Both tables are float64, which holds every count exactly, so a
    caller divides them in place.  A self-comparison (``pa is pb``, ``va is vb``) counts each
    pair ``i <= k`` once and mirrors it; its diagonal, a row against itself, is exactly +0.0.

    A block of rows of ``pa`` is a ``planes x rows x cols x words`` view of one XOR buffer of at
    most ``_BLOCK_ELEMS`` words, allocated once, sized for the first block, with a uint8 popcount
    buffer and, given masks, one for ``va & vb``.  One broadcast XOR fills it, ``x[0] |= x[p]``
    folds the planes in place, and the sum over words runs in ``np.min_scalar_type(64 * words)``
    (uint8 up to 3 words, uint16 up to 1,023, then uint32), exact as a word has 64 bits."""
    (planes, n, words), m = pa.shape, pb.shape[1]
    counts = np.empty((n, m), dtype=np.float64)
    compared = None if va is None else np.empty_like(counts)
    same = pa is pb and va is vb
    block = min(n, max(1, _BLOCK_ELEMS // (planes * m * words)))
    cells = block * m * words
    xor, ones = np.empty(planes * cells, dtype=np.uint64), np.empty(cells, dtype=np.uint8)
    both = None if va is None else np.empty(cells, dtype=np.uint64)
    total = np.min_scalar_type(64 * words)
    for s in range(0, n, block):
        rows, cols = slice(s, s + block), slice(s if same else 0, m)
        shape = (min(block, n - s), m - cols.start, words)
        size = shape[0] * shape[1] * words
        x = np.bitwise_xor(pa[:, rows, None], pb[:, None, cols], out=xor[:planes * size].reshape(planes, *shape))
        diff = x[0]
        for p in range(1, planes):
            diff |= x[p]
        bits = ones[:size].reshape(shape)
        if va is not None:
            valid = np.bitwise_and(va[rows, None], vb[None, cols], out=both[:size].reshape(shape))
            compared[rows, cols] = np.bitwise_count(valid, out=bits).sum(axis=2, dtype=total)
            diff &= valid
        counts[rows, cols] = np.bitwise_count(diff, out=bits).sum(axis=2, dtype=total)
        if same:  # mirror the strip right of the block into the rows below it
            counts[s + block:, rows] = counts[rows, s + block:].T
            if va is not None:
                compared[s + block:, rows] = compared[rows, s + block:].T
    return counts, compared


def mismatch_counts(a: np.ndarray, gap: int | None = None) -> tuple[np.ndarray, np.ndarray | int]:
    """Mismatch counts between every pair of rows of ``a``.

    Returns ``(counts, compared)``: ``counts[i, k]`` is the number of
    columns where ``a[i]`` and ``a[k]`` differ.  With ``gap`` set, columns
    where either row holds ``gap`` are skipped and ``compared[i, k]`` counts
    the columns actually compared; without it, or when no cell holds ``gap``,
    ``compared`` is the column count, an int (no ``n x n`` table).  The table
    is bit-sliced over its range of non-gap values (a gap at either end of the
    span takes no plane, as validity words mask gap cells when there are any)
    and compared 64 columns per word with popcount, in exact integer sums.
    ``counts`` and an array ``compared`` are float64 tables of those integers,
    exact below 2**53, so a caller may divide ``counts`` in place.  Each pair
    ``i <= k`` is counted once and mirrored.
    """
    lo, hi = int(a.min()), int(a.max())
    if gap is not None:
        lo, hi = lo + (lo == gap), hi - (hi == gap)
    packed = bit_planes(a, lo, max(1, hi - lo).bit_length())
    valid = None if gap is None else a != gap
    if valid is None or valid.all():
        return plane_mismatches(packed, packed)[0], a.shape[1]
    mask = bit_planes(valid, 0, 1)[0]
    return plane_mismatches(packed, packed, mask, mask)


def hamming(x: CategoricalMatrix, normalized: bool = False) -> DissimilarityMatrix:
    """Pairwise mismatch counts between all rows of ``x``.

    Positions where either row holds a gap are omitted from both the count and, in the
    normalized form, the denominator; a pair of rows with no comparable positions is an
    error.  Accumulation is pure integer work, with the normalizing division done once per
    pair at the end, in place on the kernel's float64 counts, so results are bitwise-identical
    however the row blocks are scheduled, and a mirrored entry equals the one counted directly.
    """
    if x.n < 2:
        raise DataError("need at least two rows to form pairwise dissimilarities")
    counts, compared = mismatch_counts(x.codes, x.gap_code)
    # a zero on the diagonal of ``compared`` (a row's own non-gap count) is an
    # all-gap row, which shares no position with any other row either
    if x.gap_code is not None and np.any(compared == 0):
        i, k = np.argwhere((compared == 0) & ~np.eye(x.n, dtype=bool))[0]
        raise DataError(f"rows {i} and {k} share no comparable (non-gap) positions")
    if normalized:
        counts /= compared
    return DissimilarityMatrix(values=counts, kind="normalized" if normalized else "raw-count")


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
