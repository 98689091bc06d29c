"""File formats: CSV and aligned-FASTA ingestion, delimited exports,
Newick output and the flat key=value config format read by the CLI."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence, TextIO

from .core import CategoricalMatrix, Clustering, DataError, DissimilarityMatrix, encode, relabel_dense
from .hclust import Dendrogram, to_newick

FASTA_SUFFIXES = (".fa", ".fasta", ".fna", ".ffn", ".faa", ".afa", ".aln")
DEFAULT_GAP_SYMBOLS = ("-", ".")


def _column_index(column: str | int, names: list[str] | None, width: int) -> int:
    if isinstance(column, int) or (isinstance(column, str) and column.lstrip("-").isdigit()):
        idx = int(column)
        if idx < 0:
            idx += width
        if not 0 <= idx < width:
            raise DataError(f"column index {column} out of range for {width} columns")
        return idx
    if names is None:
        raise DataError(f"column {column!r} requires a header row")
    if column not in names:
        raise DataError(f"no column named {column!r} in header")
    return names.index(column)


def read_categorical_csv(
    path: str | Path,
    delimiter: str = ",",
    header: bool = False,
    gap_symbol: str | None = None,
    id_column: str | int | None = None,
    truth_column: str | int | None = None,
) -> tuple[CategoricalMatrix, Clustering | None]:
    """Load a delimited table of categorical values.

    Every row, the header included, must have the same width.  Optional id
    and truth columns are pulled out before encoding; truth labels are
    renumbered densely in order of first appearance.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = [row for row in csv.reader(handle, delimiter=delimiter) if row]
    if not rows:
        raise DataError(f"{path}: empty file")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise DataError(f"{path}: ragged rows: all rows must have the same length")
    names = rows.pop(0) if header else None
    if not rows:
        raise DataError(f"{path}: no data rows")
    drop: list[int] = []
    ids: list[str] | None = None
    truth_raw: list[str] | None = None
    if id_column is not None:
        idx = _column_index(id_column, names, width)
        ids = [row[idx] for row in rows]
        drop.append(idx)
    if truth_column is not None:
        idx = _column_index(truth_column, names, width)
        truth_raw = [row[idx] for row in rows]
        drop.append(idx)
    if drop:
        keep = [j for j in range(width) if j not in drop]
        rows = [[row[j] for j in keep] for row in rows]
    if ids is None:
        ids = [str(i) for i in range(len(rows))]
    x = encode(rows, gap_symbol=gap_symbol, row_ids=ids)
    truth = relabel_dense(truth_raw) if truth_raw else None
    return x, truth


def write_categorical_csv(
    path: str | Path,
    rows: Sequence[Sequence[str]],
    truth: Clustering | None = None,
    delimiter: str = ",",
) -> None:
    """Export a table of symbols in the same shape the ingestion accepts,
    under a header row ``v0, v1, ...`` (and ``truth`` when given)."""
    names = [f"v{j}" for j in range(len(rows[0]))] + (["truth"] if truth is not None else [])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
        writer.writerow(names)
        for i, row in enumerate(rows):
            if truth is not None:
                row = [*row, str(int(truth.labels[i]))]
            writer.writerow(row)


def read_fasta(path: str | Path) -> list[tuple[str, str]]:
    """(id, sequence) records; the id is the header token before whitespace."""
    records: list[tuple[str, str]] = []
    name: str | None = None
    chunks: list[str] = []
    with open(path, encoding="utf-8-sig") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    records.append((name, "".join(chunks)))
                name = line[1:].split()[0] if len(line) > 1 else ""
                chunks = []
            elif name is None:
                raise DataError(f"{path}: sequence data before the first FASTA header")
            else:
                chunks.append(line)
    if name is not None:
        records.append((name, "".join(chunks)))
    if not records:
        raise DataError(f"{path}: no FASTA records")
    return records


def write_fasta(path: str | Path, records: Sequence[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for name, seq in records:
            handle.write(f">{name}\n")
            for s in range(0, len(seq), 60):
                handle.write(seq[s:s + 60] + "\n")


def load_fasta_matrix(
    path: str | Path,
    gap_symbols: Sequence[str] = DEFAULT_GAP_SYMBOLS,
) -> CategoricalMatrix:
    """Encode pre-aligned FASTA records as a categorical table.

    Spaces and tabs inside sequence lines are dropped, unless listed as gap
    symbols; every listed gap symbol, a single character, is folded into the
    first one, and any other character is a residue.  All records must then
    share one aligned length.
    """
    if any(len(g) != 1 for g in gap_symbols):
        raise ValueError(f"FASTA gap symbols must be single characters, got {list(gap_symbols)}")
    records = read_fasta(path)
    gap = next(iter(gap_symbols), None)
    fold = str.maketrans({" ": None, "\t": None, **dict.fromkeys(gap_symbols, gap)})
    rows = [seq.translate(fold) for _, seq in records]
    if len(lengths := {len(row) for row in rows}) != 1:
        raise DataError(f"{path}: aligned sequences must share one length, found {sorted(lengths)}")
    ids = [name for name, _ in records]
    return encode(rows, gap_symbol=gap, row_ids=ids)


def write_labels_csv(target: str | Path | TextIO, ids: Sequence[str], labels: Sequence[int]) -> None:
    """Two-column (id, cluster) CSV, one row per input row in input order,
    written to a path or to an open text stream."""
    if len(ids) != len(labels):
        raise DataError("one id per label required")
    rows = [["id", "cluster"], *([rid, int(lab)] for rid, lab in zip(ids, labels))]
    if hasattr(target, "write"):
        csv.writer(target, lineterminator="\n").writerows(rows)
        return
    with open(target, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def write_dissimilarity_csv(path: str | Path, d: DissimilarityMatrix) -> None:
    """Square CSV of the dissimilarity values."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for row in d.values:
            writer.writerow([f"{v:.10g}" for v in row])


def write_newick(path: str | Path, tree: Dendrogram, labels: tuple[str, ...] | None = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_newick(tree, labels) + "\n")


def parse_config(text: str) -> dict[str, str]:
    """Flat ``key=value`` config format: one pair per line, ``#`` comments."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_config(path: str | Path) -> dict[str, str]:
    return parse_config(Path(path).read_text(encoding="utf-8-sig"))
