"""Reproducible simulated datasets.

Three generators: the low-dimensional binomial designs (J=20 columns, each
with its own alphabet size and per-cluster success probability), the
nucleotide-style high-dimensional simulator (five signal blocks plus a
noise block over the four-letter alphabet), and plain IID uniform noise.
Columns (low-dim) and blocks (high-dim) draw from substreams keyed by
``(seed, replicate, ...)``, so replicates are independent and generation
order never matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CategoricalMatrix, Clustering, code_dtype
from .rng import substream

NUCLEOTIDES = ("A", "T", "C", "G")

# P(C) = P(G) = 1/3 and P(A) = P(T) = 1/6 in A, T, C, G order
SIGNAL_DIST = (1 / 6, 1 / 6, 1 / 3, 1 / 3)


@dataclass(frozen=True)
class Design:
    """A low-dimensional cluster-size pattern."""

    name: str
    K: int
    sizes: tuple[int, ...]
    J: int = 20

    def __post_init__(self) -> None:
        if len(self.sizes) != self.K or any(s < 1 for s in self.sizes):
            raise ValueError("need one positive size per cluster")
        if self.J < 1:
            raise ValueError("J must be >= 1")

    @property
    def n(self) -> int:
        return sum(self.sizes)


DESIGNS: dict[str, Design] = {
    d.name: d
    for d in (
        Design("D1", 5, (25, 25, 25, 25, 25)),
        Design("D2", 5, (9, 29, 29, 29, 29)),
        Design("D3", 5, (10, 10, 35, 35, 35)),
        Design("D4", 5, (10, 10, 10, 47, 48)),
        Design("D5", 5, (10, 10, 10, 10, 85)),
        Design("D6", 5, (10, 25, 25, 25, 40)),
        Design("D7", 5, (10, 10, 30, 30, 45)),
        Design("D8", 5, (10, 10, 10, 35, 60)),
        Design("D9", 5, (10, 10, 25, 40, 40)),
        Design("D10", 2, (25, 25), 20),
        Design("D11", 2, (15, 35), 20),
    )
}


@dataclass(frozen=True)
class SeqDesign:
    """High-dimensional sequence simulator configuration.

    The ``J`` columns split into six blocks by a multinomial over
    ``block_probs``; in block ``r < 5`` only cluster ``r`` draws from the
    skewed ``SIGNAL_DIST``, everyone else (and the whole sixth block)
    draws uniformly over the four symbols.
    """

    block_probs: tuple[float, ...] = (0.15, 0.15, 0.15, 0.15, 0.15, 0.25)
    J: int = 50_000
    sizes: tuple[int, ...] = (10, 10, 10, 10, 10)

    def __post_init__(self) -> None:
        if len(self.block_probs) != 6 or abs(sum(self.block_probs) - 1.0) > 1e-9:
            raise ValueError("block_probs must be six probabilities summing to 1")
        if len(self.sizes) != 5 or any(s < 1 for s in self.sizes):
            raise ValueError("need five positive cluster sizes")
        if self.J < 6:
            raise ValueError("J must cover at least one column per block")

    @property
    def n(self) -> int:
        return sum(self.sizes)


SEQ_LOW_NOISE = SeqDesign(block_probs=(0.15, 0.15, 0.15, 0.15, 0.15, 0.25))
SEQ_HIGH_NOISE = SeqDesign(block_probs=(0.1, 0.1, 0.1, 0.1, 0.1, 0.5))


def _truth(sizes: tuple[int, ...]) -> Clustering:
    return Clustering(labels=np.repeat(np.arange(len(sizes)), sizes), K=len(sizes))


def gen_lowdim(design: Design, seed: int = 0, replicate: int = 0) -> tuple[CategoricalMatrix, Clustering]:
    """One draw of a low-dimensional design.

    Per column ``j``, drawn in this order from ``substream(seed, replicate,
    j)``: alphabet bound ``a_j ~ DUnif[3, 20]`` (one ``integers(3, 21)``),
    per-cluster success probabilities ``p_jk ~ Unif(0.1, 0.9)`` (one
    ``uniform`` call of size ``K``), then cluster by cluster the entries,
    IID ``Bin(a_j, p_jk)`` (values ``0..a_j``, recorded cardinality
    ``a_j + 1``).  With these ranges, ENAL's mean classification rate (B=25,
    100 replicates of the acceptance suite's seeds) matches the published
    rows for D1 (0.886 vs 0.88) and D10 (0.970 vs 0.96).  It does not match
    D5 (about 0.91 vs 0.79 +- 0.08): over p ranges from (0, 1) to (0.3, 0.7)
    and a_j ranges from [1, 5] to [3, 20], this family never scores ENAL
    lower on D5 than on D1, while the published table does.
    """
    sizes = design.sizes
    n, J, K = design.n, design.J, design.K
    codes = np.empty((n, J), dtype=code_dtype(21))  # stored as is: cardinalities are at most 21
    cards = np.empty(J, dtype=np.int64)
    for j in range(J):
        rng = substream(seed, replicate, j)
        a = int(rng.integers(3, 21))
        p = rng.uniform(0.1, 0.9, size=K)
        codes[:, j] = np.concatenate(
            [rng.binomial(a, p[k], size=sizes[k]) for k in range(K)]
        )
        cards[j] = a + 1
    return CategoricalMatrix(codes=codes, cardinalities=cards), _truth(sizes)


def _draw_categorical(rng: np.random.Generator, probs, shape) -> np.ndarray:
    cum = np.cumsum(np.asarray(probs, dtype=np.float64))
    return np.searchsorted(cum, rng.random(size=shape), side="right").astype(np.int32)


def gen_highdim(sd: SeqDesign, seed: int = 0, replicate: int = 0) -> tuple[CategoricalMatrix, Clustering]:
    """One draw of the high-dimensional sequence simulator; code ``c`` stands
    for the symbol ``NUCLEOTIDES[c]``."""
    widths = substream(seed, replicate).multinomial(sd.J, sd.block_probs)
    n = sd.n
    codes = np.empty((n, sd.J), dtype=code_dtype(4))  # stored as is; the draws keep their int32 stream
    starts = np.concatenate(([0], np.cumsum(widths)))
    row_starts = np.concatenate(([0], np.cumsum(sd.sizes)))
    for b in range(6):
        rng = substream(seed, replicate, b)
        lo, hi = starts[b], starts[b + 1]
        w = hi - lo
        if w == 0:
            continue
        block = rng.integers(0, 4, size=(n, w), dtype=np.int32)
        if b < 5:
            r0, r1 = row_starts[b], row_starts[b + 1]
            block[r0:r1] = _draw_categorical(rng, SIGNAL_DIST, (r1 - r0, w))
        codes[:, lo:hi] = block
    return CategoricalMatrix(codes=codes, cardinalities=np.full(sd.J, 4, dtype=np.int64)), _truth(sd.sizes)


def gen_noise(n: int, J: int, s: int, seed: int = 0, replicate: int = 0) -> CategoricalMatrix:
    """IID uniform table over an ``s``-symbol alphabet."""
    if n < 1 or J < 1:
        raise ValueError("noise table needs n >= 1 rows and J >= 1 columns")
    if s < 2:
        raise ValueError("alphabet size must be >= 2")
    codes = substream(seed, replicate).integers(0, s, size=(n, J), dtype=np.int32)
    return CategoricalMatrix(codes=codes, cardinalities=np.full(J, s, dtype=np.int64))
