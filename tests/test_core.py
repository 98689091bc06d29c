import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from catens import core
from catens.core import (
    GAP_CODE,
    CategoricalMatrix,
    Clustering,
    DataError,
    DissimilarityMatrix,
    encode,
    hamming,
    mismatch_counts,
    relabel_dense,
)
from catens.rng import substream

from .reference import first_appearance_labels, naive_encode, naive_mismatch_counts


class TestEncode:
    def test_first_appearance_codes(self):
        x = encode([["A", "T"], ["A", "G"]])
        assert x.codes.tolist() == [[0, 0], [0, 1]]
        assert x.cardinalities.tolist() == [1, 2]

    def test_single_valued_column(self):
        x = encode([["x"], ["x"]])
        assert x.codes.tolist() == [[0], [0]]
        assert x.cardinalities.tolist() == [1]

    def test_gap_excluded_from_alphabet(self):
        x = encode([["A", "-"], ["C", "G"]], gap_symbol="-")
        assert x.gap_code is not None
        assert x.codes[0, 1] == x.gap_code
        assert x.cardinalities.tolist() == [2, 1]

    def test_ragged_rows_rejected(self):
        with pytest.raises(DataError):
            encode([["a", "b"], ["a"]])

    def test_empty_table_rejected(self):
        with pytest.raises(DataError):
            encode([])
        with pytest.raises(DataError):
            encode([[]])

    def test_all_gap_column_rejected(self):
        with pytest.raises(DataError):
            encode([["-", "a"], ["-", "b"]], gap_symbol="-")

    def test_decode_round_trips(self):
        rng = substream(7)
        symbols = ["red", "green", "blue", "-", "x"]
        for _ in range(20):
            n, j = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            table = [[symbols[rng.integers(0, len(symbols))] for _ in range(j)] for _ in range(n)]
            # keep at least one non-gap value per column
            for col in range(j):
                table[int(rng.integers(0, n))][col] = "x"
            x = encode(table, gap_symbol="-")
            assert x.decode() == table

    def test_row_ids_retained(self):
        x = encode([["a"], ["b"]], row_ids=["r1", "r2"])
        assert x.row_ids == ("r1", "r2")

    @given(
        st.data(),
        st.sampled_from(["none", "present", "absent", "gap-column"]),
        st.sampled_from([1, 7, core._RANK_CELLS]),
        st.booleans(),
        st.booleans(),
    )
    def test_matches_per_cell_oracle(self, data, gap, cells, ragged, one_char):
        # "a" and "a\0" must stay apart (a fixed-width numpy string array
        # drops trailing NULs), as must "" and multi-character or non-ASCII
        # values, astral-plane ones included; a small cap on the working
        # table forces column blocks
        pool = ["a", "a\0", "\0", "", "ab", "é", "日本", "\U0001d538", "-"]
        if one_char:  # tables of one-character values, so str rows often reach the code-point path
            pool = [v for v in pool if len(v) == 1]
        n, J = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        table = [data.draw(st.lists(st.sampled_from(pool), min_size=J, max_size=J)) for _ in range(n)]
        symbol = None if gap == "none" else "?" if gap == "absent" else data.draw(st.sampled_from(pool))
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, J - 1))
        if gap == "present":
            table[i][j] = symbol
        if gap == "gap-column":
            for row in table:
                row[j] = symbol
        if ragged:
            del table[i][j]
        if data.draw(st.booleans()) and all(len(v) == 1 for row in table for v in row):
            table = ["".join(row) for row in table]  # FASTA rows are strings
        ids = data.draw(st.none() | st.just([f"r{k}" for k in range(n)]))

        def run(fn):
            try:
                return fn(table, gap_symbol=symbol, row_ids=ids)
            except DataError as err:
                return err

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_RANK_CELLS", cells)
            got = run(encode)
        want = run(naive_encode)
        if isinstance(want, DataError):
            assert type(got) is DataError and str(got) == str(want)
            return
        assert got.codes.dtype == want.codes.dtype and got.codes.tolist() == want.codes.tolist()
        assert got.cardinalities.dtype == want.cardinalities.dtype
        assert got.cardinalities.tolist() == want.cardinalities.tolist()
        assert got.labels == want.labels
        assert (got.gap_code, got.gap_symbol, got.row_ids) == (want.gap_code, want.gap_symbol, want.row_ids)

    def test_string_rows_match_lists_of_characters(self):
        # str rows take the code-point lookup, lists of strings the dict
        # lookup; code points span one to four UTF-8 bytes, and a lone
        # surrogate is a valid str character
        rng = substream(8)
        pool = ["A", "c", "\0", "é", "日", "\U0001d538", "\ud800", "-", "."]
        for n, J in [(1, 1), (3, 70), (9, 5)]:
            table = [["A"] * J] + [[pool[v] for v in row] for row in rng.integers(0, len(pool), size=(n - 1, J))]
            ids = [f"r{i}" for i in range(n)]
            for gap in (None, "-", "?"):
                got = encode(["".join(row) for row in table], gap_symbol=gap, row_ids=ids)
                want = encode(table, gap_symbol=gap, row_ids=ids)
                assert got.codes.tolist() == want.codes.tolist()
                assert got.cardinalities.tolist() == want.cardinalities.tolist()
                assert (got.labels, got.gap_code, got.gap_symbol, got.row_ids) == (
                    want.labels, want.gap_code, want.gap_symbol, want.row_ids
                )


class TestMismatchCounts:
    def check(self, a, b, gap=None):
        counts, compared = mismatch_counts(a, b, gap)
        want_counts, want_compared = naive_mismatch_counts(a.tolist(), b.tolist(), gap)
        assert counts.tolist() == want_counts
        if gap is None:
            assert compared == a.shape[1]
        else:
            assert compared.tolist() == want_compared

    def test_cross_shapes(self):
        rng = substream(31)
        for n, m, j in [(7, 3, 5), (1, 4, 9), (5, 1, 1), (6, 6, 12)]:
            self.check(rng.integers(0, 3, size=(n, j)), rng.integers(0, 3, size=(m, j)))

    def test_gap_mask_and_compared_counts(self):
        rng = substream(32)
        for n, m, j in [(6, 6, 8), (4, 7, 10), (3, 2, 1)]:
            a, b = rng.integers(-1, 3, size=(n, j)), rng.integers(-1, 3, size=(m, j))
            self.check(a, b, gap=-1)

    def test_row_blocks(self, monkeypatch):
        # a few elements per block forces many row blocks, including a short last one
        rng = substream(33)
        a, b = rng.integers(-1, 4, size=(11, 6)), rng.integers(-1, 4, size=(5, 6))
        for elems in (1, 30, 65, core._BLOCK_ELEMS):
            monkeypatch.setattr(core, "_BLOCK_ELEMS", elems)
            self.check(a, b)
            self.check(a, b, gap=-1)
            self.check(a, a)
            self.check(a, a, gap=-1)
            # ``b is a`` counts the upper triangle and mirrors it; a copy
            # takes the full cross path
            for gap in (None, -1):
                tri, full = mismatch_counts(a, a, gap), mismatch_counts(a, a.copy(), gap)
                assert tri[0].dtype == full[0].dtype and np.array_equal(tri[0], full[0])
                assert np.array_equal(tri[1], full[1])

    @given(
        st.data(),
        st.sampled_from([1, 63, 64, 65, 128, 129]),
        st.sampled_from(["one-plane", "ten-planes", "31-planes", "int64-extremes"]),
        st.booleans(),
        st.booleans(),
    )
    def test_bit_sliced_counts_match_oracle(self, data, J, values, gaps, same):
        # the column counts straddle 64-bit word boundaries; the value ranges
        # need one bit plane, more than eight and (for the extremes) all 64
        n, m = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 4))
        lo = data.draw(st.integers(-300, 300))
        elements = {
            "one-plane": st.integers(lo, lo + 1),
            "ten-planes": st.integers(-300, 300),
            "31-planes": st.integers(-10**9, 10**9),
            "int64-extremes": st.integers(-3, 3),
        }[values]
        a = data.draw(arrays(np.int64, (n, J), elements=elements))
        b = a if same else data.draw(arrays(np.int64, (m, J), elements=elements))
        if values == "int64-extremes":
            col = data.draw(st.integers(0, J - 1))
            a[0, col], b[-1, col] = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        self.check(a, b, gap=data.draw(elements) if gaps else None)


class TestHamming:
    def test_identical_rows(self):
        x = encode([["A", "C"], ["A", "C"]])
        assert hamming(x).values[0, 1] == 0

    def test_all_positions_differ(self):
        x = encode([["A", "T"], ["T", "A"]])
        assert hamming(x).values[0, 1] == 2
        assert hamming(x, normalized=True).values[0, 1] == 1.0

    def test_gap_column_skipped(self):
        x = encode([["A", "-", "G"], ["A", "C", "G"]], gap_symbol="-")
        assert hamming(x).values[0, 1] == 0
        assert hamming(x, normalized=True).values[0, 1] == 0.0

    def test_quarter_mismatch(self):
        x = encode([["A", "C", "G", "G"], ["A", "C", "G", "T"]])
        assert hamming(x).values[0, 1] == 1
        assert hamming(x, normalized=True).values[0, 1] == 0.25

    def test_no_comparable_positions_rejected(self):
        x = encode([["A", "-"], ["-", "C"]], gap_symbol="-")
        with pytest.raises(DataError):
            hamming(x)

    def test_single_row_rejected(self):
        with pytest.raises(DataError):
            hamming(encode([["a", "b"]]))

    def test_kinds(self):
        x = encode([["A", "T"], ["T", "A"]])
        assert hamming(x).kind == "raw-count"
        assert hamming(x, normalized=True).kind == "normalized"

    def test_membership_hamming_is_twice_attribute_mismatch(self):
        rng = substream(11)
        for _ in range(30):
            n, j = int(rng.integers(2, 10)), int(rng.integers(1, 7))
            cards = rng.integers(2, 6, size=j)
            codes = np.stack([rng.integers(0, c, size=n) for c in cards], axis=1)
            x = CategoricalMatrix(codes, cards)
            dense = np.hstack([np.eye(int(a), dtype=np.int8)[codes[:, j]] for j, a in enumerate(cards)])
            onehot_mismatch = (dense[:, None, :] != dense[None, :, :]).sum(axis=2)
            assert np.array_equal(onehot_mismatch, 2 * hamming(x).values)

    @given(st.data(), st.booleans())
    def test_metric_properties(self, data, gaps):
        """Raw and normalized Hamming is symmetric with a zero diagonal and
        equivariant under row permutation, with and without gaps, and
        satisfies the triangle inequality on gap-free tables.  With gaps the
        triangle inequality fails: a gap in row ``b`` hides a mismatch
        between rows ``a`` and ``c`` (``x``, ``-``, ``y`` give d(a, c) = 1
        but d(a, b) + d(b, c) = 0), so it is checked only without them."""
        n, J = data.draw(st.tuples(st.integers(3, 9), st.integers(1, 8)))
        codes = data.draw(arrays(np.int32, (n, J), elements=st.integers(0, 3)))
        if gaps:
            mask = data.draw(arrays(np.bool_, (n, J)))
            mask[:, 0] = False  # one gap-free column keeps every pair comparable
            codes[mask] = GAP_CODE
        perm = np.array(data.draw(st.permutations(range(n))))
        gap_code = GAP_CODE if gaps else None
        x = CategoricalMatrix(codes, np.full(J, 4), gap_code=gap_code)
        moved = CategoricalMatrix(codes[perm], np.full(J, 4), gap_code=gap_code)
        for normalized in (False, True):
            d = hamming(x, normalized).values
            assert np.array_equal(hamming(moved, normalized).values, d[perm][:, perm])
            assert np.array_equal(d, d.T)
            assert np.all(np.diag(d) == 0)
            if not gaps:
                # d[a, c] <= d[a, b] + d[b, c] for every triple; raw counts
                # exactly, normalized ones up to the rounding of the sum
                slack = 1e-12 if normalized else 0.0
                assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :] + slack)

    def test_variance_law_on_uniform_noise(self):
        # IID uniform over s=4 symbols: Var of the normalized distance over
        # independent pairs is p(1-p)/J with p = 3/4
        p = 0.75
        pairs = 10_000
        for J in (100, 1000):
            rng = substream(17, J)
            a = rng.integers(0, 4, size=(pairs, J))
            b = rng.integers(0, 4, size=(pairs, J))
            dist = (a != b).mean(axis=1)
            expected = p * (1 - p) / J
            assert abs(dist.var(ddof=1) - expected) <= 0.10 * expected

    @given(st.data(), st.booleans())
    def test_invariant_under_column_permutation_and_code_relabelling(self, data, gaps):
        shape = data.draw(st.tuples(st.integers(2, 7), st.integers(1, 8)))
        n, J = shape
        codes = data.draw(arrays(np.int32, shape, elements=st.integers(0, 2)))
        if gaps:
            mask = data.draw(arrays(np.bool_, shape))
            mask[:, 0] = False  # one gap-free column keeps every pair comparable
            codes[mask] = GAP_CODE
        gap_code = GAP_CODE if gaps else None
        cols = data.draw(st.permutations(range(J)))
        relabel = np.array([data.draw(st.permutations(range(3))) for _ in range(J)])
        moved = np.where(codes == GAP_CODE, GAP_CODE, relabel[np.arange(J), codes])[:, cols]
        x = CategoricalMatrix(codes, np.full(J, 3), gap_code=gap_code)
        y = CategoricalMatrix(moved, np.full(J, 3), gap_code=gap_code)
        for normalized in (False, True):
            assert np.array_equal(hamming(x, normalized).values, hamming(y, normalized).values)


class TestDissimilarityMatrix:
    def test_requires_symmetry(self):
        with pytest.raises(DataError):
            DissimilarityMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_requires_zero_diagonal(self):
        with pytest.raises(DataError):
            DissimilarityMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_rejects_nan_and_negative(self):
        with pytest.raises(DataError):
            DissimilarityMatrix(np.array([[0.0, np.nan], [np.nan, 0.0]]))
        with pytest.raises(DataError):
            DissimilarityMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_normalized_range_checked(self):
        with pytest.raises(DataError):
            DissimilarityMatrix(np.array([[0.0, 1.5], [1.5, 0.0]]), kind="normalized")

    def test_raw_count_must_be_integral(self):
        with pytest.raises(DataError):
            DissimilarityMatrix(np.array([[0.0, 1.5], [1.5, 0.0]]), kind="raw-count")


class TestClustering:
    def test_labels_must_cover_range(self):
        with pytest.raises(DataError):
            Clustering(np.array([0, 2]), K=3)

    def test_relabel_dense_orders_by_first_appearance(self):
        c = relabel_dense([5, 5, 2, 7, 2])
        assert c.labels.tolist() == [0, 0, 1, 2, 1]
        assert c.K == 3

    @given(st.one_of(
        st.lists(st.integers(), min_size=1),
        st.lists(st.text(), min_size=1),
    ))
    def test_relabel_dense_matches_first_appearance(self, labels):
        c = relabel_dense(labels)
        expected = first_appearance_labels(labels)
        assert c.labels.tolist() == expected
        assert c.K == max(expected) + 1
