import tracemalloc

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
    code_dtype,
    encode,
    hamming,
    mismatch_counts,
    relabel_dense,
)
from catens.io import load_fasta_matrix
from catens.kmodes import en_kmodes, kmodes
from catens.rng import substream
from catens.simgen import SeqDesign, gen_highdim

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
        pool = ["a", "a\0", "\0", "", "ab", "é", "日本", "\U0001d538", "\U0010ffff", "-"]
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
        assert (got.gap_code, got.row_ids) == (want.gap_code, want.row_ids)

    def test_string_rows_match_lists_of_characters(self):
        # str rows take the code-point lookup, lists of strings the dict
        # lookup; code points span one to four UTF-8 bytes, and a lone
        # surrogate is a valid str character
        rng = substream(8)
        pool = ["A", "c", "\0", "é", "日", "\U0001d538", "\U0010ffff", "\ud800", "-", "."]
        for n, J in [(1, 1), (3, 70), (9, 5)]:
            table = [["A"] * J] + [[pool[v] for v in row] for row in rng.integers(0, len(pool), size=(n - 1, J))]
            ids = [f"r{i}" for i in range(n)]
            for gap in (None, "-", "?"):
                got = encode(["".join(row) for row in table], gap_symbol=gap, row_ids=ids)
                want = encode(table, gap_symbol=gap, row_ids=ids)
                assert got.codes.tolist() == want.codes.tolist()
                assert got.cardinalities.tolist() == want.cardinalities.tolist()
                assert (got.gap_code, got.row_ids) == (want.gap_code, want.row_ids)

    @pytest.mark.parametrize("cells", [1, 7, core._RANK_CELLS])
    def test_symbols_first_seen_in_the_last_row(self, cells, monkeypatch):
        # the symbol bitmap is sized from the largest code point of the whole
        # table, so one first seen in the last row must still get an id
        monkeypatch.setattr(core, "_RANK_CELLS", cells)
        for gap in (None, "-", "\0"):
            table = ["AC-A", "C-AA", "A\U0010ffffC\0"]
            ids = ["r0", "r1", "r2"]
            got, want = encode(table, gap_symbol=gap, row_ids=ids), naive_encode(table, gap_symbol=gap, row_ids=ids)
            assert got.codes.tolist() == want.codes.tolist()
            assert got.cardinalities.tolist() == want.cardinalities.tolist()
            assert got.gap_code == want.gap_code

    @pytest.mark.parametrize("cells", [1, 7])
    def test_string_rows_in_column_blocks_match_oracle(self, cells, monkeypatch):
        # a small cap on the rank table splits str rows into many column blocks
        monkeypatch.setattr(core, "_RANK_CELLS", cells)
        rng = substream(9)
        pool = "ACGTacgt-.\0é\U0010ffff"
        for n, J in [(1, 1), (4, 9), (12, 40)]:
            table = ["".join(map(pool.__getitem__, row)) for row in rng.integers(0, len(pool), size=(n, J)).tolist()]
            table[0] = "A" * J  # no all-gap column
            for gap in (None, "-", "?"):
                got, want = encode(table, gap_symbol=gap), naive_encode(table, gap_symbol=gap)
                assert got.codes.tolist() == want.codes.tolist()
                assert got.cardinalities.tolist() == want.cardinalities.tolist()
                assert got.gap_code == want.gap_code


class TestBitPlanes:
    @given(
        st.data(),
        st.sampled_from([1, 2, 7, 8, 9, 16, 17, 31, 32, 33, 63, 64]),
        st.sampled_from([1, 63, 64, 65, 130]),
    )
    def test_plane_p_holds_bit_p_of_the_offset(self, data, planes, J):
        # the plane counts straddle the uint8, uint16, uint32 and uint64 offset
        # types; x - lo wraps modulo 2**64 as Python's infinite two's complement does
        n = data.draw(st.integers(1, 3))
        x = data.draw(arrays(np.int64, (n, J), elements=st.integers(-2**63, 2**63 - 1)))
        lo = data.draw(st.integers(-2**63, 2**63 - 1))
        bits = np.unpackbits(core.bit_planes(x, lo, planes).view(np.uint8), axis=2, bitorder="little")
        assert bits.shape == (planes, n, -(-J // 64) * 64)
        want = [[[(v - lo) >> p & 1 for v in row] for row in x.tolist()] for p in range(planes)]
        assert bits[..., :J].tolist() == want
        assert not bits[..., J:].any()

    def test_packing_peak_stays_near_two_tables(self):
        # one n x J table of offsets and one mask buffer reused plane after plane,
        # besides the output and packbits' one-plane result; a fill of all planes at
        # once takes about three times as much
        codes = substream(36).integers(0, 4, size=(50, 31_646)).astype(np.int32)
        tracemalloc.start()
        try:
            packed = core.bit_planes(codes, 0, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 50 * packed.shape[2] * 64 + 2 * packed.nbytes


class TestMismatchCounts:
    def check(self, a, b, gap=None):
        # the rows of ``a`` against those of ``b`` are the off-diagonal block of the
        # stacked table, checked once on their own and once within the whole table
        ab = np.vstack([a, b])
        counts, compared = mismatch_counts(ab, gap)
        if gap is None:
            assert compared == ab.shape[1]
        compared = np.broadcast_to(compared, counts.shape)
        for rows, cols in [(slice(len(a)), slice(len(a), None)), (slice(None), slice(None))]:
            want_counts, want_compared = naive_mismatch_counts(ab[rows].tolist(), ab[cols].tolist(), gap)
            assert counts[rows, cols].tolist() == want_counts
            assert compared[rows, cols].tolist() == want_compared

    def test_cross_shapes(self):
        rng = substream(31)
        for n, m, j in [(7, 3, 5), (1, 4, 9), (5, 1, 1), (6, 6, 12)]:
            self.check(rng.integers(0, 3, size=(n, j)), rng.integers(0, 3, size=(m, j)))

    def test_gap_mask_and_compared_counts(self):
        rng = substream(32)
        for n, m, j in [(6, 6, 8), (4, 7, 10), (3, 2, 1)]:
            a, b = rng.integers(-1, 3, size=(n, j)), rng.integers(-1, 3, size=(m, j))
            self.check(a, b, gap=-1)

    def test_gap_below_above_and_between_the_values(self):
        # the gap takes no bit plane when it lies at an end of the value
        # span; the validity words still mask it wherever it lies
        rng = substream(34)
        big = np.iinfo(np.int64)
        for gap, values in [
            (-1, [0, 1, 2, 3, 4]), (5, [0, 1, 2, 3, 4]), (2, [0, 1, 3, 4]),
            (big.min, [-2, 0, 5]), (big.max, [-2, 0, 5]),
            (big.min, [big.min + 1, 0, big.max]), (big.max, [big.min, 0, big.max - 1]),
            (0, [big.min, big.max]),
        ]:
            a = rng.choice(np.array([gap, *values], dtype=np.int64), size=(6, 70))
            b = rng.choice(np.array([gap, *values], dtype=np.int64), size=(3, 70))
            self.check(a, b, gap=gap)
            self.check(a, a, gap=gap)

    def test_pair_without_shared_values_and_all_gap_tables(self):
        a = np.array([[-1, -1, 2, 3], [0, 1, -1, -1], [0, -1, 2, -1]])
        self.check(a, a, gap=-1)  # rows 0 and 1 share no non-gap column
        gaps = np.full((3, 5), 7)
        self.check(gaps, gaps, gap=7)
        self.check(gaps, a[:, :1].repeat(5, axis=1), gap=7)
        self.check(a[:, :1].repeat(5, axis=1), gaps, gap=7)

    def test_nucleotide_codes_with_gaps_take_two_planes(self, monkeypatch):
        planes, bit_planes = [], core.bit_planes

        def spy(x, lo, count):
            if x.dtype != bool:  # validity masks are packed as one plane of their own
                planes.append(count)
            return bit_planes(x, lo, count)

        monkeypatch.setattr(core, "bit_planes", spy)
        a = substream(35).integers(-1, 4, size=(5, 100))
        self.check(a, a, gap=-1)
        self.check(a, a[::-1], gap=-1)
        assert planes == [2, 2]

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
            # a self-comparison (``pa is pb``) counts the upper triangle and mirrors
            # it; a copy of the packing takes the full cross path
            packed, valid = core.bit_planes(a, -1, 3), core.bit_planes(a != -1, 0, 1)[0]
            for masks in [(), (valid, valid)]:
                tri = core.plane_mismatches(packed, packed, *masks)
                full = core.plane_mismatches(packed, packed.copy(), *(m.copy() for m in masks))
                assert tri[0].dtype == full[0].dtype and np.array_equal(tri[0], full[0])
                assert (tri[1] is full[1] is None) or np.array_equal(tri[1], full[1])

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

    @pytest.mark.parametrize("J", [65_472, 65_473, 65_536, 70_000])
    def test_totals_at_the_bounds_of_the_narrow_sum_types(self, J):
        # 1,023 words sum in uint16 and reach 65,472; from 1,024 words the sums run in uint32,
        # and from 65,536 columns a total no longer fits in uint16.  Rows 0 and 1 differ in
        # every column, and every third cell of row 2 is a gap
        a = np.zeros((3, J), dtype=np.int8)
        a[1] = 1
        a[2, ::3], a[2, 1::3] = -1, 1
        self.check(a[:2], a[2:])
        self.check(a[:2], a[2:], gap=-1)

    def test_kernel_peak_is_the_tables_and_the_block_buffers(self):
        # at fasta-gaps-cli's shape one row block is one row: its XOR buffer of every plane,
        # its popcounts and its validity words are allocated once.  Past them and the two
        # tables, the peak holds only numpy's own ufunc buffers, at most one bufsize of
        # uint64 for each of three operands, less than one uint64 plane of a block (626 kB)
        codes = substream(37).integers(0, 4, size=(250, 20_000))
        codes[substream(38).random(codes.shape) < 0.05] = -1
        packed, valid = core.bit_planes(codes, 0, 2), core.bit_planes(codes != -1, 0, 1)[0]
        planes, n, words = packed.shape
        cells = max(1, core._BLOCK_ELEMS // (planes * n * words)) * n * words
        tracemalloc.start()
        try:
            core.plane_mismatches(packed, packed, valid, valid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n * 8 + cells * (8 * planes + 1 + 8) + 3 * np.getbufsize() * 8


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

    @pytest.mark.parametrize("elems", [1, 7 * 3 * 40 * 2, 2**17], ids=["rows", "7-row-blocks", "one-block"])
    @pytest.mark.parametrize("normalized, gaps", [(False, False), (True, False), (True, True)],
                             ids=["raw", "normalized", "normalized-gaps"])
    def test_diagonal_is_positive_zero_from_the_kernel(self, monkeypatch, elems, normalized, gaps):
        # no caller fills the diagonal: a row against itself counts 0 mismatches over a positive divisor
        monkeypatch.setattr(core, "_BLOCK_ELEMS", elems)
        codes = substream(41).integers(0, 5, size=(40, 70))
        if gaps:
            codes[substream(42).random(codes.shape) < 0.2] = GAP_CODE
        x = CategoricalMatrix(codes, [5] * 70, gap_code=GAP_CODE if gaps else None)
        diagonal = np.diagonal(hamming(x, normalized=normalized).values)
        assert np.all(diagonal == 0.0) and not np.signbit(diagonal).any()

    def test_no_comparable_positions_rejected(self):
        x = encode([["A", "-"], ["-", "C"]], gap_symbol="-")
        with pytest.raises(DataError):
            hamming(x)

    def test_declared_gap_that_no_cell_holds_builds_no_denominator_table(self):
        # the CLI declares a gap code for every FASTA input; with no gap cell every pair
        # compares all J columns, so the kernel returns J and no n x n table of it
        n = 1000
        codes = substream(39).integers(0, 4, size=(n, 2000))
        plain = hamming(CategoricalMatrix(codes, [4] * 2000), normalized=True)
        x = CategoricalMatrix(codes, [4] * 2000, gap_code=GAP_CODE)
        tracemalloc.start()
        try:
            declared = hamming(x, normalized=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(declared.values, plain.values)
        assert peak < 1.8 * n * n * 8

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


class TestCategoricalMatrixValidation:
    CARDS = np.array([2, 3, 1])

    def test_valid_tables(self):
        codes = np.array([[1, 2, 0], [0, 0, 0]])
        assert CategoricalMatrix(codes, self.CARDS).J == 3
        gapped = np.array([[GAP_CODE, 2, 0], [0, GAP_CODE, 0]])
        assert CategoricalMatrix(gapped, self.CARDS, gap_code=GAP_CODE).has_gaps

    @pytest.mark.parametrize("codes, gap_code", [
        ([[-1, 0, 0]], None),  # negative code, no gap code
        ([[0, 0, -2]], GAP_CODE),  # below the gap code
        ([[0, 3, 0]], None),  # equal to its column's cardinality
        ([[1, 0, 1]], GAP_CODE),  # within another column's cardinality, not its own
    ])
    def test_code_out_of_range_rejected(self, codes, gap_code):
        with pytest.raises(DataError, match=r"non-gap codes must lie in \[0, cardinality\)"):
            CategoricalMatrix(np.array(codes), self.CARDS, gap_code=gap_code)

    @pytest.mark.parametrize("gap_code", [7, 0, -2])
    def test_gap_code_other_than_gap_code_constant_rejected(self, gap_code):
        with pytest.raises(DataError, match="gap code must be None or -1"):
            CategoricalMatrix(np.zeros((2, 3), dtype=np.int32), self.CARDS, gap_code=gap_code)

    def test_shape_cardinality_and_row_id_checks(self):
        with pytest.raises(DataError, match="non-empty 2-D array"):
            CategoricalMatrix(np.zeros(3, dtype=np.int32), self.CARDS)
        with pytest.raises(DataError, match="non-empty 2-D array"):
            CategoricalMatrix(np.zeros((0, 3), dtype=np.int32), self.CARDS)
        with pytest.raises(DataError, match="one cardinality per column"):
            CategoricalMatrix(np.zeros((2, 3), dtype=np.int32), self.CARDS[:2])
        with pytest.raises(DataError, match="cardinalities must be >= 1"):
            CategoricalMatrix(np.zeros((2, 3), dtype=np.int32), np.array([2, 0, 1]))
        with pytest.raises(DataError, match="one row id per row"):
            CategoricalMatrix(np.zeros((2, 3), dtype=np.int32), self.CARDS, row_ids=("a",))

    @pytest.mark.parametrize("codes", [
        np.array([[2**32, 1], [0, 1]]),  # int64 that wraps to 0 in int32
        np.array([[-2**32, 1], [0, 1]]),
        np.array([[2**64 - 1, 1], [0, 1]], dtype=np.uint64),
        np.array([[256, 1], [0, 1]], dtype=np.int16),  # wraps to 0 in int8
    ])
    def test_out_of_range_code_raises_before_it_is_narrowed(self, codes):
        with pytest.raises(DataError, match=r"non-gap codes must lie in \[0, cardinality\)"):
            CategoricalMatrix(codes, [2, 2])

    @pytest.mark.parametrize("codes", [
        [[0.7, 1.9], [0.0, 1.0]],  # would truncate to [[0, 1], [0, 1]]
        np.array([[0, 1], [0, 1]], dtype=np.float32),
        np.array([[False, True], [False, True]]),
    ])
    def test_non_integer_codes_rejected(self, codes):
        with pytest.raises(DataError, match="codes must be integers"):
            CategoricalMatrix(codes, [2, 2])


def stored_as(x: CategoricalMatrix, dtype) -> CategoricalMatrix:
    """``x`` with its codes kept in ``dtype``, past the constructor's narrowing."""
    wide = CategoricalMatrix(x.codes, x.cardinalities, x.gap_code, x.row_ids)
    object.__setattr__(wide, "codes", core._freeze(x.codes.astype(dtype)))
    return wide


def hamming_outcome(x: CategoricalMatrix, normalized: bool):
    """The matrix's kind and bytes, or the error (a pair with no shared non-gap column)."""
    try:
        d = hamming(x, normalized)
    except DataError as err:
        return str(err)
    return d.kind, d.values.tobytes()


class TestCodeStorage:
    @pytest.mark.parametrize("card, dtype", [
        (1, np.int8), (128, np.int8), (129, np.int16), (32_768, np.int16), (32_769, np.int32),
    ])
    @pytest.mark.parametrize("gap_code", [None, GAP_CODE])
    def test_narrowest_type_at_the_boundaries(self, card, dtype, gap_code):
        low = 0 if gap_code is None else GAP_CODE
        codes = np.array([[card - 1, low], [low, card - 1]])
        x = CategoricalMatrix(codes, [card, card], gap_code=gap_code)
        assert code_dtype(card) == x.codes.dtype == dtype and x.codes.flags.c_contiguous
        assert x.codes.tolist() == codes.tolist()

    def test_one_wide_column_widens_the_table(self):
        x = CategoricalMatrix(np.zeros((2, 3), dtype=np.int8), [2, 129, 3])
        assert x.codes.dtype == np.int16

    def test_narrow_input_is_kept_and_column_selection_keeps_the_type(self):
        for card, dtype in [(4, np.int8), (200, np.int16)]:
            codes = substream(card).integers(0, card, size=(5, 40)).astype(dtype)
            x = CategoricalMatrix(codes, np.full(40, card))
            assert x.codes is codes
            sub = x.select_columns([3, 0, 39, 3])
            assert sub.codes.dtype == dtype and sub.codes.tolist() == codes[:, [3, 0, 39, 3]].tolist()

    def test_tables_cost_one_byte_per_cell(self, tmp_path):
        x, _ = gen_highdim(SeqDesign(J=3_000, sizes=(2, 3, 2, 2, 1)), seed=5)
        assert x.codes.dtype == np.int8 and x.codes.nbytes == x.n * x.J
        path = tmp_path / "aligned.fasta"
        path.write_text(">a\nAC-GT\n>b\nACCG.\n>c\nTTAGA\n", encoding="ascii")
        y = load_fasta_matrix(path)
        assert y.codes.nbytes == y.n * y.J == 15
        assert y.codes.tolist() == [[0, 0, -1, 0, 0], [0, 0, 0, 0, -1], [1, 1, 1, 0, 1]]

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 128, 129, 32_768, 32_769]), st.booleans())
    def test_results_do_not_depend_on_the_storage_type(self, seed, card, gaps):
        # a few values spread over [0, card), so every plane count and offset type shows up
        rng = substream(seed)
        n, J = int(rng.integers(2, 9)), int(rng.integers(1, 70))
        values = rng.choice(card, size=min(card, 3), replace=False)
        codes = values[rng.integers(0, values.size, size=(n, J))]
        if gaps:
            codes[rng.random((n, J)) < 0.2] = GAP_CODE
        x = CategoricalMatrix(codes, np.full(J, card), gap_code=GAP_CODE if gaps else None)
        wide = stored_as(x, np.int32)
        gap = x.gap_code
        want = naive_mismatch_counts(codes.tolist(), codes.tolist(), gap)
        for table in (x.codes, wide.codes):
            counts, compared = mismatch_counts(table, gap)
            assert counts.tolist() == want[0]
            assert np.broadcast_to(compared, counts.shape).tolist() == want[1]
        for normalized in (False, True):
            assert hamming_outcome(x, normalized) == hamming_outcome(wide, normalized)
        if gaps or card > 129:  # k-modes takes gap-free tables; its count table grows with card
            return
        k = int(rng.integers(1, n + 1))
        a, b = kmodes(x, k, seed=seed), kmodes(wide, k, seed=seed)
        assert (a.labels.tolist(), a.modes.tolist(), a.cost, a.n_iter) == (
            b.labels.tolist(), b.modes.tolist(), b.cost, b.n_iter)
        ensembles = [en_kmodes(t, k, B=4, seed=seed).labels.tolist() for t in (x, wide)]
        assert ensembles[0] == ensembles[1]


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

    def test_integrality_check_runs_in_row_blocks(self):
        # n * n is about eleven times the block cap: one floor copy of the table
        # and its comparison would take 1.125 n^2 float64; the blocked check stays
        # well under that.  A fraction in the last row is still found.
        n = 1200
        upper = np.triu(substream(37).integers(0, 50, size=(n, n)), 1).astype(np.float64)
        vals = upper + upper.T
        tracemalloc.start()
        try:
            DissimilarityMatrix(vals, kind="raw-count")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.3 * vals.nbytes
        bad = vals.copy()  # the matrix froze ``vals``, which it holds without a copy
        bad[-1, -2] = bad[-2, -1] = 0.5
        with pytest.raises(DataError, match="raw-count dissimilarities must be integers"):
            DissimilarityMatrix(bad, kind="raw-count")

    def test_symmetry_check_runs_in_row_blocks(self):
        # comparing the table with its transpose in one piece takes an n x n bool
        # (0.125 n^2 float64); row blocks against the matching column blocks stay
        # near 0.017.  An asymmetry within one row block (the last full one) is found.
        n = 1200
        upper = np.triu(substream(38).random((n, n)), 1)
        vals = upper + upper.T
        tracemalloc.start()
        try:
            DissimilarityMatrix(vals, kind="normalized")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * vals.nbytes
        bad = vals.copy()
        bad[-2, -3] /= 2
        with pytest.raises(DataError, match="dissimilarity matrix must be symmetric"):
            DissimilarityMatrix(bad)

    def test_symmetry_check_reads_each_strip_right_of_its_diagonal(self):
        # each strip compares its rows from column s on with its columns from row s
        # down, so every pair is read once; one asymmetric cell anywhere must be found:
        # right of each strip's diagonal block, left of it (an earlier strip's column),
        # and below the diagonal of the last strip
        n = 600
        step = max(1, core._BLOCK_ELEMS // n)
        starts = range(0, n, step)
        assert len(starts) > 2
        upper = np.triu(substream(39).random((n, n)), 1)
        vals = upper + upper.T
        cells = [(s, n - 1) for s in starts] + [(s + 1, s - 1) for s in starts[1:]] + [(n - 1, starts[-1])]
        for r, c in cells:
            bad = vals.copy()
            bad[r, c] /= 2
            with pytest.raises(DataError, match="dissimilarity matrix must be symmetric"):
                DissimilarityMatrix(bad)


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
