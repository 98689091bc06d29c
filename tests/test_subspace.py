import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catens.core import DataError
from catens.ensemble import EnsembleConfig, ensemble_cluster
from catens.metrics import classification_rate
from catens.rng import substream
from catens.simgen import DESIGNS, gen_lowdim, gen_noise
from catens.subspace import (
    SubspaceSet,
    subspace_ensemble,
    wor_subspaces,
    wr_subspaces,
)

from .reference import distinct_count_pmf, enumerate_distinct_pmf, exact_distinct_pmf_formula
from .test_ensemble import two_block_table


class TestWorSubspaces:
    def test_fixed_blocks_partition(self):
        s = wor_subspaces(6, blocks=2, seed=1)
        assert s.R == 2
        assert sorted(np.concatenate(s.subsets).tolist()) == list(range(6))

    def test_full_width_block_is_identity(self):
        s = wor_subspaces(5, blocks=1, seed=2)
        assert s.R == 1 and s.subsets[0].tolist() == [0, 1, 2, 3, 4]

    def test_indivisible_block_size_rejected(self):
        for blocks in (3, 0, -2, 11):
            with pytest.raises(ValueError, match="must be >= 1 and divide J=10"):
                wor_subspaces(10, blocks=blocks, seed=0)

    def test_random_lengths_partition_and_determinism(self):
        a = wor_subspaces(10, seed=7)
        b = wor_subspaces(10, seed=7)
        assert sorted(np.concatenate(a.subsets).tolist()) == list(range(10))
        assert [s.tolist() for s in a.subsets] == [s.tolist() for s in b.subsets]

    def test_partition_property_random(self):
        rng = substream(31)
        for _ in range(10):
            J = int(rng.integers(1, 40))
            s = wor_subspaces(J, seed=int(rng.integers(0, 1000)))
            assert sorted(np.concatenate(s.subsets).tolist()) == list(range(J))
            assert all(len(sub) >= 1 for sub in s.subsets)


    @given(st.data(), st.integers(1, 300), st.integers(0, 2**32))
    def test_partition_into_sorted_blocks(self, data, J, seed):
        blocks = data.draw(st.sampled_from([None, *(d for d in range(1, J + 1) if J % d == 0)]))
        s = wor_subspaces(J, blocks=blocks, seed=seed)
        assert blocks is None or s.R == blocks
        assert np.array_equal(np.sort(np.concatenate(s.subsets)), np.arange(J))
        assert all(np.all(np.diff(sub) > 0) for sub in s.subsets)


class TestWrSubspaces:
    def test_single_column(self):
        s = wr_subspaces(1, M=5, seed=3)
        assert all(sub.tolist() == [0] for sub in s.subsets)

    def test_default_count_and_invalid_count(self):
        assert wr_subspaces(3, seed=1).R == wr_subspaces(3, None, seed=1).R == 200
        for M in (0, -1):
            with pytest.raises(ValueError, match="WR subset count"):
                wr_subspaces(3, M=M)

    def test_no_duplicates_and_reproducible(self):
        a = wr_subspaces(50, M=20, seed=4)
        b = wr_subspaces(50, M=20, seed=4)
        for sub, sub2 in zip(a.subsets, b.subsets):
            assert len(np.unique(sub)) == len(sub)
            assert sub.tolist() == sub2.tolist()

    def test_double_bootstrap_keeps_about_half(self):
        s = wr_subspaces(4000, M=60, seed=5)
        fraction = np.mean([len(sub) / 4000 for sub in s.subsets])
        assert abs(fraction - 0.47) < 0.02

    @given(st.integers(1, 2000), st.integers(1, 4), st.integers(0, 2**32))
    def test_subsets_sorted_distinct_in_range(self, J, M, seed):
        s = wr_subspaces(J, M=M, seed=seed)
        assert s.R == M and s.source_J == J
        for r, sub in enumerate(s.subsets):
            assert np.all(np.diff(sub) > 0) and sub[0] >= 0 and sub[-1] < J
            # the same double bootstrap, deduplicated by sorting
            rng = substream(seed, r)
            first = np.unique(rng.integers(0, J, size=J))
            assert np.array_equal(sub, np.unique(rng.integers(0, J, size=first.size)))

    def test_paper_width_indices_take_two_bytes_each(self):
        # J = 50,000 columns fit uint16; each subset is narrowed as it is drawn,
        # so the peak stays near the indices themselves (9.4 MB as int64)
        tracemalloc.start()
        try:
            s = wr_subspaces(50_000, M=50, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(sub.nbytes for sub in s.subsets) == 2 * sum(sub.size for sub in s.subsets)
        assert peak < 3 * 2**20

    def test_single_level_keeps_about_sixty_three_percent(self):
        rng = substream(32)
        fractions = [len(np.unique(rng.integers(0, 4000, 4000))) / 4000 for _ in range(60)]
        assert abs(np.mean(fractions) - 0.632) < 0.01


class TestSubspaceSetValidation:
    def test_empty_subset_rejected(self):
        with pytest.raises(DataError):
            SubspaceSet(subsets=(np.array([], dtype=int),), source_J=2)

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            SubspaceSet(subsets=(np.array([5]),), source_J=3)

    @pytest.mark.parametrize("sub", [np.array([1.5, 0.2]), np.array([True, False]), np.array([1.0])])
    def test_non_integer_indices_rejected(self, sub):
        with pytest.raises(DataError, match=f"subset indices must be integers, got {sub.dtype}"):
            SubspaceSet(subsets=(sub,), source_J=3)

    @pytest.mark.parametrize("index", [-1, 256, 65_536 + 255])
    def test_range_is_checked_before_narrowing(self, index):
        # each of these wraps into [0, 256) as uint8
        with pytest.raises(DataError, match="must lie in"):
            SubspaceSet(subsets=(np.array([0, index]),), source_J=256)

    @pytest.mark.parametrize(
        "J, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32)]
    )
    def test_indices_stored_in_narrowest_unsigned_type(self, J, dtype):
        s = SubspaceSet(subsets=(np.array([0, J - 1]), [J - 1]), source_J=J)
        assert all(sub.dtype == dtype and not sub.flags.writeable for sub in s.subsets)
        assert s.subsets[0].tolist() == [0, J - 1]
        assert wor_subspaces(J, blocks=1, seed=1).subsets[0].dtype == dtype
        assert wr_subspaces(J, M=1, seed=1).subsets[0].dtype == dtype

    def test_input_of_the_storage_type_is_not_copied(self):
        sub = np.arange(4, dtype=np.uint8)
        assert SubspaceSet(subsets=(sub,), source_J=4).subsets[0] is sub


class TestDistinctCountPmf:
    def test_trivial_case(self):
        assert distinct_count_pmf(1).tolist() == [1.0]

    def test_two_draws(self):
        assert distinct_count_pmf(2).tolist() == [0.5, 0.5]

    def test_three_draws(self):
        assert np.allclose(distinct_count_pmf(3), [1 / 9, 6 / 9, 2 / 9])
        assert distinct_count_pmf(3).tolist() == enumerate_distinct_pmf(3).tolist()

    def test_matches_enumeration_exactly_up_to_five(self):
        for J in range(1, 6):
            assert distinct_count_pmf(J).tolist() == enumerate_distinct_pmf(J).tolist()

    def test_matches_inclusion_exclusion_formula(self):
        for J in range(1, 61):
            assert distinct_count_pmf(J).tolist() == exact_distinct_pmf_formula(J).tolist()

    def test_sums_to_one(self):
        for J in (4, 8, 12, 20, 40):
            assert abs(distinct_count_pmf(J).sum() - 1.0) < 1e-12


class TestSubspaceEnsemble:
    def test_single_full_subset_reduces_to_plain_ensemble(self):
        # four rows: size_range(4) is (2, 2), so the subspace's own size is 2
        x = two_block_table(sizes=(2, 2), J=5)
        s = SubspaceSet(subsets=(np.arange(5),), source_J=5)
        cfg = EnsembleConfig(B=6, seed=8)
        labels, _ = subspace_ensemble(x, s, cfg, 2)
        base, _ = ensemble_cluster(x, cfg, 2)
        assert classification_rate(labels, base) == 1.0

    def test_separated_blocks_recovered_under_wr(self):
        x = two_block_table(sizes=(6, 6), J=12)
        truth = np.array([0] * 6 + [1] * 6)
        s = wr_subspaces(12, M=15, seed=9)
        cfg = EnsembleConfig(B=6, seed=10)
        labels, _ = subspace_ensemble(x, s, cfg, 2)
        assert classification_rate(labels, truth) == 1.0

    def test_other_base_linkage(self):
        x, _ = gen_lowdim(DESIGNS["D10"], seed=4)
        cfg = EnsembleConfig(B=5, linkage="CL", seed=6)
        labels, tree = subspace_ensemble(x, wr_subspaces(x.J, M=8, seed=6), cfg, 2)
        assert labels.n == 50 and tree.n == 50

    def test_subset_index_out_of_range_rejected(self):
        x = two_block_table(sizes=(3, 3), J=4)
        s = SubspaceSet(subsets=(np.array([7]),), source_J=8)
        with pytest.raises(DataError):
            subspace_ensemble(x, s, EnsembleConfig(B=2, seed=1), 2)

    def test_constant_subset_columns_permitted(self):
        # a subset over which two rows coincide is fine (distance zero)
        x = two_block_table(sizes=(4, 4), J=6)
        s = SubspaceSet(subsets=(np.array([0, 1]), np.array([2, 3, 4, 5])), source_J=6)
        labels, _ = subspace_ensemble(x, s, EnsembleConfig(B=4, seed=2), 2)
        assert labels.n == 8


class TestNoiseConcentration:
    def test_pairwise_spread_shrinks_with_dimension(self):
        from catens.core import hamming

        spreads = {}
        for J in (100, 10_000):
            x = gen_noise(40, J, 4, seed=33)
            d = hamming(x, normalized=True).values
            off = d[np.triu_indices(40, 1)]
            spreads[J] = off.max() - off.min()
        assert spreads[10_000] < spreads[100]
