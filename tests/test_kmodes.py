import importlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from catens.core import CategoricalMatrix, DataError, encode, relabel_dense
from catens.kmodes import _MAX_ITER, _runs, _update_modes, en_kmodes, kmodes
from catens.metrics import classification_rate
from catens.rng import substream

from .reference import naive_kmodes, per_cluster_modes
from .test_ensemble import two_block_table


def random_table(rng, n, j, card=4):
    codes = rng.integers(0, card, size=(n, j), dtype=np.int32)
    return CategoricalMatrix(codes, np.full(j, card, dtype=np.int64))


class TestKModes:
    def test_k_one_mode_is_columnwise_majority(self):
        x = encode([["a", "x"], ["a", "y"], ["b", "y"], ["a", "y"]])
        state = kmodes(x, 1, seed=0)
        # column 0 majority 'a' (code 0); column 1 majority 'y' (code 1)
        assert state.modes.tolist() == [[0, 1]]
        assert state.cost == 1 + 1

    def test_mode_tie_prefers_smallest_code(self):
        x = encode([["a"], ["b"], ["a"], ["b"]])
        state = kmodes(x, 1, seed=0)
        assert state.modes.tolist() == [[0]]

    def test_identical_blocks_recovered_with_zero_cost(self):
        x = two_block_table(sizes=(4, 4), J=5)
        truth = np.array([0] * 4 + [1] * 4)
        for seed in range(5):
            state = kmodes(x, 2, seed=seed)
            assert state.cost == 0
            assert classification_rate(relabel_dense(state.labels), truth) == 1.0

    def test_cost_matches_recomputation(self):
        rng = substream(41)
        for seed in range(5):
            x = random_table(rng, 12, 6)
            state = kmodes(x, 3, seed=seed)
            recomputed = int((x.codes != state.modes[state.labels]).sum())
            assert state.cost == recomputed

    def test_cost_monotone_along_iterations(self):
        # rerunning with a truncated iteration budget replays the same
        # trajectory, so the cost sequence must be nonincreasing
        rng = substream(42)
        x = random_table(rng, 20, 8)
        costs = []
        for m in range(1, 8):
            with mock.patch.object(importlib.import_module("catens.kmodes"), "_MAX_ITER", m):
                costs.append(kmodes(x, 4, seed=7).cost)
        assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_reseeding_leaves_no_cluster_empty(self):
        # all distances are zero: a reseed must not take the row that
        # reseeded the previous empty cluster
        x = CategoricalMatrix(np.zeros((5, 3), np.int32), np.full(3, 2))
        state = kmodes(x, 3, seed=0)
        assert state.labels.tolist() == [1, 2, 0, 0, 0]
        assert state.cost == 0

    def test_deterministic_given_seed(self):
        rng = substream(43)
        x = random_table(rng, 15, 5)
        a = kmodes(x, 3, seed=11)
        b = kmodes(x, 3, seed=11)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.modes, b.modes)
        assert a.cost == b.cost

    def test_column_permutation_leaves_labels_unchanged(self):
        rng = substream(44)
        x = random_table(rng, 15, 6)
        perm = rng.permutation(6)
        xp = x.select_columns(perm)
        a = kmodes(x, 3, seed=5)
        b = kmodes(xp, 3, seed=5)
        assert np.array_equal(a.labels, b.labels)

    def test_k_larger_than_n_rejected(self):
        rng = substream(45)
        with pytest.raises(ValueError):
            kmodes(random_table(rng, 4, 3), 5)

    def test_gaps_rejected(self):
        x = encode([["a", "-"], ["b", "c"]], gap_symbol="-")
        with pytest.raises(DataError):
            kmodes(x, 2)


class TestModeUpdate:
    @given(st.data())
    def test_count_table_matches_per_cluster_oracle(self, data):
        # few rows per cluster: ties are common, and labels drawn from 0..k-1 leave
        # some clusters empty; several runs share one table, whose J and span reach
        # past one 64-column word and past five bit planes
        n, J, span = (data.draw(st.integers(1, hi)) for hi in (30, 70, 33))
        ks = np.array(data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=4)))
        codes = data.draw(arrays(np.int32, (n, J), elements=st.integers(0, span - 1)))
        labels = np.stack([data.draw(arrays(np.int64, n, elements=st.integers(0, k - 1))) for k in ks])
        got = _update_modes(codes, labels, ks, span)
        want = np.concatenate([per_cluster_modes(codes, lab, k, span) for lab, k in zip(labels, ks)])
        assert got.dtype == codes.dtype
        assert got.tolist() == want.tolist()


class TestLockstep:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0, 1, 2, 3, 100]), st.sampled_from([1, 2**17]))
    def test_batched_runs_match_one_run_oracle(self, seed, max_iter, cap):
        # tie-heavy tables from a seeded stream (few rows, columns and codes);
        # half the runs take k within 2 of n, which forces reseeds.  A cap of
        # one cell puts every run in a group of its own.
        rng = substream(seed)
        n, J, card, B = (int(rng.integers(1, hi)) for hi in (13, 7, 4, 7))
        x = CategoricalMatrix(rng.integers(0, card, size=(n, J), dtype=np.int32), np.full(J, card))
        ks = np.where(rng.random(B) < 0.5, n - rng.integers(0, min(n, 3), B), rng.integers(1, n + 1, B))
        module = importlib.import_module("catens.kmodes")
        with mock.patch.object(module, "_BLOCK_ELEMS", cap), mock.patch.object(module, "_MAX_ITER", max_iter):
            states = list(_runs(x, ks, [substream(seed, b) for b in range(B)]))
            single = kmodes(x, int(ks[0]), seed=seed)
        want = [naive_kmodes(x.codes, int(k), substream(seed, b), max_iter) for b, k in enumerate(ks)]
        want.append(naive_kmodes(x.codes, int(ks[0]), substream(seed), max_iter))
        got = [(s.labels.tolist(), s.modes.tolist(), s.cost, s.n_iter) for s in [*states, single]]
        assert got == want


    @pytest.mark.parametrize("card", [2, 5, 17, 33])
    @pytest.mark.parametrize("J", [63, 64, 65, 129])
    def test_wide_rows_and_many_codes_match_one_run_oracle(self, J, card):
        # rows of one word, one word and a bit, and three words; codes of 1 to 6 planes
        rng = substream(50, J, card)
        n, B = int(rng.integers(2, 16)), 6
        x = CategoricalMatrix(rng.integers(0, card, size=(n, J), dtype=np.int32), np.full(J, card))
        ks = np.where(rng.random(B) < 0.5, n - rng.integers(0, min(n, 3), B), rng.integers(1, n + 1, B))
        states = _runs(x, ks, [substream(51, b) for b in range(B)])
        got = [(s.labels.tolist(), s.modes.tolist(), s.cost, s.n_iter) for s in states]
        assert got == [naive_kmodes(x.codes, int(k), substream(51, b), _MAX_ITER) for b, k in enumerate(ks)]


class TestEnKModes:
    def test_single_member_equals_one_run(self):
        rng = substream(46)
        x = random_table(rng, 12, 5)
        ensembled = en_kmodes(x, 3, B=1, seed=9)
        size = int(substream(9).integers(2, int(np.ceil(np.sqrt(12))) + 1, size=1)[0])
        single = relabel_dense(naive_kmodes(x.codes, size, substream(9, 0), _MAX_ITER)[0])
        # a one-member ensemble has distances in {0,1}: cutting at the run's
        # own size recovers that run's grouping
        if single.K == 3:
            assert classification_rate(ensembled, single) == 1.0

    def test_wide_table_peaks_at_one_run(self):
        # in one batch the runs' update indices alone would take B x n x J int64
        # cells, 160 MB here; groups keep the peak at that of one run
        x = random_table(substream(49), 40, 20_000)

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_run = peak(lambda: kmodes(x, int(np.ceil(np.sqrt(x.n))), seed=1))
        assert peak(lambda: en_kmodes(x, 3, B=25, seed=1)) < one_run + 2**21

    def test_separated_blocks_recovered(self):
        x = two_block_table(sizes=(5, 5), J=6)
        truth = np.array([0] * 5 + [1] * 5)
        labels = en_kmodes(x, 2, B=10, seed=1)
        assert classification_rate(labels, truth) == 1.0

    def test_ensemble_beats_single_run_on_noisy_two_cluster_data(self):
        # two binary prototypes with heavy flip noise: random restarts make a
        # single K-modes run unstable, the ensemble averages the instability out
        rng = substream(47)
        J, n_half, flip = 24, 15, 0.35
        proto = np.stack([np.zeros(J, int), np.ones(J, int)])
        single_crs, ensemble_crs = [], []
        truth = np.repeat([0, 1], n_half)
        for rep in range(30):
            noise = rng.random((2 * n_half, J)) < flip
            codes = (proto[truth] ^ noise).astype(np.int32)
            x = CategoricalMatrix(codes, np.full(J, 2, dtype=np.int64))
            st = next(_runs(x, [2], [substream(48, rep)]))  # kmodes' one run, from this stream
            single_crs.append(classification_rate(relabel_dense(st.labels), truth))
            labels = en_kmodes(x, 2, B=15, seed=rep)
            ensemble_crs.append(classification_rate(labels, truth))
        assert np.mean(ensemble_crs) > np.mean(single_crs)
