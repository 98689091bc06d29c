import numpy as np
import pytest

from catens.core import CategoricalMatrix, DataError, encode, relabel_dense
from catens.kmodes import en_kmodes, kmodes
from catens.metrics import classification_rate
from catens.rng import substream

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
        costs = [kmodes(x, 4, seed=7, max_iter=m).cost for m in range(1, 8)]
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


class TestEnKModes:
    def test_single_member_equals_one_run(self):
        rng = substream(46)
        x = random_table(rng, 12, 5)
        ensembled = en_kmodes(x, 3, B=1, seed=9)
        size = int(substream(9).integers(2, int(np.ceil(np.sqrt(12))) + 1, size=1)[0])
        single = relabel_dense(kmodes(x, size, seed=substream(9, 0)).labels)
        # a one-member ensemble has distances in {0,1}: cutting at the run's
        # own size recovers that run's grouping
        if single.K == 3:
            assert classification_rate(ensembled, single) == 1.0

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
            st = kmodes(x, 2, seed=substream(48, rep))
            single_crs.append(classification_rate(relabel_dense(st.labels), truth))
            labels = en_kmodes(x, 2, B=15, seed=rep)
            ensemble_crs.append(classification_rate(labels, truth))
        assert np.mean(ensemble_crs) > np.mean(single_crs)
