import numpy as np
import pytest

from catens.core import DataError
from catens.metrics import (
    classification_rate,
    confusion,
    format_cell,
    format_results_table,
    max_matching,
    replicate_summary,
)
from catens.rng import substream

from .reference import brute_force_classification_rate


class TestClassificationRate:
    def test_identical_labels(self):
        assert classification_rate([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0

    def test_relabeling_is_perfect(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([2, 2, 0, 0, 1, 1])
        assert classification_rate(pred, truth) == 1.0

    def test_half_right(self):
        assert classification_rate([0, 1, 0, 1], [0, 0, 1, 1]) == 0.5

    def test_rectangular_shapes(self):
        # more predicted clusters than true and vice versa
        assert classification_rate([0, 1, 2, 3], [0, 0, 1, 1]) == 0.5
        assert classification_rate([0, 0, 0, 0], [0, 1, 2, 3]) == 0.25

    def test_matches_brute_force(self):
        rng = substream(51)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            kp, kt = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            pred = rng.integers(0, kp, size=n)
            truth = rng.integers(0, kt, size=n)
            assert classification_rate(pred, truth) == brute_force_classification_rate(pred, truth)

    def test_invariant_to_bijections_on_both_sides(self):
        rng = substream(52)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            pred = rng.integers(0, 3, size=n)
            truth = rng.integers(0, 3, size=n)
            base = classification_rate(pred, truth)
            sigma = rng.permutation(3)
            tau = rng.permutation(3)
            assert classification_rate(sigma[pred], tau[truth]) == pytest.approx(base)

    def test_lower_bound_trivial_matching(self):
        rng = substream(53)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            pred = rng.integers(0, 3, size=n)
            truth = rng.integers(0, 3, size=n)
            cm = confusion(pred, truth)
            assert classification_rate(pred, truth) >= cm.max() / n
            assert classification_rate(pred, truth) >= 1 / n

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            classification_rate([0, 1], [0, 1, 1])


class TestMaxMatching:
    def test_one_by_one(self):
        assert max_matching(np.array([[0]])) == 0
        assert max_matching(np.array([[7]])) == 7

    def test_zero_matrix(self):
        assert max_matching(np.zeros((3, 5), dtype=np.int64)) == 0
        assert max_matching(np.zeros((5, 3), dtype=np.int64)) == 0

    def test_greedy_pick_is_not_optimal(self):
        # the largest entry (9) is in no best matching: 8 + 8 beats 9 + 0
        assert max_matching(np.array([[9, 8], [8, 0]])) == 16

    def test_matches_scipy_oracle(self):
        # scipy is a test-only oracle; the package itself must not import it
        from scipy.optimize import linear_sum_assignment

        rng = substream(54)
        for _ in range(2000):
            shape = rng.integers(1, 13, size=2)
            cm = rng.integers(0, int(rng.integers(1, 5)), size=shape)  # small ranges give ties
            cm[rng.random(shape[0]) < 0.15, :] = 0
            cm[:, rng.random(shape[1]) < 0.15] = 0
            rows, cols = linear_sum_assignment(cm, maximize=True)
            assert max_matching(cm) == cm[rows, cols].sum()
            assert max_matching(cm.T) == max_matching(cm)


class TestConfusion:
    def test_counts(self):
        assert confusion([0, 0, 1], [0, 1, 1]).tolist() == [[1, 1], [0, 1]]

    def test_counts_match_per_row_loop(self):
        rng = substream(55)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            pred, truth = rng.integers(0, 4, size=n), rng.integers(0, 6, size=n)
            want = np.zeros((pred.max() + 1, truth.max() + 1), dtype=np.int64)
            for p, t in zip(pred, truth):
                want[p, t] += 1
            got = confusion(pred, truth)
            assert got.dtype == np.int64 and got.tolist() == want.tolist()

    def test_negative_label_rejected(self):
        with pytest.raises(DataError, match="non-negative"):
            confusion([0, -1], [0, 1])


class TestReplicateSummary:
    def test_constant_values(self):
        assert replicate_summary([0.5, 0.5, 0.5]) == (0.5, 0.0)

    def test_two_values(self):
        mean, sd = replicate_summary([0.0, 1.0])
        assert mean == 0.5
        assert sd == pytest.approx(np.sqrt(0.5))

    def test_single_value_has_zero_sd(self):
        assert replicate_summary([0.7]) == (0.7, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            replicate_summary([])


class TestTableFormatting:
    def test_cell_drops_zero_sd(self):
        assert format_cell(0.88, 0.0) == "0.88"
        assert format_cell(0.884, 0.031) == "0.88(0.03)"

    def test_table_layout(self):
        # every method has the same columns, in the first method's order
        results = {
            "ENAL": {"D10": (0.96, 0.02), "D1": (0.88, 0.0)},
            "HCAL": {"D1": (0.5, 0.125), "D10": (0.96, 0.0)},
        }
        text = format_results_table(results)
        assert text.endswith("\n")
        lines = text.rstrip("\n").split("\n")
        assert lines == ["method\tD10\tD1", "ENAL\t0.96(0.02)\t0.88", "HCAL\t0.96\t0.50(0.12)"]
