import numpy as np
import pytest
from scipy import stats

from catens.rng import substream
from catens.simgen import (
    DESIGNS,
    LOWDIM_J,
    Design,
    SeqDesign,
    SEQ_HIGH_NOISE,
    SEQ_LOW_NOISE,
    gen_highdim,
    gen_lowdim,
    gen_noise,
)


class TestDesignTable:
    def test_equal_sized_design(self):
        d = DESIGNS["D1"]
        assert (d.n, d.K, d.sizes, LOWDIM_J) == (125, 5, (25, 25, 25, 25, 25), 20)

    def test_two_cluster_designs(self):
        assert DESIGNS["D10"].sizes == (25, 25) and DESIGNS["D10"].n == 50
        assert DESIGNS["D11"].sizes == (15, 35) and DESIGNS["D11"].n == 50

    def test_all_sizes_sum(self):
        for d in DESIGNS.values():
            assert sum(d.sizes) == d.n and len(d.sizes) == d.K

    def test_invalid_design_rejected(self):
        with pytest.raises(ValueError):
            Design("bad", 2, (3,))


def drawn_parameters(design, seed, replicate=0):
    """``(a_j, p_jk)`` re-drawn from ``substream(seed, replicate, j)`` in the
    order ``gen_lowdim``'s docstring gives."""
    bounds, probs = [], []
    for j in range(LOWDIM_J):
        rng = substream(seed, replicate, j)
        bounds.append(int(rng.integers(3, 21)))
        probs.append(rng.uniform(0.1, 0.9, size=design.K))
    return np.array(bounds), np.array(probs)


class TestGenLowdim:
    def test_shapes_and_truth(self):
        x, truth = gen_lowdim(DESIGNS["D11"], seed=1)
        assert (x.n, x.J) == (50, 20)
        assert np.bincount(truth.labels).tolist() == [15, 35]

    def test_codes_within_binomial_support(self):
        x, _ = gen_lowdim(DESIGNS["D1"], seed=2)
        bounds, probs = drawn_parameters(DESIGNS["D1"], seed=2)
        assert np.array_equal(bounds, x.cardinalities - 1)
        assert np.all(bounds >= 3) and np.all(bounds <= 20)
        assert np.all(probs >= 0.1) and np.all(probs <= 0.9)
        for j in range(x.J):
            assert x.codes[:, j].min() >= 0
            assert x.codes[:, j].max() <= bounds[j]

    def test_bit_reproducible(self):
        a, _ = gen_lowdim(DESIGNS["D5"], seed=3, replicate=2)
        b, _ = gen_lowdim(DESIGNS["D5"], seed=3, replicate=2)
        assert np.array_equal(a.codes, b.codes)

    def test_replicates_differ(self):
        a, _ = gen_lowdim(DESIGNS["D5"], seed=3, replicate=0)
        b, _ = gen_lowdim(DESIGNS["D5"], seed=3, replicate=1)
        assert not np.array_equal(a.codes, b.codes)

    def test_column_marginal_is_binomial(self):
        # one big cluster: the empirical column distribution must match the
        # binomial pinned by the drawn (a_j, p_j1), in two of the columns
        design = Design("big", 1, (4000,))
        x, _ = gen_lowdim(design, seed=4)
        bounds, probs = drawn_parameters(design, seed=4)
        assert np.array_equal(bounds, x.cardinalities - 1)
        for j in range(2):
            a, p = int(bounds[j]), float(probs[j, 0])
            observed = np.bincount(x.codes[:, j], minlength=a + 1)
            expected = stats.binom.pmf(np.arange(a + 1), a, p) * design.n
            keep = expected > 5
            chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
            dof = keep.sum() - 1
            assert chi2 < stats.chi2.ppf(0.999, dof)


class TestGenHighdim:
    def test_paper_block_probabilities(self):
        assert SEQ_LOW_NOISE.block_probs == (0.15, 0.15, 0.15, 0.15, 0.15, 0.25)
        assert SEQ_HIGH_NOISE.block_probs == (0.1, 0.1, 0.1, 0.1, 0.1, 0.5)

    def test_defaults(self):
        sd = SeqDesign()
        assert sd.J == 50_000 and sd.sizes == (10, 10, 10, 10, 10)

    def test_shapes_and_alphabet(self):
        sd = SeqDesign(J=600)
        x, truth = gen_highdim(sd, seed=5)
        assert (x.n, x.J) == (50, 600)
        assert np.all(x.cardinalities == 4)
        assert x.codes.min() >= 0 and x.codes.max() <= 3
        assert np.bincount(truth.labels).tolist() == [10] * 5

    def test_reproducible(self):
        sd = SeqDesign(J=300)
        a, _ = gen_highdim(sd, seed=6, replicate=1)
        b, _ = gen_highdim(sd, seed=6, replicate=1)
        assert np.array_equal(a.codes, b.codes)

    def test_signal_symbol_frequencies(self):
        # big signal blocks: cluster r's block-r symbols follow
        # (1/6, 1/6, 1/3, 1/3) in A,T,C,G order
        sd = SeqDesign(J=12_000, sizes=(40, 10, 10, 10, 10))
        x, truth = gen_highdim(sd, seed=7)
        # block boundaries are internal; recover them from the multinomial draw
        from catens.rng import substream

        widths = substream(7, 0).multinomial(sd.J, sd.block_probs)
        first = x.codes[truth.labels == 0][:, : widths[0]]
        counts = np.bincount(first.ravel(), minlength=4)
        expected = np.array([1 / 6, 1 / 6, 1 / 3, 1 / 3]) * first.size
        chi2 = ((counts - expected) ** 2 / expected).sum()
        from scipy import stats

        assert chi2 < stats.chi2.ppf(0.999, 3)
        # everyone else in that block is uniform
        rest = x.codes[truth.labels != 0][:, : widths[0]]
        rest_counts = np.bincount(rest.ravel(), minlength=4)
        uniform = np.full(4, rest.size / 4)
        chi2u = ((rest_counts - uniform) ** 2 / uniform).sum()
        assert chi2u < stats.chi2.ppf(0.999, 3)

    def test_blocks_partition_dimension(self):
        from catens.rng import substream

        sd = SeqDesign(J=777)
        widths = substream(8, 0).multinomial(sd.J, sd.block_probs)
        assert widths.sum() == 777

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SeqDesign(block_probs=(0.5, 0.5, 0, 0, 0, 0.5))
        with pytest.raises(ValueError):
            SeqDesign(sizes=(10, 10))


class TestGenNoise:
    def test_single_binary_column_match_rate(self):
        x = gen_noise(20_000, 1, 2, seed=9)
        a = x.codes[: 10_000, 0]
        b = x.codes[10_000:, 0]
        assert abs(np.mean(a == b) - 0.5) < 0.02

    def test_four_symbol_mean_distance(self):
        from catens.core import hamming

        x = gen_noise(60, 400, 4, seed=10)
        d = hamming(x, normalized=True).values
        off = d[np.triu_indices(60, 1)]
        assert abs(off.mean() - 0.75) < 0.01

    def test_deterministic(self):
        assert np.array_equal(gen_noise(5, 7, 3, seed=11).codes, gen_noise(5, 7, 3, seed=11).codes)

    def test_alphabet_too_small_rejected(self):
        with pytest.raises(ValueError):
            gen_noise(5, 5, 1)

    @pytest.mark.parametrize("n, J", [(0, 3), (3, 0), (-1, 3)])
    def test_empty_table_rejected(self, n, J):
        with pytest.raises(ValueError, match="n >= 1 rows and J >= 1 columns"):
            gen_noise(n, J, 2)
