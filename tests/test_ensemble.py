import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from catens import core
from catens.core import DissimilarityMatrix, encode, hamming
from catens.ensemble import (
    EnsembleConfig,
    IncidenceMatrix,
    build_incidence,
    draw_sizes,
    ensemble_cluster,
    ensemble_dissimilarity,
    recluster,
    size_range,
)
from catens.hclust import agglomerate, cut, cut_with_outlier_deferral
from catens.metrics import classification_rate
from catens.rng import substream
from catens.simgen import DESIGNS, gen_lowdim

from .reference import naive_ensemble_dissimilarity


def matrix(values, kind="normalized"):
    return DissimilarityMatrix(np.asarray(values, dtype=float), kind)


THREE_POINT = matrix([[0, 1, 2], [1, 0, 3], [2, 3, 0]], kind="raw-count")


def two_block_table(sizes=(5, 5), J=6):
    rows = []
    for block, size in enumerate(sizes):
        symbol = "A" if block == 0 else "B"
        rows.extend([[symbol] * J] * size)
    return encode(rows)


class TestDrawSizes:
    def test_defaults_bound_draws(self):
        cfg = EnsembleConfig(B=200, seed=4)
        sizes = draw_sizes(cfg, 100)
        assert sizes.min() >= 2 and sizes.max() <= 10

    def test_size_range(self):
        assert [size_range(n) for n in (2, 4, 5, 100, 101)] == [(2, 2), (2, 2), (2, 3), (2, 10), (2, 11)]
        with pytest.raises(ValueError):
            size_range(1)

    def test_reproducible(self):
        cfg = EnsembleConfig(B=20, seed=9)
        assert np.array_equal(draw_sizes(cfg, 64), draw_sizes(cfg, 64))

    def test_too_small_n_rejected(self):
        with pytest.raises(ValueError):
            draw_sizes(EnsembleConfig(B=5), 1)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            EnsembleConfig(B=0)
        with pytest.raises(ValueError):
            EnsembleConfig(alpha=0.5)
        with pytest.raises(ValueError):
            EnsembleConfig(linkage="centroid")


class TestBuildIncidence:
    def test_all_singletons_column(self):
        w = build_incidence(THREE_POINT, [3], "SL")
        assert w.entries[:, 0].tolist() == [0, 1, 2]

    def test_all_zero_column(self):
        w = build_incidence(THREE_POINT, [1], "SL")
        assert w.entries[:, 0].tolist() == [0, 0, 0]

    def test_worked_example_column(self):
        w = build_incidence(THREE_POINT, [2], "SL")
        assert w.entries[:, 0].tolist() == [0, 0, 1]

    def test_size_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_incidence(THREE_POINT, [4], "SL")

    @given(
        st.integers(0, 2**32 - 1), st.integers(3, 40), st.integers(1, 30),
        st.sampled_from(["SL", "AL", "CL"]), st.sampled_from([0.0, 0.05, 0.1, 0.3]),
    )
    def test_one_cut_per_distinct_size(self, seed, n, B, linkage, alpha):
        # entries j/3 make many exact ties, and B sizes from a few values repeat;
        # every column must equal its own cut, made once per distinct size
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(0, 4, (n, n)) / 3, 1)
        d = matrix(upper + upper.T)
        sizes = rng.integers(1, min(n, 8) + 1, B)
        try:
            want = np.stack([cut_with_outlier_deferral(agglomerate(d, linkage), int(k), alpha).labels
                             for k in sizes], axis=1)
        except core.DataError as exc:  # alpha leaves no cluster at some size
            with pytest.raises(core.DataError, match=f"^{re.escape(str(exc))}$"):
                build_incidence(d, sizes, linkage, alpha)
            return
        with mock.patch("catens.ensemble.cut_with_outlier_deferral", wraps=cut_with_outlier_deferral) as cuts:
            got = build_incidence(d, sizes, linkage, alpha).entries
        assert got.tolist() == want.tolist()
        assert cuts.call_count == len(set(sizes.tolist()))


class TestEnsembleDissimilarity:
    def test_always_together_is_zero(self):
        w = IncidenceMatrix(entries=np.zeros((4, 3), dtype=int))
        assert np.all(ensemble_dissimilarity(w).values == 0)

    def test_always_apart_is_one(self):
        w = IncidenceMatrix(entries=np.array([[0, 0], [1, 1]]))
        assert ensemble_dissimilarity(w).values[0, 1] == 1.0

    def test_half(self):
        w = IncidenceMatrix(entries=np.array([[0, 0], [0, 1]]))
        assert ensemble_dissimilarity(w).values[0, 1] == 0.5

    def test_matches_naive_double_loop(self):
        rng = substream(21)
        for _ in range(10):
            n, B = int(rng.integers(2, 9)), int(rng.integers(1, 6))
            cols = []
            for _ in range(B):
                k = int(rng.integers(1, n + 1))
                labels = rng.integers(0, k, size=n)
                # force every label to appear
                labels[rng.permutation(n)[:k]] = np.arange(k)
                cols.append(labels)
            w = IncidenceMatrix(entries=np.stack(cols, axis=1))
            got = ensemble_dissimilarity(w).values
            assert np.array_equal(got, naive_ensemble_dissimilarity(w.entries))

    def test_matches_naive_across_row_blocks(self, monkeypatch):
        # 7-row blocks over 40 rows: the kernel counts each pair once from
        # the block of its first row and mirrors it, with a short last block
        entries = substream(24).integers(0, 6, size=(40, 70))
        monkeypatch.setattr(core, "_BLOCK_ELEMS", 7 * 3 * 40 * 2)  # 3 planes, 2 words
        got = ensemble_dissimilarity(IncidenceMatrix(entries=entries)).values
        assert np.array_equal(got, naive_ensemble_dissimilarity(entries))

    def test_values_on_grid_and_symmetric(self):
        rng = substream(22)
        n, B = 7, 4
        cols = [np.arange(n) % (b + 2) for b in range(B)]
        w = IncidenceMatrix(entries=np.stack(cols, axis=1))
        d = ensemble_dissimilarity(w)
        assert d.kind == "ensemble"
        assert np.all(np.isin(np.round(d.values * B).astype(int), np.arange(B + 1)))
        assert np.array_equal(d.values, d.values.T)
        assert np.all(np.diag(d.values) == 0)

    def test_invariant_to_label_permutation_within_column(self):
        rng = substream(23)
        entries = np.stack([rng.integers(0, 3, size=8) for _ in range(4)], axis=1)
        entries[:3, :] = np.arange(3)[:, None]  # make labels 0..2 all appear
        w = IncidenceMatrix(entries=entries)
        base = ensemble_dissimilarity(w).values
        permuted = entries.copy()
        perm = np.array([2, 0, 1])
        permuted[:, 1] = perm[permuted[:, 1]]
        w2 = IncidenceMatrix(entries=permuted)
        assert np.array_equal(ensemble_dissimilarity(w2).values, base)

    @given(st.data())
    def test_any_integer_columns_on_grid_and_relabelling_invariant(self, data):
        # labels need not be dense: any integers, compared within a column only
        shape = data.draw(st.tuples(st.integers(1, 8), st.integers(1, 6)))
        entries = data.draw(arrays(np.int64, shape, elements=st.integers(-1000, 1000)))
        B = shape[1]
        d = ensemble_dissimilarity(IncidenceMatrix(entries=entries)).values
        assert np.array_equal(d, naive_ensemble_dissimilarity(entries))
        assert np.all(np.isin(d, np.arange(B + 1) / B))
        relabelled = entries.copy()
        for b in range(B):
            values, inverse = np.unique(entries[:, b], return_inverse=True)
            new = data.draw(st.lists(st.integers(-10**9, 10**9), min_size=values.size,
                                     max_size=values.size, unique=True))
            relabelled[:, b] = np.asarray(new)[inverse]
        assert np.array_equal(ensemble_dissimilarity(IncidenceMatrix(entries=relabelled)).values, d)

    def test_concentration_bound(self):
        # columns as IID Bernoulli separation indicators of fixed mean p:
        # the fraction of pairs with |d_B - p| > eps obeys the 1/(4 eps^2 B) bound
        eps = 0.2
        for B in (25, 100):
            rng = substream(24, B)
            for p in (0.3, 0.5, 0.7):
                draws = rng.random((2000, B)) < p
                d_b = draws.mean(axis=1)
                fraction = float(np.mean(np.abs(d_b - p) > eps))
                assert fraction <= 1 / (4 * eps**2 * B)


class TestEnsembleCluster:
    def test_single_member_ensemble_equals_base(self):
        rng = substream(25)
        m = rng.random((9, 9))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0)
        d = matrix(m / m.max())
        for linkage in ("SL", "AL", "CL"):
            labels, _ = recluster(build_incidence(d, [3], linkage), linkage, 3)
            base = cut(agglomerate(d, linkage), 3)
            assert classification_rate(labels, base) == 1.0

    def test_separated_blocks_recovered_exactly(self):
        x = two_block_table()
        truth = np.array([0] * 5 + [1] * 5)
        for linkage in ("SL", "AL", "CL"):
            fixed, _ = recluster(build_incidence(hamming(x, normalized=True), [2] * 8, linkage), linkage, 2)
            drawn, _ = ensemble_cluster(x, EnsembleConfig(B=15, linkage=linkage, seed=4), 2)
            for labels in (fixed, drawn):
                assert classification_rate(labels, truth) == 1.0

    def test_accepts_matrix_or_table(self):
        x = two_block_table()
        cfg = EnsembleConfig(B=5, seed=6)
        a, _ = ensemble_cluster(x, cfg, 2)
        b, _ = ensemble_cluster(hamming(x, normalized=True), cfg, 2)
        assert np.array_equal(a.labels, b.labels)

    @given(
        st.integers(0, 2**32 - 1), st.integers(4, 59), st.integers(1, 29),
        st.sampled_from([3, 10, 1000]), st.sampled_from(["SL", "AL", "CL"]), st.integers(0, 28),
    )
    def test_drawn_size_gives_the_base_partition(self, seed, n, B, den, linkage, pick):
        # nested base cuts: at alpha = 0 and a drawn k_final every within-cluster
        # count is below every between-cluster one, so ENxL equals HCxL (see the
        # ensemble module docstring); entries j/den make many exact ties
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.integers(0, den + 1, (n, n)) / den, 1)
        d = matrix(upper + upper.T)
        cfg = EnsembleConfig(B=B, linkage=linkage, seed=seed)
        k = int(draw_sizes(cfg, n)[pick % B])
        labels, _ = ensemble_cluster(d, cfg, k)
        assert labels.labels.tolist() == cut(agglomerate(d, linkage), k).labels.tolist()

    @pytest.mark.parametrize("design", ["D1", "D5", "D10"])
    @pytest.mark.parametrize("linkage", ["SL", "CL"])
    def test_every_cut_lies_between_the_base_cuts_at_the_drawn_sizes_around_it(self, design, linkage):
        # the bracket of the ensemble module docstring, at every k of the drawn range
        # and whether k is drawn or not; AL waits for exact average-linkage ties
        def refines(fine, coarse):
            return len(set(zip(fine.labels.tolist(), coarse.labels.tolist()))) == fine.K

        for replicate in range(2):
            x, _ = gen_lowdim(DESIGNS[design], seed=7, replicate=replicate)
            base = agglomerate(hamming(x, normalized=True), linkage)
            for B in (3, 25):
                cfg = EnsembleConfig(B=B, linkage=linkage, seed=replicate)
                drawn = sorted(set(draw_sizes(cfg, x.n).tolist()))
                _, tree = ensemble_cluster(x, cfg, 2)
                for k in range(2, size_range(x.n)[1] + 1):
                    below = max((s for s in drawn if s <= k), default=1)
                    above = min((s for s in drawn if s >= k), default=x.n)
                    labels = cut(tree, k)
                    assert refines(labels, cut(base, below)), (replicate, B, k)
                    assert refines(cut(base, above), labels), (replicate, B, k)

    def test_parallel_column_schedule_irrelevant(self):
        # the incidence matrix is a pure function of (d, sizes, linkage), so
        # computing columns in any order gives identical results
        rng = substream(26)
        m = rng.random((8, 8))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0)
        d = matrix(m / m.max())
        sizes = [2, 4, 3, 2]
        w = build_incidence(d, sizes, "AL")
        shuffled = build_incidence(d, sizes[::-1], "AL")
        assert np.array_equal(w.entries, shuffled.entries[:, ::-1])
