import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from catens.core import DataError, DissimilarityMatrix, hamming, relabel_dense
from catens.ensemble import EnsembleConfig, ensemble_cluster
from catens.hclust import Dendrogram, Merge, _components, agglomerate, cut, cut_with_outlier_deferral, to_newick
from catens.metrics import classification_rate
from catens.rng import substream
from catens.simgen import Design, gen_lowdim

from .reference import argmin_agglomerate, brute_force_agglomerate, member_lists, per_point_deferral, stack_newick


def matrix(values, kind="normalized"):
    return DissimilarityMatrix(np.asarray(values, dtype=float), kind)


def random_matrix(rng, n, scale=1.0):
    m = rng.random((n, n)) * scale
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return matrix(m / max(scale, m.max() + 1e-9))


@st.composite
def tied_matrices(draw):
    """Raw-count matrices with entries in {0..3} and n in 2..10: many exact
    ties, and zero off-diagonals (duplicate rows).  The entries come from a
    seeded numpy stream, which mixes the tied values more than ``arrays``
    draws, whose cells mostly repeat one fill value."""
    n = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.integers(0, 4, (n, n)), 1)
    return matrix(upper + upper.T, kind="raw-count")


def seeded_matrix(seed: int, n: int, values: str) -> DissimilarityMatrix:
    """A symmetric matrix from ``np.random.default_rng(seed)``: ``integer``
    counts in 0..3, ``ensemble`` fractions j/B with B <= 5, or ``continuous``
    values in [0, 1)."""
    rng = np.random.default_rng(seed)
    if values == "integer":
        upper, kind = rng.integers(0, 4, (n, n)).astype(float), "raw-count"
    elif values == "ensemble":
        B = int(rng.integers(1, 6))
        upper, kind = rng.integers(0, B + 1, (n, n)) / B, "ensemble"
    else:
        upper, kind = rng.random((n, n)), "normalized"
    upper = np.triu(upper, 1)
    return matrix(upper + upper.T, kind=kind)


def merge_bits(tree: Dendrogram) -> list[tuple[int, int, str, int]]:
    return [(m.left, m.right, m.height.hex(), m.size) for m in tree.merges]


THREE_POINT = matrix([[0, 1, 2], [1, 0, 3], [2, 3, 0]], kind="raw-count")


class TestWorkedExample:
    def test_single_linkage(self):
        t = agglomerate(THREE_POINT, "SL")
        assert [(m.left, m.right, m.height) for m in t.merges] == [(0, 1, 1.0), (3, 2, 2.0)]

    def test_complete_linkage(self):
        t = agglomerate(THREE_POINT, "CL")
        assert [m.height for m in t.merges] == [1.0, 3.0]

    def test_average_linkage(self):
        t = agglomerate(THREE_POINT, "AL")
        assert [m.height for m in t.merges] == [1.0, 2.5]

    def test_two_points_single_merge(self):
        d = matrix([[0, 0.4], [0.4, 0]])
        for link in ("SL", "AL", "CL"):
            t = agglomerate(d, link)
            assert len(t.merges) == 1 and t.merges[0].height == 0.4

    def test_cut_at_two(self):
        t = agglomerate(THREE_POINT, "SL")
        assert cut(t, 2).labels.tolist() == [0, 0, 1]


class TestCut:
    def test_extremes(self):
        rng = substream(5)
        t = agglomerate(random_matrix(rng, 6), "AL")
        assert cut(t, 6).labels.tolist() == [0, 1, 2, 3, 4, 5]
        assert cut(t, 1).labels.tolist() == [0] * 6

    def test_out_of_range_rejected(self):
        t = agglomerate(THREE_POINT, "SL")
        with pytest.raises(ValueError):
            cut(t, 0)
        with pytest.raises(ValueError):
            cut(t, 4)

    def test_single_leaf(self):
        assert cut(Dendrogram(n=1, merges=()), 1).labels.tolist() == [0]

    @given(st.integers(2, 60), st.integers(0, 2**32 - 1), st.sampled_from(["SL", "AL", "CL"]))
    def test_leaf_order_cut_matches_member_list_walk(self, n, seed, linkage):
        # raw counts in {0..3}: tie-heavy trees, with duplicate rows at distance 0
        upper = np.triu(np.random.default_rng(seed).integers(0, 4, (n, n)), 1)
        tree = agglomerate(matrix(upper + upper.T, kind="raw-count"), linkage)
        for k in range(1, n + 1):
            assert [g.tolist() for g in _components(tree, k)] == member_lists(tree, k)
            for alpha in (0.0, 0.05):
                try:
                    expected = per_point_deferral(tree, k, alpha).labels
                except DataError:
                    with pytest.raises(DataError):
                        cut_with_outlier_deferral(tree, k, alpha)
                    continue
                assert cut_with_outlier_deferral(tree, k, alpha).labels.tolist() == expected.tolist()

    def test_exactly_k_clusters_and_refinement(self):
        rng = substream(6)
        for _ in range(10):
            n = int(rng.integers(4, 12))
            t = agglomerate(random_matrix(rng, n), "AL")
            for k in range(1, n):
                coarse, fine = cut(t, k).labels, cut(t, k + 1).labels
                assert len(np.unique(coarse)) == k
                # refinement: no fine cluster spans two coarse clusters
                for g in np.unique(fine):
                    assert len(np.unique(coarse[fine == g])) == 1


class TestOracleAgreement:
    @pytest.mark.parametrize("linkage", ["SL", "AL", "CL"])
    def test_matches_brute_force(self, linkage):
        rng = substream(8)
        for _ in range(25):
            n = int(rng.integers(3, 11))
            d = random_matrix(rng, n)
            t = agglomerate(d, linkage)
            merges, cuts = brute_force_agglomerate(d.values, linkage)
            assert np.allclose([m.height for m in t.merges], [h for h, _ in merges], rtol=1e-9, atol=1e-12)
            for k in range(1, n + 1):
                assert cut(t, k).labels.tolist() == cuts[k].tolist()

    def test_height_monotonicity(self):
        rng = substream(9)
        for linkage in ("SL", "AL", "CL"):
            for _ in range(10):
                t = agglomerate(random_matrix(rng, int(rng.integers(3, 14))), linkage)
                h = [m.height for m in t.merges]
                assert np.all(np.diff(h) >= -1e-12)

    @given(
        st.data(), st.integers(4, 20), st.sampled_from(["SL", "AL", "CL"]), st.sampled_from([0.0, 0.1, 0.2])
    )
    def test_row_permutation_relabels_only(self, data, n, linkage, alpha):
        # continuous values: no ties, so permuting the rows permutes the partition
        rng = substream(data.draw(st.integers(0, 2**32 - 1)))
        d = random_matrix(rng, n)
        perm = rng.permutation(n)
        dp = matrix(d.values[np.ix_(perm, perm)])
        k = data.draw(st.integers(1, n))
        try:
            a = cut_with_outlier_deferral(agglomerate(d, linkage), k, alpha).labels
        except DataError:
            with pytest.raises(DataError):
                cut_with_outlier_deferral(agglomerate(dp, linkage), k, alpha)
            return
        b = cut_with_outlier_deferral(agglomerate(dp, linkage), k, alpha).labels
        # b is the clustering of permuted rows; undo the permutation
        undone = np.empty(n, dtype=np.int64)
        undone[perm] = b
        assert relabel_dense(undone).labels.tolist() == a.tolist()


class TestArgminOracle:
    """The lower-bound merge search against the one-``argmin``-per-merge loop
    it replaced: the same merges, heights equal to the bit."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 80),
        st.sampled_from(["integer", "ensemble", "continuous"]),
        st.sampled_from(["SL", "AL", "CL"]),
    )
    def test_merges_match(self, seed, n, values, linkage):
        d = seeded_matrix(seed, n, values)
        assert merge_bits(agglomerate(d, linkage)) == merge_bits(argmin_agglomerate(d, linkage))

    def test_large_n_ensemble_average_linkage(self):
        # the three AL tables of one large-n benchmark draw: HCAL's raw counts, ENAL's
        # normalised Hamming (its base stage) and the ensemble matrix ENAL re-agglomerates
        x, _ = gen_lowdim(Design("N600", 5, (120,) * 5), seed=3)
        _, tree = ensemble_cluster(x, EnsembleConfig(B=25, linkage="AL", seed=3), 5)
        e = tree.source
        assert e.n == 600 and e.kind == "ensemble"
        assert merge_bits(tree) == merge_bits(argmin_agglomerate(e, "AL"))
        for d in (hamming(x), hamming(x, normalized=True)):
            assert merge_bits(agglomerate(d, "AL")) == merge_bits(argmin_agglomerate(d, "AL"))


class TestTieBreak:
    def test_lexicographic_smallest_pair_wins(self):
        # every off-diagonal distance equal: merges must follow (0,1), then
        # the cluster holding 0 with 2, then with 3
        d = matrix(np.ones((4, 4)) - np.eye(4), kind="raw-count")
        t = agglomerate(d, "SL")
        assert [(m.left, m.right) for m in t.merges] == [(0, 1), (4, 2), (5, 3)]

    @given(tied_matrices(), st.sampled_from(["SL", "CL"]))
    def test_tied_integer_distances_match_oracle(self, d, linkage):
        t = agglomerate(d, linkage)
        merges, cuts = brute_force_agglomerate(d.values, linkage)
        assert [m.height for m in t.merges] == [h for h, _ in merges]
        for k in range(1, d.n + 1):
            assert cut(t, k).labels.tolist() == cuts[k].tolist()

    @given(tied_matrices(), st.sampled_from(["SL", "AL", "CL"]))
    def test_tied_heights_monotone_and_cuts_nested(self, d, linkage):
        t = agglomerate(d, linkage)
        assert np.all(np.diff([m.height for m in t.merges]) >= -1e-12)
        for k in range(1, d.n):
            coarse, fine = cut(t, k).labels, cut(t, k + 1).labels
            for g in np.unique(fine):
                assert len(np.unique(coarse[fine == g])) == 1


class TestOutlierDeferral:
    def test_alpha_zero_is_plain_cut(self):
        rng = substream(14)
        d = random_matrix(rng, 8)
        t = agglomerate(d, "AL")
        assert np.array_equal(cut_with_outlier_deferral(t, 3, 0.0).labels, cut(t, 3).labels)

    def test_singleton_absorbed_into_nearest_by_average(self):
        # two tight blocks of 5 and 4 points plus one outlier closer to block A
        n = 10
        m = np.full((n, n), 0.9)
        a, b, out = list(range(5)), list(range(5, 9)), 9
        for grp in (a, b):
            for i in grp:
                for j in grp:
                    m[i, j] = 0.05
        for i in a:
            m[i, out] = m[out, i] = 0.40
        for i in b:
            m[i, out] = m[out, i] = 0.70
        np.fill_diagonal(m, 0.0)
        d = matrix(m)
        t = agglomerate(d, "AL")
        plain = cut(t, 3)
        assert sorted(np.bincount(plain.labels).tolist()) == [1, 4, 5]
        deferred = cut_with_outlier_deferral(t, 3, 0.2)
        assert deferred.K == 2
        # the outlier joins block A: its average distance there is smaller
        assert deferred.labels[out] == deferred.labels[a[0]]
        assert classification_rate(deferred.labels[:9], plain.labels[:9]) == 1.0

    def test_no_small_clusters_means_no_change(self):
        rng = substream(15)
        d = random_matrix(rng, 9)
        t = agglomerate(d, "AL")
        base = cut(t, 3)
        if np.bincount(base.labels).min() >= 0.1 * 9:
            res = cut_with_outlier_deferral(t, 3, 0.1)
            assert np.array_equal(res.labels, base.labels)

    def test_error_when_nothing_survives(self):
        d = matrix(np.ones((4, 4)) - np.eye(4), kind="raw-count")
        t = agglomerate(d, "SL")
        with pytest.raises(DataError):
            cut_with_outlier_deferral(t, 4, 0.4)

    def test_alpha_range_checked(self):
        t = agglomerate(THREE_POINT, "SL")
        with pytest.raises(ValueError):
            cut_with_outlier_deferral(t, 2, 0.5)
        with pytest.raises(ValueError):
            cut_with_outlier_deferral(t, 2, -0.1)

    @given(st.data(), st.sampled_from(["SL", "AL", "CL"]), st.floats(0.0, 0.49))
    def test_every_cluster_reaches_alpha_n(self, data, linkage, alpha):
        n = data.draw(st.integers(2, 16))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        upper = np.triu(rng.integers(0, 7, (n, n)), 1)
        tree = agglomerate(matrix(upper + upper.T, kind="raw-count"), linkage)
        k = data.draw(st.integers(1, n))
        try:
            res = cut_with_outlier_deferral(tree, k, alpha)
        except DataError:
            assert np.bincount(cut(tree, k).labels).max() < alpha * n
            return
        assert res.K <= k
        assert np.bincount(res.labels).min() >= alpha * n

    @given(st.data(), st.sampled_from(["SL", "AL", "CL"]))
    def test_block_means_match_per_point_oracle(self, data, linkage):
        # ensemble values j/B with B <= 5: ties between survivors' means are
        # common, and the last bit of each mean decides them; a seeded draw
        # varies the entries more than hypothesis arrays, which repeat a fill
        n, B = data.draw(st.integers(2, 40)), data.draw(st.integers(1, 5))
        upper = np.triu(substream(data.draw(st.integers(0, 2**32 - 1))).integers(0, B + 1, (n, n)), 1)
        tree = agglomerate(matrix((upper + upper.T) / B, kind="ensemble"), linkage)
        for alpha in (0.05, 0.1, 0.2):
            for k in range(1, n + 1):
                try:
                    expected = per_point_deferral(tree, k, alpha).labels
                except DataError:
                    with pytest.raises(DataError):
                        cut_with_outlier_deferral(tree, k, alpha)
                    continue
                assert cut_with_outlier_deferral(tree, k, alpha).labels.tolist() == expected.tolist()


class TestDendrogramValidation:
    def test_wrong_size_rejected(self):
        with pytest.raises(DataError):
            Dendrogram(n=3, merges=(Merge(0, 1, 0.5, 2), Merge(3, 2, 0.7, 2)))

    def test_agglomerate_needs_two_rows(self):
        with pytest.raises(DataError):
            agglomerate(matrix([[0.0]]), "SL")

    def test_unknown_linkage_rejected(self):
        with pytest.raises(ValueError):
            agglomerate(THREE_POINT, "ward")

    @pytest.mark.parametrize("linkage", ["single", "average", "complete", "al"])
    def test_only_table_linkage_names_accepted(self, linkage):
        with pytest.raises(ValueError):
            agglomerate(THREE_POINT, linkage)


def _chain(n: int, heights: list[float], left_deep: bool) -> tuple[Merge, ...]:
    """Merges of a chain over ``n`` leaves that takes in one leaf per merge:
    0, 1, 2, ... when left-deep, n-1, n-2, ... when right-deep."""
    if left_deep:
        return tuple(Merge(0 if t == 0 else n + t - 1, t + 1, h, t + 2) for t, h in enumerate(heights))
    return tuple(Merge(n - 2 - t, n - 1 if t == 0 else n + t - 1, h, t + 2) for t, h in enumerate(heights))


@st.composite
def newick_labels(draw, n):
    """No labels, or ``n`` short texts that often need quoting."""
    return draw(st.none() | st.lists(st.text(max_size=3), min_size=n, max_size=n).map(tuple))


@st.composite
def chains(draw):
    n = draw(st.integers(1, 30))
    heights = sorted(draw(st.lists(st.floats(0, 10), min_size=n - 1, max_size=n - 1)))
    tree = Dendrogram(n=n, merges=_chain(n, heights, draw(st.booleans())))
    return tree, draw(newick_labels(n))


class TestNewick:
    def test_worked_example(self):
        t = agglomerate(THREE_POINT, "SL")
        assert to_newick(t) == "((0:1,1:1):1,2:2);"

    def test_custom_labels_and_quoting(self):
        t = agglomerate(THREE_POINT, "SL")
        s = to_newick(t, labels=("seq one", "b:c", "plain"))
        assert s == "(('seq one':1,'b:c':1):1,plain:2);"

    def test_deep_chain_is_not_recursive(self):
        # a left-deep chain: merge t joins the previous cluster and leaf t+1 at height t+1
        n = 2500
        merges = [Merge(0, 1, 1.0, 2)] + [Merge(n + t - 1, t + 1, float(t + 1), t + 2) for t in range(1, n - 1)]
        expected = "0:1,1:1"
        for t in range(1, n - 1):
            expected = f"({expected}):1,{t + 1}:{t + 1}"
        assert to_newick(Dendrogram(n=n, merges=tuple(merges))) == f"({expected});"

    @given(st.data(), tied_matrices(), st.sampled_from(["SL", "AL", "CL"]))
    def test_matches_stack_oracle_on_agglomerated_trees(self, data, d, linkage):
        tree = agglomerate(d, linkage)
        labels = data.draw(newick_labels(tree.n))
        assert to_newick(tree, labels) == stack_newick(tree, labels)

    @given(chains())
    @example((Dendrogram(n=1, merges=()), None))
    @example((Dendrogram(n=1, merges=()), ("it's",)))
    def test_matches_stack_oracle_on_chains(self, case):
        tree, labels = case
        assert to_newick(tree, labels) == stack_newick(tree, labels)

    def test_branch_lengths_are_height_differences(self):
        rng = substream(16)
        d = random_matrix(rng, 6)
        t = agglomerate(d, "AL")
        s = to_newick(t)
        assert s.endswith(";") and s.count("(") == 5
