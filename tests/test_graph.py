import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
from helpers import memory_probe_features
from oracles import csr_to_dense, pairwise_euclidean, to_dense
from reidapt import graph
from reidapt.data import l2_normalize
from reidapt.graph import (
    SparseDistances,
    build_distance_graph,
    jaccard_distance,
    nearest_neighbors,
    offdiag_percentile,
    reciprocal_sets,
)


def naive_pairwise(f):
    n = len(f)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = np.sqrt(np.sum((f[i] - f[j]) ** 2))
    return out


def naive_mutual_knn(dist, k):
    n = len(dist)
    knn = []
    for i in range(n):
        order = sorted((dist[i, j], j) for j in range(n) if j != i)
        knn.append({i} | {j for _, j in order[:k]})
    return [sorted(j for j in knn[i] if i in knn[j]) for i in range(n)]


def naive_jaccard(d_s):
    n = len(d_s)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            mins = np.minimum(d_s[i], d_s[j]).sum()
            maxs = np.maximum(d_s[i], d_s[j]).sum()
            out[i, j] = 1.0 if maxs == 0 else 1.0 - mins / maxs
    np.fill_diagonal(out, 0.0)
    return out


def member_lists(sets):
    return [s.tolist() for s in np.split(sets.indices, sets.indptr[1:-1])]


def dense_similarity(g):
    return csr_to_dense(g.indptr, g.indices, g.d_s, len(g.indptr) - 1)


def csr_of(d_s):
    """Dense symmetric similarity -> (indptr, indices, values)."""
    rows, cols = np.nonzero(d_s)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(d_s)))])
    return indptr, cols, d_s[rows, cols]


def jaccard_of(d_s):
    """``jaccard_distance`` of a dense symmetric similarity, with the mirror
    from the transpose oracle."""
    indptr, indices, values = csr_of(d_s)
    return jaccard_distance(indptr, indices, values, oracles.transposes(indptr, indices))


def sparse_jaccard(d_s):
    pairs, d_j = jaccard_of(d_s)
    return to_dense(SparseDistances(n=len(d_s), pairs=pairs, values=d_j))


def random_features(rng, duplicates=False):
    n = int(rng.integers(4, 60))
    f = rng.standard_normal((n, int(rng.integers(1, 6))))
    if duplicates:  # repeated rows force distance ties in every k-NN list
        f = np.repeat(f[: max(2, n // 3)], 3, axis=0)[:n]
    return l2_normalize(f) if rng.random() < 0.5 else f


class TestPairwiseEuclidean:
    """The dense oracle that the blocked k-NN is checked against."""

    def test_identical_rows(self):
        f = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert pairwise_euclidean(f)[0, 1] == 0.0

    def test_3_4_5_triangle(self):
        f = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert pairwise_euclidean(f)[0, 1] == pytest.approx(5.0, abs=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        f = rng.standard_normal((6, 3))
        assert np.allclose(pairwise_euclidean(f), naive_pairwise(f), atol=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((12, 4))
        d = pairwise_euclidean(f)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        for i in range(12):
            for j in range(12):
                for k in range(12):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestNearestNeighbors:
    def test_matches_stable_argsort_of_dense_rows(self):
        rng = np.random.default_rng(10)
        for trial in range(40):
            f = random_features(rng, duplicates=trial % 2 == 0)
            n = len(f)
            k = int(rng.integers(1, n))
            dense = pairwise_euclidean(f)
            np.fill_diagonal(dense, np.inf)
            want = np.sort(np.argsort(dense, axis=1, kind="stable")[:, :k], axis=1)
            got, dist = nearest_neighbors(f, k)
            assert np.array_equal(got, want)
            assert np.array_equal(dist, np.take_along_axis(dense, want, axis=1))

    def test_duplicate_points_tie_to_lower_index(self):
        f = np.array([[0.0], [1.0], [1.0], [1.0], [5.0]])
        got, dist = nearest_neighbors(f, 2)
        assert got[0].tolist() == [1, 2]  # 1, 2 and 3 tie; the lower two win
        assert got[4].tolist() == [1, 2]
        assert got[3].tolist() == [1, 2]
        assert dist[3].tolist() == [0.0, 0.0]

    def test_row_blocks_agree_with_one_block(self, monkeypatch):
        rng = np.random.default_rng(11)
        f = l2_normalize(rng.standard_normal((300, 8)))
        whole = nearest_neighbors(f, 7)
        monkeypatch.setattr(graph, "_BLOCK_ENTRIES", 300 * 64)
        blocked = nearest_neighbors(f, 7)
        assert np.array_equal(whole[0], blocked[0])
        assert np.allclose(whole[1], blocked[1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["probe", "shuffled", "unnormalized"])
    def test_screen_passes_few_candidates(self, monkeypatch, kind):
        # The group-max screen ranks h = g - |f_j|^2 / 2, so it passes about
        # k columns per row whatever the row norms; one that ranked the Gram
        # entries g alone would pass many more on unnormalized rows.
        f = memory_probe_features(1280)
        if kind == "shuffled":
            f = f[np.random.default_rng(13).permutation(len(f))]
        elif kind == "unnormalized":
            f = np.random.default_rng(14).standard_normal((1280, 32))
        counts, lowest_k = [], graph._lowest_k

        def counted(flat, keys, k, width):
            counts.append(len(flat))
            return lowest_k(flat, keys, k, width)

        monkeypatch.setattr(graph, "_lowest_k", counted)
        nearest_neighbors(f, 20)
        assert sum(counts) <= 1.5 * 20 * len(f), f"{sum(counts) / len(f):.1f} per row"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, bad):
        f = np.random.default_rng(12).standard_normal((30, 4))
        f[7, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            nearest_neighbors(f, 5)


class TestGramRowBlocks:
    """Splitting the Gram product into the default row blocks keeps every bit
    of the one-block run, whose product is the dense N x N one."""

    @pytest.mark.parametrize("n", [1280, 2560])
    @pytest.mark.parametrize("kind", ["probe", "random"])
    def test_default_blocks_match_one_block_bytes(self, monkeypatch, n, kind):
        rng = np.random.default_rng(n)
        if kind == "probe":  # clusters of 20 noisy unit rows, as in _MEMORY_PROBE
            centers = rng.standard_normal((n // 20, 32))
            f = np.repeat(centers, 20, axis=0) + 0.6 * rng.standard_normal((n, 32))
        else:
            f = rng.standard_normal((n, 32))
        f = l2_normalize(f)
        assert len(graph._row_blocks(n, n, graph._BLOCK_ENTRIES)) > 2
        blocked = nearest_neighbors(f, 20)
        monkeypatch.setattr(graph, "_BLOCK_ENTRIES", n * n)
        whole = nearest_neighbors(f, 20)
        assert blocked[0].tobytes() == whole[0].tobytes()
        assert blocked[1].tobytes() == whole[1].tobytes()


def dense_exact_argmin(a, b, allowed, sign, rooted):
    """Per row, the column of the smallest allowed sign * |a_i - b_j|^2 (its
    square root if ``rooted``) over the (len(a), len(b), d) difference
    tensor, the lowest index on ties; column 0 where nothing is allowed."""
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return np.argmin(np.where(allowed, sign * (np.sqrt(d2) if rooted else d2), np.inf), axis=1)


class TestExactArgmin:
    """graph._exact_argmin on graph._gram's keys, farthest (negated keys)
    and nearest stacked in one call as the triplet stacks them, picks what
    a dense argmin over the difference tensor picks."""

    @staticmethod
    def rows(rng, m, d, kind):
        if kind == "ties":  # integer-grid rows, repeated, with equal distances
            return rng.integers(-2, 3, size=(m, d)) * 10.0 ** rng.integers(-3, 4, size=(m, 1))
        if kind == "spread":
            # row norms 1e-3 and 1e3 in one call: a small row's reach is
            # set by the large rows, which sit in a group that nearly ties
            far = 1e3 * l2_normalize(rng.standard_normal((1, d)))
            far = far + 10.0 ** rng.uniform(-14, -8) * rng.integers(-2, 3, size=(m, d))
            near = 1e-3 * l2_normalize(rng.standard_normal((m, d)))
            return np.where(rng.random((m, 1)) < 0.5, far, near)
        # far from the origin and close together: the Gram form cancels
        offset = 10.0 ** rng.uniform(0, 6) * rng.standard_normal(d)
        return offset + 10.0 ** rng.uniform(-8, 0) * rng.integers(-2, 3, size=(m, d))

    @pytest.mark.parametrize("rooted", [False, True])
    @pytest.mark.parametrize("kind", ["ties", "spread", "cancellation"])
    def test_matches_dense_difference_form(self, kind, rooted):
        rng = np.random.default_rng(40)
        recomputed = 0
        for trial in range(300):
            m, d = int(rng.integers(1, 50)), int(rng.integers(1, 33))
            a = self.rows(rng, m, d, kind)
            b = a if trial % 2 else a[rng.integers(0, m, size=int(rng.integers(1, 9)))]
            # a few rows allow nothing, and get column 0
            allowed = rng.random((2, m, len(b))) < rng.uniform(0.1, 1.0)
            d2, reach = graph._gram(a, b, np.sum(a * a, axis=1), np.sum(b * b, axis=1))
            keys = np.where(allowed, np.stack([-d2, d2]), np.inf).reshape(2 * m, len(b))
            reach = np.concatenate([reach, reach])
            got = graph._exact_argmin(keys, reach, a, b, (-1.0, 1.0), rooted)
            want = [dense_exact_argmin(a, b, allowed[0], -1.0, rooted),
                    dense_exact_argmin(a, b, allowed[1], 1.0, rooted)]
            assert got.tobytes() == np.concatenate(want).tobytes()
            edge = np.min(keys, axis=1, keepdims=True)
            within = np.count_nonzero(keys <= edge + reach[:, None], axis=1)
            recomputed += np.any((within > 1) & (edge[:, 0] < np.inf))
        assert recomputed > 30  # the difference-form recompute ran


def assert_same_knn(f, k):
    got, want = nearest_neighbors(f, k), oracles.nearest_neighbors(f, k)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


class TestNearestNeighborsAgainstMaskOracle:
    """Ranking on squared distances by flat index picks the neighbors and
    distances of the square-rooted blocks selected through a mask, bit for
    bit."""

    def test_several_blocks(self, monkeypatch):
        rng = np.random.default_rng(40)
        f = l2_normalize(rng.standard_normal((300, 8)))
        monkeypatch.setattr(graph, "_BLOCK_ENTRIES", 300 * 37)
        assert len(graph._row_blocks(300, 300, graph._BLOCK_ENTRIES)) > 3
        for k in (1, 7, 299):
            assert_same_knn(f, k)

    def test_duplicate_rows(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            pool = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 10))))
            f = pool[rng.integers(0, len(pool), size=int(rng.integers(3, 80)))]
            assert_same_knn(f, int(rng.integers(1, len(f))))

    def test_integer_grids(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n, d = int(rng.integers(3, 80)), int(rng.integers(1, 5))
            f = rng.integers(-2, 3, size=(n, d)).astype(float)
            assert_same_knn(f, int(rng.integers(1, n)))

    def test_cancellation_regime(self):
        # far from the origin and close together: Gram-form squared
        # distances lose every digit and many go negative
        rng = np.random.default_rng(43)
        for _ in range(60):
            n, d = int(rng.integers(3, 80)), int(rng.integers(1, 12))
            f = 1e4 + 1e-5 * rng.standard_normal((n, d))
            assert_same_knn(f, int(rng.integers(1, n)))

    def test_k_of_one_and_all_others(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            n, d = int(rng.integers(2, 60)), int(rng.integers(1, 8))
            f = rng.standard_normal((n, d))
            for k in (1, n - 1):
                assert_same_knn(f, k)

    def test_probe_rows_in_order_and_shuffled(self):
        # clusters of 20 contiguous rows, then the same rows scattered: the
        # strided groups must hold the bound either way
        f = memory_probe_features(1280)
        assert_same_knn(f, 20)
        assert_same_knn(f[np.random.default_rng(45).permutation(len(f))], 20)

    def test_row_norms_from_1e_minus_3_to_1e3(self):
        rng = np.random.default_rng(46)
        f = l2_normalize(rng.standard_normal((600, 16)))
        assert_same_knn(f * 10.0 ** rng.uniform(-3, 3, size=(600, 1)), 20)

    def test_group_width_edges(self):
        # min(4, n // (k + 1)) columns per group: 3 just below n = 4 (k + 1),
        # 4 from there on; at n = 11, k = 1 the 3 columns beyond the 2 full
        # groups of 4 outnumber the groups
        rng = np.random.default_rng(47)
        for k in (1, 20):
            for n in (4 * (k + 1) - 1, 4 * (k + 1), 4 * (k + 1) + 3):
                assert_same_knn(rng.standard_normal((n, 6)), k)


class TestReciprocalSets:
    def test_isolated_mutual_pairs(self):
        # two tight pairs far apart; with self-inclusion each set is {i, partner}
        f = np.array([[0.0], [0.1], [10.0], [10.1]])
        sets = reciprocal_sets(f, k_rr=1)
        assert member_lists(sets) == [[0, 1], [0, 1], [2, 3], [2, 3]]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            n = int(rng.integers(4, 12))
            f = rng.standard_normal((n, 3))
            k = int(rng.integers(1, n))
            got = member_lists(reciprocal_sets(f, k))
            assert got == naive_mutual_knn(pairwise_euclidean(f), k)

    def test_chain_ambiguity_matches_oracle(self):
        f = np.array([[0.0], [1.0], [2.1]])  # b nearest to both ends
        got = member_lists(reciprocal_sets(f, 1))
        assert got == naive_mutual_knn(pairwise_euclidean(f), 1)

    def test_saturation_full_sets(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((7, 2))
        sets = reciprocal_sets(f, k_rr=6)
        # kNN covers everything, so every set is all N samples (self included)
        assert all(s == list(range(7)) for s in member_lists(sets))

    def test_mutuality(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((10, 3))
        sets = member_lists(reciprocal_sets(f, 3))
        for i, members in enumerate(sets):
            for j in members:
                assert i in sets[j]

    def test_k_out_of_range(self):
        f = np.zeros((4, 2))
        with pytest.raises(ValueError):
            reciprocal_sets(f, 0)
        with pytest.raises(ValueError):
            reciprocal_sets(f, 4)

    def test_matches_dense_oracle_with_ties(self):
        rng = np.random.default_rng(12)
        for trial in range(40):
            f = random_features(rng, duplicates=trial % 2 == 0)
            k = int(rng.integers(1, len(f)))
            want = oracles.reciprocal_sets(pairwise_euclidean(f), k)
            assert member_lists(reciprocal_sets(f, k)) == [w.tolist() for w in want]

    def test_mirror_maps_each_entry_to_its_transpose(self):
        rng = np.random.default_rng(25)
        for trial in range(40):
            f = random_features(rng, duplicates=trial % 2 == 0)
            sets = reciprocal_sets(f, int(rng.integers(1, len(f))))
            rows = np.repeat(np.arange(len(f)), np.diff(sets.indptr))
            assert sets.mirror.dtype == np.int64
            assert np.array_equal(rows[sets.mirror], sets.indices)
            assert np.array_equal(sets.indices[sets.mirror], rows)
            assert sets.mirror.tobytes() == oracles.transposes(sets.indptr, sets.indices).tobytes()

    def test_dist_is_the_mean_of_both_knn_distances(self):
        # (i, j) holds 0.5 * (d_ij + d_ji) of the k-NN's own distances, in
        # that operand order, bit for bit; the diagonal holds 0.0
        rng = np.random.default_rng(26)
        for trial in range(60):
            f = random_features(rng, duplicates=trial % 2 == 0)
            if trial % 3 == 0:
                f = np.round(f, 1)  # more distance ties
            n, k = len(f), int(rng.integers(1, len(f)))
            neighbors, dist = nearest_neighbors(f, k)
            knn = np.full((n, n), np.nan)
            knn[np.repeat(np.arange(n), k), neighbors.ravel()] = dist.ravel()
            sets = reciprocal_sets(f, k)
            rows = np.repeat(np.arange(n), np.diff(sets.indptr))
            cols = sets.indices
            want = np.where(rows == cols, 0.0, 0.5 * (knn[rows, cols] + knn[cols, rows]))
            assert sets.dist.tobytes() == want.tobytes()


class TestSimilarityEncoding:
    def test_zero_outside_sets_and_unit_diagonal(self):
        rng = np.random.default_rng(5)
        f = rng.standard_normal((8, 3))
        g = build_distance_graph(f, 2)
        d_s = dense_similarity(g)
        member = np.zeros((8, 8), dtype=bool)
        for i, m in enumerate(member_lists(reciprocal_sets(f, 2))):
            member[i, m] = True
        assert np.all((d_s > 0) == member)
        assert np.all(np.diag(d_s) == 1.0)

    def test_identical_features_give_similarity_one(self):
        f = np.array([[1.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        assert dense_similarity(build_distance_graph(f, 1))[0, 1] == 1.0

    def test_five_point_hand_oracle(self):
        rng = np.random.default_rng(6)
        f = rng.standard_normal((5, 2))
        dist = pairwise_euclidean(f)
        sets = member_lists(reciprocal_sets(f, 2))
        d_s = dense_similarity(build_distance_graph(f, 2))
        for i in range(5):
            for j in range(5):
                if j in sets[i]:
                    assert d_s[i, j] == pytest.approx(np.exp(-dist[i, j]), abs=1e-15)
                else:
                    assert d_s[i, j] == 0.0


class TestJaccardDistance:
    def test_identical_rows_distance_zero(self):
        d_s = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert sparse_jaccard(d_s)[0, 1] == 0.0

    def test_disjoint_supports_distance_one(self):
        d_s = np.array([[1.0, 0.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0, 0.0],
                        [0.0, 0.0, 1.0, 0.4],
                        [0.0, 0.0, 0.4, 1.0]])
        pairs, d_j = jaccard_of(d_s)
        assert pairs.tolist() == [[2, 3]]  # the only pair sharing a member
        dense = sparse_jaccard(d_s)
        assert dense[0, 1] == 1.0
        assert dense[0, 2] == 1.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            f = rng.standard_normal((6, 3))
            d_s = oracles.similarity_encoding(
                pairwise_euclidean(f), oracles.reciprocal_sets(pairwise_euclidean(f), 2))
            assert np.allclose(sparse_jaccard(d_s), naive_jaccard(d_s), atol=1e-12)

    def test_exact_symmetry_and_range(self):
        rng = np.random.default_rng(8)
        f = rng.standard_normal((30, 4))
        g = build_distance_graph(f, k_rr=5)
        i, j = g.pairs.T
        assert np.all(i < j)
        assert np.all(np.diff(i * 30 + j) > 0)  # row-major, each pair once
        assert np.all((g.d_j >= 0.0) & (g.d_j <= 1.0))
        d_j = to_dense(g.jaccard())
        assert np.array_equal(d_j, d_j.T)
        assert np.all(np.diag(d_j) == 0.0)

    def test_rejects_negative_similarity(self):
        with pytest.raises(ValueError):
            jaccard_distance(np.array([0, 2, 4]), np.array([0, 1, 0, 1]),
                             np.array([1.0, -0.1, -0.1, 1.0]), np.array([0, 2, 1, 3]))

    def test_blob_monotone_sanity(self):
        rng = np.random.default_rng(9)
        centers = rng.standard_normal((4, 6)) * 4.0
        f = np.vstack([c + 0.05 * rng.standard_normal((8, 6)) for c in centers])
        labels = np.repeat(np.arange(4), 8)
        d_j = to_dense(build_distance_graph(l2_normalize(f), k_rr=10).jaccard())
        same = labels[:, None] == labels[None, :]
        off = ~np.eye(32, dtype=bool)
        assert d_j[same & off].mean() < d_j[~same].mean()


def assert_jaccard_matches_oracle(d_s):
    """The sparse Jaccard of a dense symmetric d_S, byte for byte against the
    dense oracle; the stored pairs are exactly those that share a column."""
    pairs, d_j = jaccard_of(d_s)
    got = to_dense(SparseDistances(n=len(d_s), pairs=pairs, values=d_j))
    assert got.tobytes() == oracles.jaccard_distance(d_s).tobytes()
    support = (d_s > 0).astype(np.int64)
    assert pairs.tolist() == np.argwhere(np.triu(support @ support.T, k=1) > 0).tolist()
    return pairs, d_j


def symmetric_similarity(rng, member):
    """Random similarities in (0, 1] on a symmetric boolean support."""
    d_s = np.triu(rng.uniform(0.05, 1.0, member.shape) * member)
    return d_s + np.triu(d_s, k=1).T


class TestJaccardEdgeCases:
    """Hand-built CSR inputs that the random k-NN chain rarely produces."""

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_every_set_a_singleton(self, n):
        d_s = np.diag(np.random.default_rng(30).uniform(0.05, 1.0, n))
        pairs, d_j = assert_jaccard_matches_oracle(d_s)
        assert pairs.shape == (0, 2) and pairs.dtype == np.int64
        assert d_j.shape == (0,) and d_j.dtype == np.float64

    @pytest.mark.parametrize("n", [2, 3, 17, 130])
    def test_one_set_holds_every_sample(self, n):
        rng = np.random.default_rng(31 + n)
        star = np.eye(n, dtype=bool)
        star[0] = star[:, 0] = True  # row 0 holds all n, every other row {0, j}
        assert_jaccard_matches_oracle(symmetric_similarity(rng, star))
        assert_jaccard_matches_oracle(symmetric_similarity(rng, np.ones((n, n), dtype=bool)))

    def test_rows_of_size_one_two_and_all_together(self):
        # row 0 holds all n samples, so every other row holds 0: row j is
        # {0} alone (size 1, no self-similarity), {0, j} (size 2), or {0, j}
        # plus part of a clique
        rng = np.random.default_rng(32)
        for _ in range(20):
            n = int(rng.integers(6, 40))
            kind = np.concatenate([[-1, 0, 1, 2, 2], rng.integers(0, 3, size=n - 5)])
            member = np.zeros((n, n), dtype=bool)
            member[0] = member[:, 0] = True
            paired = np.flatnonzero(kind >= 1)
            member[paired, paired] = True
            clique = np.flatnonzero(kind == 2)
            links = rng.random((len(clique), len(clique))) < 0.5
            member[np.ix_(clique, clique)] |= links | links.T
            d_s = symmetric_similarity(rng, member)
            sizes = np.count_nonzero(d_s, axis=1)
            assert sizes[0] == n and set(sizes[kind == 0]) == {1} and set(sizes[kind == 1]) == {2}
            assert_jaccard_matches_oracle(d_s)

    def test_blocks_span_few_rows_among_singletons(self, monkeypatch):
        # a pair {i, i + 1} every 50 rows among singletons: only row i adds
        # terms, yet a block spans at most _CHUNK_ENTRIES rows, which keeps
        # its packed sort keys below 2^63
        n = 400
        member = np.eye(n, dtype=bool)
        for i in range(0, n - 1, 50):
            member[i, i + 1] = member[i + 1, i] = True
        d_s = symmetric_similarity(np.random.default_rng(33), member)
        monkeypatch.setattr(graph, "_CHUNK_ENTRIES", 8)
        assert_jaccard_matches_oracle(d_s)
        indptr, indices, values = csr_of(d_s)
        keys, _ = graph._jaccard_blocks(indptr, indices, values,
                                        oracles.transposes(indptr, indices),
                                        graph._dense_row_sums(indptr, indices, values))
        rows = [key // n for key in keys if len(key)]
        assert len(rows) == 8 and max(int(r[-1] - r[0]) for r in rows) < 8


class TestSparseChainAgainstDense:
    """The k-NN-sparse chain reproduces the dense chain bit for bit."""

    def test_random_instances_bitwise(self):
        rng = np.random.default_rng(13)
        for trial in range(60):
            f = random_features(rng, duplicates=trial % 3 == 0)
            k = int(rng.integers(1, min(25, len(f))))
            _, _, d_s, d_j = oracles.dense_chain(f, k)
            g = build_distance_graph(f, k)
            assert np.array_equal(dense_similarity(g), d_s)
            assert np.array_equal(to_dense(g.jaccard()), d_j)

    def test_row_sums_match_numpy_pairwise_summation(self):
        # long rows exercise the split halves, the 8 lanes and the tail
        rng = np.random.default_rng(14)
        for n in (1, 5, 8, 9, 127, 128, 129, 300, 1031):
            dense = np.zeros((n, n))
            for row in dense:
                at = rng.choice(n, size=min(n, int(rng.integers(1, 40))), replace=False)
                row[at] = rng.random(len(at)) * 10.0 ** rng.uniform(-3, 3, len(at))
            got = graph._dense_row_sums(*csr_of(dense))
            assert np.array_equal(got, dense.sum(axis=1))

    def test_row_sums_of_fewer_rows_than_columns(self):
        # fewer rows than columns, as the spread-out loss's positives give
        rng = np.random.default_rng(26)
        for rows, width in ((1, 1), (1, 9), (3, 130), (64, 1031), (200, 5000)):
            dense = np.zeros((rows, width))
            for row in dense:
                at = rng.choice(width, size=min(width, int(rng.integers(1, 40))), replace=False)
                row[at] = rng.random(len(at)) * 10.0 ** rng.uniform(-3, 3, len(at))
            r, c = np.nonzero(dense)
            indptr = np.concatenate([[0], np.cumsum(np.bincount(r, minlength=rows))])
            got = graph._dense_row_sums(indptr, c, dense[r, c], width)
            assert got.tobytes() == dense.sum(axis=1).tobytes()

    @pytest.mark.parametrize("entries", [1, 200, 2100])
    def test_row_sums_over_several_blocks(self, monkeypatch, entries):
        # wide-ranging values make the sum depend on its order; about a third
        # of the rows are empty, and N=1 is a single block of one row
        monkeypatch.setattr(graph, "_CHUNK_ENTRIES", entries)
        rng = np.random.default_rng(18)
        for n in (1, 2, 7, 130, 1031):
            dense = np.zeros((n, n))
            for i in np.flatnonzero(rng.random(n) < 2 / 3):
                at = rng.choice(n, size=min(n, int(rng.integers(1, 200))), replace=False)
                dense[i, at] = rng.random(len(at)) * 10.0 ** rng.uniform(-3, 3, len(at))
            assert n < 130 or len(graph._row_blocks(n, n, entries)) > 2
            got = graph._dense_row_sums(*csr_of(dense))
            assert got.tobytes() == dense.sum(axis=1).tobytes()

    def test_jaccard_over_several_row_sum_blocks(self, monkeypatch):
        monkeypatch.setattr(graph, "_CHUNK_ENTRIES", 150)
        rng = np.random.default_rng(19)
        for trial in range(20):
            f = random_features(rng, duplicates=trial % 3 == 0)
            _, _, d_s, d_j = oracles.dense_chain(f, int(rng.integers(1, min(25, len(f)))))
            assert np.array_equal(sparse_jaccard(d_s), d_j)

    def test_graph_leaves_no_reference_cycle(self):
        # cyclic garbage keeps its buffers until the collector runs, so a
        # repeated labeling pass would fragment the heap and grow peak RSS
        f = np.random.default_rng(17).standard_normal((300, 8))
        build_distance_graph(f, 10)  # first calls may import lazily
        gc.collect()
        gc.disable()
        try:
            build_distance_graph(f, 10)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_percentile_bitwise_equals_numpy(self):
        rng = np.random.default_rng(15)
        for trial in range(12):
            f = random_features(rng, duplicates=trial % 2 == 0)
            g = build_distance_graph(f, int(rng.integers(1, min(12, len(f)))))
            d_j = to_dense(g.jaccard())
            for q in (0.0, 0.1, 0.7, 1.6, 50.0, 99.9, 100.0):
                want = np.percentile(d_j[~np.eye(len(f), dtype=bool)], q)
                assert offdiag_percentile(g.jaccard(), q) == want

    def test_percentile_with_every_pair_stored(self):
        rng = np.random.default_rng(16)
        dist = oracles.pairwise_euclidean(rng.standard_normal((9, 2)))
        sparse = oracles.to_sparse(dist)
        for q in (0.1, 0.7, 1.6, 50.0, 99.9):
            assert offdiag_percentile(sparse, q) == np.percentile(
                dist[~np.eye(9, dtype=bool)], q)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_percentile_rejects_non_finite_values(self, bad):
        # np.sort puts a NaN last, so the percentile would come out finite
        # where np.percentile over the dense matrix gives NaN
        with pytest.raises(ValueError, match="finite"):
            offdiag_percentile(SparseDistances(n=4, pairs=np.array([[0, 1], [0, 2], [1, 2]]),
                                               values=np.array([0.1, bad, 0.1])), 0.7)

    def test_percentile_rejects_bad_input(self):
        one = SparseDistances(n=1, pairs=np.empty((0, 2), dtype=np.int64), values=np.empty(0))
        with pytest.raises(ValueError):
            offdiag_percentile(one, 50.0)
        two = SparseDistances(n=2, pairs=np.array([[0, 1]]), values=np.array([0.5]))
        with pytest.raises(ValueError):
            offdiag_percentile(two, 101.0)


class _SmallChunks:
    """Reruns a test class with ``_CHUNK_ENTRIES`` at 1 and at an odd 2047.

    At 1 every k-NN chunk, dense row-sum chunk and Jaccard term block holds a
    single row, and rows with no later member form blocks of their own; at
    2047 chunks end inside Gram blocks, one-row chunks close them, and a row
    with more terms than the chunk holds makes a block alone.
    """

    @pytest.fixture(autouse=True, params=[1, 2047], ids=["chunk1", "chunk2047"])
    def _small_chunks(self, request, monkeypatch):
        monkeypatch.setattr(graph, "_CHUNK_ENTRIES", request.param)


class TestNearestNeighborsInSmallChunks(_SmallChunks, TestNearestNeighbors):
    pass


class TestMaskOracleInSmallChunks(_SmallChunks, TestNearestNeighborsAgainstMaskOracle):
    pass


class TestJaccardEdgeCasesInSmallChunks(_SmallChunks, TestJaccardEdgeCases):
    pass


class TestSparseChainInSmallChunks(_SmallChunks, TestSparseChainAgainstDense):
    pass


_MEMORY_PROBE = """
import resource
import numpy as np
from reidapt.cluster import dbscan
from reidapt.graph import build_distance_graph, offdiag_percentile

rng = np.random.default_rng(0)
centers = rng.standard_normal((256, 32))
f = np.repeat(centers, 20, axis=0) + 0.6 * rng.standard_normal((5120, 32))
f /= np.linalg.norm(f, axis=1, keepdims=True)
d_j = build_distance_graph(f, k_rr=20).jaccard()
res = dbscan(d_j, max(offdiag_percentile(d_j, 0.7), 1e-12), 6)
assert len(res.assignment) == 5120
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees during ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def probe_sets():
    """The reciprocal sets and d_S of the _MEMORY_PROBE instance."""
    sets = reciprocal_sets(memory_probe_features(), 20)
    return sets, np.exp(-sets.dist)


class TestMemory:
    def test_row_sums_at_5120_peak_near_one_block(self):
        # one reused (rows, N) block, not an N x N array (210 MB here)
        n = 5120
        indptr = np.arange(n + 1) * 20
        indices = np.sort((np.arange(n)[:, None] + 256 * np.arange(20)) % n, axis=1).ravel()
        values = np.random.default_rng(20).random(n * 20)
        graph._dense_row_sums(indptr, indices, values)  # warm up the imports
        tracemalloc.start()
        try:
            graph._dense_row_sums(indptr, indices, values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * int(np.max(np.diff(graph._row_blocks(n, n, graph._BLOCK_ENTRIES)))) * n
        assert peak < 2 * block, f"peak {peak} bytes, one block {block} bytes"

    @pytest.mark.parametrize("n", [1280, 5120])
    def test_nearest_neighbors_peak_near_two_blocks(self, n):
        # one Gram block, reused; h, its strided group maxima, the candidate
        # mask and the ranking work one chunk of rows at a time, so only
        # that chunk and the outputs come on top.
        # test_nearest_neighbors_peak_near_one_block holds the tighter bound.
        f = np.random.default_rng(21).standard_normal((n, 32))
        nearest_neighbors(f[:50], 5)  # warm up the imports
        tracemalloc.start()
        try:
            nearest_neighbors(f, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * int(np.max(np.diff(graph._row_blocks(n, n, graph._BLOCK_ENTRIES)))) * n
        assert peak < 2.5 * block, f"peak {peak} bytes, one block {block} bytes"

    def test_jaccard_peak_at_5120_near_five_term_arrays(self):
        # The _MEMORY_PROBE instance: C min-sum terms, each pair key and term
        # 8 bytes. Sorting all C keys and terms at once takes five
        # term-sized arrays; test_jaccard_peak_at_5120_bounded_without_terms
        # holds the bound for one block of terms at a time.
        sets, d_s = probe_sets()
        sizes = np.diff(sets.indptr)
        terms = int(np.sum(sizes * (sizes - 1) // 2))
        jaccard_of(np.eye(3))  # warm up the imports
        tracemalloc.start()
        try:
            jaccard_distance(sets.indptr, sets.indices, d_s, sets.mirror)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * 8 * terms, f"peak {peak} bytes, {terms} terms"

    def test_row_sums_peak_near_one_chunk(self):
        # one reused dense chunk of rows; only the output and each chunk's
        # scatter indices come on top
        n = 5120
        indptr = np.arange(n + 1) * 20
        indices = np.sort((np.arange(n)[:, None] + 256 * np.arange(20)) % n, axis=1).ravel()
        values = np.random.default_rng(20).random(n * 20)
        graph._dense_row_sums(indptr, indices, values)  # warm up the imports
        peak = traced_peak(graph._dense_row_sums, indptr, indices, values)
        chunk = 8 * graph._CHUNK_ENTRIES
        assert peak < chunk + 2 * 8 * n, f"peak {peak} bytes, one chunk {chunk} bytes"

    @pytest.mark.parametrize("n", [1280, 5120])
    def test_nearest_neighbors_peak_near_one_block(self, n):
        # the Gram block is the only (rows, N) buffer; the squared distances
        # take one chunk of rows at a time, and that chunk's candidate mask
        # and ranking fit in a second chunk. Only the (N, k) outputs come on
        # top.
        f = np.random.default_rng(21).standard_normal((n, 32))
        nearest_neighbors(f[:50], 5)  # warm up the imports
        peak = traced_peak(nearest_neighbors, f, 20)
        block = 8 * int(np.max(np.diff(graph._row_blocks(n, n, graph._BLOCK_ENTRIES)))) * n
        bound = block + 2 * 8 * graph._CHUNK_ENTRIES + 16 * n * 20
        assert peak < bound, f"peak {peak} bytes, one block {block} bytes"

    def test_jaccard_peak_at_5120_bounded_without_terms(self):
        # Index arrays the size of the nnz stored entries, arrays the size of
        # the E pairs, and one block of about _CHUNK_ENTRIES terms: nothing
        # the size of all C terms (974,662 here, 8 MB per term array).
        sets, d_s = probe_sets()
        nnz = len(sets.indices)
        jaccard_of(np.eye(3))  # warm up the imports
        pairs = len(jaccard_distance(sets.indptr, sets.indices, d_s, sets.mirror)[1])
        peak = traced_peak(jaccard_distance, sets.indptr, sets.indices, d_s, sets.mirror)
        bound = 8 * (4 * nnz + 8 * pairs + 8 * graph._CHUNK_ENTRIES)
        assert peak < bound, f"peak {peak} bytes, {nnz} entries, {pairs} pairs"

    def test_jaccard_peak_at_5120_near_its_outputs(self):
        # The (E, 2) pairs and (E,) distances, the blocks' keys and distances
        # they are assembled from, and one chunk: no concatenated copy of
        # the keys or min-sums, and no E-sized divmod, gather or d_J
        # temporaries (7.25 MiB here when those were formed whole).
        sets, d_s = probe_sets()
        jaccard_of(np.eye(3))  # warm up the imports
        pairs = len(jaccard_distance(sets.indptr, sets.indices, d_s, sets.mirror)[1])
        peak = traced_peak(jaccard_distance, sets.indptr, sets.indices, d_s, sets.mirror)
        bound = 8 * (3 * pairs + 2 * pairs + graph._CHUNK_ENTRIES)
        assert peak < bound, f"peak {peak} bytes, bound {bound} bytes, {pairs} pairs"

    def test_reciprocal_sets_at_5120_peak_below_nine_row_arrays(self):
        # The _MEMORY_PROBE instance, k_rr = 20, rows of k_rr + 1 entries
        # once each sample joins its own. One mutual test over those rows
        # gives the sets, and the k-NN's Gram block sets this peak (6.1
        # MiB); a pass placing the mutual entries and the diagonal into the
        # sets after the test holds 9.4 MiB.
        f = memory_probe_features()
        reciprocal_sets(f[:50], 5)  # warm up the imports
        peak = traced_peak(reciprocal_sets, f, 20)
        bound = 9 * 8 * len(f) * 21
        assert peak < bound, f"peak {peak} bytes, bound {bound} bytes"

    def test_graph_and_dbscan_at_5120_stay_under_512_mb(self):
        # The dense chain held five N x N float64 arrays: about 1.4 GB here.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(graph.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", _MEMORY_PROBE], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        peak_mb = float(out.stdout.split()[-1])
        assert peak_mb < 512.0, f"peak RSS {peak_mb:.0f} MB"
