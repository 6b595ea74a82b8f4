import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles
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


def sparse_jaccard(d_s):
    pairs, d_j = jaccard_distance(*csr_of(d_s))
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
        pairs, d_j = jaccard_distance(*csr_of(d_s))
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
                             np.array([1.0, -0.1, -0.1, 1.0]))

    def test_blob_monotone_sanity(self):
        rng = np.random.default_rng(9)
        centers = rng.standard_normal((4, 6)) * 4.0
        f = np.vstack([c + 0.05 * rng.standard_normal((8, 6)) for c in centers])
        labels = np.repeat(np.arange(4), 8)
        d_j = to_dense(build_distance_graph(l2_normalize(f), k_rr=10).jaccard())
        same = labels[:, None] == labels[None, :]
        off = ~np.eye(32, dtype=bool)
        assert d_j[same & off].mean() < d_j[~same].mean()


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

    @pytest.mark.parametrize("entries", [1, 200, 2100])
    def test_row_sums_over_several_blocks(self, monkeypatch, entries):
        # wide-ranging values make the sum depend on its order; about a third
        # of the rows are empty, and N=1 is a single block of one row
        monkeypatch.setattr(graph, "_BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(18)
        for n in (1, 2, 7, 130, 1031):
            dense = np.zeros((n, n))
            for i in np.flatnonzero(rng.random(n) < 2 / 3):
                at = rng.choice(n, size=min(n, int(rng.integers(1, 200))), replace=False)
                dense[i, at] = rng.random(len(at)) * 10.0 ** rng.uniform(-3, 3, len(at))
            assert n < 130 or len(graph._row_blocks(n, entries)) > 2
            got = graph._dense_row_sums(*csr_of(dense))
            assert got.tobytes() == dense.sum(axis=1).tobytes()

    def test_jaccard_over_several_row_sum_blocks(self, monkeypatch):
        monkeypatch.setattr(graph, "_BLOCK_ENTRIES", 150)
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

    def test_percentile_rejects_bad_input(self):
        one = SparseDistances(n=1, pairs=np.empty((0, 2), dtype=np.int64), values=np.empty(0))
        with pytest.raises(ValueError):
            offdiag_percentile(one, 50.0)
        two = SparseDistances(n=2, pairs=np.array([[0, 1]]), values=np.array([0.5]))
        with pytest.raises(ValueError):
            offdiag_percentile(two, 101.0)


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
        block = 8 * int(np.max(np.diff(graph._row_blocks(n, graph._BLOCK_ENTRIES)))) * n
        assert peak < 2 * block, f"peak {peak} bytes, one block {block} bytes"

    def test_graph_and_dbscan_at_5120_stay_under_512_mb(self):
        # The dense chain held five N x N float64 arrays: about 1.4 GB here.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(graph.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", _MEMORY_PROBE], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        peak_mb = float(out.stdout.split()[-1])
        assert peak_mb < 512.0, f"peak RSS {peak_mb:.0f} MB"
