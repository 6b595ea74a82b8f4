import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import oracles
from helpers import memory_probe_features
from oracles import pairwise_euclidean, to_sparse
from reidapt import cluster, graph
from reidapt.cluster import dbscan, kmeans
from reidapt.data import OUTLIER, l2_normalize
from reidapt.graph import SparseDistances, build_distance_graph, offdiag_percentile


def reference_dbscan(dist, eps, min_pts):
    """Textbook BFS over the eps-graph; border ties go to the lowest core."""
    n = len(dist)
    neigh = [set(np.flatnonzero(dist[i] <= eps)) for i in range(n)]
    core = [len(neigh[i]) >= min_pts for i in range(n)]
    labels = [OUTLIER] * n
    current = 0
    for i in range(n):
        if not core[i] or labels[i] != OUTLIER:
            continue
        queue = [i]
        labels[i] = current
        while queue:
            u = queue.pop(0)
            for v in sorted(neigh[u]):
                if core[v] and labels[v] == OUTLIER:
                    labels[v] = current
                    queue.append(v)
        current += 1
    for i in range(n):
        if labels[i] == OUTLIER and not core[i]:
            claiming = [c for c in range(n) if core[c] and dist[i, c] <= eps]
            if claiming:
                labels[i] = labels[claiming[0]]
    return np.array(labels), current


def partition_of(labels):
    groups = {}
    for i, l in enumerate(labels):
        if l != OUTLIER:
            groups.setdefault(l, set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


def blob_instance(rng, n_blobs=3, per_blob=6, d=2, sep=20.0, tight=0.3):
    centers = sep * rng.standard_normal((n_blobs, d))
    pts = np.vstack([c + tight * rng.standard_normal((per_blob, d)) for c in centers])
    return pts, np.repeat(np.arange(n_blobs), per_blob)


class TestDbscan:
    def test_two_separated_blobs(self):
        rng = np.random.default_rng(0)
        pts, truth = blob_instance(rng, n_blobs=2, per_blob=8)
        dist = pairwise_euclidean(pts)
        res = dbscan(to_sparse(dist), eps=2.0, min_pts=4)
        assert res.num_clusters == 2
        assert not np.any(res.assignment == OUTLIER)
        assert partition_of(res.assignment) == partition_of(truth)

    def test_all_isolated_all_outliers(self):
        pts = np.arange(6, dtype=float).reshape(-1, 1) * 10.0
        res = dbscan(to_sparse(pairwise_euclidean(pts)), eps=1.0, min_pts=2)
        assert res.num_clusters == 0
        assert np.all(res.assignment == OUTLIER)

    def test_crafted_ten_points_match_reference(self):
        pts = np.array([[0.0], [0.4], [0.8], [1.2], [5.0], [5.3], [5.6],
                        [2.9], [9.0], [20.0]])
        dist = pairwise_euclidean(pts)
        res = dbscan(to_sparse(dist), eps=0.5, min_pts=3)
        want, want_l = reference_dbscan(dist, 0.5, 3)
        assert np.array_equal(res.assignment, want)
        assert res.num_clusters == want_l

    def test_random_instances_match_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(5, 16))
            pts = rng.standard_normal((n, 2)) * 2.0
            dist = pairwise_euclidean(pts)
            eps = float(rng.uniform(0.3, 2.0))
            min_pts = int(rng.integers(1, 5))
            res = dbscan(to_sparse(dist), eps, min_pts)
            want, want_l = reference_dbscan(dist, eps, min_pts)
            assert np.array_equal(res.assignment, want)
            assert res.num_clusters == want_l

    def test_permutation_gives_same_partition(self):
        rng = np.random.default_rng(2)
        pts, _ = blob_instance(rng)
        dist = pairwise_euclidean(pts)
        res = dbscan(to_sparse(dist), eps=2.0, min_pts=3)
        perm = rng.permutation(len(pts))
        permuted = dbscan(to_sparse(dist[np.ix_(perm, perm)]), eps=2.0, min_pts=3)
        unpermuted = np.full(len(pts), OUTLIER, dtype=np.int64)
        unpermuted[perm] = permuted.assignment
        assert partition_of(res.assignment) == partition_of(unpermuted)
        assert np.array_equal(res.assignment == OUTLIER, unpermuted == OUTLIER)

    def test_smaller_eps_never_merges(self):
        rng = np.random.default_rng(3)
        pts, _ = blob_instance(rng)
        dist = pairwise_euclidean(pts)
        big = dbscan(to_sparse(dist), eps=2.0, min_pts=3).assignment
        small = dbscan(to_sparse(dist), eps=0.8, min_pts=3).assignment
        for i, j in combinations(range(len(pts)), 2):
            separate_at_big = big[i] != big[j] or big[i] == OUTLIER
            if separate_at_big and small[i] != OUTLIER and small[j] != OUTLIER:
                assert small[i] != small[j]

    def test_cluster_ids_contiguous(self):
        rng = np.random.default_rng(4)
        pts, _ = blob_instance(rng, n_blobs=4)
        res = dbscan(to_sparse(pairwise_euclidean(pts)), eps=2.0, min_pts=3)
        found = np.unique(res.assignment[res.assignment != OUTLIER])
        assert found.tolist() == list(range(res.num_clusters))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            dbscan(to_sparse(np.array([[0.0, 1.0], [2.0, 0.0]])), 0.5, 2)
        sym = to_sparse(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            dbscan(sym, -1.0, 2)
        with pytest.raises(ValueError):
            dbscan(sym, 0.5, 0)

    def test_rejects_malformed_sparse_input(self):
        # SparseDistances refuses a bad layout as it is made, so no malformed
        # graph ever reaches dbscan
        def sparse(pairs, values, n=3, fill=1.0):
            return SparseDistances(n=n, pairs=np.array(pairs).reshape(-1, 2),
                                   values=np.array(values, dtype=float), fill=fill)
        for pairs, values in (([[0, 1], [0, 1]], [0.1, 0.1]),   # a pair twice
                              ([[1, 2], [0, 1]], [0.1, 0.1]),   # not row-major
                              ([[0, 3]], [0.1]),                # index out of range
                              ([[0, 1]], [0.1, 0.2]),           # one value too many
                              ([[0, 1]], [-0.1]),               # negative distance
                              ([[0, 1]], [1.5])):               # beyond the fill
            with pytest.raises(ValueError):
                dbscan(sparse(pairs, values), 0.5, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("fill", [1.0, np.inf])
    def test_rejects_non_finite_distances(self, bad, fill):
        # NaN compares False both ways, so no range check catches it; it
        # would pass as a pair beyond eps
        with pytest.raises(ValueError, match="finite"):
            dbscan(SparseDistances(n=4, pairs=np.array([[0, 1], [0, 2], [1, 2]]),
                                   values=np.array([0.1, bad, 0.1]), fill=fill), 0.5, 1)


def jaccard_instance(rng, duplicates=False):
    n = int(rng.integers(6, 50))
    f = rng.standard_normal((n, int(rng.integers(1, 5))))
    if duplicates:  # repeated rows: tied k-NN distances and zero Jaccard pairs
        f = np.repeat(f[: max(2, n // 2)], 2, axis=0)[:n]
    f = l2_normalize(f)
    return build_distance_graph(f, int(rng.integers(1, min(10, n)))).jaccard()


class TestSparseDbscanAgainstDense:
    """DBSCAN over the sparse Jaccard graph against the dense flood fill and
    the textbook BFS, both run on the densified matrix."""

    def check(self, sparse, eps, min_pts):
        res = dbscan(sparse, eps, min_pts)
        dense = oracles.to_dense(sparse)
        want, want_l = oracles.dbscan(dense, eps, min_pts)
        assert np.array_equal(res.assignment, want)
        assert res.num_clusters == want_l
        ref, ref_l = reference_dbscan(dense, eps, min_pts)
        assert np.array_equal(res.assignment, ref) and res.num_clusters == ref_l
        return res

    def test_random_jaccard_graphs(self):
        rng = np.random.default_rng(20)
        for trial in range(60):
            sparse = jaccard_instance(rng, duplicates=trial % 3 == 0)
            self.check(sparse, float(rng.uniform(0.05, 0.99)), int(rng.integers(1, 8)))

    def test_eps_equal_to_a_stored_distance(self):
        rng = np.random.default_rng(21)
        checked = 0
        for trial in range(40):
            sparse = jaccard_instance(rng, duplicates=trial % 2 == 0)
            positive = sparse.values[sparse.values > 0]
            if len(positive) == 0:  # eps must be positive
                continue
            self.check(sparse, float(rng.choice(positive)), int(rng.integers(1, 5)))
            checked += 1
        assert checked >= 20

    def test_eps_at_or_above_one_gives_one_cluster(self):
        rng = np.random.default_rng(22)
        for eps in (1.0, 1.5):
            sparse = jaccard_instance(rng)
            res = self.check(sparse, eps, min_pts=sparse.n)
            assert res.num_clusters == 1
            assert np.all(res.assignment == 0)
            res = self.check(sparse, eps, min_pts=sparse.n + 1)
            assert res.num_clusters == 0

    def test_min_pts_one_makes_every_point_core(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            sparse = jaccard_instance(rng)
            res = self.check(sparse, float(rng.uniform(0.05, 0.9)), 1)
            assert not np.any(res.assignment == OUTLIER)

    def test_eps_from_the_percentile_rule(self):
        rng = np.random.default_rng(24)
        for trial in range(20):
            sparse = jaccard_instance(rng, duplicates=trial % 2 == 0)
            dense = oracles.to_dense(sparse)
            for q in (0.7, 1.6, 10.0, 50.0):
                self.check(sparse, max(oracles.dense_eps(dense, q), 1e-12), 3)


class _SmallChunks:
    """Reruns a test class with ``graph._CHUNK_ENTRIES`` at 1 and at 7, so
    that the degree counts, the hooking rounds and the border claims of
    ``dbscan`` run over many slices of stored pairs, and components and
    claims cross slice edges."""

    @pytest.fixture(autouse=True, params=[1, 7], ids=["chunk1", "chunk7"])
    def _small_chunks(self, request, monkeypatch):
        monkeypatch.setattr(graph, "_CHUNK_ENTRIES", request.param)


class TestDbscanInSmallChunks(_SmallChunks, TestDbscan):
    pass


class TestSparseDbscanInSmallChunks(_SmallChunks, TestSparseDbscanAgainstDense):
    pass


def exhaustive_two_partition_inertia(points):
    """Best within-cluster squared distance over all 2-partitions."""
    m = len(points)
    best = np.inf
    for size in range(1, m // 2 + 1):
        for group in combinations(range(m), size):
            mask = np.zeros(m, dtype=bool)
            mask[list(group)] = True
            total = 0.0
            for part in (points[mask], points[~mask]):
                if len(part):
                    total += float(np.sum((part - part.mean(axis=0)) ** 2))
            best = min(best, total)
    return best


def lloyd_path(points, start, iterations):
    """The inertia after each of the first ``iterations`` Lloyd updates from
    ``start``: one-iteration runs, each from the centers the last one left.
    Before the run has converged, t of them update the centers as one run of
    t iterations does, without its quadratic cost on a run that cycles to
    the iteration cap."""
    centers, path = start.copy(), []
    for _ in range(iterations):
        path.append(oracles.inertia(points, centers))
        centers = cluster._lloyd(points, centers, 1)
    return path


class TestKmeans:
    def test_single_center_is_mean(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((9, 3))
        centers = kmeans(pts, 1, seed=0)
        assert np.allclose(centers[0], pts.mean(axis=0), atol=1e-12)

    def test_r_equals_m_zero_inertia(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [4.0, 4.0]])
        centers = kmeans(pts, 4, seed=1)
        assert oracles.inertia(pts, centers) == pytest.approx(0.0, abs=1e-18)
        assert sorted(map(tuple, centers.tolist())) == sorted(map(tuple, pts.tolist()))

    def test_crafted_instance_matches_exhaustive(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.1], [0.2, 0.4],
                        [5.0, 5.0], [5.3, 4.8], [4.9, 5.4]])
        centers = kmeans(pts, 2, seed=0)
        assert oracles.inertia(pts, centers) == pytest.approx(
            exhaustive_two_partition_inertia(pts), abs=1e-9)

    def test_inertia_non_increasing(self):
        # each iteration's inertia, rebuilt from a run of that many
        # iterations from the kmeans start, until the run reaches its centers
        rng = np.random.default_rng(6)
        for trial in range(10):
            pts = rng.standard_normal((20, 3))
            start = cluster._kmeans_pp_init(pts, 4, np.random.default_rng(trial))
            final = kmeans(pts, 4, seed=trial)
            hist = []
            for t in range(cluster.LLOYD_MAX_ITER + 1):
                centers = cluster._lloyd(pts, start.copy(), t)
                hist.append(oracles.inertia(pts, centers))
                if centers.tobytes() == final.tobytes():
                    break
            assert centers.tobytes() == final.tobytes()
            assert all(hist[t + 1] <= hist[t] + 1e-9 for t in range(len(hist) - 1))

    def test_centers_are_assignment_means(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((24, 2))
        centers = kmeans(pts, 3, seed=2)
        # nearest centers from the (m, r, d) difference tensor
        assignment = np.argmin(np.sum((pts[:, None] - centers[None]) ** 2, axis=2), axis=1)
        for c in range(3):
            mask = assignment == c
            if mask.any():
                assert np.allclose(centers[c], pts[mask].mean(axis=0), atol=1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((15, 4))
        a = kmeans(pts, 3, seed=42)
        b = kmeans(pts, 3, seed=42)
        assert a.tobytes() == b.tobytes()

    def test_identical_points_degenerate(self):
        pts = np.tile([[1.0, 2.0]], (3, 1))
        centers = kmeans(pts, 3, seed=0)
        assert np.allclose(centers, [1.0, 2.0])
        assert oracles.inertia(pts, centers) == 0.0

    def test_r_out_of_range(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kmeans(pts, 4, seed=0)
        with pytest.raises(ValueError):
            kmeans(pts, 0, seed=0)


def assert_same_lloyd(points, centers, max_iter=100):
    got = cluster._lloyd(points, centers.copy(), max_iter)
    want, _, _, history = oracles.lloyd(points, centers.copy(), max_iter)
    assert got.tobytes() == want.tobytes()
    # the path: the inertia after each iteration, as the oracle recorded it
    assert lloyd_path(points, centers, len(history)) == history


class TestLloydAgainstDifferenceTensor:
    """The Lloyd iterations, which screen the centers on the Gram form and
    recompute only the rows left with more than one candidate in the
    difference form, reproduce the (m, r, d) difference tensor bit for bit:
    the centers, and the inertia after every iteration on the way to them."""

    @staticmethod
    def starts(rng, points, r):
        # rows of the points, drawn with replacement: repeated rows give
        # equal centers, whose ties go to the lower index, and empty ones
        return points[rng.integers(0, len(points), size=r)]

    def test_random_instances(self):
        rng = np.random.default_rng(30)
        for _ in range(150):
            m, d = int(rng.integers(2, 120)), int(rng.integers(1, 40))
            r = int(rng.integers(1, min(m, 8) + 1))
            points = rng.standard_normal((m, d))
            assert_same_lloyd(points, self.starts(rng, points, r))

    def test_integer_grid_ties(self):
        rng = np.random.default_rng(31)
        for _ in range(150):
            m, d = int(rng.integers(2, 80)), int(rng.integers(1, 6))
            r = int(rng.integers(1, min(m, 6) + 1))
            points = rng.integers(-2, 3, size=(m, d)).astype(float)
            assert_same_lloyd(points, self.starts(rng, points, r))

    def test_duplicate_points(self):
        rng = np.random.default_rng(32)
        for _ in range(150):
            pool = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 20))))
            points = pool[rng.integers(0, len(pool), size=int(rng.integers(2, 60)))]
            r = int(rng.integers(1, min(len(points), 6) + 1))
            assert_same_lloyd(points, self.starts(rng, points, r))

    def test_cancellation_regime(self):
        # far from the origin and close together: the differences cancel
        # most of the digits, so near-ties must break as the tensor breaks them
        rng = np.random.default_rng(33)
        for trial in range(300):
            m, d = int(rng.integers(2, 120)), int(rng.integers(1, 40))
            r = int(rng.integers(1, min(m, 8) + 1))
            offset = 10.0 ** rng.uniform(0, 6) * rng.standard_normal(d)
            spread = 10.0 ** rng.uniform(-8, 0)
            if trial % 2:
                points = offset + spread * rng.integers(-2, 3, size=(m, d))
            else:
                points = offset + spread * rng.standard_normal((m, d))
            assert_same_lloyd(points, self.starts(rng, points, r))

    def test_production_shape(self):
        # unit rows at the shape of a large coarse cluster's prototype
        # k-means; a duplicated block gives points and starts that coincide
        rng = np.random.default_rng(37)
        m, d, r = 2400, 32, 5
        points = l2_normalize(rng.standard_normal((m, d)))
        points[m // 2:m // 2 + 300] = points[:300]
        pp = cluster._kmeans_pp_init(points, r, np.random.default_rng(0))
        dup = points[[0, m // 2, 5, m // 2 + 5, 900]]  # two pairs of equal centers
        # equal centers leave most rows with more than one center within
        # graph._exact_argmin's reach of their Gram-form nearest, so the
        # difference-form recompute runs
        d2, reach = graph._gram(points, dup, np.sum(points * points, axis=1),
                                np.sum(dup * dup, axis=1))
        within = d2 <= np.min(d2, axis=1, keepdims=True) + reach[:, None]
        assert np.count_nonzero(np.count_nonzero(within, axis=1) > 1) > m // 2
        for start in (pp, dup):
            assert_same_lloyd(points, start)

    def test_kmeans_end_to_end(self, monkeypatch):
        rng = np.random.default_rng(34)
        cases = [(rng.standard_normal((m, 8)), r, seed)
                 for seed, (m, r) in enumerate([(40, 3), (200, 5), (7, 7), (60, 1)])]
        got = [kmeans(points, r, seed=seed) for points, r, seed in cases]
        monkeypatch.setattr(cluster, "_lloyd", lambda *args: oracles.lloyd(*args)[0])
        for centers, (points, r, seed) in zip(got, cases):
            assert centers.tobytes() == kmeans(points, r, seed=seed).tobytes()


class TestMemory:
    def test_no_point_center_difference_tensor(self):
        rng = np.random.default_rng(35)
        points = rng.standard_normal((5120, 32))
        kmeans(points[:50], 5, seed=0)  # warm up the imports
        tracemalloc.start()
        try:
            kmeans(points, 5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5120 * 5 * 32 * 8, f"peak {peak} bytes, one (m, r, d) tensor"

    def test_kmeans_peak_below_two_point_arrays(self):
        # the (m, r) distances come from one Gram product; only tied rows
        # are recomputed, one (m, d) difference at a time at most
        rng = np.random.default_rng(36)
        points = rng.standard_normal((5120, 32))
        kmeans(points[:50], 5, seed=0)  # warm up the imports
        tracemalloc.start()
        try:
            kmeans(points, 5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * points.nbytes, f"peak {peak} bytes, two (m, d) arrays"


    def test_assign_peak_below_four_distance_arrays(self):
        # one (m, r) Gram product, screened as it is: no (m, r) norm,
        # tolerance or masked copy of the distances beside it
        rng = np.random.default_rng(38)
        points = rng.standard_normal((5120, 32))
        centers, sq = points[:5].copy(), np.sum(points * points, axis=1)
        cluster._assign(points, centers, sq)  # warm up the imports
        tracemalloc.start()
        try:
            cluster._assign(points, centers, sq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 5120 * 5 * 8, f"peak {peak} bytes, four (m, r) arrays"


@pytest.fixture(scope="module")
def probe_graph():
    """The Jaccard graph of the N=5120 memory probe in tests/test_graph.py."""
    return build_distance_graph(memory_probe_features(), 20).jaccard()


class TestDbscanMemory:
    @pytest.mark.parametrize("rule", ["eps 0.6", "percentile 0.7"])
    def test_dbscan_peak_near_n_arrays_and_a_few_chunks(self, probe_graph, rule):
        # Only N-sized arrays, boolean masks over the E stored pairs and a few
        # slices of graph._CHUNK_ENTRIES pairs: no int64 key, diff or (2E)
        # both-direction edge list (5.35 and 9.42 MiB here when they were
        # formed whole). The percentile eps collapses the probe into one
        # cluster, so nearly every pair is a core-core edge.
        eps = 0.6 if rule == "eps 0.6" else max(offdiag_percentile(probe_graph, 0.7), 1e-12)
        dbscan(probe_graph, eps, 6)  # warm up the imports
        tracemalloc.start()
        try:
            dbscan(probe_graph, eps, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, pairs = probe_graph.n, len(probe_graph.values)
        bound = 8 * (16 * n + 5 * graph._CHUNK_ENTRIES) + 4 * pairs
        assert peak < bound, f"peak {peak} bytes, bound {bound} bytes, {pairs} pairs"
