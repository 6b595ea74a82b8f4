import tracemalloc

import numpy as np
import pytest

import oracles
from reidapt.cluster import CoarseClusters, kmeans
from reidapt.data import OUTLIER, l2_normalize
from reidapt.refine import (
    PseudoLabelSet,
    assign_refined_labels,
    refine_labels,
    refined_similarity,
    select_prototypes,
)


def coarse(assignment):
    a = np.asarray(assignment, dtype=np.int64)
    labels = a[a != OUTLIER]
    return CoarseClusters(a, int(labels.max()) + 1 if len(labels) else 0)


class TestSelectPrototypes:
    def test_clamped_identical_cluster(self):
        v = np.array([0.6, 0.8])
        feats = np.tile(v, (3, 1))
        protos = select_prototypes(feats, coarse([0, 0, 0]), r=5, seed=0)
        assert protos[0].shape == (3, 2)
        assert np.allclose(protos[0], v, atol=1e-12)

    def test_r1_is_normalized_mean(self):
        rng = np.random.default_rng(0)
        feats = l2_normalize(rng.standard_normal((8, 4)))
        protos = select_prototypes(feats, coarse([0] * 8), r=1, seed=3)
        want = l2_normalize(feats.mean(axis=0)[None, :])
        assert np.allclose(protos[0], want, atol=1e-12)

    def test_matches_per_cluster_kmeans(self):
        rng = np.random.default_rng(1)
        feats = l2_normalize(np.vstack([rng.standard_normal((6, 3)) + 5.0,
                                        rng.standard_normal((6, 3)) - 5.0]))
        assignment = [0] * 6 + [1] * 6
        protos = select_prototypes(feats, coarse(assignment), r=2, seed=9)
        for label, members in ((0, slice(0, 6)), (1, slice(6, 12))):
            direct = kmeans(feats[members], 2, seed=(9, label))
            assert np.array_equal(protos[label], l2_normalize(direct))

    def test_unit_norm_prototypes(self):
        rng = np.random.default_rng(2)
        feats = l2_normalize(rng.standard_normal((20, 5)))
        protos = select_prototypes(feats, coarse([0] * 10 + [1] * 10), r=3, seed=1)
        for cents in protos:
            assert np.allclose(np.linalg.norm(cents, axis=1), 1.0, atol=1e-6)

    def test_outliers_ignored(self):
        rng = np.random.default_rng(3)
        feats = l2_normalize(rng.standard_normal((5, 3)))
        protos = select_prototypes(feats, coarse([0, 0, 0, 0, OUTLIER]), r=2, seed=0)
        assert len(protos) == 1

    def test_skipped_label_raises(self):
        # label 1 holds no sample, so it has no prototype to give
        feats = np.random.default_rng(6).standard_normal((4, 3))
        with pytest.raises(ValueError):
            select_prototypes(feats, CoarseClusters(np.array([0, 0, 2, 2]), 3), r=2, seed=0)


class TestRefinedSimilarity:
    def test_exact_prototype_match_scores_one(self):
        f = l2_normalize(np.array([[1.0, 1.0], [0.0, 1.0]]))
        protos = select_prototypes(f, coarse([0, 1]), r=1, seed=0)
        s = refined_similarity(f, protos)
        assert s[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert s[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_average_of_prototype_dots(self):
        # hand-set prototypes: cluster 0 averages 0.5, cluster 1 averages 0.6
        f = np.array([[1.0, 0.0]])
        p0 = np.array([[0.8, 0.6], [0.2, np.sqrt(1 - 0.04)]])        # dots 0.8, 0.2
        p1 = np.array([[0.5, np.sqrt(0.75)], [0.7, np.sqrt(0.51)]])  # dots 0.5, 0.7
        s = refined_similarity(f, [p0, p1])
        assert s[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert s[0, 1] == pytest.approx(0.6, abs=1e-12)
        # the 0.6 average wins over 0.5 even though p0 holds the single best dot
        assert np.argmax(s[0]) == 1


class TestAssignRefinedLabels:
    def test_higher_average_wins(self):
        s = np.array([[0.5, 0.6], [0.1, 0.9]])
        labels = assign_refined_labels(s, coarse([0, 1]))
        assert labels.refined[0] == 1

    def test_tie_breaks_low(self):
        s = np.array([[0.4, 0.4]])
        assert assign_refined_labels(s, coarse([1])).refined[0] == 0

    def test_single_cluster(self):
        s = np.array([[0.2], [0.9], [0.5]])
        labels = assign_refined_labels(s, coarse([0, 0, OUTLIER]))
        assert labels.refined.tolist() == [0, 0, OUTLIER]

    def test_outliers_preserved_and_validated(self):
        s = np.zeros((3, 2))
        labels = assign_refined_labels(s, coarse([OUTLIER, 1, 0]))
        assert labels.refined[0] == OUTLIER
        with pytest.raises(ValueError):
            PseudoLabelSet(np.array([OUTLIER, 0]), np.array([0, 0]), 1)
        with pytest.raises(ValueError, match="finite"):
            assign_refined_labels(np.array([[np.nan, 0.0], [0.0, 0.0]]), coarse([0, 1]))

    def test_score_width_must_match_clusters(self):
        # one cluster scored against two prototype sets would name label 1
        with pytest.raises(ValueError, match="columns"):
            assign_refined_labels(np.array([[0.5, 0.6]]), coarse([0]))
        with pytest.raises(ValueError, match="columns"):
            assign_refined_labels(np.zeros((3, 1)), coarse([0, 1, 1]))

    def test_score_rows_must_match_samples(self):
        # one row would broadcast over all three samples; four name a sample
        # that does not exist
        for rows in (1, 4):
            with pytest.raises(ValueError, match="rows"):
                assign_refined_labels(np.zeros((rows, 2)), coarse([0, 1, 1]))

    def test_infinite_scores_rejected(self):
        for bad in (np.inf, -np.inf):
            s = np.zeros((2, 2))
            s[1, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                assign_refined_labels(s, coarse([0, 1]))

    def test_all_outliers(self):
        every = CoarseClusters(np.array([OUTLIER, OUTLIER, OUTLIER]), 0)
        labels = assign_refined_labels(np.zeros((3, 0)), every)
        assert labels.refined.tolist() == [OUTLIER] * 3
        assert labels.num_clusters == 0
        feats = np.random.default_rng(7).standard_normal((3, 4))
        labels, protos = refine_labels(feats, every, r=2, seed=0)
        assert labels.refined.tolist() == [OUTLIER] * 3
        assert labels.num_clusters == 0
        assert protos == []


class TestPseudoLabelSet:
    def test_labels_must_lie_below_num_clusters(self):
        for coarse_labels, refined_labels, num_clusters in (
                ([0, 1], [0, 0], 1),                 # coarse past the range
                ([0, 0], [1, 0], 1),                 # refined past the range
                ([OUTLIER, 2], [OUTLIER, 0], 2)):    # label == num_clusters
            with pytest.raises(ValueError, match="num_clusters"):
                PseudoLabelSet(np.array(coarse_labels), np.array(refined_labels),
                               num_clusters)
        labels = PseudoLabelSet(np.array([OUTLIER, 1, 0]), np.array([OUTLIER, 0, 1]), 2)
        assert labels.num_clusters == 2
        assert PseudoLabelSet(np.array([OUTLIER]), np.array([OUTLIER]), 0).num_clusters == 0

    def test_labelings_must_be_1d_and_the_same_length(self):
        for coarse_labels, refined_labels in (
                ([0, 0], [0]),          # refined too short
                ([0], [0, 0]),          # refined too long
                ([[0, 0]], [[0, 0]])):  # not 1-D
            with pytest.raises(ValueError, match="same length"):
                PseudoLabelSet(np.array(coarse_labels), np.array(refined_labels), 1)


class TestCoarseGroups:
    """One stable sort gives, per coarse label, the bytes of the per-label scan."""

    @staticmethod
    def assert_matches_scan(assignment, num_clusters):
        assignment = np.asarray(assignment, dtype=np.int64)
        labels, bounds, order = PseudoLabelSet(
            assignment, assignment.copy(), num_clusters).coarse_groups
        held = assignment[assignment != OUTLIER]
        assert labels == np.unique(held).tolist()
        assert len(bounds) == held.max(initial=OUTLIER) + 2
        for label in range(len(bounds) - 1):
            group = order[bounds[label]:bounds[label + 1]]
            want = np.flatnonzero(assignment == label)
            assert group.dtype == want.dtype
            assert group.tobytes() == want.tobytes()

    def test_random_assignments_with_outliers(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            n, num_labels = int(rng.integers(0, 300)), int(rng.integers(1, 15))
            assignment = rng.integers(0, num_labels, size=n)
            assignment[rng.random(n) < rng.random()] = OUTLIER
            self.assert_matches_scan(assignment, num_labels)

    def test_one_cluster(self):
        self.assert_matches_scan(np.zeros(7, dtype=np.int64), 1)
        self.assert_matches_scan(np.array([OUTLIER, 0, 0, OUTLIER, 0]), 1)

    def test_all_outliers(self):
        assignment = np.full(9, OUTLIER, dtype=np.int64)
        self.assert_matches_scan(assignment, 0)
        self.assert_matches_scan(assignment, 3)

    def test_skipped_label(self):
        # label 1 holds nothing; num_clusters past the largest label adds no group
        assignment = np.array([3, 0, 2, OUTLIER, 2, 0, 3, 3])
        self.assert_matches_scan(assignment, 4)
        self.assert_matches_scan(assignment, 6)


class TestRefineLabelsPipeline:
    def test_tight_distinct_clusters_keep_labels(self):
        a, b, c = np.eye(3)
        feats = np.vstack([np.tile(a, (4, 1)), np.tile(b, (4, 1)), np.tile(c, (4, 1))])
        labels, _ = refine_labels(feats, coarse([0] * 4 + [1] * 4 + [2] * 4), r=2, seed=0)
        assert np.array_equal(labels.refined, labels.coarse)
        assert labels.relabel_fraction() == 0.0

    def test_never_invents_cluster_ids(self):
        rng = np.random.default_rng(4)
        feats = l2_normalize(rng.standard_normal((30, 4)))
        assignment = rng.integers(0, 3, size=30)
        assignment[:3] = OUTLIER
        labels, _ = refine_labels(feats, coarse(assignment), r=2, seed=5)
        valid = labels.refined[labels.refined != OUTLIER]
        assert set(valid) <= set(range(labels.num_clusters))

    def test_prototype_scaling_invariance(self):
        rng = np.random.default_rng(5)
        feats = l2_normalize(rng.standard_normal((24, 4)))
        assignment = np.repeat([0, 1, 2], 8)
        labels, protos = refine_labels(feats, coarse(assignment), r=3, seed=7)
        # scaling every prototype by the same positive factor before
        # normalization cannot change the argmax
        scaled = refined_similarity(feats, protos)
        boosted = assign_refined_labels(scaled * 1.0, coarse(assignment))
        protos2 = [l2_normalize(3.7 * p) for p in protos]
        relabeled = assign_refined_labels(
            refined_similarity(feats, protos2), coarse(assignment))
        assert np.array_equal(boosted.refined, relabeled.refined)

    def test_relabel_fraction_reported(self):
        s = np.array([[0.9, 0.1], [0.1, 0.9], [0.8, 0.2], [0.2, 0.8]])
        labels = assign_refined_labels(s, coarse([0, 0, 1, 1]))
        assert labels.relabel_fraction() == pytest.approx(0.5)


def ragged_prototypes(rng, num_clusters, r, d):
    """Unit prototype sets of random sizes 1..r, one per cluster."""
    return [l2_normalize(rng.standard_normal((int(rng.integers(1, r + 1)), d)))
            for _ in range(num_clusters)]


class TestRefinedSimilarityAgainstLoopOracle:
    @pytest.mark.parametrize("num_clusters, r", [(1, 1), (1, 5), (7, 1), (12, 4), (40, 8)])
    def test_scores_and_labels_match_the_per_cluster_loop(self, num_clusters, r):
        rng = np.random.default_rng(num_clusters * 100 + r)
        for _ in range(10):
            n, d = int(rng.integers(1, 60)), int(rng.integers(1, 9))
            feats = l2_normalize(rng.standard_normal((n, d)))
            protos = ragged_prototypes(rng, num_clusters, r, d)
            want = oracles.refined_similarity(feats, protos)
            got = refined_similarity(feats, protos)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-12
            assignment = rng.integers(0, num_clusters, size=n)
            assignment[rng.random(n) < 0.2] = OUTLIER
            labels = assign_refined_labels(got, CoarseClusters(assignment, num_clusters))
            ordered = np.sort(want, axis=1)
            gap = ordered[:, -1] - ordered[:, -2] if num_clusters > 1 else np.inf
            clear = (assignment != OUTLIER) & (gap > 1e-9)
            assert np.array_equal(labels.refined[clear], np.argmax(want, axis=1)[clear])
            assert np.all(labels.refined[assignment == OUTLIER] == OUTLIER)


class TestMemory:
    def test_scoring_and_assignment_peak_near_one_score_matrix(self):
        # the (N, L) scores are the only large array: no per-cluster (N, R_l)
        # products, finiteness mask or copy of the non-outlier rows
        n, num_clusters, d = 5120, 256, 32
        rng = np.random.default_rng(22)
        feats = l2_normalize(rng.standard_normal((n, d)))
        protos = [l2_normalize(rng.standard_normal((20, d))) for _ in range(num_clusters)]
        assignment = np.repeat(np.arange(num_clusters), n // num_clusters)
        clusters = CoarseClusters(assignment, num_clusters)
        assign_refined_labels(refined_similarity(feats[:num_clusters], protos),
                              CoarseClusters(np.arange(num_clusters), num_clusters))
        tracemalloc.start()
        try:
            assign_refined_labels(refined_similarity(feats, protos), clusters)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scores = 8 * n * num_clusters
        assert peak < 1.25 * scores, f"peak {peak} bytes, one score matrix {scores} bytes"
