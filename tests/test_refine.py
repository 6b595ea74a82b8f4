import numpy as np
import pytest

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
        feats = rng.standard_normal((8, 4))
        protos = select_prototypes(feats, coarse([0] * 8), r=1, seed=3)
        want = l2_normalize(l2_normalize(feats).mean(axis=0)[None, :])
        assert np.allclose(protos[0], want, atol=1e-12)

    def test_matches_per_cluster_kmeans(self):
        rng = np.random.default_rng(1)
        feats = np.vstack([rng.standard_normal((6, 3)) + 5.0,
                           rng.standard_normal((6, 3)) - 5.0])
        assignment = [0] * 6 + [1] * 6
        protos = select_prototypes(feats, coarse(assignment), r=2, seed=9)
        normalized = l2_normalize(feats)
        for label, members in ((0, slice(0, 6)), (1, slice(6, 12))):
            direct = kmeans(normalized[members], 2, seed=(9, label))
            assert np.allclose(protos[label],
                               l2_normalize(direct.centers), atol=1e-12)

    def test_unit_norm_prototypes(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((20, 5)) * 3.0
        protos = select_prototypes(feats, coarse([0] * 10 + [1] * 10), r=3, seed=1)
        for cents in protos:
            assert np.allclose(np.linalg.norm(cents, axis=1), 1.0, atol=1e-6)

    def test_outliers_ignored(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((5, 3))
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
        protos = select_prototypes(np.array([[1.0, 1.0], [0.0, 2.0]]),
                                   coarse([0, 1]), r=1, seed=0)
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


class TestRefineLabelsPipeline:
    def test_tight_distinct_clusters_keep_labels(self):
        a, b, c = np.eye(3)
        feats = np.vstack([np.tile(a, (4, 1)), np.tile(b, (4, 1)), np.tile(c, (4, 1))])
        labels, _ = refine_labels(feats, coarse([0] * 4 + [1] * 4 + [2] * 4), r=2, seed=0)
        assert np.array_equal(labels.refined, labels.coarse)
        assert labels.relabel_fraction() == 0.0

    def test_never_invents_cluster_ids(self):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((30, 4))
        assignment = rng.integers(0, 3, size=30)
        assignment[:3] = OUTLIER
        labels, _ = refine_labels(feats, coarse(assignment), r=2, seed=5)
        valid = labels.refined[labels.refined != OUTLIER]
        assert set(valid) <= set(range(labels.num_clusters))

    def test_prototype_scaling_invariance(self):
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((24, 4))
        assignment = np.repeat([0, 1, 2], 8)
        labels, protos = refine_labels(feats, coarse(assignment), r=3, seed=7)
        # scaling every prototype by the same positive factor before
        # normalization cannot change the argmax
        scaled = refined_similarity(l2_normalize(feats), protos)
        boosted = assign_refined_labels(scaled * 1.0, coarse(assignment))
        protos2 = [l2_normalize(3.7 * p) for p in protos]
        relabeled = assign_refined_labels(
            refined_similarity(l2_normalize(feats), protos2), coarse(assignment))
        assert np.array_equal(boosted.refined, relabeled.refined)

    def test_relabel_fraction_reported(self):
        s = np.array([[0.9, 0.1], [0.1, 0.9], [0.8, 0.2], [0.2, 0.8]])
        labels = assign_refined_labels(s, coarse([0, 0, 1, 1]))
        assert labels.relabel_fraction() == pytest.approx(0.5)
