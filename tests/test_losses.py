import tracemalloc

import numpy as np
import oracles
import pytest
from helpers import central_diff, rel_error

from reidapt.losses import batch_hard_triplet, cross_entropy
from reidapt.trainer import TrainConfig


def softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def brute_force_triplet(features, labels, margin):
    """All-pairs hardest mining, one anchor at a time."""
    n = len(features)
    losses = []
    for i in range(n):
        pos = [np.linalg.norm(features[i] - features[j])
               for j in range(n) if j != i and labels[j] == labels[i]]
        neg = [np.linalg.norm(features[i] - features[j])
               for j in range(n) if labels[j] != labels[i]]
        if not pos or not neg:
            continue
        losses.append(max(0.0, margin + max(pos) - min(neg)))
    return sum(losses) / len(losses)


class TestCrossEntropy:
    def test_uniform_gives_log_l(self):
        probs = np.full((4, 5), 0.2)
        loss, _ = cross_entropy(probs, np.array([0, 1, 2, 3]))
        assert loss == pytest.approx(np.log(5.0), abs=1e-12)

    def test_confident_gives_zero(self):
        probs = np.array([[1.0 - 1e-12, 1e-12]])
        loss, _ = cross_entropy(probs, np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        _, grad = cross_entropy(softmax(logits), labels)
        num = central_diff(lambda z: cross_entropy(softmax(z), labels)[0], logits)
        assert rel_error(grad, num) <= 1e-6

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        probs = softmax(rng.standard_normal((5, 3)))
        _, grad = cross_entropy(probs, rng.integers(0, 3, size=5))
        assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.full((2, 3), 1 / 3), np.array([0, 3]))


class TestBatchHardTriplet:
    def test_satisfied_margin_zero_loss(self):
        group_a = np.array([[0.0, 0.0], [0.1, 0.0]])
        group_b = group_a + np.array([50.0, 0.0])
        feats = np.vstack([group_a, group_b])
        loss, grad = batch_hard_triplet(feats, np.array([0, 0, 1, 1]), margin=0.3)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_colocated_gives_margin(self):
        feats = np.zeros((4, 3))
        loss, grad = batch_hard_triplet(feats, np.array([0, 0, 1, 1]), margin=0.3)
        assert loss == pytest.approx(0.3, abs=1e-15)
        assert np.all(grad == 0.0)  # zero-distance subgradients are zero

    def test_matches_brute_force_and_finite_differences(self):
        rng = np.random.default_rng(2)
        for trial in range(8):
            feats = rng.standard_normal((8, 3))
            labels = np.repeat([0, 1, 2, 3], 2)
            loss, grad = batch_hard_triplet(feats, labels, margin=0.3)
            assert loss == pytest.approx(brute_force_triplet(feats, labels, 0.3), abs=1e-12)
            num = central_diff(lambda f: batch_hard_triplet(f, labels, 0.3)[0], feats)
            assert rel_error(grad, num) <= 1e-5

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((6, 4))
        labels = np.array([0, 0, 1, 1, 2, 2])
        loss_a, grad_a = batch_hard_triplet(feats, labels, 0.3)
        shift = feats + rng.standard_normal(4)
        loss_b, grad_b = batch_hard_triplet(shift, labels, 0.3)
        assert loss_a == pytest.approx(loss_b, abs=1e-9)
        assert np.allclose(grad_a, grad_b, atol=1e-9)

    def test_anchor_without_positive_skipped(self):
        feats = np.array([[0.0, 0.0], [0.1, 0.0], [3.0, 0.0]])
        # label 1 is a singleton: its anchor is skipped, others still count
        loss, _ = batch_hard_triplet(feats, np.array([0, 0, 1]), margin=0.3)
        want = brute_force_triplet(feats, np.array([0, 0, 1]), 0.3)
        assert loss == pytest.approx(want, abs=1e-12)

    def test_single_label_batch_scores_zero(self):
        # no anchor has a negative: the loss and its gradient are zero
        loss, grad = batch_hard_triplet(np.ones((4, 2)), np.zeros(4, dtype=int), 0.3)
        assert loss == 0.0
        assert grad.tobytes() == np.zeros((4, 2)).tobytes()

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            batch_hard_triplet(np.zeros((4, 2)), np.array([0, 0, 1, 1]), -0.1)


def assert_same_triplet(feats, labels, margin):
    loss, grad = batch_hard_triplet(feats, labels, margin)
    want_loss, want_grad = oracles.batch_hard_triplet(feats, labels, margin)
    assert loss == want_loss
    assert grad.tobytes() == want_grad.tobytes()


class TestBatchHardTripletAgainstLoop:
    """The loop-free triplet reproduces the per-anchor loop bit for bit."""

    def test_random_pk_batches(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            p, k, d = (int(v) for v in rng.integers([2, 2, 1], [17, 5, 33]))
            feats = rng.standard_normal((p * k, d))
            labels = np.repeat(rng.permutation(p), k)
            assert_same_triplet(feats, labels, float(rng.choice([0.0, 0.3, 3.0])))

    def test_duplicate_and_coincident_features(self):
        # equal distances force ties for the hardest pair; coincident points
        # sit at distance 0 and contribute no gradient
        rng = np.random.default_rng(21)
        for _ in range(200):
            b = int(rng.integers(4, 40))
            pool = np.round(rng.standard_normal((int(rng.integers(1, 6)), 3)), 1)
            feats = pool[rng.integers(0, len(pool), size=b)]
            labels = rng.integers(0, int(rng.integers(2, 6)), size=b)
            if len(np.unique(labels)) < 2 or np.all(np.bincount(labels) < 2):
                continue
            assert_same_triplet(feats, labels, 0.3)

    def test_cancellation_regime(self):
        # points far from the origin and close together: the Gram form loses
        # most of its digits, so the pair choice rests on the exact recompute
        rng = np.random.default_rng(23)
        for trial in range(300):
            p, k, d = (int(v) for v in rng.integers([2, 2, 1], [9, 5, 33]))
            offset = 10.0 ** rng.uniform(0, 6) * rng.standard_normal(d)
            spread = 10.0 ** rng.uniform(-8, 0)
            if trial % 2:  # integer-grid offsets from the center force ties
                feats = offset + spread * rng.integers(-2, 3, size=(p * k, d))
            else:
                feats = offset + spread * rng.standard_normal((p * k, d))
            labels = np.repeat(rng.permutation(p), k)
            assert_same_triplet(feats, labels, float(rng.choice([0.0, 0.3 * spread])))

    def test_anchors_without_positive_or_negative(self):
        rng = np.random.default_rng(22)
        # singletons have no positive; with one big label most anchors have
        # a negative only through the singletons
        labels = np.array([0, 0, 0, 0, 0, 0, 1, 2, 3])
        for _ in range(50):
            assert_same_triplet(rng.standard_normal((9, 4)), labels, 0.3)
        labels = np.array([5, 1, 1, 7, 2, 2, 2, 9])
        for _ in range(50):
            assert_same_triplet(rng.standard_normal((8, 2)), labels, 1.0)

    def test_no_anchor_qualifies_rejected_like_the_loop(self):
        # the loop rejects such a batch; the library scores it like the
        # zero contribution the all-branch step gives it
        for labels in (np.zeros(4, dtype=int), np.arange(4)):
            with pytest.raises(ValueError):
                oracles.batch_hard_triplet(np.eye(4), labels, 0.3)
            loss, grad = batch_hard_triplet(np.eye(4), labels, 0.3)
            want_loss, want_grad = oracles._triplet_or_zero(np.eye(4), labels, 0.3)
            assert loss == want_loss and type(loss) is type(want_loss)
            assert grad.dtype == want_grad.dtype
            assert grad.tobytes() == want_grad.tobytes()


class TestMemory:
    def test_no_pairwise_difference_tensor(self):
        rng = np.random.default_rng(24)
        feats = rng.standard_normal((64, 32))
        labels = np.repeat(np.arange(16), 4)
        batch_hard_triplet(feats, labels, 0.3)  # warm up the imports
        tracemalloc.start()
        try:
            batch_hard_triplet(feats, labels, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 64 * 32 * 8, f"peak {peak} bytes, one (B, B, d) tensor"


class TestBlendAndTotal:
    def test_alpha_out_of_range(self):
        # the blend weight lives in the config the joint step reads
        for alpha in (1.3, -0.1):
            with pytest.raises(ValueError):
                TrainConfig(alpha=alpha)
        TrainConfig(alpha=0.0)
        TrainConfig(alpha=1.0)

    def test_gradient_additivity(self):
        # joint gradient w.r.t. features is the weighted sum of parts
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((8, 3))
        labels_a = np.repeat([0, 1, 2, 3], 2)
        labels_b = labels_a[::-1].copy()
        _, g_noisy = batch_hard_triplet(feats, labels_a, 0.3)
        _, g_refined = batch_hard_triplet(feats, labels_b, 0.3)
        alpha = 0.5
        combined = (1 - alpha) * g_noisy + alpha * g_refined

        def joint(f):
            ln, _ = batch_hard_triplet(f, labels_a, 0.3)
            lr_, _ = batch_hard_triplet(f, labels_b, 0.3)
            return (1 - alpha) * ln + alpha * lr_

        num = central_diff(joint, feats)
        assert rel_error(combined, num) <= 1e-5
