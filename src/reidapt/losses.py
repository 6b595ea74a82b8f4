"""Supervised metric losses with analytic gradients.

Cross-entropy over softmax probabilities and batch-hard triplet with hinge
margin, plus the per-iteration report of the joint objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph


@dataclass
class LossReport:
    """Per-iteration loss breakdown: ``cls`` and ``tri`` are the alpha blends
    of the coarse- and refined-label terms, and ``total`` adds mu times
    ``spread``. ``spread`` reads None at mu = 0, where it is not computed.
    """

    cls: float
    tri: float
    spread: float | None
    total: float


def cross_entropy(probs: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood; gradient is returned w.r.t. the logits."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    b, num_classes = probs.shape
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ValueError("label out of range")
    picked = probs[np.arange(b), labels]
    with np.errstate(divide="ignore"):  # a zero probability scores inf
        loss = float(-np.mean(np.log(picked)))
    grad_logits = probs.copy()
    grad_logits[np.arange(b), labels] -= 1.0
    return loss, grad_logits / b


def batch_hard_triplet(features: np.ndarray, labels: np.ndarray, margin: float):
    """Hinge on the hardest positive/negative per anchor.

    Anchors lacking an in-batch positive or negative are skipped; a batch
    where no anchor qualifies scores 0 with a zero gradient. The hinge
    subgradient at zero activation is zero, as is the distance gradient for
    coincident pairs; hardest-pair ties go to the lowest index.

    The farthest positives (on negated keys) and the nearest negatives are
    picked by one ``graph._exact_argmin`` call: the pairs the difference form
    over every pair picks. Each chosen pair's difference is taken once, for
    its distance and its gradient. The violations are summed one anchor
    after another, and each gradient row receives its terms in anchor order,
    so the loss and the gradient equal those of a per-anchor loop bit for bit.
    """
    f = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if margin < 0:
        raise ValueError("margin must be >= 0")
    b, d = f.shape
    same = labels[:, None] == labels
    members = np.count_nonzero(same, axis=1)  # rows sharing the anchor's label, itself included
    active = (members > 1) & (members < b)
    active_anchors = int(np.count_nonzero(active))
    if active_anchors == 0:
        return 0.0, np.zeros_like(f)

    sq = (f * f).sum(axis=1)
    d2, reach = graph._gram(f, f, sq, sq)
    keys = np.full((2 * b, b), np.inf)
    np.negative(d2, out=keys[:b], where=same)
    np.fill_diagonal(keys, np.inf)  # an anchor is not its own positive
    np.copyto(keys[b:], d2, where=~same)
    picks = graph._exact_argmin(keys, np.concatenate([reach, reach]), f, f,
                                (-1.0, 1.0), rooted=True)
    diff = f - f[picks].reshape(2, b, d)  # anchor minus its hardest positive, negative
    dist = np.sqrt((diff ** 2).sum(axis=2))
    violation = margin + dist[0] - dist[1]
    hit = active & (violation > 0)
    # sequential (not pairwise) summation, in anchor order
    total = float(np.cumsum(violation[hit])[-1]) if hit.any() else 0.0
    loss = total / active_anchors

    # unit directions, zero where the anchor adds no term or the pair
    # coincides; a zero term leaves a bincount sum's bits as they are
    unit = np.divide(diff, dist[:, :, None], out=np.zeros_like(diff),
                     where=((dist > 0) & hit)[:, :, None])
    # rows (i, p, i, n) per anchor i; bincount adds each row's terms in anchor order, from 0.0
    anchors = np.arange(b)
    targets = np.stack([anchors, picks[:b], anchors, picks[b:]], axis=1)
    terms = np.stack([unit[0], -unit[0], -unit[1], unit[1]], axis=1)
    grad = np.bincount((targets[:, :, None] * d + np.arange(d)).ravel(),
                       weights=terms.ravel(), minlength=b * d).reshape(b, d)
    return loss, grad / active_anchors
