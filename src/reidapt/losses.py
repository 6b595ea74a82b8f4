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

    The hardest pairs are screened on the Gram form of the distances and
    the few candidates are recomputed in the difference form, which picks
    the same pairs at the same distances as the difference form over every
    pair. The violations are summed one anchor after another, and each
    gradient row receives its terms in anchor order, so the loss and the
    gradient equal those of a per-anchor loop bit for bit.
    """
    f = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if margin < 0:
        raise ValueError("margin must be >= 0")
    b = len(f)
    same = labels[:, None] == labels[None, :]
    pos_mask = same & ~np.eye(b, dtype=bool)
    neg_mask = ~same
    active = pos_mask.any(axis=1) & neg_mask.any(axis=1)
    active_anchors = int(np.count_nonzero(active))
    if active_anchors == 0:
        return 0.0, np.zeros_like(f)

    pos_near, neg_near = graph._screen_extremes(f, f, [(pos_mask, True), (neg_mask, False)])
    hardest_pos, d_pos = _hardest(f, pos_near, True)
    hardest_neg, d_neg = _hardest(f, neg_near, False)
    anchors = np.arange(b)
    violation = margin + d_pos - d_neg
    hit = active & (violation > 0)
    i, p, n = anchors[hit], hardest_pos[hit], hardest_neg[hit]
    # sequential (not pairwise) summation, in anchor order
    total = float(np.cumsum(violation[hit])[-1]) if len(i) else 0.0
    loss = total / active_anchors

    # unit directions; a coincident pair contributes nothing
    d_p, d_n = d_pos[hit, None], d_neg[hit, None]
    u = np.divide(f[i] - f[p], d_p, out=np.zeros((len(i), f.shape[1])), where=d_p > 0)
    w = np.divide(f[i] - f[n], d_n, out=np.zeros((len(i), f.shape[1])), where=d_n > 0)
    # rows (i, p, i, n) per contribution; bincount adds each entry's terms in
    # anchor order, from 0.0
    d = f.shape[1]
    targets = np.stack([i, p, i, n], axis=1).ravel()
    terms = np.stack([u, -u, -w, w], axis=1)
    grad = np.bincount((targets[:, None] * d + np.arange(d)).ravel(),
                       weights=terms.ravel(), minlength=b * d).reshape(b, d)
    return loss, grad / active_anchors


def _hardest(f, candidates, largest):
    """Per row, the candidate column at the largest (smallest) distance
    sqrt(sum((f_i - f_j)**2)), the lowest index on ties, and that distance;
    a row without candidates gets column 0 at -inf (inf)."""
    rows, cols = np.nonzero(candidates)
    dist = np.full(candidates.shape, -np.inf if largest else np.inf)
    dist[rows, cols] = np.sqrt(np.maximum(np.sum((f[rows] - f[cols]) ** 2, axis=1), 0.0))
    pick = np.argmax(dist, axis=1) if largest else np.argmin(dist, axis=1)
    return pick, dist[np.arange(len(f)), pick]
