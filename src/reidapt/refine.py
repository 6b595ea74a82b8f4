"""Pseudo-label refinement: per-cluster prototype selection and reassignment
by average prototype similarity.

A sample's score against coarse cluster l is its mean dot product with l's
R_l prototypes. The dot product is linear, so that mean equals one dot
product with the prototypes' mean:
(1/R_l) sum_r <f, p_r> = <f, (1/R_l) sum_r p_r>. Scoring is therefore one
(N, d) x (d, L) product against the L stacked prototype means.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cluster import CoarseClusters, _label_order, kmeans
from .data import OUTLIER, l2_normalize


@dataclass
class PseudoLabelSet:
    coarse: np.ndarray   # (N,) int64, DBSCAN label or OUTLIER
    refined: np.ndarray  # (N,) int64, prototype-similarity label or OUTLIER
    num_clusters: int

    def __post_init__(self):
        if self.coarse.ndim != 1 or self.coarse.shape != self.refined.shape:
            raise ValueError(f"coarse {self.coarse.shape} and refined "
                             f"{self.refined.shape} must be 1-D and the same length")
        if not np.array_equal(self.coarse == OUTLIER, self.refined == OUTLIER):
            raise ValueError("refined must be OUTLIER exactly where coarse is")
        top = max(self.coarse.max(initial=OUTLIER), self.refined.max(initial=OUTLIER))
        if top >= self.num_clusters:
            raise ValueError(f"labels must lie below num_clusters={self.num_clusters}")

    @cached_property
    def coarse_groups(self) -> tuple[list[int], list[int], np.ndarray]:
        """(labels, bounds, order): the coarse labels some sample holds,
        ascending, and the sample indices sorted stably by coarse label;
        label l's samples are ``order[bounds[l]:bounds[l + 1]]``, ascending,
        for l from 0 to the largest. Computed once per label set; the labels
        must not be changed afterwards."""
        order, bounds = _label_order(self.coarse, int(self.coarse.max(initial=OUTLIER)) + 1)
        bounds = bounds.tolist()
        labels = [label for label, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo]
        return labels, bounds, order

    def relabel_fraction(self) -> float:
        """Fraction of non-outlier samples whose refined label moved."""
        keep = np.flatnonzero(self.coarse != OUTLIER)
        if len(keep) == 0:
            return 0.0
        return float(np.mean(self.coarse[keep] != self.refined[keep]))


def select_prototypes(features: np.ndarray, coarse: CoarseClusters, r: int,
                      seed) -> list[np.ndarray]:
    """Fine k-means inside every coarse cluster; centers become prototypes.

    ``features`` are unit rows, as ``trainer.extract_features`` returns
    them. Entry l holds cluster l's (R_l, d) prototypes, R_l = min(r,
    cluster size), each L2-normalized after averaging. The members of every
    cluster come from one stable sort by label.
    """
    if r < 1:
        raise ValueError("prototype count must be >= 1")
    seed = (seed,) if np.isscalar(seed) else tuple(seed)
    order, bounds = _label_order(coarse.assignment, coarse.num_clusters)
    bounds = bounds.tolist()
    prototypes = []
    for label, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        centers = kmeans(features[order[lo:hi]], min(r, hi - lo), seed=seed + (label,))
        prototypes.append(l2_normalize(centers))
    return prototypes


def refined_similarity(features: np.ndarray, prototypes: list[np.ndarray]) -> np.ndarray:
    """Score matrix s[i, l]: mean dot product of sample i against cluster l's
    prototypes, which by linearity is its dot product with their mean, so
    one product with the (L, d) stack of means. Features must be
    L2-normalized."""
    features = np.asarray(features, dtype=np.float64)
    # reshape keeps the (0, d) shape when there are no clusters
    means = np.array([cents.mean(axis=0) for cents in prototypes]).reshape(
        len(prototypes), features.shape[1])
    return features @ means.T


def assign_refined_labels(scores: np.ndarray, coarse: CoarseClusters) -> PseudoLabelSet:
    """argmax over refined scores, one row per sample and one column per
    coarse cluster, for non-outliers; ties go to the lowest cluster index
    and outliers stay outliers. With no clusters every sample is an
    outlier."""
    if len(scores) != len(coarse.assignment):
        raise ValueError(f"scores have {len(scores)} rows for "
                         f"{len(coarse.assignment)} samples")
    if scores.shape[1] != coarse.num_clusters:
        raise ValueError(f"scores have {scores.shape[1]} columns for "
                         f"{coarse.num_clusters} clusters")
    if scores.size == 0:
        refined = np.full(len(scores), OUTLIER, dtype=np.int64)
    else:
        # min and max are NaN or infinite iff some entry is, with no (N, L) mask
        if not (np.isfinite(scores.min()) and np.isfinite(scores.max())):
            raise ValueError("scores must be finite")
        refined = np.where(coarse.assignment == OUTLIER, OUTLIER,
                           np.argmax(scores, axis=1))
    return PseudoLabelSet(coarse=coarse.assignment.copy(), refined=refined,
                          num_clusters=coarse.num_clusters)


def refine_labels(features: np.ndarray, coarse: CoarseClusters, r: int,
                  seed) -> tuple[PseudoLabelSet, list[np.ndarray]]:
    """Full refinement pass over unit-row ``features``."""
    prototypes = select_prototypes(features, coarse, r, seed)
    scores = refined_similarity(features, prototypes)
    return assign_refined_labels(scores, coarse), prototypes
