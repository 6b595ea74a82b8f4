"""Feature-space unsupervised domain adaptation for identity retrieval.

The library trains a small encoder on a labeled source domain, then adapts
it to an unlabeled target domain by alternating off-line pseudo-label
generation (k-reciprocal Jaccard distances, DBSCAN, per-cluster prototype
refinement) with on-line metric learning regularized by a gradient-updated
instant memory bank.
"""

__version__ = "0.1.0"
