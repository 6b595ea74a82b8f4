"""Coarse density clustering (DBSCAN on a sparse precomputed distance matrix)
and fine centroid clustering (k-means with k-means++ seeding)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import OUTLIER
from .graph import SparseDistances

LLOYD_MAX_ITER = 100  # Lloyd iterations per k-means call, at most


@dataclass
class CoarseClusters:
    assignment: np.ndarray  # (N,) int64, cluster id or OUTLIER
    num_clusters: int


@dataclass
class KMeansResult:
    centers: np.ndarray          # (R, d)
    assignment: np.ndarray       # (M,) int64
    inertia: float
    inertia_history: list[float]


def group_members(assignment: np.ndarray, num_labels: int) -> list[np.ndarray]:
    """Per label 0..num_labels-1, the indices that hold it, ascending: the
    bytes of ``np.flatnonzero(assignment == label)`` from one stable sort
    instead of one scan per label. A label nothing holds gets an empty array;
    OUTLIER and labels past the range are left out."""
    order = np.argsort(assignment, kind="stable")
    bounds = np.searchsorted(assignment[order], np.arange(num_labels + 1))
    return [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def dbscan(dist: SparseDistances, eps: float, min_pts: int) -> CoarseClusters:
    """Density clustering over a sparse symmetric distance matrix.

    Core points have at least ``min_pts`` neighbors within ``eps`` (self
    included). Clusters are the connected components of the core-core
    eps-graph, numbered by their lowest core index; border points join the
    lowest-indexed core that reaches them, which makes the labeling
    independent of input permutation up to that tie rule. Everything else is
    an outlier.

    Absent pairs are at ``dist.fill``, the largest distance: below it only
    stored pairs can lie within eps, and at or above it every pair does.
    """
    n = dist.n
    i, j = np.asarray(dist.pairs, dtype=np.int64).reshape(-1, 2).T
    values = np.asarray(dist.values, dtype=np.float64)
    key = i * n + j
    if (len(values) != len(i) or np.any(i < 0) or np.any(i >= j) or np.any(j >= n)
            or np.any(np.diff(key) <= 0)):
        raise ValueError("pairs must list each (i, j) with 0 <= i < j < n once, "
                         "in row-major order, with one value each")
    if np.any(values < 0) or np.any(values > dist.fill):
        raise ValueError("distances must lie in [0, fill]")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")

    assignment = np.full(n, OUTLIER, dtype=np.int64)
    if eps >= dist.fill:  # every pair lies within eps
        if n >= min_pts:
            assignment[:] = 0
        return CoarseClusters(assignment=assignment, num_clusters=int(n >= min_pts))

    within = values <= eps
    i, j = i[within], j[within]
    src, dst = np.concatenate([i, j]), np.concatenate([j, i])  # both directions
    core = 1 + np.bincount(src, minlength=n) >= min_pts

    # components of the core-core edges: hook each root to the smallest
    # neighboring root, then compress paths, until every edge is inside one
    link = core[i] & core[j]
    a, b = i[link], j[link]
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            break
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(root, root[root]):
            root = root[root]
    cores = np.flatnonzero(core)
    heads, label = np.unique(root[cores], return_inverse=True)
    assignment[cores] = label

    # a border point joins its lowest-indexed core within eps
    reach = ~core[src] & core[dst]
    claim = np.full(n, n)
    np.minimum.at(claim, src[reach], dst[reach])
    claimed = np.flatnonzero(claim < n)
    assignment[claimed] = assignment[claim[claimed]]
    return CoarseClusters(assignment=assignment, num_clusters=len(heads))


def _kmeans_pp_init(points, r, rng):
    """k-means++ seeding: each next center drawn with probability proportional
    to squared distance from the chosen set."""
    m = len(points)
    centers = np.empty((r, points.shape[1]))
    first = int(rng.integers(m))
    centers[0] = points[first]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, r):
        total = d2.sum()
        if total == 0.0:
            centers[c] = points[int(rng.integers(m))]
            continue
        probs = d2 / total
        pick = int(rng.choice(m, p=probs))
        centers[c] = points[pick]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _assign(points, centers):
    """Each point's nearest center, the lowest index on ties, and its squared
    distance ``np.sum((point - center)**2)``: the difference form, filled in
    one center at a time, so no (m, r, d) tensor is formed."""
    d2 = np.empty((len(points), len(centers)))
    for c, center in enumerate(centers):
        d2[:, c] = np.sum((points - center) ** 2, axis=1)
    assignment = np.argmin(d2, axis=1)
    return assignment, d2[np.arange(len(points)), assignment]


def _lloyd(points, centers, max_iter):
    r = len(centers)
    assignment = np.full(len(points), -1, dtype=np.int64)
    history = []
    for _ in range(max_iter):
        new_assignment, best = _assign(points, centers)
        history.append(float(best.sum()))
        if np.array_equal(new_assignment, assignment):
            # the centers were fit to this assignment: assigning again repeats it
            return centers, new_assignment, history[-1], history
        assignment = new_assignment
        for c in range(r):
            mask = assignment == c
            if mask.any():
                centers[c] = points[mask].mean(axis=0)
            else:
                # reseed an empty center at the point farthest from its center
                centers[c] = points[int(np.argmax(best))]
    assignment, best = _assign(points, centers)
    return centers, assignment, float(best.sum()), history


def kmeans(points: np.ndarray, r: int, seed) -> KMeansResult:
    """Lloyd iterations from one k-means++ start; deterministic given ``seed``."""
    points = np.asarray(points, dtype=np.float64)
    m = len(points)
    if not 1 <= r <= m:
        raise ValueError(f"cluster count must be in [1, {m}], got {r}")
    centers = _kmeans_pp_init(points, r, np.random.default_rng(seed))
    return KMeansResult(*_lloyd(points, centers, LLOYD_MAX_ITER))
