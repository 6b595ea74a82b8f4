"""Coarse density clustering (DBSCAN on a sparse precomputed distance matrix)
and fine centroid clustering (k-means with k-means++ seeding)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph
from .data import OUTLIER
from .graph import SparseDistances

LLOYD_MAX_ITER = 100  # Lloyd iterations per k-means call, at most


@dataclass
class CoarseClusters:
    assignment: np.ndarray  # (N,) int64, cluster id or OUTLIER
    num_clusters: int


def _label_order(assignment: np.ndarray, num_labels: int):
    """(order, bounds): the indices stably sorted by label, and per label
    0..num_labels the position in ``order`` where its indices start; label
    l's indices, ascending, are ``order[bounds[l]:bounds[l + 1]]``."""
    order = np.argsort(assignment, kind="stable")
    return order, np.searchsorted(assignment[order], np.arange(num_labels + 1))


def _pairs_within(i: np.ndarray, j: np.ndarray, within: np.ndarray, at: slice):
    """The ends of the slice ``at`` of stored pairs whose distance is within
    eps; indexing by position is faster than a mask on half-full slices."""
    keep = np.flatnonzero(within[at])
    return i[at][keep], j[at][keep]


def _lower_claims(claim: np.ndarray, core: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """Lower each non-core point of ``src`` to the lowest core it meets in
    ``dst``."""
    reach = ~core[src] & core[dst]
    np.minimum.at(claim, src[reach], dst[reach])


def _hook(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Join the components of the pairs (a, b) in ``root``, a forest of
    depth one in which no entry exceeds its own index: hook the larger root
    of each pair to the smaller, compress paths, and repeat until the two
    ends of every pair share a root. Roots only ever decrease, and each
    component ends at its lowest index, whatever the order of the pairs."""
    ra, rb = root[a], root[b]
    while not np.array_equal(ra, rb):
        # root[x] <= x, so of the two calls only the hook from the larger
        # root of each pair to the smaller changes an entry
        np.minimum.at(root, ra, rb)
        np.minimum.at(root, rb, ra)
        while not np.array_equal(root, root[root]):
            root = root[root]
        root.take(a, out=ra)
        root.take(b, out=rb)
    return root


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

    Beyond its inputs and N-sized arrays, only boolean masks over the stored
    pairs are formed whole; the degree counts, the hooking rounds and the
    border claims take the pairs a slice of ``graph._CHUNK_ENTRIES`` at a
    time. Roots only decrease and each component's lowest core is its own
    root, so neither the order of the hooks nor the slicing moves the labels,
    and the lowest claim is the same in any order.
    """
    n, values = dist.n, dist.values
    i, j = dist.pairs.T
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
    chunks = [slice(lo, lo + graph._CHUNK_ENTRIES)
              for lo in range(0, len(values), graph._CHUNK_ENTRIES)]
    degree = np.ones(n, dtype=np.int64)  # self included
    for at in chunks:
        for ends in _pairs_within(i, j, within, at):
            degree += np.bincount(ends, minlength=n)
    core = degree >= min_pts

    root, claim = np.arange(n), np.full(n, n)
    for at in chunks:
        a, b = _pairs_within(i, j, within, at)
        # a border point joins its lowest-indexed core within eps
        _lower_claims(claim, core, a, b)
        _lower_claims(claim, core, b, a)
        link = core[a] & core[b]
        a, b = a[link], b[link]
        root = _hook(root, a, b)

    cores = np.flatnonzero(core)
    heads, label = np.unique(root[cores], return_inverse=True)
    assignment[cores] = label
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


def _assign(points, centers, sq):
    """Each point's nearest center in the difference form
    ``np.sum((point - center)**2)``, the lowest index on ties; ``sq`` holds
    the points' squared norms. The centers are ranked on one Gram product,
    and only the rows with a near tie are recomputed in the difference form
    (``graph._exact_argmin``)."""
    d2, reach = graph._gram(points, centers, sq, (centers * centers).sum(axis=1))
    return graph._exact_argmin(d2, reach, points, centers)


def _lloyd(points, centers, max_iter):
    """Lloyd iterations on ``centers``, updated in place and returned."""
    r = len(centers)
    sq = np.sum(points * points, axis=1)
    assignment = np.full(len(points), -1, dtype=np.int64)
    for _ in range(max_iter):
        new_assignment = _assign(points, centers, sq)
        if np.array_equal(new_assignment, assignment):
            break  # the centers were fit to this assignment
        assignment = new_assignment
        sizes = np.bincount(assignment, minlength=r)
        if not sizes.all():
            # an empty center is reseeded at the point farthest from its
            # center, measured before any center of this iteration moves
            far = points[int(np.argmax(np.sum((points - centers[assignment]) ** 2, axis=1)))]
        for c in range(r):
            centers[c] = points[assignment == c].mean(axis=0) if sizes[c] else far
    return centers


def kmeans(points: np.ndarray, r: int, seed) -> np.ndarray:
    """The (r, d) centers of Lloyd iterations from one k-means++ start;
    deterministic given ``seed``."""
    points = np.asarray(points, dtype=np.float64)
    m = len(points)
    if not 1 <= r <= m:
        raise ValueError(f"cluster count must be in [1, {m}], got {r}")
    centers = _kmeans_pp_init(points, r, np.random.default_rng(seed))
    return _lloyd(points, centers, LLOYD_MAX_ITER)
