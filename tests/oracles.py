"""Dense reference implementations of the off-line labeling chain.

These are the N x N versions the library used before it went k-NN-sparse.
They stay here, unchanged, as oracles: the sparse chain must reproduce their
numbers bit for bit (same eps, same labels, same pair counts).
"""

import numpy as np

from reidapt.data import OUTLIER
from reidapt.graph import SparseDistances


def pairwise_euclidean(features):
    """Full N x N Euclidean distance matrix with an exactly zero diagonal."""
    f = np.asarray(features, dtype=np.float64)
    sq = np.sum(f * f, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (f @ f.T)
    np.maximum(d2, 0.0, out=d2)
    dist = np.sqrt(d2)
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    return dist


def reciprocal_sets(dist, k_rr):
    """Mutual k-nearest-neighbor sets under ``dist``; i is a member of sets[i].

    kNN(i) is i itself plus its k_rr nearest other samples (distance ties
    break to the lower index); j belongs to sets[i] iff each is in the
    other's kNN list.
    """
    n = len(dist)
    if not 1 <= k_rr < n:
        raise ValueError(f"k_rr must be in [1, {n - 1}], got {k_rr}")
    knn = np.zeros((n, n), dtype=bool)
    for i in range(n):
        row = dist[i].copy()
        row[i] = np.inf
        order = np.argsort(row, kind="stable")[:k_rr]
        knn[i, order] = True
        knn[i, i] = True
    mutual = knn & knn.T
    return [np.flatnonzero(mutual[i]) for i in range(n)]


def similarity_encoding(dist, sets):
    """exp(-dist) over each sample's reciprocal set, zero elsewhere."""
    n = len(dist)
    d_s = np.zeros((n, n))
    for i, members in enumerate(sets):
        d_s[i, members] = np.exp(-dist[i, members])
    return d_s


def jaccard_distance(d_s):
    """1 - min-sum / max-sum of similarity row pairs, through an inverted
    column index; max-sum is rowsum_i + rowsum_j - min-sum."""
    d_s = np.asarray(d_s, dtype=np.float64)
    if np.any(d_s < 0):
        raise ValueError("similarity matrix must be nonnegative")
    n = len(d_s)
    rowsum = d_s.sum(axis=1)
    nonzero_cols = [np.flatnonzero(d_s[:, k]) for k in range(n)]

    min_sum = np.zeros((n, n))
    for i in range(n):
        acc = min_sum[i]
        for k in np.flatnonzero(d_s[i]):
            rows = nonzero_cols[k]
            acc[rows] += np.minimum(d_s[i, k], d_s[rows, k])
    max_sum = rowsum[:, None] + rowsum[None, :] - min_sum

    d_j = np.ones((n, n))
    ok = max_sum > 0
    d_j[ok] = 1.0 - min_sum[ok] / max_sum[ok]
    np.clip(d_j, 0.0, 1.0, out=d_j)
    np.fill_diagonal(d_j, 0.0)
    return d_j


def dense_chain(features, k_rr):
    """features -> (dist, reciprocal sets, d_S, d_J), all dense."""
    dist = pairwise_euclidean(features)
    sets = reciprocal_sets(dist, k_rr)
    d_s = similarity_encoding(dist, sets)
    return dist, sets, d_s, jaccard_distance(d_s)


def dense_eps(d_j, q):
    """The eps rule over a dense Jaccard matrix: the q-th percentile of its
    off-diagonal entries."""
    return float(np.percentile(d_j[~np.eye(len(d_j), dtype=bool)], q))


def dbscan(d_j, eps, min_pts):
    """Flood-fill DBSCAN over a dense symmetric distance matrix.

    Returns (assignment, num_clusters). Border points join the
    lowest-indexed core that reaches them.
    """
    n = len(d_j)
    within = d_j <= eps
    core = within.sum(axis=1) >= min_pts
    assignment = np.full(n, OUTLIER, dtype=np.int64)
    next_label = 0
    for start in range(n):
        if not core[start] or assignment[start] != OUTLIER:
            continue
        stack = [start]
        assignment[start] = next_label
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(within[u] & core):
                if assignment[v] == OUTLIER:
                    assignment[v] = next_label
                    stack.append(v)
        next_label += 1
    core_indices = np.flatnonzero(core)
    for i in range(n):
        if core[i] or assignment[i] != OUTLIER:
            continue
        reachable = core_indices[within[i, core_indices]]
        if len(reachable):
            assignment[i] = assignment[reachable[0]]
    return assignment, next_label


def pair_counts(pseudo, truth):
    """(tp, fp, fn) pair counts through N x N masks over the non-outliers."""
    keep = pseudo != OUTLIER
    p = pseudo[keep]
    t = truth[keep]
    same_pseudo = p[:, None] == p[None, :]
    same_truth = t[:, None] == t[None, :]
    upper = np.triu(np.ones((len(p), len(p)), dtype=bool), k=1)
    tp = int(np.sum(same_pseudo & same_truth & upper))
    fp = int(np.sum(same_pseudo & ~same_truth & upper))
    fn = int(np.sum(~same_pseudo & same_truth & upper))
    return tp, fp, fn


# ------------------------------------------------------------------ converters

def to_sparse(dist, fill=np.inf):
    """Dense distance matrix -> SparseDistances storing every off-diagonal
    pair i < j. A lower-triangle entry that differs from its mirror is kept
    as an (i, j) pair with i > j, which ``dbscan`` must reject."""
    dist = np.asarray(dist, dtype=np.float64)
    i, j = np.nonzero(np.triu(np.ones(dist.shape, dtype=bool), k=1))
    lo_i, lo_j = np.nonzero(np.tril(dist != dist.T, k=-1))
    rows = np.concatenate([i, lo_i])
    cols = np.concatenate([j, lo_j])
    return SparseDistances(n=len(dist), pairs=np.stack([rows, cols], axis=1),
                           values=dist[rows, cols], fill=fill)


def to_dense(sparse):
    """SparseDistances -> dense symmetric matrix with a zero diagonal."""
    out = np.full((sparse.n, sparse.n), sparse.fill)
    i, j = sparse.pairs.T
    out[i, j] = sparse.values
    out[j, i] = sparse.values
    np.fill_diagonal(out, 0.0)
    return out


def csr_to_dense(indptr, indices, values, n):
    """CSR rows -> dense N x N matrix, zero elsewhere."""
    out = np.zeros((n, n))
    rows = np.repeat(np.arange(n), np.diff(indptr))
    out[rows, indices] = values
    return out
