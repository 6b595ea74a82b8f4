"""k-nearest neighbors, k-reciprocal neighbor sets, and Jaccard distances.

The similarity between two samples is exp(-euclidean distance) restricted to
the k-reciprocal neighborhood, and the Jaccard distance compares the sparse
similarity rows of two samples by their elementwise min/max sums.

Nothing here is N x N. Distances are computed a block of rows at a time and
only each row's k nearest neighbors are kept; the similarity d_S is stored as
CSR rows, and ``np.sum`` takes its row sums over the same row blocks,
scattered into one reused dense buffer; d_J is stored only for the pairs
that share a reciprocal member. Every other off-diagonal pair has a min-sum
of zero and therefore a Jaccard distance of exactly 1.0 (Zhong et al. 2017,
arXiv:1701.08398; Ge et al. 2020, arXiv:2006.02713).

The module also holds the Gram-form screen with which the triplet loss and
k-means find each row's nearest or farthest rows without a difference
tensor, and still exactly as the difference form would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Rows per block of distances or of dense similarity rows are chosen so that
# one block holds about this many float64 entries (16 MB).
_BLOCK_ENTRIES = 1 << 21

# unit roundoff of float64
_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass
class SparseDistances:
    """A symmetric N x N distance matrix with a zero diagonal, stored as the
    pairs i < j that are listed in ``pairs``; every other off-diagonal pair is
    at distance ``fill``, which is at least every stored value."""

    n: int
    pairs: np.ndarray   # (E, 2) int64, i < j, each unordered pair once
    values: np.ndarray  # (E,) float64
    fill: float = 1.0


@dataclass
class ReciprocalSets:
    """Per-sample k-reciprocal neighbor sets in CSR form; i is a member of
    its own set, and j is in i's set iff i is in j's."""

    indptr: np.ndarray   # (N+1,) set i is indices[indptr[i]:indptr[i+1]]
    indices: np.ndarray  # members, ascending within each set
    dist: np.ndarray     # Euclidean distance from the set's owner to each member


@dataclass
class DistanceGraph:
    indptr: np.ndarray   # CSR row pointers of d_S, shared with the reciprocal sets
    indices: np.ndarray  # CSR columns of d_S
    d_s: np.ndarray      # exp(-dist) over each reciprocal set, 1.0 on the diagonal
    pairs: np.ndarray    # (E, 2) pairs i < j that share a reciprocal member
    d_j: np.ndarray      # (E,) their Jaccard distances; every other pair is 1.0

    def jaccard(self) -> SparseDistances:
        return SparseDistances(n=len(self.indptr) - 1, pairs=self.pairs,
                               values=self.d_j, fill=1.0)


def smallest_k(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k smallest entries of each row, 1 <= k <= width.

    A partial sort finds each row's k-th value; among entries tied at it the
    lowest indices win, as in a stable full sort.
    """
    kth = np.partition(values, k - 1, axis=1)[:, k - 1:k]
    keep = values <= kth
    over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
    if len(over):  # ties at the k-th value: keep the lowest indices
        sub, at = values[over], kth[over]
        tied = sub == at
        need = k - np.count_nonzero(sub < at, axis=1)
        keep[over] = (sub < at) | (tied & (np.cumsum(tied, axis=1) <= need[:, None]))
    return keep


def gram_sq_distances(a: np.ndarray, b: np.ndarray):
    """Squared Euclidean distances between the rows of ``a`` and ``b`` in the
    Gram form |a|^2 + |b|^2 - 2 a.b, and for each entry a bound ``tol`` on how
    far it can lie from the difference form ``np.sum((a_i - b_j)**2)``.

    Each form is within about (2d + 4) u (|a|^2 + |b|^2) of the exact value
    (u = 2^-53), whatever order its sums are taken in, so the two are within
    half of tol = 8 (d + 4) u (|a|^2 + |b|^2) of each other. The other half
    keeps every entry that ``screen_extremes`` leaves out so far beyond the
    kept extreme that their square roots still differ after rounding. The
    ``tiny`` term covers products that underflow.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    norms = np.add.outer(np.sum(a * a, axis=1), np.sum(b * b, axis=1))
    d2 = norms - 2.0 * (a @ b.T)
    tol = 8.0 * (a.shape[1] + 4) * _UNIT_ROUNDOFF * (norms + np.finfo(np.float64).tiny)
    return d2, tol


def screen_extremes(d2: np.ndarray, tol: np.ndarray, allowed: np.ndarray | None = None,
                    largest: bool = False) -> np.ndarray:
    """Mask of the entries that may hold their row's smallest (``largest``:
    largest) allowed squared distance in the difference form.

    ``d2`` and ``tol`` come from ``gram_sq_distances``. An entry is left out
    only if its difference-form value lies strictly beyond that of the row's
    Gram-form extreme, which is always kept, even after a square root rounds
    both; so an exact recompute over the kept entries finds the same extreme,
    and the same lowest index among ties, as one over every allowed entry.
    A row without an allowed entry keeps none.
    """
    masked = d2 if allowed is None else np.where(allowed, d2, -np.inf if largest else np.inf)
    at = np.argmax(masked, axis=1) if largest else np.argmin(masked, axis=1)
    rows = np.arange(len(d2))
    edge = masked[rows, at][:, None]
    reach = tol + tol[rows, at][:, None]
    near = masked >= edge - reach if largest else masked <= edge + reach
    return near if allowed is None else allowed & near


def _row_blocks(n: int, entries: int) -> np.ndarray:
    """Bounds of the row blocks of an (n, n) array, each of about ``entries``
    entries and at least one row. The blocks are of near-equal size: a block
    of one row would go through a matrix-vector product, whose dot products
    can differ in the last bit."""
    blocks = -(-n // max(1, entries // n))
    return np.arange(blocks + 1) * n // blocks


def nearest_neighbors(features: np.ndarray, k: int):
    """Each row's k nearest other rows under Euclidean distance.

    Returns (neighbors, dist), both (N, k), neighbors ascending within a row.
    Distance ties break to the lower index. Distances come from the GEMM
    identity |a|^2 + |b|^2 - 2 a.b, a block of rows at a time; up to about
    1400 rows that is one block, the same Gram product a dense N x N
    computation makes.
    """
    f = np.asarray(features, dtype=np.float64)
    n = len(f)
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    sq = np.sum(f * f, axis=1)
    neighbors = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    bounds = _row_blocks(n, _BLOCK_ENTRIES)
    # one Gram and one distance buffer serve every block
    gram_buf, d_buf = np.empty((2, int(np.max(np.diff(bounds))), n))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        local = np.arange(stop - start)
        gram = np.matmul(f[start:stop], f.T, out=gram_buf[:stop - start])
        gram *= 2.0
        d = np.add.outer(sq[start:stop], sq, out=d_buf[:stop - start])
        d -= gram
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        d[local, start + local] = np.inf
        rows, cols = np.nonzero(smallest_k(d, k))
        neighbors[start:stop] = cols.reshape(-1, k)
        dist[start:stop] = d[rows, cols].reshape(-1, k)
    return neighbors, dist


def reciprocal_sets(features: np.ndarray, k_rr: int) -> ReciprocalSets:
    """Mutual k-nearest-neighbor sets of the feature rows.

    kNN(i) is i itself plus its k_rr nearest other samples; j belongs to
    set i iff each is in the other's kNN list. No expansion step is applied.
    A pair's distance is the mean of the two rows' values, which keeps the
    sets exactly symmetric.
    """
    neighbors, dist = nearest_neighbors(features, k_rr)
    n = len(neighbors)
    rows = np.repeat(np.arange(n), k_rr)
    cols = neighbors.ravel()
    forward = rows * n + cols  # ascending: rows ascend, columns ascend per row
    backward = cols * n + rows
    where = np.searchsorted(forward, backward)
    mutual = forward[np.minimum(where, len(forward) - 1)] == backward
    back_dist = dist.ravel()[where[mutual]]
    rows, cols = rows[mutual], cols[mutual]
    pair_dist = 0.5 * (dist.ravel()[mutual] + back_dist)

    # add each sample to its own set, at distance 0
    rows = np.concatenate([rows, np.arange(n)])
    cols = np.concatenate([cols, np.arange(n)])
    pair_dist = np.concatenate([pair_dist, np.zeros(n)])
    order = np.argsort(rows * n + cols)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return ReciprocalSets(indptr=indptr, indices=cols[order], dist=pair_dist[order])


def _dense_row_sums(indptr: np.ndarray, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row sums of a CSR matrix, bitwise equal to ``np.sum`` over its dense
    rows, since numpy computes them: each block of rows is scattered into one
    reused dense buffer, summed, and its stored entries are zeroed again."""
    n = len(indptr) - 1
    bounds = _row_blocks(n, _BLOCK_ENTRIES)
    buf = np.zeros((int(np.max(np.diff(bounds))), n))
    rows = np.repeat(np.arange(n), np.diff(indptr))
    sums = np.empty(n)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        at = slice(indptr[start], indptr[stop])
        block, stored = buf[:stop - start], (rows[at] - start, indices[at])
        block[stored] = values[at]
        np.sum(block, axis=1, out=sums[start:stop])
        block[stored] = 0.0
    return sums


def jaccard_distance(indptr: np.ndarray, indices: np.ndarray, d_s: np.ndarray):
    """1 - min-sum / max-sum of similarity row pairs, for the pairs that share
    a nonzero column.

    ``d_s`` is a symmetric nonnegative CSR matrix, so column k's nonzero rows
    are row k's members. Each k contributes min(d_s[i, k], d_s[j, k]) to every
    pair (i, j) of its members, and each pair's min-sum adds its
    contributions in ascending k; max-sum is rowsum_i + rowsum_j - min-sum.
    Returns (pairs, d_j) with pairs (E, 2), i < j, in row-major order. Every
    other off-diagonal pair has a min-sum of zero and a distance of 1.0.
    """
    d_s = np.asarray(d_s, dtype=np.float64)
    if np.any(d_s < 0):
        raise ValueError("similarity matrix must be nonnegative")
    n = len(indptr) - 1
    sizes = np.diff(indptr)
    first, second, via, contrib = [], [], [], []
    for size in np.unique(sizes[sizes >= 2]):
        owners = np.flatnonzero(sizes == size)
        at = indptr[owners, None] + np.arange(size)
        members, sims = indices[at], d_s[at]
        a, b = np.triu_indices(size, k=1)
        first.append(members[:, a].ravel())
        second.append(members[:, b].ravel())
        via.append(np.repeat(owners, len(a)))
        contrib.append(np.minimum(sims[:, a], sims[:, b]).ravel())
    if not first:
        return np.empty((0, 2), dtype=np.int64), np.empty(0)
    key = np.concatenate(first) * n + np.concatenate(second)
    order = np.lexsort((np.concatenate(via), key))
    key = key[order]
    first_of_pair = np.concatenate([[True], key[1:] != key[:-1]])
    # bincount adds in input order, so each min-sum accumulates in ascending k
    min_sum = np.bincount(np.cumsum(first_of_pair) - 1,
                          weights=np.concatenate(contrib)[order])
    i, j = np.divmod(key[first_of_pair], n)

    rowsum = _dense_row_sums(indptr, indices, d_s)
    max_sum = rowsum[i] + rowsum[j] - min_sum
    d_j = np.clip(1.0 - min_sum / max_sum, 0.0, 1.0)
    return np.stack([i, j], axis=1), d_j


def offdiag_percentile(dist: SparseDistances, q: float) -> float:
    """The q-th percentile of the N(N-1) off-diagonal entries of ``dist``,
    bitwise equal to ``np.percentile`` (linear method) over the dense matrix.

    Each stored value occurs twice off the diagonal and ``fill``, the largest
    value, makes up the rest, so the sorted entries are known without
    materializing them.
    """
    count = dist.n * (dist.n - 1)
    if count == 0:
        raise ValueError("a percentile needs at least two samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    stored = np.sort(dist.values)

    def entry(index):
        return stored[index // 2] if index < 2 * len(stored) else np.float64(dist.fill)

    virtual = (count - 1) * np.true_divide(q, 100)
    below = np.floor(virtual)
    if virtual >= count - 1:
        return float(entry(count - 1))
    a, b = entry(int(below)), entry(int(below) + 1)
    # numpy's _lerp, including its branch for weights of one half or more
    t = virtual - below
    diff = b - a
    return float(b - diff * (1 - t) if t >= 0.5 else a + diff * t)


def build_distance_graph(features: np.ndarray, k_rr: int) -> DistanceGraph:
    """Pipeline: k-NN -> reciprocal sets -> d_S -> d_J."""
    sets = reciprocal_sets(features, k_rr)
    d_s = np.exp(-sets.dist)
    pairs, d_j = jaccard_distance(sets.indptr, sets.indices, d_s)
    return DistanceGraph(indptr=sets.indptr, indices=sets.indices, d_s=d_s,
                         pairs=pairs, d_j=d_j)
