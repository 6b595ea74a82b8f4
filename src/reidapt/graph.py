"""k-nearest neighbors, k-reciprocal neighbor sets, and Jaccard distances.

The similarity between two samples is exp(-euclidean distance) restricted to
the k-reciprocal neighborhood, and the Jaccard distance compares the sparse
similarity rows of two samples by their elementwise min/max sums.

Nothing here is N x N, and one Gram block of (rows, N), capped at 4 MB, is
the largest buffer. The k-NN takes one Gram product per block of rows and
screens it a small chunk of rows at a time: the k-th largest of each row's
strided group maxima bounds its k-th distance, and only the columns within
that bound get a distance and a rank; no whole row is partitioned or sorted.
The similarity d_S is stored as CSR rows, and ``np.sum`` takes its row sums
over chunks of rows scattered into one small reused dense buffer. d_J is
stored only for the pairs that share a reciprocal member, and their min-sum
terms are enumerated a block of rows at a time; one in-place sort of each
block's pair keys, packed with their positions, orders the terms, and the
block is turned into distances at once. Every other off-diagonal pair has a
min-sum of zero and therefore a Jaccard distance of exactly 1.0 (Zhong et
al. 2017, arXiv:1701.08398; Ge et al. 2020, arXiv:2006.02713).

``_gram`` and ``_exact_argmin`` are the exact nearest/farthest screen that
the batch-hard triplet and the k-means assignment share; their operands are
a batch against itself or a cluster's points against its few centers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Rows per block of the k-NN's Gram product, and of the query-by-gallery
# distances of ``evaluate.retrieval_eval``, are chosen so that one block holds
# about this many float64 entries (4 MB).
_BLOCK_ENTRIES = 1 << 19
# Everything else the off-line phase computes runs in chunks of about this
# many entries (512 KB of float64): the k-NN's rows within a Gram block, the
# dense similarity rows of the row sums, the Jaccard min-sum terms, and the
# slices of stored pairs that ``cluster.dbscan`` takes.
_CHUNK_ENTRIES = 1 << 16
# Columns per strided group of the k-NN's screen: each row ranks the maxima
# of about N / _GROUP_WIDTH groups instead of all N entries.
_GROUP_WIDTH = 4


@dataclass
class SparseDistances:
    """A symmetric N x N distance matrix with a zero diagonal, stored as the
    pairs i < j that are listed in ``pairs``; every other off-diagonal pair is
    at distance ``fill``, which is at least every stored value. Construction
    raises ValueError unless each pair 0 <= i < j < n occurs once, in
    row-major order, with one finite value in [0, fill]; ``cluster.dbscan``
    and ``offdiag_percentile`` rely on that and check none of it again."""

    n: int
    pairs: np.ndarray   # (E, 2) int64, i < j, each unordered pair once
    values: np.ndarray  # (E,) float64
    fill: float = 1.0

    def __post_init__(self):
        self.pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        self.values = np.asarray(self.values, dtype=np.float64)
        i, j = self.pairs.T
        if (len(self.values) != len(i) or np.any(i < 0) or np.any(i >= j)
                or np.any(j >= self.n) or np.any(i[1:] < i[:-1])
                or np.any((i[1:] == i[:-1]) & (j[1:] <= j[:-1]))):
            raise ValueError("pairs must list each (i, j) with 0 <= i < j < n once, "
                             "in row-major order, with one value each")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("distances must be finite (no NaN or inf)")
        if np.any(self.values < 0) or np.any(self.values > self.fill):
            raise ValueError("distances must lie in [0, fill]")


@dataclass
class ReciprocalSets:
    """Per-sample k-reciprocal neighbor sets in CSR form; i is a member of
    its own set, and j is in i's set iff i is in j's."""

    indptr: np.ndarray   # (N+1,) set i is indices[indptr[i]:indptr[i+1]]
    indices: np.ndarray  # members, ascending within each set
    dist: np.ndarray     # Euclidean distance from the set's owner to each member
    mirror: np.ndarray   # position of each entry's transpose: (i, k) -> (k, i)


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


def _lowest_k(flat: np.ndarray, keys: np.ndarray, k: int, width: int) -> np.ndarray:
    """Positions in ``flat`` of each row's k candidates of lowest key.

    ``flat`` holds ascending flat indices into an array of rows of ``width``
    entries, at least k of them in every row, and ``keys`` their ranking
    values. Among equal keys the lower index wins, as in a stable full sort;
    the positions come out ascending, so each row's picks keep column order.
    Only the rows with more than k candidates are ranked.
    """
    picks = np.arange(len(flat))
    rows = flat // width
    if len(flat) == (rows[-1] + 1) * k:  # every row holds exactly its k
        return picks
    crowded = picks[np.bincount(rows)[rows] > k]
    order = crowded[np.lexsort((keys[crowded], rows[crowded]))]  # stable: ties keep index order
    ranked = rows[order]
    surplus = order[np.arange(len(order)) - np.searchsorted(ranked, ranked) >= k]
    return np.delete(picks, surplus)


def _gram(a: np.ndarray, b: np.ndarray, sq_a: np.ndarray, sq_b: np.ndarray):
    """The Gram-form squared distances |a_i|^2 + |b_j|^2 - 2 a_i.b_j, given
    the squared row norms, and per row of a its reach 16 (d + 4) u (|a_i|^2 +
    max_j |b_j|^2 + tiny), u = 2^-53.

    The Gram form and the difference form ``np.sum((a_i - b_j)**2)`` are
    each within about (2d + 4) u (|a_i|^2 + |b_j|^2) of the exact value,
    whatever order their sums are taken in, so they are within half of
    tol_ij = 8 (d + 4) u (|a_i|^2 + |b_j|^2 + tiny) of each other (``tiny``
    covers underflow). The reach is at least tol_ij + tol_ie for every j and
    e, so an entry more than the reach beyond its row's Gram-form extreme e
    lies strictly beyond e in the difference form, even after a square root
    rounds both.
    """
    d2 = a @ (-2.0 * b).T  # scaling by -2 is exact
    d2 += sq_a[:, None]
    d2 += sq_b
    tol = 16.0 * (a.shape[1] + 4) * 2.0 ** -53
    return d2, tol * (sq_a + (sq_b.max() + np.finfo(np.float64).tiny))


def _exact_argmin(keys, reach, a, b, signs=(1.0,), rooted=False) -> np.ndarray:
    """Per row of ``keys``, the column of the smallest exact key, the lowest
    index among ties; a row whose keys are all +inf gets column 0.

    ``keys`` stacks one block of len(a) rows per entry of ``signs``: row
    s * len(a) + i holds signs[s] times ``_gram``'s distances from a_i to the
    rows of b, +inf where not allowed, and ``reach`` that row's reach. The
    exact keys are signs[s] times ``np.sum((a_i - b_j)**2)``, or its square
    root if ``rooted``. Only the rows with more than one entry within reach
    of their smallest key are recomputed, on those entries alone and a
    chunk of ``_CHUNK_ENTRIES`` difference entries at a time.
    """
    pick = np.argmin(keys, axis=1)
    edge = keys[np.arange(len(keys)), pick][:, None]
    finite = edge < np.inf
    near = keys <= np.where(finite, edge + reach[:, None], -np.inf)
    if np.count_nonzero(near) > np.count_nonzero(finite):  # a row holds a near tie
        tied = np.flatnonzero(np.count_nonzero(near, axis=1) > 1)
        rows, cols = np.nonzero(near[tied])
        block, i = np.divmod(tied[rows], len(a))
        step = max(1, _CHUNK_ENTRIES // a.shape[1])
        exact = np.concatenate([np.sum((a[i[lo:lo + step]] - b[cols[lo:lo + step]]) ** 2, axis=1)
                                for lo in range(0, len(rows), step)])
        if rooted:
            exact = np.sqrt(exact)
        full = np.full((len(tied), keys.shape[1]), np.inf)
        full[rows, cols] = exact * np.asarray(signs)[block]
        pick[tied] = np.argmin(full, axis=1)
    return pick


def _row_blocks(rows: int, width: int, entries: int) -> np.ndarray:
    """Bounds of the row blocks of a (rows, width) array, both at least 1,
    each block of about ``entries`` entries and at least one row. The blocks
    are of near-equal size: a block of one row would go through a
    matrix-vector product, whose dot products can differ in the last bit."""
    blocks = -(-rows // max(1, entries // width))
    return np.arange(blocks + 1) * rows // blocks


def nearest_neighbors(features: np.ndarray, k: int):
    """Each row's k nearest other rows under Euclidean distance.

    Returns (neighbors, dist), both (N, k), neighbors ascending within a row.
    Distance ties break to the lower index. Squared distances come from the
    GEMM identity |a|^2 + |b|^2 - 2 a.b, one Gram product per block of rows;
    up to about 724 rows that is one block, the same Gram product a dense
    N x N computation makes.

    The rest runs a chunk of rows at a time in one small scratch buffer,
    which holds h = g - |f_j|^2 / 2 for the chunk's Gram entries g, -inf on
    the diagonal: a larger h is a smaller squared distance |f_i|^2 - 2h,
    whatever the row norms. Column j belongs to strided group j mod G, with
    G = N // w groups of about w = min(``_GROUP_WIDTH``, N // (k + 1))
    columns, so G > k. Only the (rows, G) group maxima are partitioned, for
    each row's k-th largest t. The k groups at or above t hold k distinct
    columns with h >= t, so the k-th squared distance is at most
    |f_i|^2 - 2t plus roundings of a few unit roundoffs of
    |f_i|^2 + max_j |f_j|^2 + |t|. Any column whose rounded distance can
    reach the k-th has h within those roundings of t, so the candidates,
    taken by flat index, are the columns with h at least t less 2^-39
    (2^14 unit roundoffs) of that scale and the smallest normal. Their
    squared distances are computed as (|f_i|^2 + |f_j|^2) - 2g, the bits of
    the dense computation, and ranked on sqrt(max(d^2, 0)) only in rows that
    hold more than k. The extra candidates lie beyond the k-th distance, so
    the picks are those of a stable sort of the whole row.
    """
    f = np.asarray(features, dtype=np.float64)
    n = len(f)
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    if not np.all(np.isfinite(f)):
        raise ValueError("features must be finite (no NaN or inf)")
    sq = np.sum(f * f, axis=1)
    half_sq = 0.5 * sq
    sq_max = np.max(sq)
    width = min(_GROUP_WIDTH, n // (k + 1))
    groups = n // width
    neighbors = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    bounds = _row_blocks(n, n, _BLOCK_ENTRIES)
    # one Gram block, one chunk of h and one of group maxima serve every block
    gram_buf = np.empty((int(np.max(np.diff(bounds))), n))
    step = max(1, _CHUNK_ENTRIES // n)
    h_buf = np.empty((min(step, len(gram_buf)), n))
    top_buf = np.empty((len(h_buf), groups))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        gram_block = np.matmul(f[start:stop], f.T, out=gram_buf[:stop - start])
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            local = np.arange(hi - lo)
            gram = gram_block[lo - start:hi - start]
            h = np.subtract(gram, half_sq, out=h_buf[:hi - lo])
            h[local, lo + local] = -np.inf
            top = np.maximum.reduce(h[:, :groups * width].reshape(hi - lo, width, groups),
                                    axis=1, out=top_buf[:hi - lo])
            for c in range(groups * width, n, groups):  # the < width columns left over
                part = h[:, c:c + groups]
                np.maximum(top[:, :part.shape[1]], part, out=top[:, :part.shape[1]])
            top.partition(groups - k, axis=1)
            t = top[:, groups - k]
            # 2^-39 is 2^14 unit roundoffs of the scale of h, far above the
            # roundings between h, the Gram entries, the squared distances
            # and the k-th one's reach; tiny covers underflow
            margin = 2.0 ** -39 * (sq[lo:hi] + sq_max + np.abs(t)) + np.finfo(np.float64).tiny
            flat = np.flatnonzero(h >= (t - margin)[:, None])
            rows, cols = np.divmod(flat, n)
            d = (sq[lo + rows] + sq[cols]) - 2.0 * gram.ravel()[flat]
            np.sqrt(np.maximum(d, 0.0, out=d), out=d)
            picks = _lowest_k(flat, d, k, n)
            neighbors[lo:hi] = cols[picks].reshape(-1, k)
            dist[lo:hi] = d[picks].reshape(-1, k)
    return neighbors, dist


def reciprocal_sets(features: np.ndarray, k_rr: int) -> ReciprocalSets:
    """Mutual k-nearest-neighbor sets of the feature rows.

    kNN(i) is i itself plus its k_rr nearest other samples; j belongs to
    set i iff each is in the other's kNN list. No expansion step is applied.
    With i placed in its own k-NN row, in column order and at distance 0, one
    mutual test over those rows keeps the sets, in order. A pair's distance
    is the mean of the two rows' values, which keeps the sets exactly
    symmetric.
    """
    neighbors, dist = nearest_neighbors(features, k_rr)
    n = len(neighbors)
    own = np.arange(n)
    # i goes before the first of its neighbors above i
    slot = own * k_rr + np.count_nonzero(neighbors < own[:, None], axis=1)
    cols = np.insert(neighbors, slot, own).reshape(n, k_rr + 1)
    d = np.insert(dist, slot, 0.0)
    del neighbors, dist, slot
    # ascending, and the last key, (n-1, n-1), is the largest a transpose has
    forward = (cols + (own * n)[:, None]).ravel()
    backward = (cols * n + own[:, None]).ravel()
    where = np.searchsorted(forward, backward)
    mutual = forward[where] == backward
    del forward, backward
    where = where[mutual]  # each set entry's transpose, among the row entries
    mirror = (np.cumsum(mutual) - 1)[where]  # its rank among the set entries
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(mutual.reshape(n, -1), axis=1))])
    return ReciprocalSets(indptr=indptr, indices=cols.ravel()[mutual],
                          dist=0.5 * (d[mutual] + d[where]), mirror=mirror)


def _dense_row_sums(indptr: np.ndarray, indices: np.ndarray, values: np.ndarray,
                    width: int | None = None) -> np.ndarray:
    """Row sums of a CSR matrix of rows ``width`` entries wide (as many as
    it has rows by default), bitwise equal to ``np.sum`` over its dense rows,
    since numpy computes them: each chunk of rows is scattered into one
    reused dense buffer of about ``_CHUNK_ENTRIES`` entries, summed, and its
    stored entries are zeroed again."""
    n = len(indptr) - 1
    width = n if width is None else width
    step = max(1, _CHUNK_ENTRIES // width)
    buf = np.zeros((min(step, n), width))
    sums = np.empty(n)
    for start in range(0, n, step):
        stop = min(start + step, n)
        at = slice(indptr[start], indptr[stop])
        rows = np.repeat(np.arange(stop - start), np.diff(indptr[start:stop + 1]))
        block, stored = buf[:stop - start], (rows, indices[at])
        block[stored] = values[at]
        np.sum(block, axis=1, out=sums[start:stop])
        block[stored] = 0.0
    return sums


def _jaccard_blocks(indptr: np.ndarray, indices: np.ndarray, d_s: np.ndarray,
                    mirror: np.ndarray, rowsum: np.ndarray):
    """Per block of rows, the ascending pair keys i * n + j of the pairs
    i < j that share a member, and their Jaccard distances (see
    ``jaccard_distance``); ``mirror`` maps each stored entry to its
    transpose, and ``rowsum`` holds the row sums of ``d_s``.

    A pair is enumerated from its first member: each stored (i, k) meets the
    entries (k, j) of row k after (k, i), and adds the term
    min(d_s[k, i], d_s[k, j]) to the pair's min-sum. Whole rows i are taken
    a block of about ``_CHUNK_ENTRIES`` terms, and at most that many rows, at
    a time. Within a row the terms come in ascending k. Each block sorts its
    pair keys once, in place, packed with their positions in the block, so
    the sorted order is the stable one and each min-sum adds its terms in
    ascending k.
    """
    n = len(indptr) - 1
    later = indptr[indices + 1] - mirror - 1  # terms of each stored (i, k)
    before = np.concatenate([[0], np.cumsum(later)])[indptr]  # terms before each row
    del later  # each block takes its own slice again
    keys, d_j = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    start = 0
    while start < n:
        stop = max(start + 1, min(start + _CHUNK_ENTRIES, int(np.searchsorted(
            before, before[start] + _CHUNK_ENTRIES, side="right")) - 1))
        at = slice(indptr[start], indptr[stop])
        first, per_row = start, np.diff(before[start:stop + 1])
        start = stop
        if not per_row.any():
            continue
        count = indptr[indices[at] + 1] - mirror[at] - 1
        b = np.repeat(mirror[at] + 1 - np.cumsum(count) + count, count)
        b += np.arange(len(b))
        term = d_s[np.repeat(mirror[at], count)]
        np.minimum(term, d_s[b], out=term)
        # The block's local keys (i - first) n + j, each shifted left past
        # its position: positions are distinct, so one sort of the packed
        # keys gives the stable order. A block spans at most _CHUNK_ENTRIES
        # (2^16) rows, so its local keys stay below 2^16 n; it holds at most
        # 2^16 terms, or one row's, which is at most (k_rr + 1)^2 for the
        # reciprocal sets. So for k_rr < 256 the shift is at most 17 bits,
        # and the packed keys stay below 2^33 n, under 2^63 for n < 2^29.
        shift = len(b).bit_length()
        key = np.repeat(np.arange(len(per_row)) * n, per_row)
        key += indices[b]
        del b  # spent term-sized arrays go at once, so at most four are live
        key <<= shift
        key |= np.arange(len(key))
        key.sort()
        term = term[key & ((1 << shift) - 1)]
        key >>= shift
        key += first * n
        first_of_pair = np.concatenate([[True], key[1:] != key[:-1]])
        key = key[first_of_pair]
        # bincount adds in input order, so each min-sum accumulates in ascending k
        pair = np.cumsum(first_of_pair)
        pair -= 1
        min_sum = np.bincount(pair, weights=term)
        del term, pair
        i, j = np.divmod(key, n)
        keys.append(key)
        d_j.append(np.clip(1.0 - min_sum / (rowsum[i] + rowsum[j] - min_sum), 0.0, 1.0))
    return keys, d_j


def jaccard_distance(indptr: np.ndarray, indices: np.ndarray, d_s: np.ndarray,
                     mirror: np.ndarray):
    """1 - min-sum / max-sum of similarity row pairs, for the pairs that share
    a nonzero column.

    ``d_s`` is a symmetric nonnegative CSR matrix with ascending columns in
    each row, so column k's nonzero rows are row k's members. Each k
    contributes min(d_s[k, i], d_s[k, j]) to every pair i < j of its members,
    in ascending k; max-sum is rowsum_i + rowsum_j - min-sum. ``mirror``
    gives each stored entry's transpose, as ``ReciprocalSets.mirror`` does.
    Returns (pairs, d_j), pairs (E, 2) with i < j in row-major order; every
    other pair is at 1.0.

    The row sums come first, so each block of rows turns its min-sums into
    distances at once. The pairs are then written into the (E, 2) output a
    block at a time, each block's keys freed once written; no int64 or
    float64 array of E entries is formed besides the outputs and the
    blocks' keys and distances.
    """
    d_s = np.asarray(d_s, dtype=np.float64)
    if np.any(d_s < 0):
        raise ValueError("similarity matrix must be nonnegative")
    n = len(indptr) - 1
    rowsum = _dense_row_sums(indptr, indices, d_s)
    keys, d_j = _jaccard_blocks(indptr, indices, d_s, mirror, rowsum)
    pairs = np.empty((sum(len(key) for key in keys), 2), dtype=np.int64)
    stop = len(pairs)
    while keys:  # the last block first, each block's keys freed once written
        key = keys.pop()
        at = slice(stop - len(key), stop)
        stop = at.start
        np.divmod(key, n, out=(pairs[at, 0], pairs[at, 1]))
    return pairs, np.concatenate(d_j)


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
    pairs, d_j = jaccard_distance(sets.indptr, sets.indices, d_s, sets.mirror)
    return DistanceGraph(indptr=sets.indptr, indices=sets.indices, d_s=d_s,
                         pairs=pairs, d_j=d_j)
