"""Reference implementations the library used before it was optimised.

The off-line oracles are the dense N x N labeling chain the library used
before it went k-NN-sparse, the transpose search the sparse Jaccard made
when it was not given the reciprocal sets' mirror, the blocked k-NN that
took the square root of every distance and selected through a (rows, N)
mask before it ranked on squared distances by flat index, the Lloyd
iterations on an (m, r, d) difference tensor it used before it filled its
distances one center at a time, and the refinement scores averaged from one (N, R_l) product per
cluster before they became one product with the prototype means (those agree
within rounding, not bit for bit). The retrieval oracle scores mAP and CMC
from a dense (Q, G) distance matrix and a dense (Q, G) hit matrix. The
on-line oracles are the per-anchor loop triplet on a (B, B, d) difference
tensor, the full-argsort bank positives, the spread-out loss through boolean
masks over the bank, the per-label scan sampler that draws with
``rng.choice``, the per-parameter Adam step, and the joint step that
computes every loss branch whatever its weight and weights them with the
blend and total helpers the library used before its step did that arithmetic
itself (plus the pretraining loop with its own inline copy of the step). The
synthetic generator fills each split a row at a time through per-row camera
callbacks. They stay here, unchanged, as oracles: the library must reproduce
their numbers bit for bit (same eps, same labels, same pair counts, same
losses, weights, centers, bank and synthetic splits).
"""

from dataclasses import dataclass

import numpy as np

from reidapt.data import (
    GALLERY_PER_IDENTITY,
    OUTLIER,
    QUERIES_PER_IDENTITY,
    Dataset,
    SynthSpec,
    _domain_transform,
)
from reidapt import encoder
from reidapt.encoder import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CLASSIFIER_PARAMS,
    AdamSlot,
    backward,
    classifier_backward,
    classifier_forward,
    forward,
    init_encoder,
    lr_at,
)
from reidapt import graph
from reidapt.evaluate import RetrievalResult
from reidapt.graph import SparseDistances
from reidapt.losses import cross_entropy
from reidapt.membank import TrainingDivergedError, instant_update, momentum_update
from reidapt.refine import PseudoLabelSet
from reidapt.trainer import _PRETRAIN_STREAM, _pk_iterations


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


def retrieval_eval(query_feats, query_ids, query_cams,
                   gallery_feats, gallery_ids, gallery_cams) -> RetrievalResult:
    """mAP and CMC from a dense (Q, G) distance matrix and a dense (Q, G)
    rank-r hit matrix, one stable argsort per query."""
    qf = np.asarray(query_feats, dtype=np.float64)
    gf = np.asarray(gallery_feats, dtype=np.float64)
    query_ids = np.asarray(query_ids)
    query_cams = np.asarray(query_cams)
    gallery_ids = np.asarray(gallery_ids)
    gallery_cams = np.asarray(gallery_cams)

    q2 = np.sum(qf * qf, axis=1)
    g2 = np.sum(gf * gf, axis=1)
    dist = np.sqrt(np.maximum(q2[:, None] + g2[None, :] - 2.0 * qf @ gf.T, 0.0))

    num_g = len(gf)
    aps = np.empty(len(qf))
    hits = np.zeros((len(qf), num_g))
    for qi in range(len(qf)):
        order = np.argsort(dist[qi], kind="stable")
        junk = (gallery_ids[order] == query_ids[qi]) & (gallery_cams[order] == query_cams[qi])
        order = order[~junk]
        good = gallery_ids[order] == query_ids[qi]
        if not good.any():
            raise ValueError(f"query {qi} has no valid cross-camera match")
        ranks = np.flatnonzero(good)
        precision_at_hit = (np.arange(len(ranks)) + 1.0) / (ranks + 1.0)
        aps[qi] = precision_at_hit.mean()
        # rank-r hit indicator over the junk-filtered list, saturating past it
        hits[qi, ranks[0]:] = 1.0
        hits[qi, len(good):] = 1.0
    cmc = hits.mean(axis=0)
    return RetrievalResult(map=float(aps.mean()), cmc=cmc)


# ------------------------------------------------------------------ converters

def to_sparse(dist, fill=np.inf):
    """Dense distance matrix -> SparseDistances storing every off-diagonal
    pair i < j. A lower-triangle entry that differs from its mirror is kept
    as an (i, j) pair with i > j, which ``SparseDistances`` rejects."""
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


def transposes(indptr, indices):
    """Position of each stored entry's transpose in a CSR matrix with a
    symmetric pattern and ascending columns in each row."""
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    return np.searchsorted(rows * n + indices, indices * n + rows)


def smallest_k(values, k, work):
    """Boolean mask of the k smallest entries of each row, 1 <= k <= width.

    A partial sort of a copy of ``values`` made into ``work``, an array of
    the same shape that is overwritten, finds each row's k-th value; among
    entries tied at it the lowest indices win, as in a stable full sort.
    """
    np.copyto(work, values)
    work.partition(k - 1, axis=1)
    kth = work[:, k - 1:k]
    keep = values <= kth
    over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
    if len(over):  # ties at the k-th value: keep the lowest indices
        sub, at = values[over], kth[over]
        tied = sub == at
        need = k - np.count_nonzero(sub < at, axis=1)
        keep[over] = (sub < at) | (tied & (np.cumsum(tied, axis=1) <= need[:, None]))
    return keep


def nearest_neighbors(features, k):
    """Each row's k nearest other rows under Euclidean distance.

    Returns (neighbors, dist), both (N, k), neighbors ascending within a row.
    Distance ties break to the lower index. Distances come from the GEMM
    identity |a|^2 + |b|^2 - 2 a.b, a block of rows at a time (the library's
    block bounds); each block is square-rooted whole and selected through
    a (rows, N) mask.
    """
    f = np.asarray(features, dtype=np.float64)
    n = len(f)
    if not 1 <= k < n:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    sq = np.sum(f * f, axis=1)
    neighbors = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    bounds = graph._row_blocks(n, n, graph._BLOCK_ENTRIES)
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
        rows, cols = np.nonzero(smallest_k(d, k, gram))  # the Gram block is spent
        neighbors[start:stop] = cols.reshape(-1, k)
        dist[start:stop] = d[rows, cols].reshape(-1, k)
    return neighbors, dist


def lloyd(points, centers, max_iter):
    """Lloyd iterations on an (m, r, d) difference tensor; updates ``centers``
    in place and returns (centers, assignment, inertia, history)."""
    m, r = len(points), len(centers)
    assignment = np.full(m, -1, dtype=np.int64)
    history = []
    for _ in range(max_iter):
        d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assignment = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(m), new_assignment].sum()))
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for c in range(r):
            mask = assignment == c
            if mask.any():
                centers[c] = points[mask].mean(axis=0)
            else:
                # reseed an empty center at the point farthest from its center
                worst = int(np.argmax(d2[np.arange(m), assignment]))
                centers[c] = points[worst]
    d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    assignment = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(m), assignment].sum())
    return centers, assignment, inertia, history


def inertia(points, centers):
    """Squared distance of each point to its nearest center, summed, from the
    (m, r, d) difference tensor that ``lloyd`` assigns by."""
    d2 = np.sum((points[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    return float(d2.min(axis=1).sum())


def refined_similarity(features, prototypes):
    """Score matrix s[i, l]: the mean of sample i's dot products with each of
    cluster l's prototypes, one (N, R_l) product per cluster."""
    features = np.asarray(features, dtype=np.float64)
    scores = np.empty((len(features), len(prototypes)))
    for label, cents in enumerate(prototypes):
        scores[:, label] = (features @ cents.T).mean(axis=1)
    return scores


# ------------------------------------------------------------------ on-line

def batch_hard_triplet(features, labels, margin):
    """Batch-hard triplet, one anchor at a time (the per-anchor loop)."""
    f = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if margin < 0:
        raise ValueError("margin must be >= 0")
    b = len(f)
    diff = f[:, None, :] - f[None, :, :]
    dist = np.sqrt(np.maximum(np.sum(diff * diff, axis=2), 0.0))
    same = labels[:, None] == labels[None, :]
    eye = np.eye(b, dtype=bool)

    grad = np.zeros_like(f)
    total = 0.0
    active_anchors = 0
    contributions = []
    for i in range(b):
        pos_mask = same[i] & ~eye[i]
        neg_mask = ~same[i]
        if not pos_mask.any() or not neg_mask.any():
            continue
        active_anchors += 1
        pos_dist = np.where(pos_mask, dist[i], -np.inf)
        neg_dist = np.where(neg_mask, dist[i], np.inf)
        p = int(np.argmax(pos_dist))
        n = int(np.argmin(neg_dist))
        violation = margin + dist[i, p] - dist[i, n]
        if violation > 0:
            total += violation
            contributions.append((i, p, n))
    if active_anchors == 0:
        raise ValueError("batch has no anchor with both a positive and a negative")

    loss = total / active_anchors
    for i, p, n in contributions:
        if dist[i, p] > 0:
            u = (f[i] - f[p]) / dist[i, p]
            grad[i] += u
            grad[p] -= u
        if dist[i, n] > 0:
            w = (f[i] - f[n]) / dist[i, n]
            grad[i] -= w
            grad[n] += w
    return loss, grad / active_anchors


def positive_sets(bank, feats, sample_indices, k_pos):
    """Bank positives through a full stable argsort of every anchor's row."""
    feats = np.asarray(feats, dtype=np.float64)
    sample_indices = np.asarray(sample_indices)
    n = len(bank)
    k = min(k_pos, n - 1)
    sims = feats @ bank.v.T
    rows = np.arange(len(feats))
    sims[rows, sample_indices] = -np.inf
    order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    indices = np.concatenate([order, sample_indices[:, None]], axis=1)
    indices.sort(axis=1)
    return indices.astype(np.int64)


def _masked_logsumexp(values, mask):
    """Row-wise log-sum-exp over masked entries; empty rows give -inf."""
    x = np.where(mask, values, -np.inf)
    peak = x.max(axis=1)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    sums = np.exp(x - shift[:, None]).sum(axis=1)
    with np.errstate(divide="ignore"):
        return np.where(sums > 0.0, shift + np.log(sums), -np.inf)


def spread_loss(feats, bank, positives, margin):
    """Spread-out loss through (B, N) boolean masks of positives and
    negatives, built from the positive index rows."""
    if margin < 0:
        raise ValueError("margin must be >= 0")
    feats = np.asarray(feats, dtype=np.float64)
    b, n = len(feats), len(bank)
    pos = np.zeros((len(positives), n), dtype=bool)
    pos[np.arange(len(positives))[:, None], positives] = True
    neg = ~pos

    sims = feats @ bank.v.T
    ln_a = _masked_logsumexp(sims, neg)        # negatives
    ln_b = _masked_logsumexp(-sims, pos)       # positives
    ln_z = margin + ln_a + ln_b
    per_anchor = np.logaddexp(0.0, ln_z)       # log(1 + Z)
    loss = float(per_anchor.mean())

    # d per_anchor / d sims: +exp(m + s_j + ln_b - log1pZ) on negatives,
    #                        -exp(m + ln_a - s_j - log1pZ) on positives
    coef = np.zeros((b, n))
    live = np.isfinite(ln_z)
    if np.any(live):
        log_neg = margin + sims + ln_b[:, None] - per_anchor[:, None]
        log_pos = margin - sims + ln_a[:, None] - per_anchor[:, None]
        coef[neg] = np.exp(log_neg[neg])
        coef[pos] = -np.exp(log_pos[pos])
        coef[~live] = 0.0
    coef /= b

    grad_feats = coef @ bank.v
    grad_v = coef.T @ feats
    return loss, grad_feats, grad_v


def init_classifier(state, num_classes, rng):
    """``encoder.init_classifier``, resetting the per-parameter slots that
    ``adam_step`` keeps for the classifier as well."""
    encoder.init_classifier(state, num_classes, rng)
    for name in CLASSIFIER_PARAMS:
        state.adam.pop(name, None)


def adam_step(state, grads: dict, lr: float, weight_decay: float):
    """One Adam update with decoupled weight decay on every listed parameter."""
    for name, g in grads.items():
        param = getattr(state, name)
        slot = state.adam.get(name)
        if slot is None or slot.m.shape != param.shape:
            slot = AdamSlot(np.zeros_like(param), np.zeros_like(param))
            state.adam[name] = slot
        slot.t += 1
        slot.m = ADAM_BETA1 * slot.m + (1.0 - ADAM_BETA1) * g
        slot.v = ADAM_BETA2 * slot.v + (1.0 - ADAM_BETA2) * (g * g)
        m_hat = slot.m / (1.0 - ADAM_BETA1 ** slot.t)
        v_hat = slot.v / (1.0 - ADAM_BETA2 ** slot.t)
        update = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if weight_decay:
            update = update + lr * weight_decay * param
        setattr(state, name, param - update)
    state.step += 1


def pk_sample(labels, p, k, rng):
    """PK batch that scans all N coarse labels once per chosen label."""
    coarse = labels.coarse
    eligible = np.unique(coarse[coarse != OUTLIER])
    if len(eligible) < p:
        raise ValueError(f"need {p} clusters for a batch, have {len(eligible)}")
    chosen = rng.choice(eligible, size=p, replace=False)
    picks = []
    for label in chosen:
        members = np.flatnonzero(coarse == label)
        picks.append(rng.choice(members, size=k, replace=len(members) < k))
    return np.concatenate(picks)


def _triplet_or_zero(feats, labels, margin):
    labels = np.asarray(labels)
    counts = np.unique(labels, return_counts=True)[1]
    if len(counts) < 2 or not np.any(counts >= 2):
        return 0.0, np.zeros_like(feats)
    return batch_hard_triplet(feats, labels, margin)


def blend_metric_losses(noisy: tuple, refined: tuple, alpha: float):
    """Convex blend (1-alpha)*noisy + alpha*refined of (cls, tri) pairs; a
    term that was not computed (None, its weight is 0) counts as 0."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    noisy, refined = ([0.0 if t is None else t for t in pair] for pair in (noisy, refined))
    cls = (1.0 - alpha) * noisy[0] + alpha * refined[0]
    tri = (1.0 - alpha) * noisy[1] + alpha * refined[1]
    return cls, tri


def total_loss(cls: float, tri: float, spread: float, mu: float) -> float:
    """Joint objective: blended metric losses plus mu times the regularizer."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    return cls + tri + mu * spread


@dataclass
class StepTerms:
    """Every term of the all-branch step: the loss under each labeling, their
    alpha blends ``cls`` and ``tri``, the spread-out term and the total."""

    cls_noisy: float
    cls_refined: float
    tri_noisy: float
    tri_refined: float
    cls: float
    tri: float
    spread: float
    total: float


def joint_loss_and_grads(state, bank, x, coarse, refined, sample_indices, cfg):
    """The joint step with every branch computed, each then weighted; its
    report is a ``StepTerms`` record."""
    feats, cache = forward(state, x)
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise TrainingDivergedError("encoder produced a zero feature vector")
    feats_n = feats / norms

    probs = classifier_forward(state, feats)
    cls_noisy, g_logits_noisy = cross_entropy(probs, coarse)
    cls_refined, g_logits_refined = cross_entropy(probs, refined)
    tri_noisy, g_tri_noisy = _triplet_or_zero(feats, coarse, cfg.margin)
    tri_refined, g_tri_refined = _triplet_or_zero(feats, refined, cfg.margin)

    sets = positive_sets(bank, feats_n, sample_indices, cfg.k_pos)
    spread, g_feats_n, g_bank = spread_loss(feats_n, bank, sets, cfg.spread_margin)

    cls_blend, tri_blend = blend_metric_losses(
        (cls_noisy, tri_noisy), (cls_refined, tri_refined), cfg.alpha)
    total = total_loss(cls_blend, tri_blend, spread, cfg.mu)
    if not np.isfinite(total):
        raise TrainingDivergedError(
            f"non-finite loss (cls={cls_blend}, tri={tri_blend}, spread={spread})")

    g_logits = (1.0 - cfg.alpha) * g_logits_noisy + cfg.alpha * g_logits_refined
    cls_grads, g_feats = classifier_backward(state, feats, g_logits)
    g_feats = g_feats + (1.0 - cfg.alpha) * g_tri_noisy + cfg.alpha * g_tri_refined
    if cfg.mu:
        inner = np.sum(g_feats_n * feats_n, axis=1, keepdims=True)
        g_feats = g_feats + cfg.mu * (g_feats_n - inner * feats_n) / norms

    grads = backward(state, cache, g_feats)
    grads.update(cls_grads)
    report = StepTerms(cls_noisy=cls_noisy, cls_refined=cls_refined,
                       tri_noisy=tri_noisy, tri_refined=tri_refined,
                       cls=cls_blend, tri=tri_blend, spread=spread, total=total)
    return report, grads, g_bank, feats_n


def online_iteration(state, bank, raw, batch, labels, cfg, lr):
    """The on-line step that always updates the bank, whatever mu."""
    report, grads, g_bank, feats_n = joint_loss_and_grads(
        state, bank, raw[batch], labels.coarse[batch], labels.refined[batch],
        batch, cfg)
    adam_step(state, grads, lr, cfg.weight_decay)
    if cfg.bank_mode == "instant":
        instant_update(bank, g_bank, lr)
    else:
        momentum_update(bank, feats_n, batch, cfg.bank_tau)
    return report


def pretrain_source(raw, identities, cfg):
    """Source pretraining with its own inline forward -> CE -> triplet ->
    backward -> Adam step."""
    rng = np.random.default_rng((cfg.seed, _PRETRAIN_STREAM))
    classes, ids = np.unique(identities, return_inverse=True)
    state = init_encoder(raw.shape[1], 2 * cfg.feat_dim, cfg.feat_dim, rng)
    init_classifier(state, len(classes), rng)
    labels = PseudoLabelSet(coarse=ids.astype(np.int64),
                            refined=ids.astype(np.int64),
                            num_clusters=len(classes))
    p = min(cfg.batch_p, len(classes))
    iters = _pk_iterations(cfg, len(raw))
    for epoch in range(cfg.pretrain_epochs):
        lr = lr_at(cfg.base_lr, epoch, cfg.warmup_epochs, cfg.pretrain_decay_epochs,
                   cfg.decay_factor)
        epoch_rng = np.random.default_rng((cfg.seed, _PRETRAIN_STREAM, epoch))
        for _ in range(iters):
            batch = pk_sample(labels, p, cfg.batch_k, epoch_rng)
            x = raw[batch]
            feats, cache = forward(state, x)
            probs = classifier_forward(state, feats)
            cls, g_logits = cross_entropy(probs, ids[batch])
            tri, g_tri = _triplet_or_zero(feats, ids[batch], cfg.margin)
            if not np.isfinite(cls + tri):
                raise TrainingDivergedError("non-finite pretraining loss")
            cls_grads, g_feats = classifier_backward(state, feats, g_logits)
            grads = backward(state, cache, g_feats + g_tri)
            grads.update(cls_grads)
            adam_step(state, grads, lr, cfg.weight_decay)
    return state


def _draw_split(rng, spec, centers, cam_offsets, identity_base, per_identity, cameras_of):
    n = len(centers) * per_identity
    raw = np.empty((n, spec.d_in))
    identity = np.empty(n, dtype=np.int64)
    camera = np.empty(n, dtype=np.int64)
    row = 0
    for k in range(len(centers)):
        for j in range(per_identity):
            cam = cameras_of(rng, j)
            raw[row] = centers[k] + cam_offsets[cam]
            identity[row] = identity_base + k
            camera[row] = cam
            row += 1
    raw += spec.intra_noise * rng.standard_normal(raw.shape)
    return raw, identity, camera


def generate_synthetic(spec: SynthSpec):
    """Generate (source, target_train, target_query, target_gallery).

    Identity centers are drawn once per domain and the two domains use
    disjoint identity ids. The target query/gallery splits reuse the target
    identities with fresh samples; gallery cameras are cycled so every query
    has a cross-camera match. Output is a pure function of ``spec.seed``.
    """
    rng = np.random.default_rng(spec.seed)
    k, d = spec.num_identities, spec.d_in

    src_centers = spec.identity_spread * rng.standard_normal((k, d))
    tgt_centers = spec.identity_spread * rng.standard_normal((k, d))

    def camera_offsets():
        g = rng.standard_normal((spec.num_cameras, d))
        return spec.camera_shift_scale * g / np.linalg.norm(g, axis=1, keepdims=True)

    src_cam = camera_offsets()
    tgt_cam = camera_offsets()
    rot, offset = _domain_transform(rng, d, spec.domain_shift)

    def random_cam(r, _j):
        return int(r.integers(spec.num_cameras))

    def query_cam(_r, j):
        return j % spec.num_cameras

    def gallery_cam(_r, j):
        return (j + 1) % spec.num_cameras

    src = _draw_split(rng, spec, src_centers, src_cam, 0, spec.samples_per_identity, random_cam)
    tt = _draw_split(rng, spec, tgt_centers, tgt_cam, k, spec.samples_per_identity, random_cam)
    tq = _draw_split(rng, spec, tgt_centers, tgt_cam, k, QUERIES_PER_IDENTITY, query_cam)
    tg = _draw_split(rng, spec, tgt_centers, tgt_cam, k, GALLERY_PER_IDENTITY, gallery_cam)

    datasets = [Dataset(*src)]
    for raw, identity, camera in (tt, tq, tg):
        datasets.append(Dataset(raw @ rot.T + offset, identity, camera))
    return tuple(datasets)
