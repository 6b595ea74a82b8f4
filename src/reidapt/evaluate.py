"""Pseudo-label quality (pairwise precision/recall/F-score) and retrieval
metrics (mAP and the CMC curve under the cross-camera protocol)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph
from .data import OUTLIER


@dataclass
class RetrievalResult:
    map: float
    cmc: np.ndarray  # full curve, cmc[r-1] = rank-r accuracy

    def rank(self, r: int) -> float:
        return float(self.cmc[min(r, len(self.cmc)) - 1])

    @property
    def r1(self) -> float:
        return self.rank(1)

    @property
    def r5(self) -> float:
        return self.rank(5)

    @property
    def r10(self) -> float:
        return self.rank(10)


def _same_group_pairs(groups: np.ndarray) -> int:
    sizes = np.unique(groups, return_counts=True)[1]
    return int(np.sum(sizes * (sizes - 1) // 2))


def pairwise_fscore(pseudo: np.ndarray, truth: np.ndarray):
    """Pair-level precision/recall/F against ground-truth identities.

    Outlier samples (pseudo == OUTLIER) are dropped from the pair universe.
    Degenerate denominators (no same-pseudo or no same-truth pair) give 0.
    Returns (precision, recall, fscore).
    """
    pseudo = np.asarray(pseudo)
    truth = np.asarray(truth)
    if pseudo.shape != truth.shape:
        raise ValueError("pseudo and truth label arrays must align")
    keep = pseudo != OUTLIER
    # pairs within a group number C(size, 2); group the kept samples by
    # pseudo label, by true identity, and by both
    p = np.unique(pseudo[keep], return_inverse=True)[1]
    t = np.unique(truth[keep], return_inverse=True)[1]
    both = p * (t.max(initial=0) + 1) + t
    same_pseudo, same_truth, tp = (_same_group_pairs(g) for g in (p, t, both))
    fp = same_pseudo - tp
    fn = same_truth - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    fscore = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, fscore


def retrieval_eval(query_feats, query_ids, query_cams,
                   gallery_feats, gallery_ids, gallery_cams) -> RetrievalResult:
    """Rank the gallery per query by Euclidean distance and score AP/CMC.

    Gallery entries sharing both identity and camera with the query are
    junk and skipped; a query with no remaining match is an error, as are an
    empty query set or gallery and id or camera arrays that do not hold one
    entry per feature row. AP is the mean of precision at each relevant
    rank; distance ties keep gallery index order. No re-ranking is applied.
    The queries are taken a block of rows at a time, so one (rows, G) block
    of about ``graph._BLOCK_ENTRIES`` entries is the largest buffer.
    """
    qf = np.asarray(query_feats, dtype=np.float64)
    gf = np.asarray(gallery_feats, dtype=np.float64)
    query_ids = np.asarray(query_ids)
    query_cams = np.asarray(query_cams)
    gallery_ids = np.asarray(gallery_ids)
    gallery_cams = np.asarray(gallery_cams)
    if len(qf) == 0 or len(gf) == 0:
        raise ValueError(f"need at least one query and one gallery entry, "
                         f"got {len(qf)} and {len(gf)}")
    for name, labels, rows in (("query ids", query_ids, len(qf)),
                               ("query cameras", query_cams, len(qf)),
                               ("gallery ids", gallery_ids, len(gf)),
                               ("gallery cameras", gallery_cams, len(gf))):
        if labels.shape != (rows,):
            raise ValueError(f"{name} have shape {labels.shape}, "
                             f"want one per feature row ({rows},)")

    scaled = 2.0 * qf
    q2 = np.sum(qf * qf, axis=1)
    g2 = np.sum(gf * gf, axis=1)
    bounds = graph._row_blocks(len(qf), len(gf), graph._BLOCK_ENTRIES)
    # one block of query rows against the gallery; each row becomes distances
    block_buf = np.empty((int(np.max(np.diff(bounds))), len(gf)))
    aps = np.empty(len(qf))
    first_hit = np.empty(len(qf), dtype=np.int64)
    for start, stop in zip(bounds[:-1], bounds[1:]):
        block = np.matmul(scaled[start:stop], gf.T, out=block_buf[:stop - start])
        for qi, row in enumerate(block, start):
            np.subtract(q2[qi] + g2, row, out=row)
            np.sqrt(np.maximum(row, 0.0, out=row), out=row)
            order = np.argsort(row, kind="stable")
            junk = (gallery_ids[order] == query_ids[qi]) & (gallery_cams[order] == query_cams[qi])
            order = order[~junk]
            good = gallery_ids[order] == query_ids[qi]
            if not good.any():
                raise ValueError(f"query {qi} has no valid cross-camera match")
            ranks = np.flatnonzero(good)
            precision_at_hit = (np.arange(len(ranks)) + 1.0) / (ranks + 1.0)
            aps[qi] = precision_at_hit.mean()
            first_hit[qi] = ranks[0]
    # rank-r accuracy: the share of queries whose first hit is at rank r or
    # better over the junk-filtered list; the counts are exact
    cmc = np.cumsum(np.bincount(first_hit, minlength=len(gf))) / len(qf)
    return RetrievalResult(map=float(aps.mean()), cmc=cmc)
