import tracemalloc
from itertools import combinations

import numpy as np
import oracles
import pytest

from reidapt import graph
from reidapt.data import OUTLIER, l2_normalize
from reidapt.evaluate import pairwise_fscore, retrieval_eval


def brute_force_fscore(pseudo, truth):
    keep = [i for i in range(len(pseudo)) if pseudo[i] != OUTLIER]
    tp = fp = fn = 0
    for i, j in combinations(keep, 2):
        same_p = pseudo[i] == pseudo[j]
        same_t = truth[i] == truth[j]
        tp += same_p and same_t
        fp += same_p and not same_t
        fn += same_t and not same_p
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f, (tp, fp, fn)


def brute_force_ap(dist_row, gallery_ids, gallery_cams, qid, qcam):
    entries = sorted(
        (dist_row[g], g) for g in range(len(gallery_ids))
        if not (gallery_ids[g] == qid and gallery_cams[g] == qcam))
    precisions = []
    seen = 0
    for rank, (_, g) in enumerate(entries, start=1):
        if gallery_ids[g] == qid:
            seen += 1
            precisions.append(seen / rank)
    return float(np.mean(precisions))


class TestPairwiseFscore:
    def test_perfect_labels(self):
        truth = np.array([3, 3, 8, 8, 5])
        pseudo = np.array([0, 0, 1, 1, 2])
        p, r, f, counts = pairwise_fscore(pseudo, truth)
        assert (p, r, f) == (1.0, 1.0, 1.0)
        assert counts.fp == counts.fn == 0

    def test_one_big_cluster_closed_form(self):
        n = 4
        truth = np.array([0] * n + [1] * n)
        pseudo = np.zeros(2 * n, dtype=int)
        p, r, f, _ = pairwise_fscore(pseudo, truth)
        same_id_pairs = 2 * (n * (n - 1) // 2)
        all_pairs = (2 * n) * (2 * n - 1) // 2
        assert r == 1.0
        assert p == pytest.approx(same_id_pairs / all_pairs)

    def test_hand_enumerated_four_samples(self):
        truth = np.array([0, 0, 1, 1])
        pseudo = np.array([0, 0, 0, 1])
        p, r, f, counts = pairwise_fscore(pseudo, truth)
        assert (counts.tp, counts.fp, counts.fn) == (1, 2, 1)
        assert p == pytest.approx(1 / 3)
        assert r == pytest.approx(1 / 2)
        assert f == pytest.approx(2 / 5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(4, 15))
            truth = rng.integers(0, 4, size=n)
            pseudo = rng.integers(0, 4, size=n)
            pseudo[rng.random(n) < 0.2] = OUTLIER
            got = pairwise_fscore(pseudo, truth)
            want = brute_force_fscore(pseudo.tolist(), truth.tolist())
            assert got[:3] == pytest.approx(want[:3], abs=1e-12)
            assert (got[3].tp, got[3].fp, got[3].fn) == want[3]

    def test_invariant_under_label_permutation(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 3, size=12)
        pseudo = rng.integers(0, 3, size=12)
        base = pairwise_fscore(pseudo, truth)[:3]
        remap = np.array([2, 0, 1])
        assert pairwise_fscore(remap[pseudo], truth)[:3] == pytest.approx(base)

    def test_all_singletons_degenerate(self):
        pseudo = np.arange(5)
        truth = np.zeros(5, dtype=int)
        p, r, f, _ = pairwise_fscore(pseudo, truth)
        assert (p, r, f) == (0.0, 0.0, 0.0)

    def test_outliers_excluded(self):
        truth = np.array([0, 0, 1])
        pseudo = np.array([0, OUTLIER, 0])
        _, _, _, counts = pairwise_fscore(pseudo, truth)
        assert (counts.tp, counts.fp, counts.fn) == (0, 1, 0)

    def test_pair_counts_equal_dense_mask_oracle(self):
        # contingency counts against the N x N masks they replace, on the
        # label shapes an off-line epoch produces
        rng = np.random.default_rng(17)
        for trial in range(30):
            n = int(rng.integers(1, 400))
            truth = rng.integers(0, max(1, n // 20), size=n) * 7 - 3
            pseudo = rng.integers(0, int(rng.integers(1, 30)), size=n)
            pseudo[rng.random(n) < 0.1] = OUTLIER
            p, r, f, counts = pairwise_fscore(pseudo, truth)
            tp, fp, fn = oracles.pair_counts(pseudo, truth)
            assert (counts.tp, counts.fp, counts.fn) == (tp, fp, fn)
            assert p == (tp / (tp + fp) if tp + fp else 0.0)
            assert r == (tp / (tp + fn) if tp + fn else 0.0)

    def test_every_sample_an_outlier(self):
        pseudo = np.full(5, OUTLIER)
        assert pairwise_fscore(pseudo, np.arange(5))[:3] == (0.0, 0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_fscore(np.zeros(3, dtype=int), np.zeros(4, dtype=int))


class TestRetrievalEval:
    def test_all_relevant_first_gives_ap_one(self):
        qf = np.array([[1.0, 0.0]])
        gf = np.array([[1.0, 0.0], [0.99, 0.1], [0.0, 1.0], [-1.0, 0.0]])
        res = retrieval_eval(qf, [7], [0], gf, [7, 7, 3, 4], [1, 1, 1, 1])
        assert res.map == 1.0
        assert res.r1 == 1.0

    def test_single_relevant_at_rank_two(self):
        qf = np.array([[1.0, 0.0]])
        gf = np.array([[0.9, 0.1], [0.5, 0.5], [-1.0, 0.0]])
        # nearest gallery item is a different identity, match lands at rank 2
        res = retrieval_eval(qf, [1], [0], gf, [2, 1, 3], [1, 1, 1])
        assert res.map == pytest.approx(0.5)
        assert res.r1 == 0.0
        assert res.r5 == 1.0

    def test_matches_brute_force_ap(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            qf = l2_normalize(rng.standard_normal((4, 5)))
            gf = l2_normalize(rng.standard_normal((12, 5)))
            qids = rng.integers(0, 3, size=4)
            gids = np.concatenate([np.arange(3), rng.integers(0, 3, size=9)])
            qcams = np.zeros(4, dtype=int)
            gcams = np.ones(12, dtype=int)
            res = retrieval_eval(qf, qids, qcams, gf, gids, gcams)
            dist = np.array([[np.linalg.norm(q - g) for g in gf] for q in qf])
            want = np.mean([brute_force_ap(dist[i], gids, gcams, qids[i], qcams[i])
                            for i in range(4)])
            assert res.map == pytest.approx(want, abs=1e-12)

    def test_same_id_same_camera_is_junk(self):
        qf = np.array([[1.0, 0.0]])
        # identical twin in the same camera must be skipped, not counted
        gf = np.array([[1.0, 0.0], [0.0, 1.0]])
        res = retrieval_eval(qf, [5], [0], gf, [5, 5], [0, 1])
        assert res.map == 1.0  # only the cross-camera match remains

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        qf = l2_normalize(rng.standard_normal((5, 6)))
        gf = l2_normalize(rng.standard_normal((15, 6)))
        qids = rng.integers(0, 4, size=5)
        gids = np.concatenate([np.arange(4), rng.integers(0, 4, size=11)])
        qcams, gcams = np.zeros(5, dtype=int), np.ones(15, dtype=int)
        base = retrieval_eval(qf, qids, qcams, gf, gids, gcams)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotated = retrieval_eval(qf @ q, qids, qcams, gf @ q, gids, gcams)
        assert rotated.map == pytest.approx(base.map, abs=1e-9)
        assert np.allclose(rotated.cmc, base.cmc, atol=1e-9)

    def test_cmc_monotone_and_saturates(self):
        rng = np.random.default_rng(4)
        qf = l2_normalize(rng.standard_normal((6, 4)))
        gf = l2_normalize(rng.standard_normal((10, 4)))
        qids = rng.integers(0, 3, size=6)
        gids = np.concatenate([np.arange(3), rng.integers(0, 3, size=7)])
        res = retrieval_eval(qf, qids, np.zeros(6, int), gf, gids, np.ones(10, int))
        assert np.all(np.diff(res.cmc) >= 0)
        assert res.cmc[-1] == 1.0

    def test_query_without_match_raises(self):
        qf = np.array([[1.0, 0.0]])
        gf = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            retrieval_eval(qf, [5], [0], gf, [5, 9], [0, 0])  # only junk shares id

    @pytest.mark.parametrize("queries, gallery", [(0, 3), (2, 0)])
    def test_empty_query_set_or_gallery_raises(self, queries, gallery):
        # an empty query set scored mAP NaN and an all-NaN CMC
        qf, gf = np.ones((queries, 2)), np.ones((gallery, 2))
        with pytest.raises(ValueError, match="at least one query and one gallery"):
            retrieval_eval(qf, np.zeros(queries, int), np.zeros(queries, int),
                           gf, np.zeros(gallery, int), np.ones(gallery, int))

    @pytest.mark.parametrize("surplus", [-1, 1], ids=["short", "long"])
    @pytest.mark.parametrize("at", [1, 2, 4, 5],
                             ids=["query_ids", "query_cams", "gallery_ids", "gallery_cams"])
    def test_labels_must_match_feature_rows(self, at, surplus):
        # a short array raised IndexError mid-loop; a long one was ignored
        args = [np.eye(3), [0, 1, 2], [0, 0, 0], np.eye(3), [0, 1, 2], [1, 1, 1]]
        args[at] = list(range(3 + surplus))
        with pytest.raises(ValueError, match="one per feature row"):
            retrieval_eval(*args)

    def test_distance_ties_break_by_gallery_index(self):
        qf = np.array([[1.0, 0.0]])
        gf = np.array([[0.0, 1.0], [0.0, 1.0]])  # equidistant pair
        res_a = retrieval_eval(qf, [1], [0], gf, [9, 1], [1, 1])
        assert res_a.map == pytest.approx(0.5)  # junk-free tie: index 0 first
        res_b = retrieval_eval(qf, [1], [0], gf, [1, 9], [1, 1])
        assert res_b.map == pytest.approx(1.0)


def random_splits(rng, trials):
    """Query/gallery splits whose every query has a cross-camera match. An
    integer grid repeats distances, and few ids and cameras make junk."""
    for trial in range(trials):
        ng, d = int(rng.integers(2, 60)), int(rng.integers(1, 5))
        gf = rng.integers(-2, 3, size=(ng, d)).astype(float)
        qf = rng.integers(-2, 3, size=(int(rng.integers(1, 30)), d)).astype(float)
        if trial % 2:
            gf, qf = gf + 0.1 * rng.standard_normal(gf.shape), l2_normalize(qf + 0.1)
        ids, cams = int(rng.integers(1, 5)), int(rng.integers(2, 4))
        gids, gcams = rng.integers(0, ids, size=ng), rng.integers(0, cams, size=ng)
        qids, qcams = rng.integers(0, ids, size=len(qf)), rng.integers(0, cams, size=len(qf))
        matched = ((gids == qids[:, None]) & (gcams != qcams[:, None])).any(axis=1)
        if matched.any():
            yield qf[matched], qids[matched], qcams[matched], gf, gids, gcams


def unit_split(queries, gallery, d=32):
    """Random unit rows; queries in camera 0, gallery in camera 1, and every
    one of queries // 4 ids in the gallery."""
    rng = np.random.default_rng(queries)
    ids = max(1, queries // 4)
    gids = np.concatenate([np.arange(ids), rng.integers(0, ids, size=gallery - ids)])
    return (l2_normalize(rng.standard_normal((queries, d))), np.arange(queries) % ids,
            np.zeros(queries, dtype=int), l2_normalize(rng.standard_normal((gallery, d))),
            gids, np.ones(gallery, dtype=int))


def assert_same_as_oracle(split):
    got, want = retrieval_eval(*split), oracles.retrieval_eval(*split)
    assert np.float64(got.map).tobytes() == np.float64(want.map).tobytes()
    assert got.cmc.dtype == want.cmc.dtype and got.cmc.tobytes() == want.cmc.tobytes()


class TestRetrievalEvalAgainstDenseOracle:
    """Query blocks of (rows, G) distances and a histogram of first-hit
    ranks give the mAP and CMC of the dense loop with its (Q, G) distance and
    hit matrices, bit for bit."""

    def test_random_splits_with_ties_and_junk(self):
        for split in random_splits(np.random.default_rng(5), 40):
            assert_same_as_oracle(split)

    def test_small_odd_sized_query_blocks(self, monkeypatch):
        # at least 3 rows per block keep every near-equal block at 2 rows or
        # more; a block of one row would take a matrix-vector product
        rng = np.random.default_rng(6)
        for split in random_splits(rng, 40):
            queries, gallery = len(split[0]), len(split[3])
            rows = int(rng.choice([3, 5, 7]))
            entries = rows * gallery + int(rng.integers(0, gallery))
            monkeypatch.setattr(graph, "_BLOCK_ENTRIES", entries)
            assert queries <= rows or len(graph._row_blocks(queries, gallery, entries)) > 2
            assert_same_as_oracle(split)

    def test_default_query_blocks(self):
        split = unit_split(768, 1536)
        assert len(graph._row_blocks(768, 1536, graph._BLOCK_ENTRIES)) > 2
        assert_same_as_oracle(split)

    def test_query_without_match_raises_like_the_oracle(self):
        qf = np.array([[1.0, 0.0], [0.0, 1.0]])
        gf = np.array([[1.0, 0.0], [0.0, 1.0]])
        for evaluate in (retrieval_eval, oracles.retrieval_eval):
            with pytest.raises(ValueError, match="query 1"):
                evaluate(qf, [5, 9], [0, 0], gf, [5, 9], [1, 0])


class TestMemory:
    def test_retrieval_eval_peak_near_one_query_block(self):
        # one (rows, G) block of distances, reused, instead of the (Q, G)
        # array (9.4 MB here). On top: the doubled queries, the per-query
        # outputs, and a few gallery-length arrays while one query is ranked.
        queries, gallery, d = 768, 1536, 32
        split = unit_split(queries, gallery, d)
        retrieval_eval(*unit_split(8, 16, d))  # warm up the imports
        tracemalloc.start()
        try:
            retrieval_eval(*split)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = int(np.max(np.diff(graph._row_blocks(queries, gallery, graph._BLOCK_ENTRIES))))
        block = 8 * rows * gallery
        bound = block + 8 * queries * (d + 4) + 16 * 8 * gallery
        assert peak < bound, f"peak {peak} bytes, one block {block} bytes"
