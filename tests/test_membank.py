import tracemalloc

import numpy as np
import oracles
import pytest
from helpers import central_diff, rel_error

from reidapt.data import l2_normalize
from reidapt.membank import (
    MemoryBank,
    TrainingDivergedError,
    init_bank,
    instant_update,
    momentum_update,
    positive_sets,
    spread_loss,
)
from reidapt.trainer import TrainConfig


def naive_spread(feats, v, indices, margin):
    """Direct double-loop evaluation of the ranking regularizer."""
    total = 0.0
    n = len(v)
    for b in range(len(feats)):
        members = set(indices[b].tolist())
        z = 0.0
        for k in members:
            for j in range(n):
                if j in members:
                    continue
                z += np.exp(feats[b] @ v[j] - feats[b] @ v[k] + margin)
        total += np.log1p(z)
    return total / len(feats)


def unit_rows(rng, n, d):
    return l2_normalize(rng.standard_normal((n, d)))


class TestInitBank:
    def test_unit_input_unchanged(self):
        rng = np.random.default_rng(0)
        v = unit_rows(rng, 5, 3)
        bank = init_bank(v)
        assert np.allclose(bank.v, v, atol=1e-12)

    def test_norm_two_halved(self):
        bank = init_bank(np.array([[2.0, 0.0]]))
        assert np.allclose(bank.v, [[1.0, 0.0]], atol=1e-15)

    def test_rows_unit_within_tolerance(self):
        rng = np.random.default_rng(1)
        bank = init_bank(rng.standard_normal((20, 6)) * 3.0)
        assert np.allclose(np.linalg.norm(bank.v, axis=1), 1.0, atol=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            init_bank(np.zeros((2, 3)))

    def test_mode_validation(self):
        # the bank's update rule, blend and k are the config's to check; it
        # checks them on construction, before a bank is built
        for mode in ("instant", "momentum"):
            TrainConfig(bank_mode=mode)
        with pytest.raises(ValueError):
            TrainConfig(bank_mode="queue")
        with pytest.raises(ValueError):
            TrainConfig(bank_tau=1.0)
        with pytest.raises(ValueError):
            TrainConfig(k_pos=-1)


class TestPositiveSets:
    def test_k_zero_is_self_only(self):
        rng = np.random.default_rng(2)
        bank = init_bank(unit_rows(rng, 6, 4))
        positives = positive_sets(bank.v[[1, 4]] @ bank.v.T, np.array([1, 4]), 0)
        assert positives.tolist() == [[1], [4]]

    def test_exact_copy_is_selected(self):
        rng = np.random.default_rng(3)
        v = unit_rows(rng, 6, 4)
        v[3] = v[0]
        bank = init_bank(v)
        positives = positive_sets(v[[0]] @ bank.v.T, np.array([0]), 1)
        assert positives.tolist() == [[0, 3]]

    def test_matches_brute_force_top_k(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            v = unit_rows(rng, 6, 3)
            bank = init_bank(v)
            feats = unit_rows(rng, 3, 3)
            idx = rng.choice(6, size=3, replace=False)
            positives = positive_sets(feats @ bank.v.T, idx, 2)
            for b in range(3):
                sims = feats[b] @ v.T
                order = sorted((-sims[j], j) for j in range(6) if j != idx[b])
                want = sorted([j for _, j in order[:2]] + [int(idx[b])])
                assert positives[b].tolist() == want

    def test_k_clamped_to_bank_size(self):
        rng = np.random.default_rng(5)
        bank = init_bank(unit_rows(rng, 4, 3))
        positives = positive_sets(bank.v[[2]] @ bank.v.T, np.array([2]), 10)
        assert positives.tolist() == [[0, 1, 2, 3]]


def assert_same_sets(bank, feats, idx, k_pos):
    sims = feats @ bank.v.T
    before = sims.copy()
    got = positive_sets(sims, idx, k_pos)
    want = oracles.positive_sets(bank, feats, idx, k_pos)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert sims.tobytes() == before.tobytes()  # spread_loss reads it afterwards


class TestPositiveSetsAgainstArgsort:
    """The partial-sort sets equal the full-argsort sets, ascending rows."""

    @pytest.mark.parametrize("k_choice", ["zero", "one", "n_minus_1", "n", "above_n", "mid"])
    def test_random_banks(self, k_choice):
        rng = np.random.default_rng(30)
        for _ in range(40):
            n = int(rng.integers(2, 60))
            k_pos = {"zero": 0, "one": 1, "n_minus_1": n - 1, "n": n,
                     "above_n": n + 7, "mid": max(1, n // 3)}[k_choice]
            bank = init_bank(unit_rows(rng, n, 4))
            b = int(rng.integers(1, 12))
            feats = unit_rows(rng, b, 4)
            assert_same_sets(bank, feats, rng.integers(0, n, size=b), k_pos)

    @pytest.mark.parametrize("k_pos", [0, 1, 3, 7, 19, 20, 25])
    def test_duplicate_rows_tie_at_the_kth_similarity(self, k_pos):
        # a few distinct rows repeated many times: every anchor sees long
        # runs of equal similarities across the k-th position
        rng = np.random.default_rng(31 + k_pos)
        for _ in range(40):
            pool = unit_rows(rng, int(rng.integers(1, 5)), 3)
            v = pool[rng.integers(0, len(pool), size=20)]
            bank = init_bank(v)
            idx = rng.integers(0, 20, size=8)
            # anchors are bank rows themselves or fresh directions
            feats = v[idx] if rng.random() < 0.5 else unit_rows(rng, 8, 3)
            assert_same_sets(bank, feats, idx, k_pos)

    def test_single_entry_bank(self):
        bank = init_bank(np.array([[1.0, 0.0]]))
        assert positive_sets(bank.v @ bank.v.T, np.array([0]), 6).tolist() == [[0]]
        assert_same_sets(bank, bank.v, np.array([0]), 6)


class TestSpreadLoss:
    def test_no_negatives_zero_loss(self):
        rng = np.random.default_rng(6)
        v = unit_rows(rng, 5, 4)
        bank = init_bank(v)
        # k_pos = 4 makes the whole bank positive
        loss, gf, gv = spread_loss(v[[0, 2]], bank, np.array([0, 2]), 4, margin=0.35)
        assert loss == 0.0
        assert np.all(gf == 0.0)
        assert np.all(gv == 0.0)

    def test_equal_dots_counting_formula(self):
        # identical entries make every dot product equal; with margin zero the
        # per-anchor term is log(1 + |K|*(N - |K|))
        n = 6
        v = np.tile([[1.0, 0.0]], (n, 1))
        bank = MemoryBank(v=v.copy())
        feats = np.array([[1.0, 0.0]])
        # every similarity ties, so slots 1 and 2 join the anchor's own slot 0
        assert positive_sets(feats @ bank.v.T, np.array([0]), 2).tolist() == [[0, 1, 2]]
        loss, _, _ = spread_loss(feats, bank, np.array([0]), 2, margin=0.0)
        assert loss == pytest.approx(np.log(1 + 3 * 3), rel=1e-12)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            v = unit_rows(rng, 4, 3)
            bank = init_bank(v.copy())
            feats = unit_rows(rng, 2, 3)
            idx = np.array([0, 3])
            positives = positive_sets(feats @ bank.v.T, idx, 1)
            loss, _, _ = spread_loss(feats, bank, idx, 1, margin=0.35)
            want = naive_spread(feats, v, positives, 0.35)
            assert loss == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        v = unit_rows(rng, 5, 3)
        bank = init_bank(v.copy())
        feats = unit_rows(rng, 3, 3)
        idx = np.array([0, 2, 4])
        positives = positive_sets(feats @ bank.v.T, idx, 1)
        loss, gf, gv = spread_loss(feats, bank, idx, 1, margin=0.35)
        assert loss > 0

        # the positives are picked again at every perturbation, as in a step
        def loss_of_feats(f):
            return spread_loss(f, bank, idx, 1, 0.35)[0]

        def loss_of_bank(vv):
            trial = MemoryBank(v=vv)
            return spread_loss(feats, trial, idx, 1, 0.35)[0]

        # bank gradient covers both branches: entries inside some K_i and out
        assert rel_error(gf, central_diff(loss_of_feats, feats)) <= 1e-5
        assert rel_error(gv, central_diff(loss_of_bank, v)) <= 1e-5
        inside = np.unique(positives)
        outside = np.setdiff1d(np.arange(5), inside)
        assert np.any(gv[inside] != 0.0)
        if len(outside):
            assert np.any(gv[outside] != 0.0)

    def test_monotone_in_margin(self):
        rng = np.random.default_rng(9)
        v = unit_rows(rng, 6, 4)
        bank = init_bank(v.copy())
        feats = unit_rows(rng, 3, 4)
        idx = np.array([0, 1, 2])
        losses = [spread_loss(feats, bank, idx, 2, m)[0] for m in (0.0, 0.2, 0.35, 1.0)]
        assert all(b >= a for a, b in zip(losses, losses[1:]))

    def test_rejects_negative_margin(self):
        rng = np.random.default_rng(10)
        bank = init_bank(unit_rows(rng, 4, 3))
        with pytest.raises(ValueError):
            spread_loss(bank.v[[0]], bank, np.array([0]), 0, margin=-0.1)


def assert_same_spread(feats, bank, idx, k_pos, margin=0.35):
    got = spread_loss(feats, bank, idx, k_pos, margin)
    want = oracles.spread_loss(feats, bank, positive_sets(feats @ bank.v.T, idx, k_pos),
                               margin)
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    for g, w in zip(got[1:], want[1:]):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


class TestSpreadLossAgainstMasks:
    """Index-row spread-out equals the boolean-mask version bit for bit:
    loss, gradient wrt the anchors and gradient wrt every bank entry."""

    @pytest.mark.parametrize("k_choice", ["zero", "one", "mid", "n_minus_1", "above_n"])
    def test_random_banks(self, k_choice):
        rng = np.random.default_rng(40)
        for _ in range(30):
            n = int(rng.integers(2, 80))
            d = int(rng.integers(2, 9))
            k_pos = {"zero": 0, "one": 1, "mid": max(1, n // 4),
                     "n_minus_1": n - 1, "above_n": n + 3}[k_choice]
            bank = init_bank(unit_rows(rng, n, d))
            b = int(rng.integers(1, 16))
            feats = unit_rows(rng, b, d)
            idx = rng.integers(0, n, size=b)
            margin = float(rng.choice([0.0, 0.35, 1.0]))
            assert_same_spread(feats, bank, idx, k_pos, margin)

    @pytest.mark.parametrize("k_pos", [0, 2, 7, 19, 25])
    def test_duplicate_rows_tie_at_the_kth_similarity(self, k_pos):
        rng = np.random.default_rng(41 + k_pos)
        for _ in range(30):
            pool = unit_rows(rng, int(rng.integers(1, 5)), 3)
            v = pool[rng.integers(0, len(pool), size=20)]
            bank = init_bank(v)
            idx = rng.integers(0, 20, size=8)
            feats = v[idx] if rng.random() < 0.5 else unit_rows(rng, 8, 3)
            assert_same_spread(feats, bank, idx, k_pos)

    def test_no_negatives_zeroes_the_gradient(self):
        # k_pos >= N - 1: every row covers the bank, so no row is live
        rng = np.random.default_rng(42)
        bank = init_bank(unit_rows(rng, 9, 4))
        feats = unit_rows(rng, 5, 4)
        positives = positive_sets(feats @ bank.v.T, np.arange(5), 8)
        assert positives.shape == (5, 9)
        assert_same_spread(feats, bank, np.arange(5), 8)
        _, gf, gv = spread_loss(feats, bank, np.arange(5), 8, 0.35)
        assert not np.any(gf) and not np.any(gv)

    def test_single_entry_bank(self):
        bank = init_bank(np.array([[0.6, 0.8]]))
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert_same_spread(feats, bank, np.array([0, 0]), 6)


class TestSpreadLossMemory:
    def test_peak_below_two_and_a_half_similarity_matrices(self):
        # The (B, N) similarities, which become the gradient coefficients in
        # place, and positive_sets' one negated copy of them: two (B, N)
        # float64 arrays. A third (B, N) array, such as a separate partition
        # buffer or coefficient array, must fail.
        rng = np.random.default_rng(50)
        n, b = 5120, 64
        bank = init_bank(unit_rows(rng, n, 32))
        idx = rng.choice(n, size=b, replace=False)
        feats = l2_normalize(bank.v[idx] + 0.1 * rng.standard_normal((b, 32)))
        spread_loss(feats[:2], bank, idx[:2], 6, 0.35)  # warm up the imports
        tracemalloc.start()
        try:
            spread_loss(feats, bank, idx, 6, 0.35)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 2.5 * 8 * b * n
        assert peak < bound, f"peak {peak} bytes, 2.5 (B, N) arrays {bound:.0f} bytes"


class TestInstantUpdate:
    def test_zero_gradient_unchanged(self):
        rng = np.random.default_rng(11)
        bank = init_bank(unit_rows(rng, 5, 3))
        before = bank.v.copy()
        instant_update(bank, np.zeros_like(bank.v), eta=0.1)
        assert np.array_equal(bank.v, before)

    def test_zero_step_unchanged(self):
        rng = np.random.default_rng(16)
        bank = init_bank(unit_rows(rng, 6, 4))
        before = bank.v.tobytes()
        instant_update(bank, rng.standard_normal((6, 4)), eta=0.0)
        assert bank.v.tobytes() == before

    def test_steps_every_row_in_place(self):
        # no row of the gradient is zero: each row is the stepped row over
        # its norm, to the last bit, written into the bank's own array
        rng = np.random.default_rng(17)
        v = unit_rows(rng, 50, 8)
        grad = rng.standard_normal((50, 8)) * 0.1
        bank = MemoryBank(v=v.copy())
        storage = bank.v
        instant_update(bank, grad, eta=0.05)
        assert bank.v is storage
        for row, g, got in zip(v, grad, bank.v):
            stepped = row - 0.05 * g
            assert got.tobytes() == (stepped / np.linalg.norm(stepped, axis=-1)).tobytes()

    def test_orthogonal_gradient_restores_unit_norm(self):
        bank = init_bank(np.array([[1.0, 0.0]]))
        grad = np.array([[0.0, 0.5]])  # orthogonal to the entry
        instant_update(bank, grad, eta=0.01)
        assert abs(np.linalg.norm(bank.v[0]) - 1.0) <= 1e-12

    def test_matches_hand_applied_rule(self):
        rng = np.random.default_rng(12)
        v = unit_rows(rng, 4, 3)
        bank = init_bank(v.copy())
        grad = rng.standard_normal((4, 3)) * 0.1
        instant_update(bank, grad, eta=0.05)
        stepped = v - 0.05 * grad
        want = stepped / np.linalg.norm(stepped, axis=1, keepdims=True)
        assert np.allclose(bank.v, want, atol=1e-12)

    def test_zero_result_raises(self):
        bank = init_bank(np.array([[1.0, 0.0]]))
        with pytest.raises(TrainingDivergedError, match="bank update produced a zero entry"):
            instant_update(bank, np.array([[10.0, 0.0]]), eta=0.1)

    def test_descent_on_fixed_sets(self):
        rng = np.random.default_rng(13)
        v = unit_rows(rng, 8, 4)
        bank = init_bank(v.copy())
        feats = unit_rows(rng, 4, 4)
        idx = np.array([0, 2, 4, 6])
        positives = positive_sets(feats @ bank.v.T, idx, 2)
        before, _, gv = spread_loss(feats, bank, idx, 2, 0.35)
        instant_update(bank, gv, eta=1e-3)
        assert np.array_equal(positive_sets(feats @ bank.v.T, idx, 2), positives)
        after, _, _ = spread_loss(feats, bank, idx, 2, 0.35)
        assert after <= before
        assert np.allclose(np.linalg.norm(bank.v, axis=1), 1.0, atol=1e-6)


class TestMomentumUpdate:
    def test_tau_zero_overwrites(self):
        rng = np.random.default_rng(15)
        bank = init_bank(unit_rows(rng, 4, 3))
        feats = unit_rows(rng, 2, 3)
        momentum_update(bank, feats, np.array([1, 3]), tau=0.0)
        assert np.allclose(bank.v[[1, 3]], feats, atol=1e-12)

    def test_tau_near_one_barely_moves(self):
        rng = np.random.default_rng(18)
        bank = init_bank(unit_rows(rng, 3, 4))
        before = bank.v.copy()
        momentum_update(bank, unit_rows(rng, 1, 4), np.array([1]), tau=0.999)
        assert np.linalg.norm(bank.v[1] - before[1]) < 5e-3

    def test_zero_blend_raises(self):
        bank = init_bank(np.array([[1.0, 0.0]]))
        with pytest.raises(TrainingDivergedError, match="momentum blend produced a zero entry"):
            momentum_update(bank, np.array([[-1.0, 0.0]]), np.array([0]), tau=0.5)

    def test_hand_computed_blend(self):
        bank = init_bank(np.array([[1.0, 0.0], [0.0, 1.0]]))
        feat = np.array([[0.0, 1.0]])
        momentum_update(bank, feat, np.array([0]), tau=0.01)
        target = 0.01 * np.array([1.0, 0.0]) + 0.99 * np.array([0.0, 1.0])
        assert np.allclose(bank.v[0], target / np.linalg.norm(target), atol=1e-12)
        assert np.allclose(bank.v[1], [0.0, 1.0], atol=1e-15)

    def test_untouched_rows_stay(self):
        rng = np.random.default_rng(16)
        bank = init_bank(unit_rows(rng, 5, 3))
        before = bank.v.copy()
        momentum_update(bank, unit_rows(rng, 1, 3), np.array([2]), tau=0.5)
        keep = [0, 1, 3, 4]
        assert np.array_equal(bank.v[keep], before[keep])
        assert not np.array_equal(bank.v[2], before[2])
