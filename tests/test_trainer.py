import copy
import json
from dataclasses import asdict, fields
from types import SimpleNamespace

import numpy as np
import oracles
import pytest

from conftest import PANEL_SEEDS, adapt_config, pretrained_standard, standard_fixture
from reidapt.cluster import CoarseClusters
from reidapt.data import OUTLIER, SynthSpec, generate_synthetic
from reidapt.encoder import forward, init_classifier, init_encoder
from reidapt.losses import LossReport, batch_hard_triplet, cross_entropy
from reidapt.membank import MemoryBank, TrainingDivergedError, init_bank
from reidapt.refine import PseudoLabelSet, refine_labels
from reidapt.trainer import (
    _ADAPT_STREAM,
    ConfigError,
    TrainConfig,
    adapt,
    extract_features,
    joint_loss_and_grads,
    loss_csv_lines,
    metrics_csv_lines,
    offline_epoch,
    online_iteration,
    pk_sample,
    pretrain_source,
    source_top1_accuracy,
)


def small_fixture(seed=5, noise=0.35, shift=1.0):
    spec = SynthSpec(num_identities=12, samples_per_identity=10, num_cameras=3,
                     d_in=16, identity_spread=1.0, intra_noise=noise,
                     camera_shift_scale=0.3, domain_shift=shift, seed=seed)
    return generate_synthetic(spec)


def small_config(**kw):
    base = dict(pretrain_epochs=12, epochs=3, batch_p=4, batch_k=4,
                feat_dim=16, k_rr=10, eps_percentile=1.0, min_pts=4, seed=5)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults_match_reference_regime(self):
        cfg = TrainConfig()
        assert (cfg.alpha, cfg.mu) == (0.5, 0.1)
        assert (cfg.margin, cfg.spread_margin) == (0.3, 0.35)
        assert cfg.k_pos == 6
        assert cfg.batch_size == 64
        assert cfg.bank_tau == 0.01
        assert cfg.weight_decay == 5e-4

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError) as err:
            TrainConfig.from_dict({"alpha": 0.5, "alhpa": 0.2})
        assert "alhpa" in str(err.value)

    def test_from_dict_rejects_out_of_range(self):
        for key, value in (("alpha", 1.3), ("alpha", -0.1), ("mu", -0.5),
                           ("base_lr", -1e-4), ("bank_mode", "queue"),
                           ("bank_tau", 1.0), ("k_pos", -1)):
            with pytest.raises(ConfigError) as err:
                TrainConfig.from_dict({key: value})
            assert key in str(err.value)

    def test_from_dict_rejects_non_numbers_in_float_keys(self):
        for key, value in (("alpha", True), ("mu", False), ("base_lr", "x"),
                           ("margin", None), ("decay_factor", [10.0])):
            with pytest.raises(ConfigError) as err:
                TrainConfig.from_dict({key: value})
            assert key in str(err.value)

    def test_from_dict_accepts_integers_in_float_keys(self):
        cfg = TrainConfig.from_dict({"alpha": 1, "decay_factor": 10, "mu": np.float64(0.2)})
        assert (cfg.alpha, cfg.decay_factor, cfg.mu) == (1, 10, 0.2)

    def test_round_trip(self):
        # through JSON as the CLI's manifest and --config do: tuples come
        # back as lists
        cfg = TrainConfig(alpha=0.25, epochs=7, adapt_decay_epochs=(5,))
        assert TrainConfig.from_dict(json.loads(json.dumps(asdict(cfg)))) == cfg


class TestPretrainSource:
    def test_matches_the_inline_step(self):
        # pretraining runs the joint step at alpha = 0, mu = 0: the weights
        # equal those of the separate inline step bit for bit
        source, *_ = small_fixture()
        cfg = small_config(pretrain_epochs=4, base_lr=2e-3)
        got = pretrain_source(source.raw, source.identity, cfg)
        want = oracles.pretrain_source(source.raw, source.identity, cfg)
        for name in ("w1", "b1", "w2", "b2", "wc", "bc"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got.step == want.step

    def test_separable_source_high_accuracy(self):
        source, *_ = small_fixture(noise=0.0)
        cfg = small_config(pretrain_epochs=30, base_lr=2e-3)
        state = pretrain_source(source.raw, source.identity, cfg)
        assert source_top1_accuracy(state, source.raw, source.identity) >= 0.99

    def test_zero_lr_leaves_parameters_at_init(self):
        source, *_ = small_fixture()
        cfg = small_config(pretrain_epochs=1, base_lr=0.0, weight_decay=0.0)
        trained = pretrain_source(source.raw, source.identity, cfg)
        fresh = pretrain_source(source.raw, source.identity,
                                small_config(pretrain_epochs=0))
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(trained, name), getattr(fresh, name))

    def test_deterministic(self):
        source, *_ = small_fixture()
        cfg = small_config()
        a = pretrain_source(source.raw, source.identity, cfg)
        b = pretrain_source(source.raw, source.identity, cfg)
        for name in ("w1", "b1", "w2", "b2", "wc", "bc"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


class TestOfflineEpoch:
    def test_separated_blobs_recover_identities(self):
        spec = SynthSpec(num_identities=12, samples_per_identity=10, num_cameras=3,
                         d_in=16, identity_spread=1.0, intra_noise=0.02,
                         camera_shift_scale=0.0, domain_shift=0.0, seed=5)
        source, train, _, _ = generate_synthetic(spec)
        cfg = small_config(pretrain_epochs=15, eps_percentile=6.0)
        state = pretrain_source(source.raw, source.identity, cfg)
        es = offline_epoch(state, train.raw, cfg, 0, truth=train.identity)
        assert es.num_clusters == 12
        assert np.array_equal(es.labels.refined, es.labels.coarse)
        assert es.fscore_coarse == pytest.approx(1.0)

    def test_identical_features_single_cluster(self):
        source, *_ = small_fixture()
        cfg = small_config()
        state = pretrain_source(source.raw, source.identity, cfg)
        state.w1[:] = 0.0
        state.b1[:] = 1.0  # constant hidden activations -> identical features
        raw = np.random.default_rng(0).standard_normal((30, 16))
        es = offline_epoch(state, raw, cfg, 0)
        assert es.num_clusters == 1

    def test_all_outliers_raises(self):
        source, train, _, _ = small_fixture()
        cfg = small_config(min_pts=50)  # nothing can be a core point
        state = pretrain_source(source.raw, source.identity, cfg)
        with pytest.raises(TrainingDivergedError, match="epoch 0: every sample is an outlier"):
            offline_epoch(state, train.raw, cfg, 0)

    def test_mid_noise_refinement_improves_fscore(self):
        # the standard fixture at seed 3 with the contaminated-cluster config
        spec = SynthSpec(num_identities=64, samples_per_identity=20, num_cameras=4,
                         d_in=32, identity_spread=1.0, intra_noise=0.6,
                         camera_shift_scale=0.6, domain_shift=12.0, seed=3)
        source, train, _, _ = generate_synthetic(spec)
        cfg = TrainConfig(pretrain_epochs=30, eps_percentile=1.1, min_pts=12,
                          fine_clusters=5, seed=3)
        state = pretrain_source(source.raw, source.identity, cfg)
        es = offline_epoch(state, train.raw, cfg, 0, truth=train.identity)
        assert es.fscore_refined >= es.fscore_coarse

    def test_panel_labels_match_the_dense_chain(self):
        # first off-line epoch of the panel fixture at seed 11: the sparse
        # chain gives the dense chain's eps bit for bit and the same labels
        source, train, _, _ = standard_fixture(11)
        cfg = adapt_config(11)
        state = pretrain_source(source.raw, source.identity, cfg)
        es = offline_epoch(state, train.raw, cfg, 0, truth=train.identity)
        feats = extract_features(state, train.raw)
        d_j = oracles.dense_chain(feats, cfg.k_rr)[3]
        eps = max(oracles.dense_eps(d_j, cfg.eps_percentile), 1e-12)
        coarse, num_clusters = oracles.dbscan(d_j, eps, cfg.min_pts)
        assert es.eps == eps
        assert es.num_clusters == num_clusters > 1
        assert np.array_equal(es.labels.coarse, coarse)
        labels, _ = refine_labels(feats, CoarseClusters(coarse, num_clusters),
                                  cfg.fine_clusters, seed=(cfg.seed, _ADAPT_STREAM, 0))
        assert np.array_equal(es.labels.refined, labels.refined)

    def test_truth_channel_is_optional(self):
        source, train, _, _ = small_fixture()
        cfg = small_config()
        state = pretrain_source(source.raw, source.identity, cfg)
        es = offline_epoch(state, train.raw, cfg, 0)
        assert es.fscore_coarse is None and es.fscore_refined is None


def label_set(coarse):
    coarse = np.asarray(coarse, dtype=np.int64)
    valid = coarse[coarse != OUTLIER]
    return PseudoLabelSet(coarse=coarse, refined=coarse.copy(),
                          num_clusters=int(valid.max()) + 1 if len(valid) else 0)


class TestPkSample:
    def test_shape_and_grouping(self):
        labels = label_set([0, 0, 0, 1, 1, 1, 2, 2, 2])
        rng = np.random.default_rng(0)
        batch = pk_sample(labels, p=2, k=2, rng=rng)
        assert len(batch) == 4
        picked = labels.coarse[batch]
        values, counts = np.unique(picked, return_counts=True)
        assert len(values) == 2
        assert np.all(counts == 2)

    def test_small_cluster_replacement(self):
        labels = label_set([0, 1, 1, 1, 1])
        rng = np.random.default_rng(1)
        for _ in range(10):
            batch = pk_sample(labels, p=2, k=4, rng=rng)
            assert np.sum(labels.coarse[batch] == 0) == 4
            assert set(batch[labels.coarse[batch] == 0]) == {0}

    def test_outliers_never_sampled(self):
        labels = label_set([OUTLIER, 0, 0, 1, 1, OUTLIER])
        rng = np.random.default_rng(2)
        for _ in range(20):
            batch = pk_sample(labels, p=2, k=3, rng=rng)
            assert OUTLIER not in labels.coarse[batch]

    def test_uniform_cluster_frequency(self):
        labels = label_set(np.repeat(np.arange(8), 4))
        rng = np.random.default_rng(3)
        counts = np.zeros(8)
        draws = 10_000
        for _ in range(draws):
            batch = pk_sample(labels, p=2, k=2, rng=rng)
            for v in np.unique(labels.coarse[batch]):
                counts[v] += 1
        q = 2 / 8  # P of the 8 clusters per draw
        sigma = np.sqrt(draws * q * (1 - q))
        assert np.all(np.absolute(counts - draws * q) <= 3 * sigma)

    def test_too_few_clusters(self):
        labels = label_set([0, 0, 0, 0])
        with pytest.raises(ValueError):
            pk_sample(labels, p=2, k=2, rng=np.random.default_rng(4))

    def test_groups_follow_coarse_labels_when_refined_differ(self):
        # refinement moved members across coarse clusters: every refined
        # group mixes coarse clusters, so the two groupings give different
        # batches
        coarse = np.repeat(np.arange(4), 6)
        refined = np.tile(np.arange(4), 6)
        labels = PseudoLabelSet(coarse=coarse, refined=refined, num_clusters=4)
        rng = np.random.default_rng(5)
        for _ in range(50):
            batch = pk_sample(labels, p=3, k=4, rng=rng)
            values, counts = np.unique(coarse[batch], return_counts=True)
            assert len(values) == 3
            assert np.all(counts == 4)

    def test_batches_match_the_label_scan(self):
        # grouping once per label set draws the same batches as scanning all
        # N labels for every chosen cluster
        rng = np.random.default_rng(6)
        for trial in range(20):
            n = int(rng.integers(8, 200))
            coarse = rng.integers(0, int(rng.integers(3, 12)), size=n)
            coarse[rng.random(n) < 0.2] = OUTLIER
            labels = label_set(coarse)
            p = min(3, len(np.unique(coarse[coarse != OUTLIER])))
            if p < 2:
                continue
            a, b = np.random.default_rng(trial), np.random.default_rng(trial)
            for _ in range(10):
                assert np.array_equal(pk_sample(labels, p, 4, a),
                                      oracles.pk_sample(labels, p, 4, b))

    @staticmethod
    def assert_same_draws(labels, p, k, batches):
        a, b = np.random.default_rng(0), np.random.default_rng(0)
        for _ in range(batches):
            got, want = pk_sample(labels, p, k, a), oracles.pk_sample(labels, p, k, b)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert a.integers(2**62) == b.integers(2**62)  # the streams end in step

    @pytest.mark.parametrize("clusters", [32, 100, 640])
    def test_batches_match_rng_choice(self, clusters):
        # P=16, K=4 as in training, over clusters of 1 to 12 members (about
        # a quarter smaller than K) and some outliers
        rng = np.random.default_rng(clusters)
        coarse = np.repeat(np.arange(clusters), rng.integers(1, 13, size=clusters))
        coarse = rng.permutation(coarse)
        coarse[rng.random(len(coarse)) < 0.05] = OUTLIER
        self.assert_same_draws(label_set(coarse), 16, 4, batches=50)

    def test_every_cluster_chosen(self):
        coarse = np.repeat(np.arange(16), np.arange(1, 17))
        self.assert_same_draws(label_set(coarse), 16, 4, batches=20)

    @pytest.mark.parametrize("k", [239])
    def test_large_cluster_either_side_of_the_tail_shuffle(self, k):
        # numpy's choice leaves Floyd's sampler for a tail shuffle when a
        # population above 10,000 gives more than n // 50 (240 here) picks;
        # a second cluster of 3 members draws with replacement
        coarse = np.concatenate([np.zeros(12_000, dtype=np.int64), np.ones(3, dtype=np.int64)])
        self.assert_same_draws(label_set(coarse), 2, k, batches=3)

    def test_large_cluster_above_the_tail_shuffle_threshold(self):
        # K = 241 > 12,000 // 50, where numpy's choice takes a tail shuffle:
        # the sampler keeps to Floyd's, K distinct members of the large
        # cluster, and the 3-member cluster's K draws stay within it
        coarse = np.concatenate([np.zeros(12_000, dtype=np.int64), np.ones(3, dtype=np.int64)])
        labels = label_set(coarse)
        rng = np.random.default_rng(0)
        for _ in range(3):
            batch = pk_sample(labels, 2, 241, rng)
            large, small = batch[coarse[batch] == 0], batch[coarse[batch] == 1]
            assert len(large) == len(np.unique(large)) == 241
            assert len(small) == 241
            assert set(small.tolist()) <= {12_000, 12_001, 12_002}


@pytest.fixture(scope="module")
def trained_setup():
    source, train, query, gallery = small_fixture()
    cfg = small_config()
    state = pretrain_source(source.raw, source.identity, cfg)
    es = offline_epoch(state, train.raw, cfg, 0)
    bank = init_bank(forward(state, train.raw)[0])
    return state, bank, train, es, cfg


class TestOnlineIteration:
    def test_zero_lr_freezes_encoder_and_bank(self, trained_setup):
        state0, bank0, train, es, cfg = trained_setup
        state = copy.deepcopy(state0)
        bank = copy.deepcopy(bank0)
        rng = np.random.default_rng(0)
        batch = pk_sample(es.labels, cfg.batch_p, cfg.batch_k, rng)
        report = online_iteration(state, bank, train.raw, batch, es.labels, cfg, lr=0.0)
        assert np.array_equal(state.w1, state0.w1)
        assert np.array_equal(bank.v, bank0.v)
        assert np.isfinite(report.total)
        assert report.total > 0

    def test_reports_hold_the_four_loss_numbers_only(self, trained_setup):
        state0, _, train, _, _ = trained_setup
        reports = []
        adapt(copy.deepcopy(state0), train.raw, small_config(epochs=1, iters_per_epoch=50),
              on_epoch=lambda m, s, b, r, l: reports.extend(r))
        assert len(reports) == 50
        assert [f.name for f in fields(LossReport)] == ["cls", "tri", "spread", "total"]
        assert not any(isinstance(value, np.ndarray)
                       for r in reports for value in vars(r).values())

    def test_alpha_mu_zero_reduces_to_baseline(self, trained_setup):
        state0, bank0, train, es, _ = trained_setup
        cfg = small_config(alpha=0.0, mu=0.0)
        state = copy.deepcopy(state0)
        bank = copy.deepcopy(bank0)
        rng = np.random.default_rng(1)
        batch = pk_sample(es.labels, cfg.batch_p, cfg.batch_k, rng)
        frozen = copy.deepcopy(state)
        report = online_iteration(state, bank, train.raw, batch, es.labels, cfg,
                                  lr=cfg.base_lr)
        # recompute the Eq.-5 style objective independently on the same batch
        from reidapt.encoder import classifier_forward
        feats, _ = forward(frozen, train.raw[batch])
        probs = classifier_forward(frozen, feats)
        cls, _ = cross_entropy(probs, es.labels.coarse[batch])
        tri, _ = batch_hard_triplet(feats, es.labels.coarse[batch], cfg.margin)
        assert report.total == pytest.approx(cls + tri, abs=1e-12)

    def test_momentum_mode_updates_batch_rows_only(self, trained_setup):
        state0, _, train, es, _ = trained_setup
        cfg = small_config(bank_mode="momentum")
        state = copy.deepcopy(state0)
        bank = init_bank(forward(state, train.raw)[0])
        before = bank.v.copy()
        rng = np.random.default_rng(2)
        batch = pk_sample(es.labels, cfg.batch_p, cfg.batch_k, rng)
        online_iteration(state, bank, train.raw, batch, es.labels, cfg, lr=cfg.base_lr)
        untouched = np.setdiff1d(np.arange(len(bank)), batch)
        assert np.array_equal(bank.v[untouched], before[untouched])
        assert not np.array_equal(bank.v[np.unique(batch)], before[np.unique(batch)])

    def test_fifty_iterations_descend(self, trained_setup):
        state0, bank0, train, es, cfg = trained_setup
        state = copy.deepcopy(state0)
        bank = copy.deepcopy(bank0)
        rng = np.random.default_rng(3)
        reports = []
        for _ in range(50):
            batch = pk_sample(es.labels, cfg.batch_p, cfg.batch_k, rng)
            reports.append(online_iteration(state, bank, train.raw, batch,
                                            es.labels, cfg, lr=cfg.base_lr))
        assert reports[-1].total < reports[0].total
        assert np.allclose(np.linalg.norm(bank.v, axis=1), 1.0, atol=1e-6)


def relabeled(labels):
    """The same clusters under refined labels that differ on every sample."""
    coarse = labels.coarse
    refined = np.where(coarse == OUTLIER, OUTLIER, (coarse + 1) % labels.num_clusters)
    return PseudoLabelSet(coarse=coarse, refined=refined,
                          num_clusters=labels.num_clusters)


def split_in_batch(labels, batch):
    """Refined labels that split the first coarse cluster of ``batch``: every
    other member of it in the batch moves to a label the batch does not hold.

    Renamed clusters (``relabeled``) leave the batch-hard triplet unchanged,
    which ignores label names; a split cluster changes its positives."""
    coarse = labels.coarse
    members = np.unique(batch[coarse[batch] == coarse[batch[0]]])
    spare = np.setdiff1d(np.arange(labels.num_clusters), coarse[batch])[0]
    refined = coarse.copy()
    refined[members[1::2]] = spare
    return PseudoLabelSet(coarse=coarse, refined=refined,
                          num_clusters=labels.num_clusters)


class TestZeroWeightBranches:
    """A term whose weight is exactly 0 is never computed."""

    @staticmethod
    def record_label_branches(monkeypatch):
        import reidapt.trainer as trainer
        seen = []
        for name in ("cross_entropy", "batch_hard_triplet"):
            real = getattr(trainer, name)

            def recording(first, labels, *rest, _real=real, _name=name):
                seen.append((_name, np.array(labels)))
                return _real(first, labels, *rest)

            monkeypatch.setattr(trainer, name, recording)
        return seen

    @pytest.mark.parametrize("mode", ["instant", "momentum"])
    def test_mu_zero_never_touches_the_bank(self, trained_setup, monkeypatch, mode):
        import reidapt.membank as membank
        import reidapt.trainer as trainer
        state0, _, train, es, _ = trained_setup
        cfg = small_config(alpha=0.0, mu=0.0, bank_mode=mode)

        def forbidden(*args, **kw):
            raise AssertionError("a zero-weight bank branch was computed")

        for name in ("spread_loss", "instant_update", "momentum_update"):
            monkeypatch.setattr(trainer, name, forbidden)
        # spread_loss, the caller of positive_sets, reaches it through membank
        monkeypatch.setattr(membank, "positive_sets", forbidden)
        seen = self.record_label_branches(monkeypatch)
        state = copy.deepcopy(state0)
        bank = init_bank(forward(state, train.raw)[0])
        before = bank.v.copy()
        labels = relabeled(es.labels)
        rng = np.random.default_rng(4)
        for _ in range(3):
            batch = pk_sample(labels, cfg.batch_p, cfg.batch_k, rng)
            report = online_iteration(state, bank, train.raw, batch, labels, cfg,
                                      lr=cfg.base_lr)
            assert report.spread is None
            # alpha = 0: only the coarse labels reach the loss functions
            assert [name for name, _ in seen] == ["cross_entropy", "batch_hard_triplet"]
            assert all(np.array_equal(used, labels.coarse[batch]) for _, used in seen)
            seen.clear()
        assert not np.array_equal(state.w1, state0.w1)
        assert bank.v.tobytes() == before.tobytes()

    def test_alpha_one_skips_the_coarse_branch(self, trained_setup, monkeypatch):
        state0, bank0, train, es, _ = trained_setup
        cfg = small_config(alpha=1.0)
        seen = self.record_label_branches(monkeypatch)
        labels = relabeled(es.labels)
        batch = pk_sample(labels, cfg.batch_p, cfg.batch_k, np.random.default_rng(5))
        report = online_iteration(copy.deepcopy(state0), copy.deepcopy(bank0),
                                  train.raw, batch, labels, cfg, lr=cfg.base_lr)
        assert report.spread is not None
        assert len(seen) == 2
        assert all(np.array_equal(used, labels.refined[batch]) for _, used in seen)

    def test_equal_labelings_are_computed_once(self, trained_setup, monkeypatch):
        state0, bank0, train, es, _ = trained_setup
        cfg = small_config(alpha=0.5, margin=2.0)  # triplet terms not 0
        seen = self.record_label_branches(monkeypatch)
        labels = PseudoLabelSet(coarse=es.labels.coarse, refined=es.labels.coarse.copy(),
                                num_clusters=es.labels.num_clusters)
        batch = pk_sample(labels, cfg.batch_p, cfg.batch_k, np.random.default_rng(6))
        report = online_iteration(copy.deepcopy(state0), copy.deepcopy(bank0),
                                  train.raw, batch, labels, cfg, lr=cfg.base_lr)
        assert len(seen) == 2
        # the reused terms blend as the all-branch step's two computed ones do
        full = oracles.joint_loss_and_grads(
            state0, bank0, train.raw[batch], labels.coarse[batch],
            labels.refined[batch], batch, cfg)[0]
        assert (bits(full.cls_noisy), bits(full.tri_noisy)) == (bits(full.cls_refined),
                                                                bits(full.tri_refined))
        for name in ("cls", "tri", "total"):
            assert bits(getattr(report, name)) == bits(getattr(full, name))


class CountedRows(np.ndarray):
    """Bank rows that count the matrix products which read them (a transpose
    is a view of the same type, so it counts too)."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and method == "__call__":
            CountedRows.products += 1
        inputs = tuple(np.asarray(x) if isinstance(x, CountedRows) else x
                       for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestBankProducts:
    @pytest.mark.parametrize("k_pos", [0, 6])
    def test_one_similarity_product_per_step(self, trained_setup, monkeypatch, k_pos):
        # the positives and the spread-out loss share one anchor-to-bank
        # product; the other product is the feature gradient, coef @ v
        state, bank0, train, es, _ = trained_setup
        cfg = small_config(mu=0.1, k_pos=k_pos)
        bank = MemoryBank(v=bank0.v.copy().view(CountedRows))
        batch = pk_sample(es.labels, cfg.batch_p, cfg.batch_k, np.random.default_rng(8))
        monkeypatch.setattr(CountedRows, "products", 0)
        report = joint_loss_and_grads(state, bank, train.raw[batch], es.labels.coarse[batch],
                                      es.labels.refined[batch], batch, cfg)[0]
        assert report.spread is not None
        assert CountedRows.products == 2


def bits(value):
    return np.float64(value).tobytes()


class TestStepBlend:
    """The step blends its terms as the oracle blend and total do, bit for bit."""

    @staticmethod
    def step(trained_setup, monkeypatch, alpha, mu, split=False):
        """The step's report, the all-branch step's record of every term, and
        the labeling ("coarse" or "refined") of each loss call the step made.

        The refined labels rename every coarse cluster, or with ``split``
        split one cluster of the batch."""
        state, bank, train, es, _ = trained_setup
        # at the default margin every triplet term of this batch is 0
        cfg = small_config(alpha=alpha, mu=mu, margin=2.0)
        # the batch follows the coarse labels, which both labelings share
        batch = pk_sample(es.labels, cfg.batch_p, cfg.batch_k, np.random.default_rng(7))
        labels = split_in_batch(es.labels, batch) if split else relabeled(es.labels)
        args = (state, bank, train.raw[batch], labels.coarse[batch],
                labels.refined[batch], batch, cfg)
        seen = TestZeroWeightBranches.record_label_branches(monkeypatch)
        report = joint_loss_and_grads(*args)[0]
        branches = ["coarse" if np.array_equal(used, labels.coarse[batch]) else "refined"
                    for _, used in seen]
        # the all-branch step computes every term, so it records them all
        full = oracles.joint_loss_and_grads(*args)[0]
        spread = 0.0 if report.spread is None else report.spread
        total = oracles.total_loss(report.cls, report.tri, spread, mu)
        for got, want in ((report.total, total), (report.cls, full.cls),
                          (report.tri, full.tri), (report.total, full.total)):
            assert bits(got) == bits(want)
        return report, full, branches

    @pytest.mark.parametrize("mu", [0.0, 0.1])
    def test_alpha_zero_is_noisy_baseline(self, trained_setup, monkeypatch, mu):
        report, full, branches = self.step(trained_setup, monkeypatch, 0.0, mu)
        assert branches == ["coarse", "coarse"]
        assert (bits(report.cls), bits(report.tri)) == (bits(full.cls_noisy),
                                                        bits(full.tri_noisy))

    @pytest.mark.parametrize("mu", [0.0, 0.1])
    def test_alpha_one_is_refined(self, trained_setup, monkeypatch, mu):
        report, full, branches = self.step(trained_setup, monkeypatch, 1.0, mu)
        assert branches == ["refined", "refined"]
        assert (bits(report.cls), bits(report.tri)) == (bits(full.cls_refined),
                                                        bits(full.tri_refined))

    @pytest.mark.parametrize("mu", [0.0, 0.1])
    def test_alpha_half_is_mean(self, trained_setup, monkeypatch, mu):
        report, full, branches = self.step(trained_setup, monkeypatch, 0.5, mu)
        assert branches == ["coarse", "coarse", "refined", "refined"]
        assert full.cls_noisy != full.cls_refined
        assert report.cls == pytest.approx(0.5 * (full.cls_noisy + full.cls_refined))
        assert report.tri == pytest.approx(0.5 * (full.tri_noisy + full.tri_refined))

    @pytest.mark.parametrize("mu", [0.0, 0.1])
    def test_alpha_half_blends_a_split_cluster(self, trained_setup, monkeypatch, mu):
        # renamed clusters give equal triplet terms, so only a split shows
        # that each labeling's triplet term gets its own weight
        report, full, branches = self.step(trained_setup, monkeypatch, 0.5, mu, split=True)
        assert branches == ["coarse", "coarse", "refined", "refined"]
        assert full.tri_noisy != full.tri_refined
        assert bits(report.tri) == bits(full.tri)
        assert bits(report.cls) == bits(full.cls)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_total_composition(self, trained_setup, monkeypatch, alpha):
        report, _, _ = self.step(trained_setup, monkeypatch, alpha, 0.1)
        assert report.total == pytest.approx(report.cls + report.tri + 0.1 * report.spread)
        report, _, _ = self.step(trained_setup, monkeypatch, alpha, 0.0)
        assert report.spread is None
        assert bits(report.total) == bits(report.cls + report.tri)


class TestAgainstTheAllBranchStep:
    """Whole adaptation runs against the step that computes every branch."""

    @staticmethod
    def run(monkeypatch, step, redraw, cfg, pretrained, raw):
        import reidapt.trainer as trainer
        monkeypatch.setattr(trainer, "online_iteration", step)
        monkeypatch.setattr(trainer, "init_classifier", redraw)
        bank0 = init_bank(forward(pretrained, raw)[0])
        rows = []
        state, history, bank = adapt(
            copy.deepcopy(pretrained), raw, cfg, bank=copy.deepcopy(bank0),
            on_epoch=lambda m, s, b, r, l: rows.extend((m.epoch, i, x) for i, x in enumerate(r)))
        # the all-branch step returns some terms as np.float64, whose repr is
        # not a plain number, so the losses are compared as floats
        losses = [[None if x is None else float(x) for x in (r.cls, r.tri, r.spread, r.total)]
                  for _, _, r in rows]
        return SimpleNamespace(state=state, metrics=metrics_csv_lines(history),
                               losses=losses, loss_lines=loss_csv_lines(rows),
                               bank=bank.v, bank0=bank0.v)

    @classmethod
    def both(cls, monkeypatch, cfg):
        """The library's run after its own pretraining, and the all-branch
        step's after the oracle pretraining: both chains keep their Adam
        moments from pretraining into adaptation, and each resets its
        classifier's at every redraw."""
        source, train, _, _ = small_fixture()
        got = cls.run(monkeypatch, online_iteration, init_classifier, cfg,
                      pretrain_source(source.raw, source.identity, cfg), train.raw)
        want = cls.run(monkeypatch, oracles.online_iteration, oracles.init_classifier, cfg,
                       oracles.pretrain_source(source.raw, source.identity, cfg), train.raw)
        return got, want

    @pytest.mark.parametrize("mode", ["instant", "momentum"])
    def test_full_weights_are_bit_identical(self, monkeypatch, mode):
        cfg = small_config(epochs=2, alpha=0.5, mu=0.1, bank_mode=mode)
        got, want = self.both(monkeypatch, cfg)
        for name in ("w1", "b1", "w2", "b2", "wc", "bc"):
            assert getattr(got.state, name).tobytes() == getattr(want.state, name).tobytes()
        assert got.metrics == want.metrics
        assert got.losses == want.losses
        assert got.bank.tobytes() == want.bank.tobytes()
        assert not np.array_equal(got.bank, got.bank0)
        for line in got.loss_lines[1:]:   # losses.csv holds plain numbers
            assert all(np.isfinite(float(field)) for field in line.split(","))

    def test_baseline_differs_only_in_spread_and_bank(self, monkeypatch):
        cfg = small_config(epochs=2, alpha=0.0, mu=0.0)
        got, want = self.both(monkeypatch, cfg)
        for name in ("w1", "b1", "w2", "b2", "wc", "bc"):
            assert getattr(got.state, name).tobytes() == getattr(want.state, name).tobytes()

        def drop(row, column):
            return row[:column] + row[column + 1:]

        spread = 7  # column of metrics.csv
        assert ([drop(line.split(","), spread) for line in got.metrics]
                == [drop(line.split(","), spread) for line in want.metrics])
        assert all(line.split(",")[spread] == "" for line in got.metrics[1:])
        assert [drop(row, 2) for row in got.losses] == [drop(row, 2) for row in want.losses]
        assert all(line.split(",")[4] == "" for line in got.loss_lines[1:])
        assert got.bank.tobytes() == got.bank0.tobytes()   # the bank never moved
        assert not np.array_equal(want.bank, want.bank0)


class TestAdapt:
    def test_zero_epochs_returns_input_state(self):
        source, train, _, _ = small_fixture()
        cfg = small_config(epochs=0)
        state = pretrain_source(source.raw, source.identity, cfg)
        before = {k: getattr(state, k).copy() for k in ("w1", "b1", "w2", "b2")}
        out, history, _ = adapt(state, train.raw, cfg)
        assert history == []
        for k, v in before.items():
            assert np.array_equal(getattr(out, k), v)

    def test_metrics_deterministic_across_runs(self):
        source, train, _, _ = small_fixture()
        cfg = small_config(epochs=2)
        runs = []
        for _ in range(2):
            state = pretrain_source(source.raw, source.identity, cfg)
            _, history, _ = adapt(state, train.raw, cfg, truth=train.identity)
            runs.append("\n".join(metrics_csv_lines(history)))
        assert runs[0] == runs[1]

    @pytest.mark.filterwarnings(r"ignore:.*only \d+ clusters; reducing batch labels:UserWarning")
    def test_adapt_improves_mid_noise_retrieval(self):
        from reidapt.evaluate import retrieval_eval
        spec = SynthSpec(num_identities=32, samples_per_identity=12, num_cameras=3,
                         d_in=24, identity_spread=1.0, intra_noise=0.5,
                         camera_shift_scale=0.5, domain_shift=10.0, seed=5)
        source, train, query, gallery = generate_synthetic(spec)
        cfg = TrainConfig(pretrain_epochs=25, epochs=8, batch_p=8, batch_k=4,
                          feat_dim=24, eps_percentile=0.7, min_pts=6,
                          base_lr=5e-3, adapt_decay_epochs=(6,), seed=5)

        def score(state):
            return retrieval_eval(
                extract_features(state, query.raw), query.identity, query.camera,
                extract_features(state, gallery.raw), gallery.identity,
                gallery.camera).map

        state = pretrain_source(source.raw, source.identity, cfg)
        direct = score(state)
        state, history, _ = adapt(state, train.raw, cfg, truth=train.identity)
        assert score(state) > direct
        assert len(history) == 8

    def test_alpha_does_not_change_batches(self, monkeypatch):
        import reidapt.trainer as trainer
        source, train, _, _ = small_fixture()
        cfg = small_config(epochs=1)
        pretrained = pretrain_source(source.raw, source.identity, cfg)
        draws, labels = {}, []
        for alpha in (0.0, 1e-9, 0.5, 1.0):
            batches = []

            def recording(*args, **kw):
                batches.append(pk_sample(*args, **kw))
                return batches[-1]

            monkeypatch.setattr(trainer, "pk_sample", recording)
            adapt(copy.deepcopy(pretrained), train.raw,
                  small_config(epochs=1, alpha=alpha),
                  on_epoch=lambda m, s, b, r, l: labels.append(l))
            draws[alpha] = np.stack(batches)
        # refinement moved some samples, so a refined grouping would differ
        assert labels[0].relabel_fraction() > 0.0
        for alpha in (1e-9, 0.5, 1.0):
            assert np.array_equal(draws[alpha], draws[0.0])

    @pytest.mark.parametrize("rows, cols", [(5, 0), (-5, 0), (0, 1)])
    def test_rejects_bank_of_other_shape(self, rows, cols, monkeypatch):
        import reidapt.trainer as trainer
        _, train, _, _ = small_fixture()
        cfg = small_config(epochs=1)
        state = init_encoder(train.raw.shape[1], 2 * cfg.feat_dim, cfg.feat_dim,
                             np.random.default_rng(0))
        n, d = len(train.raw), cfg.feat_dim
        bank = init_bank(np.random.default_rng(1).standard_normal((n + rows, d + cols)))

        def forbidden(*args, **kw):
            raise AssertionError("an epoch started")

        monkeypatch.setattr(trainer, "offline_epoch", forbidden)
        with pytest.raises(ValueError, match=rf"\({n}, {d}\)"):
            adapt(state, train.raw, cfg, bank=bank)

    def test_epoch_callback_sees_every_epoch(self):
        source, train, _, _ = small_fixture()
        cfg = small_config(epochs=2)
        state = pretrain_source(source.raw, source.identity, cfg)
        seen = []
        adapt(state, train.raw, cfg,
              on_epoch=lambda m, s, b, r, l: seen.append((m.epoch, len(r), l)))
        assert [e for e, _, _ in seen] == [0, 1]
        assert all(n >= 1 for _, n, _ in seen)
        assert all(len(l.coarse) == len(train.raw) for _, _, l in seen)


class TestFscoreTrend:
    def test_coarse_fscore_mostly_non_decreasing_across_panel(self):
        # mirrors the qualitative label-quality trend: over ten seeds of the
        # standard fixture, coarse F rarely regresses between epochs. Flutter
        # below 0.005 near saturation does not count as a regression.
        ups = transitions = 0
        for seed in PANEL_SEEDS:
            train = standard_fixture(seed)[1]
            cfg = TrainConfig(pretrain_epochs=30, epochs=8, eps_percentile=0.5,
                              min_pts=8, seed=seed)
            state = pretrained_standard(seed, cfg)
            _, history, _ = adapt(state, train.raw, cfg, truth=train.identity)
            fc = [m.fscore_coarse for m in history]
            ups += sum(1 for i in range(len(fc) - 1) if fc[i + 1] >= fc[i] - 5e-3)
            transitions += len(fc) - 1
        assert ups / transitions >= 0.8


class TestCsvFormatting:
    def test_metrics_lines(self):
        source, train, _, _ = small_fixture()
        cfg = small_config(epochs=1)
        state = pretrain_source(source.raw, source.identity, cfg)
        _, history, _ = adapt(state, train.raw, cfg, truth=train.identity)
        lines = metrics_csv_lines(history)
        assert lines[0].startswith("epoch,num_clusters,outliers")
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 9

    def test_missing_fscore_is_empty_field(self):
        source, train, _, _ = small_fixture()
        cfg = small_config(epochs=1)
        state = pretrain_source(source.raw, source.identity, cfg)
        _, history, _ = adapt(state, train.raw, cfg)
        row = metrics_csv_lines(history)[1].split(",")
        assert row[3] == "" and row[4] == ""

    def test_loss_lines(self):
        rep = LossReport(cls=1.5, tri=3.5, spread=5.0, total=5.5)
        lines = loss_csv_lines([(0, 0, rep)])
        assert lines[0] == "epoch,iter,cls,tri,spread,total"
        assert lines[1].split(",")[:2] == ["0", "0"]
