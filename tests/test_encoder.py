import copy
import json

import numpy as np
import oracles
import pytest
from helpers import central_diff, rel_error

from reidapt.encoder import (
    CLASSIFIER_PARAMS,
    ENCODER_PARAMS,
    EncoderState,
    adam_step,
    backward,
    classifier_backward,
    classifier_forward,
    forward,
    init_classifier,
    init_encoder,
    load_checkpoint,
    lr_at,
    save_checkpoint,
)
from reidapt.trainer import TrainConfig


def random_state(rng, d_in=5, hidden=7, d=4, classes=None):
    state = init_encoder(d_in, hidden, d, rng)
    if classes:
        init_classifier(state, classes, rng)
    return state


class TestForward:
    def test_zero_weights_zero_features(self):
        state = EncoderState(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 2)), np.zeros(2))
        feats, _ = forward(state, np.ones((5, 3)))
        assert np.all(feats == 0.0)

    def test_identity_weights_give_tanh(self):
        eye = np.eye(4)
        state = EncoderState(eye.copy(), np.zeros(4), eye.copy(), np.zeros(4))
        x = np.random.default_rng(0).standard_normal((6, 4))
        feats, _ = forward(state, x)
        assert np.array_equal(feats, np.tanh(x))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        state = random_state(rng)
        x = rng.standard_normal((3, 5))
        a, _ = forward(state, x)
        b, _ = forward(state, x)
        assert a.tobytes() == b.tobytes()

    def test_width_mismatch(self):
        state = random_state(np.random.default_rng(2))
        with pytest.raises(ValueError):
            forward(state, np.zeros((2, 9)))


class TestBackward:
    def test_zero_grad_features(self):
        rng = np.random.default_rng(3)
        state = random_state(rng)
        _, cache = forward(state, rng.standard_normal((4, 5)))
        grads = backward(state, cache, np.zeros((4, 4)))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_single_linear_layer_sum_loss(self):
        # with w1 = 0 every hidden unit sits at tanh'(0) = 1, so with w2 = I
        # and loss = sum(feats), d loss / d w1 = sum over batch of outer(x, ones)
        d = 3
        state = EncoderState(np.zeros((d, d)), np.zeros(d), np.eye(d), np.zeros(d))
        x = np.random.default_rng(4).standard_normal((6, d))
        _, cache = forward(state, x)
        grads = backward(state, cache, np.ones((6, d)))
        assert np.allclose(grads["w1"], x.sum(axis=0)[:, None] * np.ones((d, d)), atol=1e-12)
        assert np.allclose(grads["b2"], 6.0 * np.ones(d), atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        state = random_state(rng)
        x = rng.standard_normal((4, 5))
        w = rng.standard_normal((4, 4))  # random linear readout to scalar

        def loss_with(name, value):
            trial = EncoderState(**{**{k: getattr(state, k) for k in
                                       ("w1", "b1", "w2", "b2")}, name: value})
            feats, _ = forward(trial, x)
            return float(np.sum(feats * w))

        feats, cache = forward(state, x)
        grads = backward(state, cache, w)
        assert sorted(grads) == ["b1", "b2", "w1", "w2"]
        for name in ("w1", "b1", "w2", "b2"):
            num = central_diff(lambda v, n=name: loss_with(n, v), getattr(state, name))
            assert rel_error(grads[name], num) <= 1e-6

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(6)
        state = random_state(rng)
        _, cache = forward(state, rng.standard_normal((4, 5)))
        with pytest.raises(ValueError):
            backward(state, cache, np.zeros((3, 4)))


class TestClassifier:
    def test_zero_logits_uniform(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, classes=5)
        state.wc = np.zeros_like(state.wc)
        probs = classifier_forward(state, rng.standard_normal((3, 4)))
        assert np.allclose(probs, 0.2, atol=1e-12)

    def test_saturated_logit(self):
        state = random_state(np.random.default_rng(8), d_in=2, hidden=2, d=2, classes=3)
        state.wc = np.array([[1e4, 0.0], [0.0, 0.0], [0.0, 0.0]])
        state.bc = np.zeros(3)
        probs = classifier_forward(state, np.array([[1.0, 0.0]]))
        assert probs[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_softmax(self):
        rng = np.random.default_rng(9)
        state = random_state(rng, classes=6)
        feats = rng.standard_normal((5, 4))
        probs = classifier_forward(state, feats)
        logits = feats @ state.wc.T + state.bc
        direct = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        assert np.allclose(probs, direct, atol=1e-12)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_huge_logits_no_nan(self):
        state = random_state(np.random.default_rng(10), d=2, classes=2)
        state.wc = np.array([[1e6, 0.0], [-1e6, 0.0]])
        state.bc = np.zeros(2)
        probs = classifier_forward(state, np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert np.all(np.isfinite(probs))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_backward_shapes_and_chain(self):
        rng = np.random.default_rng(11)
        state = random_state(rng, classes=3)
        feats = rng.standard_normal((4, 4))
        grad_logits = rng.standard_normal((4, 3))
        grads, gfeats = classifier_backward(state, feats, grad_logits)
        assert grads["wc"].shape == state.wc.shape
        assert grads["bc"].shape == state.bc.shape
        assert np.allclose(gfeats, grad_logits @ state.wc, atol=1e-12)

    def test_reinit_leaves_encoder_untouched(self):
        rng = np.random.default_rng(12)
        state = random_state(rng, classes=4)
        before = {k: getattr(state, k).copy() for k in ("w1", "b1", "w2", "b2")}
        init_classifier(state, 9, rng)
        assert state.wc.shape == (9, state.feat_dim)
        assert state.bc.shape == (9,)
        for k, v in before.items():
            assert np.array_equal(getattr(state, k), v)


def encoder_grads(state, **given):
    """A gradient for each encoder parameter: the given ones, zeros for the
    rest (Adam steps a parameter group as a whole)."""
    return {name: given.get(name, np.zeros_like(getattr(state, name)))
            for name in ENCODER_PARAMS}


class TestAdam:
    def test_zero_grad_zero_decay_unchanged(self):
        rng = np.random.default_rng(13)
        state = random_state(rng)
        w1 = state.w1.copy()
        adam_step(state, encoder_grads(state, w1=np.zeros_like(w1)), lr=0.1, weight_decay=0.0)
        assert np.array_equal(state.w1, w1)
        assert state.step == 1

    def test_constant_gradient_moves_against_it(self):
        rng = np.random.default_rng(14)
        state = random_state(rng)
        g = np.full_like(state.w1, 0.5)
        start = state.w1.copy()
        for _ in range(25):
            adam_step(state, encoder_grads(state, w1=g), lr=1e-3, weight_decay=0.0)
        assert np.all(state.w1 < start)

    def test_first_step_closed_form(self):
        rng = np.random.default_rng(15)
        state = random_state(rng)
        g = rng.standard_normal(state.w1.shape)
        start = state.w1.copy()
        adam_step(state, encoder_grads(state, w1=g), lr=0.01, weight_decay=0.0)
        want = start - 0.01 * g / (np.abs(g) + 1e-8)
        assert np.allclose(state.w1, want, atol=1e-12)

    def test_decay_shrinks_without_gradient(self):
        rng = np.random.default_rng(16)
        state = random_state(rng)
        start = state.w1.copy()
        adam_step(state, encoder_grads(state, w1=np.zeros_like(start)), lr=0.1,
                  weight_decay=0.1)
        assert np.allclose(state.w1, start * (1.0 - 0.1 * 0.1), atol=1e-12)

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_matches_the_per_parameter_update(self, weight_decay):
        # 60 steps on all six parameters, through classifier redraws at the
        # same and at a new width, a deep copy that carries on mid-run and a
        # direct write into a parameter: every parameter equals the
        # per-parameter update's to the last bit after every step
        rng = np.random.default_rng(17)
        got = random_state(rng, classes=5)
        want = copy.deepcopy(got)
        for step in range(60):
            if step in (20, 40):
                classes = 5 if step == 20 else 9
                init_classifier(got, classes, np.random.default_rng(step))
                oracles.init_classifier(want, classes, np.random.default_rng(step))
            if step == 30:
                left, got = got, copy.deepcopy(got)
                left_bytes = {name: getattr(left, name).tobytes() for name in ENCODER_PARAMS}
            if step == 45:
                got.w2[1, 2] = want.w2[1, 2] = 0.25
            grads = {name: rng.standard_normal(getattr(got, name).shape)
                     for name in (*ENCODER_PARAMS, *CLASSIFIER_PARAMS)}
            lr = 10.0 ** rng.uniform(-4.0, -1.0)
            adam_step(got, grads, lr, weight_decay)
            oracles.adam_step(want, grads, lr, weight_decay)
            for name in (*ENCODER_PARAMS, *CLASSIFIER_PARAMS):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (step, name)
        assert got.step == want.step == 60
        # the state left behind at the copy was not stepped with it
        assert {name: getattr(left, name).tobytes() for name in ENCODER_PARAMS} == left_bytes


# the adaptation and pretraining profiles the trainer builds from the
# TrainConfig defaults
_DEFAULTS = TrainConfig()
ADAPT_PROFILE = dict(warmup_epochs=0, decay_epochs=_DEFAULTS.adapt_decay_epochs,
                     decay_factor=_DEFAULTS.decay_factor)
PRETRAIN_PROFILE = dict(warmup_epochs=_DEFAULTS.warmup_epochs,
                        decay_epochs=_DEFAULTS.pretrain_decay_epochs,
                        decay_factor=_DEFAULTS.decay_factor)


class TestLrSchedule:
    def test_adaptation_profile(self):
        base_lr = _DEFAULTS.base_lr
        assert lr_at(base_lr, 0, **ADAPT_PROFILE) == pytest.approx(3.5e-4)
        assert lr_at(base_lr, 19, **ADAPT_PROFILE) == pytest.approx(3.5e-4)
        assert lr_at(base_lr, 20, **ADAPT_PROFILE) == pytest.approx(3.5e-5)
        assert lr_at(base_lr, 39, **ADAPT_PROFILE) == pytest.approx(3.5e-5)

    def test_pretrain_warmup_line(self):
        base_lr = _DEFAULTS.base_lr
        assert lr_at(base_lr, 0, **PRETRAIN_PROFILE) == pytest.approx(3.5e-5)
        assert lr_at(base_lr, 5, **PRETRAIN_PROFILE) == pytest.approx(0.5 * (3.5e-5 + 3.5e-4))
        assert lr_at(base_lr, 10, **PRETRAIN_PROFILE) == pytest.approx(3.5e-4)
        assert lr_at(base_lr, 40, **PRETRAIN_PROFILE) == pytest.approx(3.5e-5)
        assert lr_at(base_lr, 70, **PRETRAIN_PROFILE) == pytest.approx(3.5e-6)

    def test_scales_with_base_lr(self):
        assert lr_at(7e-4, 0, **ADAPT_PROFILE) == pytest.approx(7e-4)
        assert lr_at(7e-4, 20, **ADAPT_PROFILE) == pytest.approx(7e-5)

    def test_validation(self):
        # a negative base_lr and unordered decay epochs are config errors,
        # checked where the config is read (test_trainer.py, test_cli.py)
        with pytest.raises(ValueError):
            lr_at(_DEFAULTS.base_lr, -1, **ADAPT_PROFILE)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        state = random_state(rng, classes=6)
        state.step = 123
        # persistence is float32: store float32-representable parameters
        for name in ("w1", "b1", "w2", "b2", "wc", "bc"):
            setattr(state, name, getattr(state, name).astype(np.float32).astype(np.float64))
        save_checkpoint(tmp_path / "ckpt", state)
        back = load_checkpoint(tmp_path / "ckpt")
        assert back.step == 123
        assert json.loads((tmp_path / "ckpt.json").read_text())["activation"] == "tanh"
        for name in ("w1", "b1", "w2", "b2", "wc", "bc"):
            assert np.array_equal(getattr(back, name), getattr(state, name))

    def test_unknown_activation_rejected(self, tmp_path):
        # forward always runs tanh, so a checkpoint that names another
        # activation would evaluate silently with the wrong network
        save_checkpoint(tmp_path / "ckpt", random_state(np.random.default_rng(19)))
        sidecar = tmp_path / "ckpt.json"
        doc = json.loads(sidecar.read_text())
        doc["activation"] = "relu"
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="relu"):
            load_checkpoint(tmp_path / "ckpt")

    def test_sidecar_appears_only_when_complete(self, tmp_path, monkeypatch):
        # resume trusts a checkpoint by its sidecar, so a write that stops
        # midway must leave none under the final name
        def cut_short(doc, fh, **kw):
            fh.write("{")
            raise KeyboardInterrupt

        monkeypatch.setattr(json, "dump", cut_short)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(tmp_path / "ckpt", random_state(np.random.default_rng(20)))
        assert (tmp_path / "ckpt.drft").exists()
        assert not (tmp_path / "ckpt.json").exists()

    def test_round_trip_without_classifier(self, tmp_path):
        state = random_state(np.random.default_rng(18))
        save_checkpoint(tmp_path / "ckpt", state)
        back = load_checkpoint(tmp_path / "ckpt")
        assert back.wc is None
        assert back.w1.shape == state.w1.shape
