"""A small feed-forward encoder with hand-derived gradients.

One tanh hidden layer (d_in -> h -> d) stands in for a deep backbone, plus
a linear softmax classifier whose width tracks the current number of
pseudo-classes. Adam with decoupled weight decay drives updates, one flat
pass per parameter group; all compute is float64 so finite-difference
checks are tight.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .data import read_features, write_features

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

ENCODER_PARAMS = ("w1", "b1", "w2", "b2")
CLASSIFIER_PARAMS = ("wc", "bc")
# Adam keeps one slot per group: the classifier's resets with its head
_PARAM_GROUPS = {"encoder": ENCODER_PARAMS, "classifier": CLASSIFIER_PARAMS}


@dataclass
class AdamSlot:
    m: np.ndarray  # flat moments of one parameter group, in its name order
    v: np.ndarray
    t: int = 0


@dataclass
class EncoderState:
    w1: np.ndarray                 # (d_in, h)
    b1: np.ndarray                 # (h,)
    w2: np.ndarray                 # (h, d)
    b2: np.ndarray                 # (d,)
    wc: np.ndarray | None = None   # (L, d) classifier, rebuilt per epoch
    bc: np.ndarray | None = None   # (L,)
    adam: dict = field(default_factory=dict)  # group name -> AdamSlot
    step: int = 0

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    @property
    def feat_dim(self) -> int:
        return self.w2.shape[1]


def init_encoder(d_in: int, hidden: int, feat_dim: int, rng) -> EncoderState:
    return EncoderState(
        w1=rng.standard_normal((d_in, hidden)) / np.sqrt(d_in),
        b1=np.zeros(hidden),
        w2=rng.standard_normal((hidden, feat_dim)) / np.sqrt(hidden),
        b2=np.zeros(feat_dim),
    )


def init_classifier(state: EncoderState, num_classes: int, rng):
    """(Re)build the classifier head; its Adam slot resets, encoder untouched."""
    state.wc = 0.01 * rng.standard_normal((num_classes, state.feat_dim))
    state.bc = np.zeros(num_classes)
    state.adam.pop("classifier", None)


def forward(state: EncoderState, x: np.ndarray):
    """Encode a batch; returns (features, cache) with the cache feeding backward."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != state.d_in:
        raise ValueError(f"expected (B, {state.d_in}) input, got {x.shape}")
    a1 = np.tanh(x @ state.w1 + state.b1)
    feats = a1 @ state.w2 + state.b2
    return feats, (x, a1)


def backward(state: EncoderState, cache, grad_feats: np.ndarray) -> dict:
    """Exact gradients of the encoder parameters, by name. The inputs are
    data, not parameters, so no gradient is taken with respect to them."""
    x, a1 = cache
    grad_feats = np.asarray(grad_feats, dtype=np.float64)
    if grad_feats.shape != (len(x), state.feat_dim):
        raise ValueError("gradient shape does not match the forward cache")
    g_w2 = a1.T @ grad_feats
    g_b2 = grad_feats.sum(axis=0)
    g_a1 = grad_feats @ state.w2.T
    g_z1 = g_a1 * (1.0 - a1 * a1)
    return {
        "w1": x.T @ g_z1,
        "b1": g_z1.sum(axis=0),
        "w2": g_w2,
        "b2": g_b2,
    }


def classifier_forward(state: EncoderState, feats: np.ndarray) -> np.ndarray:
    """Class probabilities via max-shifted softmax; rows sum to one."""
    if state.wc is None:
        raise ValueError("classifier not initialized")
    feats = np.asarray(feats, dtype=np.float64)
    if feats.shape[1] != state.feat_dim:
        raise ValueError("feature width does not match the classifier")
    logits = feats @ state.wc.T + state.bc
    logits = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(logits)
    return expd / expd.sum(axis=1, keepdims=True)


def classifier_backward(state: EncoderState, feats: np.ndarray,
                        grad_logits: np.ndarray):
    """Gradients of the classifier and its feature input given dL/dlogits."""
    grads = {
        "wc": grad_logits.T @ feats,
        "bc": grad_logits.sum(axis=0),
    }
    return grads, grad_logits @ state.wc


def adam_step(state: EncoderState, grads: dict, lr: float, weight_decay: float):
    """One Adam update with decoupled weight decay on every parameter group
    that ``grads`` names, given a gradient for each parameter of the group.

    A group's parameters and gradients are concatenated into flat vectors and
    updated by one sequence of whole-array ops, each the elementwise op of
    the per-parameter update in the same order, so every bit is the same.
    The parameters come back as views of the group's new flat vector.
    """
    for group, names in _PARAM_GROUPS.items():
        if names[0] not in grads:
            continue
        params = [getattr(state, name) for name in names]
        flat = np.concatenate(params, axis=None, dtype=np.float64)
        g = np.concatenate([grads[name] for name in names], axis=None, dtype=np.float64)
        slot = state.adam.get(group)
        if slot is None or slot.m.shape != flat.shape:
            slot = state.adam[group] = AdamSlot(np.zeros_like(flat), np.zeros_like(flat))
        slot.t += 1
        scratch = g * g
        scratch *= 1.0 - ADAM_BETA2
        slot.v *= ADAM_BETA2
        slot.v += scratch                                  # v = b2 v + (1 - b2) g^2
        g *= 1.0 - ADAM_BETA1
        slot.m *= ADAM_BETA1
        slot.m += g                                        # m = b1 m + (1 - b1) g
        np.divide(slot.v, 1.0 - ADAM_BETA2 ** slot.t, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += ADAM_EPS                                # sqrt(v_hat) + eps
        update = np.divide(slot.m, 1.0 - ADAM_BETA1 ** slot.t, out=g)
        update *= lr
        update /= scratch                                  # lr m_hat / (sqrt(v_hat) + eps)
        if weight_decay:
            update += np.multiply(flat, lr * weight_decay, out=scratch)
        flat -= update
        start = 0
        for name, param in zip(names, params):
            setattr(state, name, flat[start:start + param.size].reshape(param.shape))
            start += param.size
    state.step += 1


def lr_at(base_lr: float, epoch: int, warmup_epochs: int, decay_epochs,
          decay_factor: float) -> float:
    """Warmup then step decay; the warmup ramps from base_lr/10 to base_lr,
    and the rate is divided by decay_factor at each of decay_epochs."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    if warmup_epochs and epoch < warmup_epochs:
        frac = epoch / warmup_epochs
        return base_lr * (0.1 + 0.9 * frac)
    drops = sum(1 for e in decay_epochs if epoch >= e)
    return base_lr / decay_factor ** drops


def save_checkpoint(prefix, state: EncoderState):
    """The encoder's parameters flattened to float32, then a JSON sidecar of
    their shapes and the step, renamed into place last: a checkpoint with a
    sidecar is complete. The classifier head is not saved: every adaptation
    epoch redraws it before its first use."""
    prefix = str(prefix)
    params = [getattr(state, name) for name in ENCODER_PARAMS]
    write_features(prefix + ".drft", np.concatenate(params, axis=None)[None, :])
    sidecar = {
        "order": list(ENCODER_PARAMS),
        "shapes": {name: list(p.shape) for name, p in zip(ENCODER_PARAMS, params)},
        "activation": "tanh",
        "step": state.step,
    }
    with open(prefix + ".json.tmp", "w") as fh:
        json.dump(sidecar, fh, indent=0, sort_keys=True)
    os.replace(prefix + ".json.tmp", prefix + ".json")


def load_checkpoint(prefix) -> EncoderState:
    """The encoder of a checkpoint, with no classifier head. A checkpoint
    that also holds a head (``wc``, ``bc`` after the encoder) loads too; the
    head is dropped."""
    prefix = str(prefix)
    with open(prefix + ".json") as fh:
        sidecar = json.load(fh)
    flat = read_features(prefix + ".drft")[0]
    fields = {}
    offset = 0
    for name in sidecar["order"]:
        shape = tuple(sidecar["shapes"][name])
        size = int(np.prod(shape))
        fields[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    if offset != len(flat):
        raise ValueError("checkpoint payload does not match its sidecar shapes")
    if sidecar["activation"] != "tanh":
        raise ValueError(f"unknown activation {sidecar['activation']!r}")
    return EncoderState(*(fields[name] for name in ENCODER_PARAMS),
                        step=int(sidecar["step"]))
