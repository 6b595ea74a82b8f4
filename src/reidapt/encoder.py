"""A small feed-forward encoder with hand-derived gradients.

One tanh hidden layer (d_in -> h -> d) stands in for a deep backbone, plus
a linear softmax classifier whose width tracks the current number of
pseudo-classes. Adam with decoupled weight decay drives updates, one flat
pass per parameter group; all compute is float64 so finite-difference
checks are tight.
"""

from __future__ import annotations

import os
import zipfile
from dataclasses import dataclass, field

import numpy as np

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


def save_checkpoint(prefix, state: EncoderState, bank: np.ndarray | None = None):
    """``prefix.npz``: the float64 ``w1, b1, w2, b2``, the encoder's Adam slot
    as ``m, v, t`` (zeros and 0 before its first step) and an epoch's ``bank``,
    written as ``prefix.npz.tmp`` and renamed, so a checkpoint that exists is
    complete. The head is not saved: each adaptation epoch redraws it."""
    params = {name: getattr(state, name) for name in ENCODER_PARAMS}
    size = sum(p.size for p in params.values())
    slot = state.adam.get("encoder") or AdamSlot(np.zeros(size), np.zeros(size))
    arrays = dict(params, m=slot.m, v=slot.v, t=np.int64(slot.t))
    if bank is not None:
        arrays["bank"] = bank
    path = f"{prefix}.npz"
    with open(path + ".tmp", "wb") as fh:
        np.savez(fh, **arrays)
    os.replace(path + ".tmp", path)


def load_checkpoint(prefix):
    """``(state, bank or None)`` from ``prefix.npz``, with no classifier head.
    OSError if it is missing; ValueError naming it if it is damaged, its
    shapes do not chain or it holds a NaN or infinite value."""
    path = f"{prefix}.npz"
    try:
        with np.load(path, allow_pickle=False) as npz:
            w1, b1, w2, b2, m, v, t = (npz[name] for name in (*ENCODER_PARAMS, "m", "v", "t"))
            bank = npz["bank"] if "bank" in npz.files else None
    except (EOFError, ValueError, TypeError, KeyError, zipfile.BadZipFile) as err:
        raise ValueError(f"{path} is not a readable archive of the arrays "
                         f"{', '.join(ENCODER_PARAMS)}, m, v and t") from err
    size = w1.size + b1.size + w2.size + b2.size
    if not (w1.ndim == w2.ndim == 2 and b1.shape == (w1.shape[1],) == w2.shape[:1]
            and b2.shape == w2.shape[1:] and m.shape == v.shape == (size,)
            and t.shape == () and t.dtype.kind in "iu" and t >= 0):
        raise ValueError(f"{path}: shapes {[a.shape for a in (w1, b1, w2, b2, m, v)]} "
                         f"and step {t} do not make an encoder and its Adam slot")
    floats = (w1, b1, w2, b2, m, v) + (() if bank is None else (bank,))
    if not all(a.dtype == np.float64 and np.isfinite(a).all() for a in floats):
        raise ValueError(f"{path}: an array is not float64 or holds a NaN or infinite value")
    return EncoderState(w1, b1, w2, b2, adam={"encoder": AdamSlot(m, v, int(t))}), bank
