"""Alternating training: source pretraining, off-line pseudo-label epochs,
and on-line iterations that update encoder, classifier, and memory bank.

Ground-truth target identities never feed a gradient path; they enter only
through the optional diagnostics argument and are used for F-score rows in
the metrics log.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .cluster import dbscan
from .data import OUTLIER, l2_normalize
from .encoder import (
    EncoderState,
    LrSchedule,
    adam_step,
    backward,
    classifier_backward,
    classifier_forward,
    forward,
    init_classifier,
    init_encoder,
    lr_at,
)
from .evaluate import pairwise_fscore
from .graph import SparseDistances, build_distance_graph, offdiag_percentile
from .losses import LossReport, batch_hard_triplet, blend_metric_losses, cross_entropy, total_loss
from .membank import MemoryBank, init_bank, instant_update, momentum_update, positive_sets, spread_loss
from .refine import PseudoLabelSet, refine_labels

# sub-stream tags so every stage draws from its own deterministic generator
_PRETRAIN_STREAM = 1
_ADAPT_STREAM = 2


class ConfigError(ValueError):
    """A training-configuration key is unknown or out of range."""


class ZeroClustersError(RuntimeError):
    """DBSCAN marked every sample as an outlier."""


class TrainingDivergedError(RuntimeError):
    """A loss became non-finite or the bank collapsed."""


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; the defaults reproduce the reference regime."""

    alpha: float = 0.5             # refined-label weight in the loss blend
    mu: float = 0.1                # spread-out regularizer weight
    margin: float = 0.3            # triplet hinge margin
    spread_margin: float = 0.35    # spread-out margin
    k_pos: int = 6                 # positives per anchor in the bank
    fine_clusters: int = 5         # prototypes per coarse cluster
    k_rr: int = 20                 # reciprocal-neighborhood size
    eps_percentile: float = 1.6    # DBSCAN eps percentile of off-diagonal d_J
    min_pts: int = 4
    batch_p: int = 16              # pseudo-labels per batch
    batch_k: int = 4               # samples per pseudo-label
    epochs: int = 40
    iters_per_epoch: int = 0       # 0 = one pass over the non-outliers
    pretrain_epochs: int = 80
    base_lr: float = 3.5e-4
    warmup_epochs: int = 10
    pretrain_decay_epochs: tuple = (40, 70)
    adapt_decay_epochs: tuple = (20,)
    decay_factor: float = 10.0
    weight_decay: float = 5e-4
    feat_dim: int = 32
    hidden_dim: int = 0            # 0 = twice feat_dim
    bank_mode: str = "instant"
    bank_tau: float = 0.01
    seed: int = 0

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in (int, "int") and not _is_int(value):
                raise ConfigError(f"config key {f.name!r} must be an integer (got {value!r})")
        for name in ("pretrain_decay_epochs", "adapt_decay_epochs"):
            epochs = getattr(self, name)
            if not (isinstance(epochs, (tuple, list)) and all(map(_is_int, epochs))
                    and all(a < b for a, b in zip(epochs, epochs[1:]))):
                raise ConfigError(f"config key {name!r} must list strictly increasing "
                                  f"integer epochs (got {epochs!r})")
        checks = [
            ("alpha", 0.0 <= self.alpha <= 1.0),
            ("mu", self.mu >= 0.0),
            ("margin", self.margin >= 0.0),
            ("spread_margin", self.spread_margin >= 0.0),
            ("k_pos", self.k_pos >= 0),
            ("fine_clusters", self.fine_clusters >= 1),
            ("k_rr", self.k_rr >= 1),
            ("eps_percentile", 0.0 < self.eps_percentile < 100.0),
            ("min_pts", self.min_pts >= 1),
            ("batch_p", self.batch_p >= 2),
            ("batch_k", self.batch_k >= 2),
            ("epochs", self.epochs >= 0),
            ("iters_per_epoch", self.iters_per_epoch >= 0),
            ("pretrain_epochs", self.pretrain_epochs >= 0),
            ("base_lr", self.base_lr >= 0.0),
            ("warmup_epochs", self.warmup_epochs >= 0),
            ("decay_factor", self.decay_factor > 1.0),
            ("weight_decay", self.weight_decay >= 0.0),
            ("feat_dim", self.feat_dim >= 1),
            ("hidden_dim", self.hidden_dim >= 0),
            ("bank_mode", self.bank_mode in ("instant", "momentum")),
            ("bank_tau", 0.0 <= self.bank_tau < 1.0),
            ("seed", self.seed >= 0),
        ]
        for name, ok in checks:
            if not ok:
                raise ConfigError(f"config key {name!r} is out of range "
                                  f"(got {getattr(self, name)!r})")

    @property
    def batch_size(self) -> int:
        return self.batch_p * self.batch_k

    @property
    def hidden(self) -> int:
        return self.hidden_dim or 2 * self.feat_dim

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        doc = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
        cfg = cls(**doc)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        doc = asdict(self)
        return {k: list(v) if isinstance(v, tuple) else v for k, v in doc.items()}


@dataclass
class EpochState:
    epoch: int
    labels: PseudoLabelSet
    num_clusters: int
    outliers: int
    eps: float
    d_j: SparseDistances | None = None  # the Jaccard graph, when kept
    fscore_coarse: float | None = None
    fscore_refined: float | None = None


@dataclass
class EpochMetrics:
    epoch: int
    num_clusters: int
    outliers: int
    fscore_coarse: float | None
    fscore_refined: float | None
    cls: float
    tri: float
    spread: float | None  # None at mu = 0, where the term is not computed
    total: float


def extract_features(state: EncoderState, raw: np.ndarray, normalized: bool = True):
    feats, _ = forward(state, raw)
    return l2_normalize(feats) if normalized else feats


def pk_sample(labels: PseudoLabelSet, p: int, k: int, rng) -> np.ndarray:
    """P distinct coarse labels, K members each (with replacement only when a
    cluster is smaller than K); outliers never appear.

    Groups follow the coarse labels whatever the loss blend: ``alpha`` only
    weights the losses. The coarse losses run whenever alpha < 1, and
    batch-hard triplet needs the batch grouped by the labels it uses.
    Refined groups would spread one chained coarse cluster over several
    groups, and the coarse triplet would take its hardest positive from
    another identity. The members of each group are found once per label
    set (``PseudoLabelSet.coarse_groups``), not by a scan per batch.
    """
    eligible, members = labels.coarse_groups
    if len(eligible) < p:
        raise ValueError(f"need {p} clusters for a batch, have {len(eligible)}")
    chosen = rng.choice(eligible, size=p, replace=False)
    picks = []
    for group in np.searchsorted(eligible, chosen):
        picks.append(rng.choice(members[group], size=k,
                                replace=len(members[group]) < k))
    return np.concatenate(picks)


def offline_epoch(state: EncoderState, raw: np.ndarray, cfg: TrainConfig,
                  epoch: int, truth: np.ndarray | None = None,
                  keep_graph: bool = False) -> EpochState:
    """Feature extraction, Jaccard graph, DBSCAN, prototype refinement.

    ``truth`` is a diagnostics-only channel: when given, coarse and refined
    pair F-scores are recorded. It never influences the labels.
    """
    feats = extract_features(state, raw)
    d_j = build_distance_graph(feats, k_rr=min(cfg.k_rr, len(feats) - 1)).jaccard()
    eps = max(offdiag_percentile(d_j, cfg.eps_percentile), 1e-12)
    coarse = dbscan(d_j, eps, cfg.min_pts)
    if coarse.num_clusters == 0:
        raise ZeroClustersError(
            f"epoch {epoch}: every sample is an outlier (eps={eps:.4g})")
    labels, _ = refine_labels(feats, coarse, cfg.fine_clusters,
                              seed=(cfg.seed, _ADAPT_STREAM, epoch))
    es = EpochState(
        epoch=epoch, labels=labels, num_clusters=coarse.num_clusters,
        outliers=int(np.sum(coarse.assignment == OUTLIER)),
        eps=eps, d_j=d_j if keep_graph else None,
    )
    if truth is not None:
        es.fscore_coarse = pairwise_fscore(labels.coarse, truth)[2]
        es.fscore_refined = pairwise_fscore(labels.refined, truth)[2]
    return es


def _triplet_or_zero(feats, labels, margin):
    """Batch-hard triplet, or a zero contribution when the batch cannot form
    a single (anchor, positive, negative) triple under these labels."""
    labels = np.asarray(labels)
    counts = np.unique(labels, return_counts=True)[1]
    if len(counts) < 2 or not np.any(counts >= 2):
        return 0.0, np.zeros_like(feats)
    return batch_hard_triplet(feats, labels, margin)


class _LabelBranch(NamedTuple):
    """Cross-entropy and batch-hard triplet under one labeling of the batch."""

    cls: float
    g_logits: np.ndarray
    tri: float
    g_tri: np.ndarray


def _label_branch(probs, feats, labels, margin) -> _LabelBranch:
    cls, g_logits = cross_entropy(probs, labels)
    tri, g_tri = _triplet_or_zero(feats, labels, margin)
    return _LabelBranch(cls, g_logits, tri, g_tri)


def joint_loss_and_grads(state: EncoderState, bank: MemoryBank | None, x: np.ndarray,
                         coarse: np.ndarray, refined: np.ndarray,
                         sample_indices: np.ndarray, cfg: TrainConfig):
    """Joint objective on one batch with every analytic gradient.

    Returns (report, param grads incl. classifier, bank gradient, unit
    features). The bank gradient is for the unweighted regularizer, which is
    what the bank's own descent step uses.

    Only terms with a nonzero weight are computed: the coarse-label losses
    when alpha < 1, the refined-label losses when alpha > 0 (reused from the
    coarse ones when the two labelings agree on the batch), and the
    spread-out term when mu > 0. At mu = 0 the bank is not read and may be
    None; the bank gradient, the unit features and ``report.spread`` are
    then None.
    """
    feats, cache = forward(state, x)
    probs = classifier_forward(state, feats)
    noisy = refined_terms = None
    if cfg.alpha < 1.0:
        noisy = _label_branch(probs, feats, coarse, cfg.margin)
    if cfg.alpha > 0.0:
        if noisy is not None and np.array_equal(refined, coarse):
            refined_terms = noisy
        else:
            refined_terms = _label_branch(probs, feats, refined, cfg.margin)

    spread = g_bank = feats_n = None
    if cfg.mu:
        norms = np.linalg.norm(feats, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise TrainingDivergedError("encoder produced a zero feature vector")
        feats_n = feats / norms
        positives = positive_sets(bank, feats_n, sample_indices)
        spread, g_feats_n, g_bank = spread_loss(feats_n, bank, positives,
                                                cfg.spread_margin)

    # a branch that was not computed reports None
    cls_noisy, tri_noisy = (None, None) if noisy is None else (noisy.cls, noisy.tri)
    cls_refined, tri_refined = ((None, None) if refined_terms is None
                                else (refined_terms.cls, refined_terms.tri))
    cls_blend, tri_blend = blend_metric_losses(
        (cls_noisy, tri_noisy), (cls_refined, tri_refined), cfg.alpha)
    total = total_loss(cls_blend, tri_blend, 0.0 if spread is None else spread, cfg.mu)
    if not np.isfinite(total):
        raise TrainingDivergedError(
            f"non-finite loss (cls={cls_blend}, tri={tri_blend}, spread={spread})")

    weighted = [(weight, branch) for weight, branch
                in ((1.0 - cfg.alpha, noisy), (cfg.alpha, refined_terms))
                if branch is not None]
    g_logits = sum(weight * branch.g_logits for weight, branch in weighted)
    cls_grads, g_feats = classifier_backward(state, feats, g_logits)
    for weight, branch in weighted:
        g_feats = g_feats + weight * branch.g_tri
    if cfg.mu:
        # chain the spread gradient through the row normalization
        inner = np.sum(g_feats_n * feats_n, axis=1, keepdims=True)
        g_feats = g_feats + cfg.mu * (g_feats_n - inner * feats_n) / norms

    grads, _ = backward(state, cache, g_feats)
    grads.update(cls_grads)
    report = LossReport(cls_noisy=cls_noisy, cls_refined=cls_refined,
                        tri_noisy=tri_noisy, tri_refined=tri_refined,
                        spread=spread, total=total, alpha=cfg.alpha, mu=cfg.mu,
                        grad_features=g_feats)
    return report, grads, g_bank, feats_n


def online_iteration(state: EncoderState, bank: MemoryBank, raw: np.ndarray,
                     batch: np.ndarray, labels: PseudoLabelSet,
                     cfg: TrainConfig, lr: float) -> LossReport:
    """One joint step: metric losses under both labelings, spread-out over
    the bank, Adam on encoder+classifier, gradient (or momentum) bank update.

    At mu = 0 the bank is not part of the objective and is left unchanged.
    """
    report, grads, g_bank, feats_n = joint_loss_and_grads(
        state, bank, raw[batch], labels.coarse[batch], labels.refined[batch],
        batch, cfg)
    adam_step(state, grads, lr, cfg.weight_decay)
    if not cfg.mu:
        return report
    if bank.mode == "instant":
        # the bank descends the unweighted regularizer at the network rate
        instant_update(bank, g_bank, lr)
    else:
        momentum_update(bank, feats_n, batch)
    return report


def _pk_iterations(cfg: TrainConfig, non_outliers: int) -> int:
    if cfg.iters_per_epoch:
        return cfg.iters_per_epoch
    return max(1, math.ceil(non_outliers / cfg.batch_size))


def pretrain_source(raw: np.ndarray, identities: np.ndarray,
                    cfg: TrainConfig) -> EncoderState:
    """Supervised pretraining with cross-entropy plus triplet on true labels.

    Each step is the joint step at alpha = 0 and mu = 0 with the identities
    as the coarse labels and no memory bank.
    """
    cfg.validate()
    rng = np.random.default_rng((cfg.seed, _PRETRAIN_STREAM))
    classes, ids = np.unique(identities, return_inverse=True)
    state = init_encoder(raw.shape[1], cfg.hidden, cfg.feat_dim, rng)
    init_classifier(state, len(classes), rng)
    labels = PseudoLabelSet(coarse=ids.astype(np.int64),
                            refined=ids.astype(np.int64),
                            num_clusters=len(classes))
    schedule = LrSchedule(cfg.base_lr, warmup_epochs=cfg.warmup_epochs,
                          decay_epochs=cfg.pretrain_decay_epochs,
                          decay_factor=cfg.decay_factor)
    step_cfg = replace(cfg, alpha=0.0, mu=0.0)
    p = min(cfg.batch_p, len(classes))
    iters = _pk_iterations(cfg, len(raw))
    for epoch in range(cfg.pretrain_epochs):
        lr = lr_at(schedule, epoch)
        epoch_rng = np.random.default_rng((cfg.seed, _PRETRAIN_STREAM, epoch))
        for _ in range(iters):
            batch = pk_sample(labels, p, cfg.batch_k, epoch_rng)
            _, grads, _, _ = joint_loss_and_grads(
                state, None, raw[batch], labels.coarse[batch],
                labels.refined[batch], batch, step_cfg)
            adam_step(state, grads, lr, cfg.weight_decay)
    return state


def source_top1_accuracy(state: EncoderState, raw: np.ndarray,
                         identities: np.ndarray) -> float:
    classes, ids = np.unique(identities, return_inverse=True)
    probs = classifier_forward(state, forward(state, raw)[0])
    return float(np.mean(np.argmax(probs, axis=1) == ids))


def adapt(state: EncoderState, raw: np.ndarray, cfg: TrainConfig,
          truth: np.ndarray | None = None, bank: MemoryBank | None = None,
          start_epoch: int = 0, on_epoch=None):
    """Alternating adaptation; returns (state, per-epoch metrics, bank).

    ``truth`` feeds diagnostics only. ``bank``/``start_epoch`` support
    resuming from a checkpointed run; ``on_epoch`` is called with
    (EpochMetrics, state, bank, iteration reports, PseudoLabelSet) after
    every epoch.
    """
    cfg.validate()
    if bank is None:
        bank = init_bank(forward(state, raw)[0], mode=cfg.bank_mode,
                         tau=cfg.bank_tau, k_pos=cfg.k_pos)
    schedule = LrSchedule(cfg.base_lr, warmup_epochs=0,
                          decay_epochs=cfg.adapt_decay_epochs,
                          decay_factor=cfg.decay_factor)
    history = []
    for epoch in range(start_epoch, cfg.epochs):
        es = offline_epoch(state, raw, cfg, epoch, truth)
        epoch_rng = np.random.default_rng((cfg.seed, _ADAPT_STREAM, epoch, 1))
        init_classifier(state, es.num_clusters, epoch_rng)
        p = cfg.batch_p
        if es.num_clusters < p:
            warnings.warn(f"epoch {epoch}: only {es.num_clusters} clusters; "
                          f"reducing batch labels from {p}")
            p = es.num_clusters
        non_outliers = len(raw) - es.outliers
        iters = _pk_iterations(cfg, non_outliers)
        lr = lr_at(schedule, epoch)
        reports = []
        for _ in range(iters):
            batch = pk_sample(es.labels, p, cfg.batch_k, epoch_rng)
            reports.append(online_iteration(state, bank, raw, batch,
                                            es.labels, cfg, lr))
        metrics = EpochMetrics(
            epoch=epoch, num_clusters=es.num_clusters, outliers=es.outliers,
            fscore_coarse=es.fscore_coarse, fscore_refined=es.fscore_refined,
            cls=float(np.mean([r.cls for r in reports])),
            tri=float(np.mean([r.tri for r in reports])),
            spread=float(np.mean([r.spread for r in reports])) if cfg.mu else None,
            total=float(np.mean([r.total for r in reports])),
        )
        history.append(metrics)
        if on_epoch is not None:
            on_epoch(metrics, state, bank, reports, es.labels)
    return state, history, bank


def _fmt(value) -> str:
    return "" if value is None else repr(value)


def metrics_csv_lines(history) -> list[str]:
    lines = ["epoch,num_clusters,outliers,fscore_coarse,fscore_refined,cls,tri,spread,total"]
    for m in history:
        lines.append(",".join([
            str(m.epoch), str(m.num_clusters), str(m.outliers),
            _fmt(m.fscore_coarse), _fmt(m.fscore_refined),
            _fmt(m.cls), _fmt(m.tri), _fmt(m.spread), _fmt(m.total),
        ]))
    return lines


def loss_csv_lines(rows) -> list[str]:
    """rows: iterable of (epoch, iteration, LossReport)."""
    lines = ["epoch,iter,cls,tri,spread,total"]
    for epoch, iteration, r in rows:
        lines.append(",".join([
            str(epoch), str(iteration),
            _fmt(r.cls), _fmt(r.tri), _fmt(r.spread), _fmt(r.total),
        ]))
    return lines
