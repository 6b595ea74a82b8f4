"""Alternating training: source pretraining, off-line pseudo-label epochs,
and on-line iterations that update encoder, classifier, and memory bank.

Ground-truth target identities never feed a gradient path; they enter only
through the optional diagnostics argument and are used for F-score rows in
the metrics log.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .cluster import dbscan
from .data import OUTLIER, l2_normalize
from .encoder import (
    EncoderState,
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
from .losses import LossReport, batch_hard_triplet, cross_entropy
from .membank import (
    MemoryBank,
    TrainingDivergedError,
    momentum_update,
    spread_loss,
)
from .refine import PseudoLabelSet, refine_labels

# sub-stream tags so every stage draws from its own deterministic generator
_PRETRAIN_STREAM = 1
_ADAPT_STREAM = 2

# the reference regime's fixed recipe
_SPREAD_MARGIN = 0.35
_WARMUP_EPOCHS = 10                 # pretraining lr ramps up from base_lr/10
_PRETRAIN_DECAY_EPOCHS = (40, 70)   # pretraining epochs that divide the lr
_DECAY_FACTOR = 10.0                # the divisor, in pretraining and adaptation
_WEIGHT_DECAY = 5e-4                # Adam's decoupled weight decay


class ConfigError(ValueError):
    """A training-configuration key is unknown or out of range."""


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_int(value) or isinstance(value, (float, np.floating))


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; the defaults reproduce the reference regime."""

    alpha: float = 0.5             # refined-label weight in the loss blend
    mu: float = 0.1                # spread-out regularizer weight
    margin: float = 0.3            # triplet hinge margin
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
    adapt_decay_epochs: tuple = (20,)
    feat_dim: int = 32             # embedding width; the hidden layer is twice as wide
    bank_tau: float = 0.0          # bank momentum; 0 writes each feature back
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in (int, "int") and not _is_int(value):
                raise ConfigError(f"config key {f.name!r} must be an integer (got {value!r})")
            if f.type in (float, "float") and not _is_real(value):
                raise ConfigError(f"config key {f.name!r} must be a number (got {value!r})")
        epochs = self.adapt_decay_epochs
        if not (isinstance(epochs, (tuple, list)) and all(map(_is_int, epochs))
                and all(a < b for a, b in zip(epochs, epochs[1:]))):
            raise ConfigError("config key 'adapt_decay_epochs' must list strictly "
                              f"increasing integer epochs (got {epochs!r})")
        checks = [
            ("alpha", 0.0 <= self.alpha <= 1.0),
            ("mu", self.mu >= 0.0),
            ("margin", self.margin >= 0.0),
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
            ("feat_dim", self.feat_dim >= 1),
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

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
        doc = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
        return cls(**doc)


@dataclass
class EpochState:
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


def extract_features(state: EncoderState, raw: np.ndarray) -> np.ndarray:
    """Unit-norm embeddings of ``raw``; a zero embedding is a divergence."""
    feats = forward(state, raw)[0]
    try:
        return l2_normalize(feats)
    except ValueError:
        raise TrainingDivergedError("encoder produced a zero feature vector") from None


def _draw_choices(rng, sizes: list[int], k: int) -> list[list[int]]:
    """``rng.choice(n, k, replace=n < k)`` for each n of ``sizes`` in turn,
    the same picks and the same stream, from one ``rng.integers`` call.

    ``Generator.choice`` draws k times in [0, n) with replacement. Without
    it, it runs Floyd's sampler (one draw in [0, j] for j = n-k..n-1, each
    taking j when its draw was taken before) and then a Fisher-Yates pass
    over the k picks (one draw in [0, i] for i = k-1..1). ``integers`` with
    an array of bounds makes the same bounded draw per entry, so all the
    draws are made first, in order, and then replayed. Above 10,000 members
    with k above n // 50, ``choice`` takes a tail shuffle instead; there this
    keeps to Floyd's sampler, whose k distinct picks are not ``choice``'s.
    """
    highs = []
    for n in sizes:
        if n < k:
            highs += [n] * k
        else:
            highs += range(n - k + 1, n + 1)
            highs += range(k, 1, -1)
    draws = iter(rng.integers(0, highs).tolist())
    out = []
    for n in sizes:
        if n < k:
            out.append([next(draws) for _ in range(k)])
        else:
            picks, seen = [], set()
            for j in range(n - k, n):
                pick = next(draws)
                if pick in seen:  # every earlier pick is below j
                    pick = j
                seen.add(pick)
                picks.append(pick)
            for i in range(k - 1, 0, -1):
                j = next(draws)
                picks[i], picks[j] = picks[j], picks[i]
            out.append(picks)
    return out


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

    The batch is the one that ``rng.choice`` of the P labels, then of each
    label's K members, would draw, from the same stream, below numpy's
    tail-shuffle threshold (``_draw_choices``): the labels' draws come from
    one ``rng.integers`` call and all the members' from another.
    """
    eligible, bounds, order = labels.coarse_groups
    if len(eligible) < p:
        raise ValueError(f"need {p} clusters for a batch, have {len(eligible)}")
    chosen = [eligible[i] for i in _draw_choices(rng, [len(eligible)], p)[0]]
    picks = _draw_choices(rng, [bounds[c + 1] - bounds[c] for c in chosen], k)
    return order[[bounds[c] + i for c, pick in zip(chosen, picks) for i in pick]]


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
        raise TrainingDivergedError(
            f"epoch {epoch}: every sample is an outlier (eps={eps:.4g})")
    labels, _ = refine_labels(feats, coarse, cfg.fine_clusters,
                              seed=(cfg.seed, _ADAPT_STREAM, epoch))
    es = EpochState(
        labels=labels, num_clusters=coarse.num_clusters,
        outliers=int(np.sum(coarse.assignment == OUTLIER)),
        eps=eps, d_j=d_j if keep_graph else None,
    )
    if truth is not None:
        es.fscore_coarse = pairwise_fscore(labels.coarse, truth)[2]
        es.fscore_refined = pairwise_fscore(labels.refined, truth)[2]
    return es


def joint_loss_and_grads(state: EncoderState, bank: MemoryBank | None, x: np.ndarray,
                         coarse: np.ndarray, refined: np.ndarray,
                         sample_indices: np.ndarray, cfg: TrainConfig):
    """Joint objective on one batch with every analytic gradient.

    Returns (report, param grads incl. classifier, unit features). The unit
    features are the batch's, before any parameter update: what the bank
    takes in.

    Only terms with a nonzero weight are computed: the coarse-label losses
    when alpha < 1, the refined-label losses when alpha > 0 (reused from the
    coarse ones when the two labelings agree on the batch), and the
    spread-out term when mu > 0. At mu = 0 the bank is not read and may be
    None; the unit features and ``report.spread`` are then None.
    """
    feats, cache = forward(state, x)
    probs = classifier_forward(state, feats)
    cls_c = tri_c = cls_r = tri_r = 0.0  # a labeling weighted 0 is skipped: its terms stay 0
    weighted = []  # (weight, logit gradient, triplet gradient) per computed labeling
    if cfg.alpha < 1.0:
        cls_c, g_logits = cross_entropy(probs, coarse)
        tri_c, g_tri = batch_hard_triplet(feats, coarse, cfg.margin)
        weighted.append((1.0 - cfg.alpha, g_logits, g_tri))
    if cfg.alpha > 0.0:
        if weighted and np.array_equal(refined, coarse):
            cls_r, tri_r = cls_c, tri_c
        else:
            cls_r, g_logits = cross_entropy(probs, refined)
            tri_r, g_tri = batch_hard_triplet(feats, refined, cfg.margin)
        weighted.append((cfg.alpha, g_logits, g_tri))

    spread = feats_n = None
    if cfg.mu:
        norms = np.linalg.norm(feats, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise TrainingDivergedError("encoder produced a zero feature vector")
        feats_n = feats / norms
        spread, g_feats_n = spread_loss(feats_n, bank, sample_indices,
                                        cfg.k_pos, _SPREAD_MARGIN)

    cls = (1.0 - cfg.alpha) * cls_c + cfg.alpha * cls_r
    tri = (1.0 - cfg.alpha) * tri_c + cfg.alpha * tri_r
    total = cls + tri + cfg.mu * (0.0 if spread is None else spread)
    if not np.isfinite(total):
        raise TrainingDivergedError(
            f"non-finite loss (cls={cls}, tri={tri}, spread={spread})")

    # coarse before refined: the order of the additions fixes the bits; a lone
    # labeling's weight is exactly 1.0, so its gradients pass through unchanged
    g_logits = weighted[0][0] * weighted[0][1]
    for w, logits, _ in weighted[1:]:
        g_logits += w * logits
    cls_grads, g_feats = classifier_backward(state, feats, g_logits)
    for w, _, g_tri in weighted:
        g_feats += w * g_tri
    if cfg.mu:
        # chain the spread gradient through the row normalization
        inner = np.sum(g_feats_n * feats_n, axis=1, keepdims=True)
        g_feats = g_feats + cfg.mu * (g_feats_n - inner * feats_n) / norms

    grads = backward(state, cache, g_feats)
    grads.update(cls_grads)
    return LossReport(cls=cls, tri=tri, spread=spread, total=total), grads, feats_n


def online_iteration(state: EncoderState, bank: MemoryBank, raw: np.ndarray,
                     batch: np.ndarray, labels: PseudoLabelSet,
                     cfg: TrainConfig, lr: float) -> LossReport:
    """One joint step: metric losses under both labelings, spread-out over
    the bank, Adam on encoder+classifier, then each drawn sample's slot takes
    in its unit feature from before the Adam step at momentum
    ``cfg.bank_tau`` (at 0, the feature itself). Other slots, and the whole
    bank at mu = 0, where it is not part of the objective, are left
    unchanged.
    """
    report, grads, feats_n = joint_loss_and_grads(
        state, bank, raw[batch], labels.coarse[batch], labels.refined[batch],
        batch, cfg)
    adam_step(state, grads, lr, _WEIGHT_DECAY)
    if cfg.mu:
        momentum_update(bank, feats_n, batch, cfg.bank_tau)
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
    rng = np.random.default_rng((cfg.seed, _PRETRAIN_STREAM))
    classes, ids = np.unique(identities, return_inverse=True)
    state = init_encoder(raw.shape[1], 2 * cfg.feat_dim, cfg.feat_dim, rng)
    init_classifier(state, len(classes), rng)
    labels = PseudoLabelSet(coarse=ids.astype(np.int64),
                            refined=ids.astype(np.int64),
                            num_clusters=len(classes))
    step_cfg = replace(cfg, alpha=0.0, mu=0.0)
    p = min(cfg.batch_p, len(classes))
    iters = _pk_iterations(cfg, len(raw))
    for epoch in range(cfg.pretrain_epochs):
        lr = lr_at(cfg.base_lr, epoch, _WARMUP_EPOCHS, _PRETRAIN_DECAY_EPOCHS, _DECAY_FACTOR)
        epoch_rng = np.random.default_rng((cfg.seed, _PRETRAIN_STREAM, epoch))
        for _ in range(iters):
            batch = pk_sample(labels, p, cfg.batch_k, epoch_rng)
            _, grads, _ = joint_loss_and_grads(
                state, None, raw[batch], labels.coarse[batch],
                labels.refined[batch], batch, step_cfg)
            adam_step(state, grads, lr, _WEIGHT_DECAY)
    return state


def source_top1_accuracy(state: EncoderState, raw: np.ndarray,
                         identities: np.ndarray) -> float:
    _, ids = np.unique(identities, return_inverse=True)
    probs = classifier_forward(state, forward(state, raw)[0])
    return float(np.mean(np.argmax(probs, axis=1) == ids))


def adapt(state: EncoderState, raw: np.ndarray, cfg: TrainConfig,
          truth: np.ndarray | None = None, bank: MemoryBank | None = None,
          start_epoch: int = 0, on_epoch=None):
    """Alternating adaptation; returns (state, per-epoch metrics, bank).

    ``truth`` feeds diagnostics only. ``bank``/``start_epoch`` support
    resuming from a checkpointed run; a given bank holds one row per sample
    of ``raw``, ``state.feat_dim`` wide. ``on_epoch`` is called with
    (EpochMetrics, state, bank, iteration reports, PseudoLabelSet) after
    every epoch.
    """
    if bank is None:
        bank = MemoryBank(v=extract_features(state, raw))
    elif bank.v.shape != (len(raw), state.feat_dim):
        raise ValueError(f"bank has shape {bank.v.shape}, the samples need "
                         f"{(len(raw), state.feat_dim)}")
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
        lr = lr_at(cfg.base_lr, epoch, 0, cfg.adapt_decay_epochs, _DECAY_FACTOR)
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


def _csv_lines(header, rows) -> list[str]:
    """The header line, then one line per row; a None cell is left empty."""
    return [",".join(header)] + [",".join("" if v is None else str(v) for v in row)
                                 for row in rows]


def metrics_csv_lines(history) -> list[str]:
    return _csv_lines([f.name for f in fields(EpochMetrics)], map(astuple, history))


def loss_csv_lines(rows) -> list[str]:
    """rows: iterable of (epoch, iteration, LossReport)."""
    return _csv_lines(["epoch", "iter", *(f.name for f in fields(LossReport))],
                      ((epoch, iteration, *astuple(r)) for epoch, iteration, r in rows))
