"""Instant memory bank and the spread-out regularizer.

The bank keeps one unit-norm entry per target-train sample and nothing else.
Each anchor treats its k nearest bank entries (plus its own slot) as
positives and every other entry as a negative; the regularizer is a
softplus-of-sums ranking loss over those pairs (the spread-out loss of Zhang
et al. 2017, taken over the bank). Both sides come from one anchor-to-bank
similarity product per step, and an anchor's positives travel as one row of
bank indices, never as a mask over the bank. The bank takes no gradient:
after each step the slot of every drawn sample is blended with the unit
feature the step computed for it, v <- tau*v + (1-tau)*f. At tau 0 (the
instant bank) the slot takes that feature; a tau above 0 is the momentum
bank of Wu et al. 2018, kept for ablation. The functions here take k and tau
as plain arguments; their values come from the trainer's configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import _dense_row_sums, _lowest_k


class TrainingDivergedError(RuntimeError):
    """Training cannot go on: a loss became non-finite, an embedding or a
    bank entry collapsed to zero, or a labeling pass marked every sample as
    an outlier."""


@dataclass
class MemoryBank:
    v: np.ndarray  # (N, d), unit rows

    def __len__(self) -> int:
        return len(self.v)


def positive_sets(sims: np.ndarray, sample_indices: np.ndarray,
                  k_pos: int) -> np.ndarray:
    """Each anchor's positive bank indices, (B, min(k_pos + 1, N)) int64.

    ``sims`` is the (B, N) anchor-to-bank similarity matrix; it is not
    modified. Row b holds the k largest similarities of anchor b (excluding
    its own slot) plus the slot itself, in ascending index order; similarity
    ties go to the lower index. The slot is ranked first by giving it an
    infinite similarity, so one selection of k + 1 entries finds both.

    The ranking keys are the negated similarities, with the slots at -inf,
    in one (B, N) copy that is partitioned in place for each row's
    (k + 1)-th key. Negation is exact, so a key is within it exactly when
    its similarity is at least the key's negation; the slots are forced in.
    """
    sample_indices = np.asarray(sample_indices, dtype=np.int64)
    b, n = sims.shape
    k = min(k_pos, n - 1) + 1
    slots = np.arange(b) * n + sample_indices
    keys = -sims
    keys.ravel()[slots] = -np.inf
    keys.partition(k - 1, axis=1)
    kth = -keys[:, k - 1:k]
    del keys  # freed before the mask is made
    within = sims >= kth
    within.ravel()[slots] = True
    flat = np.flatnonzero(within)
    ranked = -sims.ravel()[flat]
    ranked[np.searchsorted(flat, slots)] = -np.inf
    return (flat[_lowest_k(flat, ranked, k, n)] % n).reshape(b, k)


def _logsumexp(x, columns=None, width=None):
    """Row-wise log-sum-exp; rows of -inf only give -inf.

    With ``columns``, row i of ``x`` holds the entries at ``columns[i]``
    (distinct) of a row of ``width`` whose other entries are -inf, and the
    exponentials are summed as ``np.sum`` sums that full row.
    """
    peak = x.max(axis=1)
    shift = np.where(np.isfinite(peak), peak, 0.0)
    terms = x - shift[:, None]
    np.exp(terms, out=terms)
    if columns is None:
        sums = terms.sum(axis=1)
    else:
        sums = _dense_row_sums(np.arange(len(x) + 1) * x.shape[1], columns.ravel(),
                               terms.ravel(), width)
    with np.errstate(divide="ignore"):
        return np.where(sums > 0.0, shift + np.log(sums), -np.inf)


def spread_loss(feats: np.ndarray, bank: MemoryBank, sample_indices: np.ndarray,
                k_pos: int, margin: float):
    """Spread-out loss averaged over batch anchors, with gradients.

    Per anchor i: log[1 + sum_{k in K_i} sum_{n not in K_i}
    exp(f_i.v_n - f_i.v_k + margin)], with K_i the positives
    ``positive_sets`` picks for anchor i, whose bank slot is
    ``sample_indices[i]``, from the same similarity matrix. The double sum
    factorizes into independent log-sum-exps over positives and negatives,
    so both the value and the gradients are computed in max-shifted form.
    The negatives' log-sum-exp runs over the bank-wide row with the
    positives at -inf; the positives' runs over their (B, k_pos + 1) entries
    alone, summed as over a bank-wide row that is zero elsewhere. The
    gradient coefficients are then formed in place in the similarity matrix.
    Returns (loss, grad wrt feats).
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    feats = np.asarray(feats, dtype=np.float64)
    b, n = len(feats), len(bank)
    rows = np.arange(b)[:, None]

    sims = feats @ bank.v.T
    positives = positive_sets(sims, sample_indices, k_pos)
    pos_sims = sims[rows, positives]
    sims[rows, positives] = -np.inf            # negatives only from here on
    ln_a = _logsumexp(sims)                    # negatives
    ln_b = _logsumexp(-pos_sims, positives, n)  # positives
    ln_z = margin + ln_a + ln_b
    per_anchor = np.logaddexp(0.0, ln_z)       # log(1 + Z)
    loss = float(per_anchor.mean())

    # d per_anchor / d sims: +exp(m + s_j + ln_b - log1pZ) on negatives,
    #                        -exp(m + ln_a - s_j - log1pZ) on positives
    # (the positives' -inf entries give 0 in the first exp, then are written)
    coef = sims
    coef += margin
    coef += ln_b[:, None]
    coef -= per_anchor[:, None]
    np.exp(coef, out=coef)
    coef[rows, positives] = -np.exp(
        margin - pos_sims + ln_a[:, None] - per_anchor[:, None])
    coef[~np.isfinite(ln_z)] = 0.0             # no negatives: +0, not -0.0
    coef /= b

    return loss, coef @ bank.v


def momentum_update(bank: MemoryBank, feats: np.ndarray,
                    sample_indices: np.ndarray, tau: float) -> MemoryBank:
    """Blend batch features into their own slots: v <- tau*v + (1-tau)*f."""
    idx = np.asarray(sample_indices)
    rows = tau * bank.v[idx] + (1.0 - tau) * np.asarray(feats, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise TrainingDivergedError("momentum blend produced a zero entry")
    bank.v[idx] = rows / norms
    return bank
