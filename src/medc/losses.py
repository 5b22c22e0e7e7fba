"""The four training objectives and per-expert variance-target construction.

Total objective: lambda1 * sum_e L_mu + lambda2 * sum_e L_cls +
lambda3 * sum_e L_sigma, summed over experts. Each loss takes an optional
leading expert axis and then returns one value per expert. Any further
leading axes in front of it (a probe axis: K batches under K parameter
sets) are carried through, each index with its own labels, so a loss of
labels (K, E, B, C) is (K, E). Each per-sample loss is a masked mean over
the dense batch, so no leading index depends on another's labels.

The paper's loss hyperparameters are fixed: contrastive temperature 1,
variance targets in [GAMMA_LOW, GAMMA_HIGH], and GAMMA_UNIFORM for the
uniform expert.
"""

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .sampling import INVERSE, LONG_TAILED, UNIFORM, reversed_frequencies

GAMMA_LOW, GAMMA_HIGH, GAMMA_UNIFORM = 0.01, 1.0, 0.5


@dataclass
class LossWeights:
    lambda1: float = 0.8
    lambda2: float = 1.0
    lambda3: float = 0.4

    def __post_init__(self):
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ValueError("loss weights must be non-negative")
        if self.lambda1 == self.lambda2 == self.lambda3 == 0:
            raise ValueError("at least one loss weight must be positive")


def gamma_targets(stats, expert_kind):
    """Per-class variance targets for one expert.

    Uniform expert: GAMMA_UNIFORM. Long-tailed expert: min-max
    normalization of the label frequencies into [GAMMA_LOW, GAMMA_HIGH], so
    head classes get large regions. Inverse expert: same normalization
    applied to the reversed frequencies. Degenerate all-equal frequencies
    fall back to the middle of that range.
    """
    C = len(stats.frequencies)
    if expert_kind == UNIFORM:
        return np.full(C, GAMMA_UNIFORM)
    if expert_kind == LONG_TAILED:
        w = stats.frequencies
    elif expert_kind == INVERSE:
        w = reversed_frequencies(stats.frequencies)
    else:
        raise ValueError(f"unknown expert kind {expert_kind!r}")
    lo, hi = w.min(), w.max()
    if hi == lo:
        return np.full(C, (GAMMA_LOW + GAMMA_HIGH) / 2.0)
    return GAMMA_LOW + (GAMMA_HIGH - GAMMA_LOW) * (w - lo) / (hi - lo)


def _mean_weights(mask, axis=-1):
    """mask / max(count, 1) over axis: a sum of values times these is their mean
    over the true entries of mask, and 0 at a leading index with none."""
    return mask / np.maximum(mask.sum(axis=axis, keepdims=True), 1)


def mean_contrastive_loss(mus, labels):
    """InfoNCE-style loss pulling same-class mean estimates together.

    For each anchor with at least one in-batch positive (>= 1 shared label)
    and one negative (disjoint labels): the positive is the nearest one by
    dot product, the negatives are all label-disjoint rows; rows with
    partial label overlap join neither set. Returns the mean of
    -log softmax (temperature 1) over eligible anchors, 0 if none are
    eligible. With a leading expert axis (mus (E, B, d), labels (E, B, C))
    each expert's batch is its own, and the result is (E,).
    """
    labels = np.asarray(labels).astype(bool)
    B = labels.shape[-2]
    counts = labels.astype(np.int64)
    overlap = (counts @ np.swapaxes(counts, -1, -2)) > 0
    share = overlap & ~np.eye(B, dtype=bool)
    disjoint = ~overlap
    eligible = share.any(axis=-1) & disjoint.any(axis=-1)

    axes = tuple(range(mus.ndim - 2)) + (mus.ndim - 1, mus.ndim - 2)
    sims = ag.matmul(mus, ag.transpose(mus, axes))
    sv = sims.data
    # nearest positive by dot product; argmax breaks ties by lowest index. An
    # anchor without a positive keeps column 0, so every row's softmax has a
    # term and a finite log-sum-exp, and weighs 0 in the mean.
    nearest = np.where(share, sv, -np.inf).argmax(axis=-1)[..., None] == np.arange(B)
    mask = disjoint | nearest
    # constant per-anchor shift keeps exp bounded without touching gradients
    shift = np.where(mask, sv, -np.inf).max(axis=-1, keepdims=True)
    e = ag.mul(ag.exp(ag.sub(sims, Tensor(shift))), Tensor(mask))
    lse = ag.add(ag.log(ag.sum_along(e, axis=-1)), Tensor(shift[..., 0]))
    pos = ag.sum_along(ag.mul(sims, Tensor(nearest)), axis=-1)
    loss = ag.mul(ag.sub(lse, pos), Tensor(_mean_weights(eligible)))
    return ag.sum_along(loss, axis=-1)


def classification_loss(p, y):
    """Multi-label binary cross-entropy, averaged over classes and samples.

    With a leading expert axis the average is per expert, giving (E,).
    """
    y = np.asarray(y, dtype=np.float64)
    pc = ag.clamp(p, 1e-7, 1.0 - 1e-7)
    pos = ag.mul(Tensor(y), ag.log(pc))
    neg = ag.mul(Tensor(1.0 - y), ag.log(ag.sub(1.0, pc)))
    return ag.mul(ag.mean_along(ag.add(pos, neg), axis=(-2, -1)), -1.0)


def variance_region_loss(sigmas, labels, gamma):
    """Squared deviation of per-dimension variance from the class target.

    Mean over samples, their positive labels, and embedding dimensions of
    (sigma_j^2 - gamma_c)^2. With a leading expert axis (sigmas (E, B, d),
    labels (E, B, C), gamma (E, C)) the mean is per expert, giving (E,);
    gamma broadcasts over any further leading axes of the labels.
    """
    labels = np.asarray(labels)
    # S slots per sample, its positive classes first; S is the most labels a sample has
    S = max(int(np.count_nonzero(labels, axis=-1).max()), 1)
    cls = np.argsort(labels == 0, axis=-1, kind="stable")[..., :S]
    gamma = np.broadcast_to(np.asarray(gamma)[..., None, :], labels.shape)
    # the slot axis leads, so it broadcasts against sigmas (..., B, d) with no reshape
    held = np.moveaxis(np.take_along_axis(labels, cls, axis=-1) != 0, -1, 0)  # (S, ..., B)
    targets = np.moveaxis(np.take_along_axis(gamma, cls, axis=-1), -1, 0)
    sq = ag.square(sigmas)
    dev = ag.sum_along(ag.square(ag.sub(sq, Tensor(targets[..., None]))), axis=-1)
    # Summed on their own, the slots add an empty trailing slot as an exact 0. numpy sums
    # fewer than 8 terms in order, so below 8 labels a sample the value does not depend
    # on S, which other leading indices may set; from 8 on, its last bit can move with S.
    w = Tensor(_mean_weights(held, axis=(0, -1)))
    per_sample = ag.sum_along(ag.mul(dev, w), axis=0)                           # (..., B)
    return ag.mul(ag.sum_along(per_sample, axis=-1), 1.0 / sq.shape[-1])


def total_loss(terms, weights):
    """weights-weighted sum of one (L_mu, L_cls, L_sigma) triple over the expert axis.

    Each term is a scalar for one expert, an (E,) vector with one value per
    expert, or (..., E) with further leading (probe) axes, which the sum
    keeps.
    """
    m, c, s = terms
    t = ag.add(ag.add(ag.mul(m, weights.lambda1), ag.mul(c, weights.lambda2)),
               ag.mul(s, weights.lambda3))
    return ag.sum_along(t, axis=-1) if t.ndim else t
