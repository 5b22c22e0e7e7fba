"""The four training objectives and per-expert variance-target construction.

Total objective: lambda1 * sum_e L_mu + lambda2 * sum_e L_cls +
lambda3 * sum_e L_sigma, summed over experts. Each loss takes an optional
leading expert axis and then returns one value per expert.
"""

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .sampling import INVERSE, LONG_TAILED, UNIFORM, reversed_frequencies


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


def gamma_targets(stats, expert_kind, a=0.01, b=1.0, uniform_const=0.5):
    """Per-class variance targets for one expert.

    Uniform expert: constant. Long-tailed expert: min-max normalization of
    the label frequencies into [a, b], so head classes get large regions.
    Inverse expert: same normalization applied to the reversed frequencies.
    Degenerate all-equal frequencies fall back to (a+b)/2.
    """
    if not b > a > 0:
        raise ValueError(f"need b > a > 0, got ({a}, {b})")
    C = len(stats.frequencies)
    if expert_kind == UNIFORM:
        return np.full(C, uniform_const)
    if expert_kind == LONG_TAILED:
        w = stats.frequencies
    elif expert_kind == INVERSE:
        w = reversed_frequencies(stats.frequencies)
    else:
        raise ValueError(f"unknown expert kind {expert_kind!r}")
    lo, hi = w.min(), w.max()
    if hi == lo:
        return np.full(C, (a + b) / 2.0)
    return a + (b - a) * (w - lo) / (hi - lo)


def _mean_per_expert(values, owner, lead):
    """Mean of the row values (R,) per expert; an expert with no rows gets 0.

    lead is () for a single head, whose mean is a scalar, or (E,) with
    owner[r] the expert of row r.
    """
    if lead:
        member = (owner[None, :] == np.arange(lead[0])[:, None]).astype(np.float64)
    else:
        member = np.ones(values.shape[0])
    weights = member / np.maximum(member.sum(axis=-1, keepdims=True), 1.0)
    return ag.sum_along(ag.mul(values, Tensor(weights)), axis=-1)


def mean_contrastive_loss(mus, labels, tau=1.0):
    """InfoNCE-style loss pulling same-class mean estimates together.

    For each anchor with at least one in-batch positive (>= 1 shared label)
    and one negative (disjoint labels): the positive is the nearest one by
    dot product, the negatives are all label-disjoint rows; rows with
    partial label overlap join neither set. Returns the mean of
    -log softmax over eligible anchors, 0 if none are eligible. With a
    leading expert axis (mus (E, B, d), labels (E, B, C)) each expert's
    batch is its own, and the result is (E,).
    """
    labels = np.asarray(labels).astype(bool)
    lead, B = labels.shape[:-2], labels.shape[-2]
    if B < 2:
        return Tensor(np.zeros(lead))
    counts = labels.astype(np.int64)
    overlap = (counts @ np.swapaxes(counts, -1, -2)) > 0
    share = overlap & ~np.eye(B, dtype=bool)
    disjoint = ~overlap
    eligible = share.any(axis=-1) & disjoint.any(axis=-1)
    if not eligible.any():
        return Tensor(np.zeros(lead))

    axes = tuple(range(mus.ndim - 2)) + (mus.ndim - 1, mus.ndim - 2)
    sims = ag.matmul(mus, ag.transpose(mus, axes))
    sv = sims.data
    # nearest positive by dot product; argmax breaks ties by lowest index
    best = np.where(share, sv, -np.inf).argmax(axis=-1)

    rows = np.nonzero(eligible)       # (expert, anchor) of each eligible row
    mask = disjoint[rows].astype(np.float64)
    mask[np.arange(mask.shape[0]), best[rows]] = 1.0
    # constant per-anchor shift keeps exp bounded without touching gradients
    shift = np.where(mask > 0, sv[rows], -np.inf).max(axis=1, keepdims=True)
    z = ag.mul(ag.sub(sims[rows], Tensor(shift)), 1.0 / tau)
    e = ag.mul(ag.exp(z), Tensor(mask))
    lse = ag.add(ag.log(ag.sum_along(e, axis=1)), Tensor(shift[:, 0] / tau))
    pos = ag.mul(sims[rows + (best[rows],)], 1.0 / tau)
    return _mean_per_expert(ag.sub(lse, pos), rows[0], lead)


def classification_loss(p, y, strict_positive_only=False):
    """Multi-label binary cross-entropy, averaged over classes and samples.

    With a leading expert axis the average is per expert, giving (E,).
    strict_positive_only keeps only the positive-label term (the degenerate
    form; for fidelity experiments only).
    """
    y = np.asarray(y, dtype=np.float64)
    pc = ag.clamp(p, 1e-7, 1.0 - 1e-7)
    pos = ag.mul(Tensor(y), ag.log(pc))
    if strict_positive_only:
        return ag.mul(ag.mean_along(pos, axis=(-2, -1)), -1.0)
    neg = ag.mul(Tensor(1.0 - y), ag.log(ag.sub(1.0, pc)))
    return ag.mul(ag.mean_along(ag.add(pos, neg), axis=(-2, -1)), -1.0)


def variance_region_loss(sigmas, labels, gamma):
    """Squared deviation of per-dimension variance from the class target.

    Mean over samples, their positive labels, and embedding dimensions of
    (sigma_j^2 - gamma_c)^2. With a leading expert axis (sigmas (E, B, d),
    labels (E, B, C), gamma (E, C)) the mean is per expert, giving (E,).
    """
    labels = np.asarray(labels)
    lead = labels.shape[:-2]
    *rows, cols = np.nonzero(labels)
    if cols.size == 0:
        return Tensor(np.zeros(lead))
    rows = tuple(rows)
    sel = ag.square(sigmas)[rows]                                    # (P, d)
    targets = Tensor(np.asarray(gamma)[rows[:-1] + (cols,)][:, None])
    dev = ag.sum_along(ag.square(ag.sub(sel, targets)), axis=-1)     # (P,)
    return ag.mul(_mean_per_expert(dev, rows[0], lead), 1.0 / sel.shape[-1])


def total_loss(terms, weights):
    """weights-weighted sum of one (L_mu, L_cls, L_sigma) triple over every expert.

    Each term is a scalar for one expert or an (E,) vector with one value
    per expert.
    """
    m, c, s = terms
    t = ag.add(ag.add(ag.mul(m, weights.lambda1), ag.mul(c, weights.lambda2)),
               ag.mul(s, weights.lambda3))
    return ag.sum_along(t) if t.ndim else t
