"""The four training objectives and per-expert variance-target construction.

Total objective: lambda1 * sum_e L_mu + lambda2 * sum_e L_cls +
lambda3 * sum_e L_sigma, summed over experts; L_cls takes the classifier's
logits, not its probabilities. Each loss takes an optional leading expert
axis and then returns one value per expert. Any further leading axes in
front of it (a probe axis: K batches under K parameter sets) are carried
through, each index with its own labels or all with the same, so a loss of
(K, E, ...) activations and labels (1 or K, E, B, C) is (K, E). Each
per-sample loss is a masked mean over the dense batch, so no leading index
depends on another's labels.

Each loss, and their weighted total, is one tape node with a hand-written
backward. Its forward runs the numpy operations of the generic ops it
replaced (`ag.matmul`, `exp`, `log`, `sub`, `mul`, `sum_along`, ...) in
their order, so its value is bit-identical to theirs. The labels, masks,
shifts and weights a loss builds stay bare arrays, cast to the
activations' dtype as those ops cast them, so a float32 model's loss is
float32.

The paper's loss hyperparameters are fixed: contrastive temperature 1,
variance targets in [GAMMA_LOW, GAMMA_HIGH], and GAMMA_UNIFORM for the
uniform expert.
"""

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import require_finite
from .sampling import INVERSE, LONG_TAILED, UNIFORM, reversed_frequencies

GAMMA_LOW, GAMMA_HIGH, GAMMA_UNIFORM = 0.01, 1.0, 0.5


@dataclass
class LossWeights:
    lambda1: float = 0.8
    lambda2: float = 1.0
    lambda3: float = 0.4

    def __post_init__(self):
        require_finite(self)
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


def _mean_weights(counts):
    """counts / max(total, 1) over the last axis: a sum of values times these is their
    mean weighted by counts, and 0 at a leading index whose counts are all 0."""
    return counts / np.maximum(counts.sum(axis=-1, keepdims=True), 1)


def _label_overlap(labels):
    """(..., B, B) bool of bool labels (..., B, C): do rows i and j share a label. A float32
    matmul goes to BLAS and an integer one does not; each shared-label count is a sum of 0s
    and 1s, so it is positive exactly when some label is shared, at any C."""
    counts = labels.astype(np.float32)
    return counts @ np.swapaxes(counts, -1, -2) > 0


def mean_contrastive_loss(mus, labels):
    """InfoNCE-style loss pulling same-class mean estimates together.

    For each anchor with at least one in-batch positive (>= 1 shared label)
    and one negative (disjoint labels): the positive is the nearest one by
    dot product, the negatives are all label-disjoint rows; rows with
    partial label overlap join neither set. Returns the mean of
    -log softmax (temperature 1) over eligible anchors, 0 if none are
    eligible. With a leading expert axis (mus (E, B, d), labels (E, B, C))
    each expert's batch is its own, and the result is (E,).

    With s = mus mus^T and anchor weights w, the gradient of s is
    G = w (softmax over the mask - nearest), so that of mus is (G + G^T) mus.
    """
    mus = ag._as_tensor(mus)
    mu = mus.data
    labels = np.asarray(labels).astype(bool)
    B = labels.shape[-2]
    overlap = _label_overlap(labels)
    share = overlap & ~np.eye(B, dtype=bool)
    disjoint = ~overlap
    eligible = share.any(axis=-1) & disjoint.any(axis=-1)

    sims = np.matmul(mu, np.swapaxes(mu, -1, -2))
    # nearest positive by dot product; argmax breaks ties by lowest index. An
    # anchor without a positive keeps column 0, so every row's softmax has a
    # term and a finite log-sum-exp, and weighs 0 in the mean.
    nearest = np.where(share, sims, -np.inf).argmax(axis=-1)[..., None] == np.arange(B)
    mask = disjoint | nearest
    # constant per-anchor shift keeps exp bounded without touching gradients; a column
    # outside the mask is -inf, so its exp is exactly 0 however large its similarity
    e = np.where(mask, sims, -np.inf)
    shift = e.max(axis=-1, keepdims=True)
    e -= shift
    np.exp(e, out=e)
    e_sum = e.sum(axis=-1)
    lse = np.log(e_sum) + shift[..., 0]
    w = _mean_weights(eligible).astype(mu.dtype)
    out = ((lse - (sims * nearest).sum(axis=-1)) * w).sum(axis=-1)

    def backward(g):
        G = e / e_sum[..., None]
        G -= nearest
        G *= (g[..., None] * w)[..., None]
        return (np.matmul(G + np.swapaxes(G, -1, -2), mu),)

    return ag._track(Tensor(out), (mus,), backward)


def classification_loss(logits, y):
    """Multi-label binary cross-entropy from logits, averaged over classes and samples.

    Per entry it is softplus(x) - y x, the BCE of sigmoid(x) with no clamp, finite for every x,
    and its gradient is (sigmoid(x) - y) / (B C). With a leading expert axis the average is per
    expert, giving (E,).
    """
    logits = ag._as_tensor(logits)
    x = logits.data
    y = np.asarray(y, dtype=x.dtype)
    per_entry = ag._softplus(x)
    per_entry -= y * x
    scale = np.asarray(1.0 / (x.shape[-2] * x.shape[-1]), dtype=x.dtype)
    out = per_entry.sum(axis=(-2, -1)) * scale

    def backward(g):
        gx = ag._stable_sigmoid(x)
        gx -= y
        gx *= (g * scale)[..., None, None]
        return (gx,)

    return ag._track(Tensor(out), (logits,), backward)


def variance_region_loss(sigmas, labels, gamma):
    """Squared deviation of per-dimension variance from the class target.

    Mean over samples, their positive labels, and embedding dimensions of
    (sigma_j^2 - gamma_c)^2. With a leading expert axis (sigmas (E, B, d),
    labels (E, B, C), gamma (E, C)) the mean is per expert, giving (E,);
    gamma broadcasts over any further leading axes of the labels.

    Over a sample's n positive classes, whose targets have mean m and
    variance v, the mean of (sigma_j^2 - gamma_c)^2 is (sigma_j^2 - m)^2 + v,
    and the sample weighs w = n / (the labels in its batch), so the gradient
    of sigma_j is (4 / d) w (sigma_j^2 - m) sigma_j. Every reduction runs
    along one row, so no leading index depends on another.
    """
    sigmas = ag._as_tensor(sigmas)
    s = sigmas.data
    held = np.asarray(labels) != 0
    n = held.sum(axis=-1)                                                       # (..., B)
    gamma = np.asarray(gamma)[..., None, :]
    m = (held * gamma).sum(axis=-1) / np.maximum(n, 1)
    v = (held * np.square(gamma - m[..., None])).sum(axis=-1) / np.maximum(n, 1)
    t = s * s - m[..., None].astype(s.dtype)
    scale = np.asarray(1.0 / s.shape[-1], dtype=s.dtype)
    w = _mean_weights(n).astype(s.dtype)
    out = (((t * t).sum(axis=-1) * scale + v.astype(s.dtype)) * w).sum(axis=-1)

    def backward(g):
        gs = t * (g[..., None] * w * (4 * scale))[..., None]
        gs *= s
        return (gs,)

    return ag._track(Tensor(out), (sigmas,), backward)


def total_loss(terms, weights):
    """weights-weighted sum of one (L_mu, L_cls, L_sigma) triple over the expert axis.

    Each term is a scalar for one expert, an (E,) vector with one value per
    expert, or (..., E) with further leading (probe) axes, which the sum
    keeps. Each term's gradient is its weight times the sum's.
    """
    terms = tuple(map(ag._as_tensor, terms))
    lambdas = [np.asarray(lam, dtype=x.data.dtype) for x, lam in
               zip(terms, (weights.lambda1, weights.lambda2, weights.lambda3))]
    (m, c, s), (l1, l2, l3) = [x.data for x in terms], lambdas
    t = m * l1 + c * l2 + s * l3
    out = t.sum(axis=-1) if t.ndim else t

    def backward(g):
        if t.ndim:
            g = np.broadcast_to(g[..., None], t.shape)
        return tuple(g * lam for lam in lambdas)

    return ag._track(Tensor(out), terms, backward)
