"""Gradient verification: finite differences against the autograd tape."""

import numpy as np

from .losses import LossWeights
from .model import Model, ModelConfig
from .seeding import derive_rng
from .training import composed_objective

# an entry whose error at step h exceeds this is retried at h/4 and 4h
REFINE_ABOVE = 2e-5


def composed_objective_gradcheck(seed):
    """Max relative gradient error of the full three-expert objective.

    Builds a random mini-batch of 4 samples (4 frames of 4 features, 4
    classes) with a mix of shared and disjoint labels, given to every
    expert, fixes one epsilon draw per expert so the objective is
    deterministic, and central-differences (h = 2e-5) every parameter entry
    of the batched objective that training runs, with temporal attention.
    Parameters get a small random perturbation after init so the check runs
    at a generic point: fresh zero biases put dead-frame rows exactly on the
    feature-norm guard, where curvature defeats finite differences even
    though the analytic gradient is fine.
    """
    C, d, L, batch, D = 4, 8, 4, 4, 4
    rng = derive_rng(seed, "gradcheck")
    X = rng.uniform(-1.0, 1.0, size=(batch, L, D))
    labels = np.zeros((batch, C), dtype=np.uint8)
    for i in range(batch):
        labels[i, i % 2] = 1
    labels[batch - 1, 2 % C] = 1  # one multi-label sample

    cfg = ModelConfig(D=D, C=C, d_trunk=3, hidden=3, d=d)
    model = Model(cfg, seed=seed)
    for p in model.parameters():
        p.data += rng.uniform(-0.05, 0.05, size=p.data.shape)
    for head in model.heads.values():
        head.gamma = rng.uniform(0.01, 1.0, size=C)
    eps = np.stack([rng.standard_normal((batch, d)) for _ in cfg.experts])
    E = len(cfg.experts)
    X = np.broadcast_to(X, (E,) + X.shape)
    labels = np.broadcast_to(labels, (E,) + labels.shape)
    weights = LossWeights(0.8, 1.0, 0.4)

    def objective():
        return composed_objective(model, cfg.experts, X, labels, eps, weights)[0]

    return gradient_check(objective, model.parameters(), h=2e-5)


def _fd_error(f, flat, i, analytic, h):
    orig = flat[i]
    flat[i] = orig + h
    f_plus = f().item()
    flat[i] = orig - h
    f_minus = f().item()
    flat[i] = orig
    if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
        raise ValueError("gradient_check: non-finite objective under perturbation")
    numeric = (f_plus - f_minus) / (2.0 * h)
    return abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))


def gradient_check(f, params, h=1e-4):
    """Max relative error of the analytic gradients of scalar f() against central differences.

    The error of one entry is |analytic - numeric| / max(1e-8, |analytic| +
    |numeric|). An entry whose error at h exceeds REFINE_ABOVE is retried
    at h/4 (steps over a ReLU kink inside the interval) and 4h (roundoff
    noise on near-zero gradients); the entry's error is the best of the
    three. A wrong analytic gradient fails at every step size. A non-finite
    objective, at the point or under a perturbation, raises ValueError.
    """
    for p in params:
        p.zero_grad()
    y = f()
    if not np.isfinite(y.data).all():
        raise ValueError("gradient_check: non-finite objective value")
    y.backward()

    max_err = 0.0
    for p in params:
        an = p.grad.reshape(-1)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            err = _fd_error(f, flat, i, an[i], h)
            if err > REFINE_ABOVE:
                err = min(err, _fd_error(f, flat, i, an[i], h / 4.0),
                          _fd_error(f, flat, i, an[i], 4.0 * h))
            if err > max_err:
                max_err = err
    return max_err
