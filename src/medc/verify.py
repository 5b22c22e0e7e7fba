"""Gradient verification: finite differences against the autograd tape."""

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .losses import LossWeights
from .model import Model, ModelConfig, per_expert_arrays
from .seeding import derive_rng
from .training import composed_objective

# an entry whose error at step h exceeds this is retried at h/4 and 4h
REFINE_ABOVE = 2e-5
# probes per batched objective evaluation
PROBES = 64


def composed_objective_problem(seed):
    """The objective that `composed_objective_gradcheck` checks, as (f, probe, params).

    f() is the batched three-expert objective at `params`, the model's
    parameters (the trunk's two, then the stacked head roles); probe(values)
    is the same objective for K parameter sets along a leading probe axis,
    values[j] being the (K, ...) stack of params[j]'s values.
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
    for _, a in per_expert_arrays(model):  # the checkpoint order fixes where each draw lands
        a += rng.uniform(-0.05, 0.05, size=a.shape)
    for head in model.heads.values():
        head.gamma = rng.uniform(0.01, 1.0, size=C)
    eps = np.stack([rng.standard_normal((batch, d)) for _ in cfg.experts])
    E = len(cfg.experts)
    X = np.broadcast_to(X, (E,) + X.shape)
    labels = np.broadcast_to(labels, (E,) + labels.shape)
    weights = LossWeights(0.8, 1.0, 0.4)

    def objective():
        return composed_objective(model, X, labels, eps, weights)[0]

    def probe(values):
        W, b, *heads = values
        K = len(W)
        params = {"trunk.W": Tensor(W[:, None]), "trunk.b": Tensor(b[:, None, None, None])}
        params.update((role, Tensor(v)) for role, v in zip(model.stacked_heads, heads))
        loss, _ = composed_objective(model, X[None], np.broadcast_to(
            labels, (K,) + labels.shape), eps, weights, params=params)
        return loss.data

    return objective, probe, model.parameters()


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
    though the analytic gradient is fine. The finite differences run as
    chunks of PROBES parameter sets along a probe axis in front of the
    expert axis (`composed_objective_problem`), with the tape off.
    """
    f, probe, params = composed_objective_problem(seed)
    return gradient_check(f, params, h=2e-5, probe=probe)


def _probe_values(f, params, probes, probe=None):
    """The objective at each probe (j, i, step): params[j]'s flat entry i set to its value + step.

    With `probe`, chunks of PROBES probes run as one call on the stacked
    parameter values; without it, each probe is a chunk of one, written
    into the parameters in place for f() and undone afterwards. The tape
    is off throughout.
    """
    chunk = PROBES if probe else 1
    out = np.empty(len(probes))
    with ag.no_tape():
        for lo in range(0, len(probes), chunk):
            part = probes[lo:lo + chunk]
            if probe:
                values = [np.repeat(p.data[None], len(part), axis=0) for p in params]
                for k, (j, i, step) in enumerate(part):
                    values[j][k].reshape(-1)[i] += step
                out[lo:lo + len(part)] = probe(values)
            else:
                (j, i, step), = part
                flat = params[j].data.reshape(-1)
                orig = flat[i]
                flat[i] = orig + step
                out[lo] = f().item()
                flat[i] = orig
    if not np.isfinite(out).all():
        raise ValueError("gradient_check: non-finite objective under perturbation")
    return out


def _errors(f, params, probe, entries, analytic, h):
    """Relative error of each entry (j, i) against its central difference at step h.

    h is one step for every entry or an array of one step per entry.
    """
    h = np.broadcast_to(h, (len(entries),))
    steps = [(j, i, s) for (j, i), hi in zip(entries, h) for s in (hi, -hi)]
    f_plus, f_minus = _probe_values(f, params, steps, probe).reshape(-1, 2).T
    numeric = (f_plus - f_minus) / (2.0 * h)
    return np.abs(analytic - numeric) / np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))


def gradient_check(f, params, h=1e-4, probe=None):
    """Max relative error of the analytic gradients of scalar f() against central differences.

    The error of one entry is |analytic - numeric| / max(1e-8, |analytic| +
    |numeric|). An entry whose error at h exceeds REFINE_ABOVE is retried
    at h/4 (steps over a ReLU kink inside the interval) and 4h (roundoff
    noise on near-zero gradients); the entry's error is the best of the
    three. A wrong analytic gradient fails at every step size. A non-finite
    objective, at the point or under a perturbation, raises ValueError.

    The analytic gradient comes from one taped pass of f(). The finite
    differences run with the tape off (`ag.no_tape`), each probe perturbing
    one entry by +-step. An objective that takes a probe axis passes
    probe(values) -> (K,) objective values, values[j] being the (K, ...)
    stack of params[j]'s values; its probes then run in chunks of PROBES,
    and the refinement is one more batched pass over the flagged entries.
    Without `probe` every chunk is one probe, evaluated in place by f().
    """
    for p in params:
        p.zero_grad()
    y = f()
    if not np.isfinite(y.data).all():
        raise ValueError("gradient_check: non-finite objective value")
    y.backward()

    entries = [(j, i) for j, p in enumerate(params) for i in range(p.data.size)]
    analytic = np.concatenate([p.grad.reshape(-1) for p in params])
    err = _errors(f, params, probe, entries, analytic, h)
    flagged = np.flatnonzero(err > REFINE_ABOVE)
    if flagged.size:
        retry = [entries[n] for n in flagged]
        ladder = _errors(f, params, probe, retry * 2, np.tile(analytic[flagged], 2),
                         np.repeat([h / 4.0, 4.0 * h], flagged.size))
        err[flagged] = np.minimum(err[flagged], ladder.reshape(2, -1).min(axis=0))
    return err.max()
