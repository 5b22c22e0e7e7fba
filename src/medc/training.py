"""Adam-based training of the multi-expert model.

One optimization step per batch: every active expert draws its own batch
from its sampler, all experts run as one batched graph along a leading
expert axis, the three loss terms come out per expert, their weighted sum
is backpropagated once, and a single Adam step updates the shared trunk
and all heads together.

RNG streams are derived per (seed, consumer, expert, epoch), so a run can
be resumed from a checkpoint at any epoch boundary and produce the exact
trajectory of the uninterrupted run.
"""

import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import sampling
from .data import HEAD_THRESHOLD, MEDIUM_THRESHOLD, compute_label_stats
from .losses import (LossWeights, classification_loss, gamma_targets,
                     mean_contrastive_loss, total_loss, variance_region_loss)
from .model import (Model, ModelConfig, classify, estimate_mean, estimate_variance,
                    load_checkpoint, reparameterize, save_checkpoint, trunk_forward)
from .sampling import EXPERT_KINDS, INVERSE, LONG_TAILED, UNIFORM
from .seeding import derive_rng

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    epochs: int = 30
    batch_size: int = 32
    weights: LossWeights = field(default_factory=LossWeights)
    d_trunk: int = 64
    hidden: int = 64
    d: int = 64
    phi_depth: int = 2
    seed: int = 0
    active_experts: tuple[str, ...] = EXPERT_KINDS
    temporal_attention: bool = True
    head_threshold: int = HEAD_THRESHOLD
    medium_threshold: int = MEDIUM_THRESHOLD
    checkpoint_every: int = 10

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        self.active_experts = tuple(self.active_experts)
        if not self.active_experts:
            raise ValueError("active_experts must be non-empty")


class Adam:
    """Adam over a parameter list, with the moments in one flat vector each.

    Updates are written into each parameter's array in place, so a view of
    it, such as one of `model.per_expert_arrays`, sees them.
    """

    def __init__(self, params):
        self.params = list(params)
        self.t = 0
        self.bounds = np.cumsum([0] + [p.data.size for p in self.params])
        self.m = np.zeros(self.bounds[-1])
        self.v = np.zeros(self.bounds[-1])

    def step(self, lr):
        g = np.concatenate([p.grad.ravel() for p in self.params])
        if not np.isfinite(g).all():
            bad = next(p for p in self.params if not np.isfinite(p.grad).all())
            raise FloatingPointError(f"non-finite gradient in parameter {bad.name!r}")
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * g
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * g * g
        m_hat = self.m / b1t
        v_hat = self.v / b2t
        update = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        for p, lo, hi in zip(self.params, self.bounds[:-1], self.bounds[1:]):
            p.data -= update[lo:hi].reshape(p.data.shape)

    def state_dict(self):
        return {"t": self.t, "m": self.m, "v": self.v, "params": [p.name for p in self.params]}

    def load_state_dict(self, state):
        for name in ("m", "v"):
            moment = state[name]
            if not isinstance(moment, np.ndarray) or moment.shape != self.m.shape:
                raise ValueError(f"Adam state {name!r} is not an array of the "
                                 f"{self.m.size} moments these parameters need")
        names = [p.name for p in self.params]
        if state.get("params") != names:
            raise ValueError(f"Adam state holds moments for parameters {state.get('params')}, "
                             f"not {names}: checkpoints of version 2 or older hold them "
                             "per head, in another order, and cannot be resumed")
        self.t = state["t"]
        self.m = state["m"].astype(np.float64)
        self.v = state["v"].astype(np.float64)


def build_samplers(records, stats, kinds):
    labels = [r.labels for r in records]
    built = {}
    for kind in kinds:
        if kind == LONG_TAILED:
            built[kind] = sampling.original_weights(len(records))
        elif kind == UNIFORM:
            built[kind] = sampling.uniform_class_weights(stats, labels)
        elif kind == INVERSE:
            built[kind] = sampling.inverse_class_weights(stats, labels)
        else:
            raise ValueError(f"unknown expert kind {kind!r}")
    return built


def composed_objective(model, X, Y, eps, weights, params=None):
    """The training objective of the model's experts as one batched graph.

    Expert e of `model.cfg.experts` sees its own batch X[e] (E, B, L, D)
    with labels Y[e] (E, B, C) and noise eps[e] (E, B, d). Returns the
    scalar loss and the (E,) vectors (L_mu, L_cls, L_sigma).

    `params` maps every stored role name to the tensor that stands in for
    it, `model.trunk` and `model.stacked_heads` by default. A probe axis K
    in front evaluates K parameter sets at once: the head roles are then
    (K, E, ...), the trunk's (K, 1, D, d_trunk) and (K, 1, 1, 1, d_trunk),
    X is (1, E, B, L, D) and Y (K, E, B, C), each probe with its own labels;
    the loss is (K,) and the terms are (K, E).
    """
    params = params or {**model.trunk, **model.stacked_heads}
    H0 = trunk_forward(X, params)
    mu = estimate_mean(H0, params)
    sigma = estimate_variance(H0, mu, params, model.cfg.temporal_attention)
    p = classify(reparameterize(mu, sigma, eps), params)
    gamma = np.stack([model.heads[kind].gamma for kind in model.cfg.experts])
    terms = (mean_contrastive_loss(mu, Y), classification_loss(p, Y),
             variance_region_loss(sigma, Y, gamma))
    return total_loss(terms, weights), terms


def train_epoch(model, feats, labels, samplers, cfg, epoch, adam):
    """One pass of ceil(N/batch) steps; returns mean loss terms per expert."""
    kinds = cfg.active_experts
    n = feats.shape[0]
    steps = -(-n // cfg.batch_size)
    sampler_rngs = [derive_rng(cfg.seed, "sampler", k, epoch) for k in kinds]
    eps_rngs = [derive_rng(cfg.seed, "eps", k, epoch) for k in kinds]

    sums = np.zeros((len(kinds), 3))
    for _ in range(steps):
        idx = np.stack([sampling.sample_batch(samplers[k], cfg.batch_size, rng)
                        for k, rng in zip(kinds, sampler_rngs)])
        eps = np.stack([rng.standard_normal((cfg.batch_size, model.cfg.d)) for rng in eps_rngs])
        loss, terms = composed_objective(model, feats[idx], labels[idx], eps, cfg.weights)
        sums += np.stack([t.data for t in terms], axis=1)
        model.zero_grad()
        loss.backward()
        adam.step(cfg.learning_rate)
    return {k: (sums[i] / steps).tolist() for i, k in enumerate(kinds)}


TERM_NAMES = ("mean_contrastive", "classification", "variance_region")


def _run_record(cfg):
    """The settings a resumed run must share with its checkpoint: all but the schedule."""
    record = asdict(cfg)  # the loss weights become a dict of their fields
    del record["epochs"], record["checkpoint_every"]
    record["active_experts"] = list(cfg.active_experts)
    return record


def _refuse_other_settings(path, holder, saved, run):
    """Raise ValueError naming the first setting that the two records do not share."""
    for key in {**run, **saved}:
        if key not in run or saved.get(key) != run[key]:
            need = (f"this run needs {key}={run[key]!r}" if key in run
                    else "a setting this run lacks")
            raise ValueError(f"cannot resume from {path}: {holder} {key}={saved.get(key)!r}, "
                             f"{need}")


def checkpoint_names(cfg, start_epoch):
    """{epoch: file name} of the checkpoints a run from start_epoch writes.

    One every checkpoint_every epochs before the last, then the final one.
    """
    due = {epoch: f"checkpoint_epoch{epoch:04d}.bin"
           for epoch in range(start_epoch + 1, cfg.epochs)
           if cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0}
    due[cfg.epochs] = "checkpoint_final.bin"
    return due


def train(cfg, records, out_dir=None, resume_from=None):
    """Full training run; returns (model, loss_history).

    loss_history rows: (epoch, expert, term, value), three terms per active
    expert per epoch. Checkpoints land in out_dir every checkpoint_every
    epochs plus a final one, with a record of cfg. A resume is refused,
    naming the field, when the checkpoint's model or recorded cfg differs
    from this run's in anything but epochs and checkpoint_every, or records
    a setting this run does not have, or holds more epochs than this run's.
    """
    stats = compute_label_stats(records, cfg.head_threshold, cfg.medium_threshold)
    feats = np.stack([r.features for r in records])
    labels = np.stack([r.labels for r in records])
    samplers = build_samplers(records, stats, cfg.active_experts)

    mcfg = ModelConfig(D=feats.shape[2], C=labels.shape[1], d_trunk=cfg.d_trunk,
                       hidden=cfg.hidden, d=cfg.d, phi_depth=cfg.phi_depth,
                       experts=cfg.active_experts, temporal_attention=cfg.temporal_attention)
    if resume_from is not None:
        model, extra = load_checkpoint(resume_from)
        _refuse_other_settings(resume_from, "its model has", model.cfg.to_dict(), mcfg.to_dict())
        if "run" not in extra:
            raise ValueError(f"cannot resume from {resume_from}: it has no 'run' record of "
                             "the settings it was trained with")
        _refuse_other_settings(resume_from, "it was trained with", extra["run"], _run_record(cfg))
        start_epoch = extra["epoch"]
        if start_epoch > cfg.epochs:
            raise ValueError(f"cannot resume from {resume_from}: it holds {start_epoch} "
                             f"epochs, past this run's epochs={cfg.epochs}")
        history = [tuple(row) for row in extra.get("history", [])]
    else:
        model = Model(mcfg, seed=cfg.seed)
        for kind in cfg.active_experts:
            model.heads[kind].gamma = gamma_targets(stats, kind)
        start_epoch = 0
        history = []

    adam = Adam(model.parameters())
    if resume_from is not None and "adam" in extra:
        adam.load_state_dict(extra["adam"])

    due = checkpoint_names(cfg, start_epoch)

    def checkpoint(epoch):
        if out_dir is None:
            return
        os.makedirs(out_dir, exist_ok=True)
        extra = {"epoch": epoch, "adam": adam.state_dict(), "history": history,
                 "run": _run_record(cfg)}
        save_checkpoint(os.path.join(out_dir, due[epoch]), model, extra)

    for epoch in range(start_epoch, cfg.epochs):
        means = train_epoch(model, feats, labels, samplers, cfg, epoch, adam)
        for kind in cfg.active_experts:
            for term, value in zip(TERM_NAMES, means[kind]):
                history.append((epoch, kind, term, value))
        if epoch + 1 in due and epoch + 1 < cfg.epochs:
            checkpoint(epoch + 1)
    checkpoint(cfg.epochs)
    return model, history
