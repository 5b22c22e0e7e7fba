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
from .data import (HEAD_THRESHOLD, MEDIUM_THRESHOLD, compute_label_stats, fits_type,
                   require_finite)
from .losses import (LossWeights, classification_loss, gamma_targets,
                     mean_contrastive_loss, total_loss, variance_region_loss)
from .model import (Model, ModelConfig, class_logits, estimate_mean, estimate_variance,
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
    seed: int = 0
    active_experts: tuple[str, ...] = EXPERT_KINDS
    temporal_attention: bool = True
    head_threshold: int = HEAD_THRESHOLD
    medium_threshold: int = MEDIUM_THRESHOLD
    checkpoint_every: int = 10

    def __post_init__(self):
        require_finite(self)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.active_experts = tuple(self.active_experts)
        if not self.active_experts:
            raise ValueError("active_experts must be non-empty")
        if len(set(self.active_experts)) < len(self.active_experts):
            raise ValueError(f"active_experts names a kind twice: {list(self.active_experts)}")


class Adam:
    """Adam over a parameter list, with the moments in one flat vector each.

    The moments are held at the parameters' dtype, float32 for a float32
    model: that halves the step's memory traffic (0.81 ms against 1.67 ms
    for the 74k parameters of one expert at D=64, C=50, widths 128/128/64,
    on 2 vCPUs). Updates are written into each parameter's array in place,
    so a view of it sees them. The state is one level of named entries,
    `adam.t`, `adam.m`, `adam.v` and `adam.params`, that a checkpoint's run
    record holds as its own.
    """

    def __init__(self, params):
        self.params = list(params)
        self.t = 0
        self.bounds = np.cumsum([0] + [p.data.size for p in self.params])
        dtype = np.result_type(*(p.data for p in self.params))
        self.m = np.zeros(self.bounds[-1], dtype=dtype)
        self.v = np.zeros(self.bounds[-1], dtype=dtype)

    def step(self, lr):
        g = np.concatenate([p.grad.ravel() for p in self.params])
        t = self.t + 1
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
            m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * g * g
            update = lr * (m / (1.0 - ADAM_BETA1 ** t)) / (np.sqrt(v / (1.0 - ADAM_BETA2 ** t))
                                                          + ADAM_EPS)
        if not (np.isfinite(update).all() and np.isfinite(v).all()):
            bad = next((p for p in self.params if not np.isfinite(p.grad).all()), None)
            if bad is not None:
                raise FloatingPointError(f"non-finite gradient in parameter {bad.name!r}")
            raise FloatingPointError(f"non-finite Adam update at step {t}, learning_rate={lr!r}")
        self.t, self.m, self.v = t, m, v
        for p, lo, hi in zip(self.params, self.bounds[:-1], self.bounds[1:]):
            p.data -= update[lo:hi].reshape(p.data.shape)

    def state_dict(self):
        return {"adam.t": self.t, "adam.m": self.m, "adam.v": self.v,
                "adam.params": [p.name for p in self.params]}

    def load_state_dict(self, state):
        """Take a `state_dict`; a lacking or malformed entry raises ValueError naming it."""
        t, m, v, names = (state.get(f"adam.{k}") for k in ("t", "m", "v", "params"))
        for key, fits in (("adam.t", type(t) is int and t >= 0),
                          ("adam.m", isinstance(m, np.ndarray) and m.shape == self.m.shape),
                          ("adam.v", isinstance(v, np.ndarray) and v.shape == self.m.shape),
                          ("adam.params", names == [p.name for p in self.params])):
            if not fits:
                raise ValueError(f"Adam state {key!r} is lacking or does not fit the {self.m.size} "
                                 f"moments of these parameters: {state.get(key)!r:.60}")
        self.t, self.m, self.v = t, m.astype(self.m.dtype), v.astype(self.v.dtype)


def build_samplers(labels, stats, kinds):
    """{kind: SamplerSpec} over the records whose labels are the rows of `labels` (N, C)."""
    built = {}
    for kind in kinds:
        if kind == LONG_TAILED:
            built[kind] = sampling.original_weights(len(labels))
        elif kind == UNIFORM:
            built[kind] = sampling.uniform_class_weights(stats, labels)
        elif kind == INVERSE:
            built[kind] = sampling.inverse_class_weights(stats, labels)
        else:
            raise ValueError(f"unknown expert kind {kind!r}")
    return built


def composed_objective(params, X, Y, eps, gamma, weights, temporal_attention):
    """The training objective of E experts as one batched graph.

    `params` maps every stored role name to its tensor: the trunk's, and
    each head role stacked as (E,) + its role-table shape. Expert e sees its
    own batch X[e] (E, B, L, D) with labels Y[e] (E, B, C), noise eps[e]
    (E, B, d) and variance targets gamma[e] (E, C). Returns the scalar loss
    and the (E,) vectors (L_mu, L_cls, L_sigma).

    A probe axis K in front evaluates K parameter sets at once: the head
    roles are then (K, E, ...), the trunk's (K, 1, D, d_trunk) and
    (K, 1, d_trunk), X is (1, E, B, L, D) and Y (1 or K, E, B, C),
    one set of labels for every probe or one per probe; the loss is (K,)
    and the terms are (K, E).
    """
    H0 = trunk_forward(X, params)
    mu = estimate_mean(H0, params)
    sigma = estimate_variance(H0, mu, params, temporal_attention)
    logits = class_logits(reparameterize(mu, sigma, eps), params)
    terms = (mean_contrastive_loss(mu, Y), classification_loss(logits, Y),
             variance_region_loss(sigma, Y, gamma))
    return total_loss(terms, weights), terms


def train_epoch(model, dataset, samplers, cfg, epoch, adam):
    """One pass of ceil(N/batch) steps over a Dataset; returns mean loss terms per expert.

    Each step gathers its drawn rows of the features into one (E, B, L, D)
    float32 batch buffer, the model's dtype in training. eps is drawn at
    float64, as the RNG streams give it, and meets sigma at the model's dtype.
    """
    kinds = cfg.active_experts
    steps = -(-len(dataset) // cfg.batch_size)
    sampler_rngs = [derive_rng(cfg.seed, "sampler", k, epoch) for k in kinds]
    eps_rngs = [derive_rng(cfg.seed, "eps", k, epoch) for k in kinds]

    params = {**model.trunk, **model.stacked_heads}
    gamma = np.stack([model.heads[kind].gamma for kind in kinds])
    sums = np.zeros((len(kinds), 3))
    X = np.empty((len(kinds), cfg.batch_size) + dataset.features.shape[1:], dtype=np.float32)
    for _ in range(steps):
        idx = np.stack([sampling.sample_batch(samplers[k], cfg.batch_size, rng)
                        for k, rng in zip(kinds, sampler_rngs)])
        np.take(dataset.features, idx, axis=0, out=X, mode="clip")  # each index is a row
        eps = np.stack([rng.standard_normal((cfg.batch_size, model.cfg.d)) for rng in eps_rngs])
        loss, terms = composed_objective(params, X, dataset.labels[idx], eps, gamma,
                                         cfg.weights, model.cfg.temporal_attention)
        sums += np.stack([t.data for t in terms], axis=1)
        model.zero_grad()
        loss.backward()
        adam.step(cfg.learning_rate)
    return {k: (sums[i] / steps).tolist() for i, k in enumerate(kinds)}


TERM_NAMES = ("mean_contrastive", "classification", "variance_region")


# TrainConfig fields a run may change on resume: the schedule, and the eval thresholds,
# whose head/medium/tail groups training never reads.
_NOT_RECORDED = ("epochs", "checkpoint_every", "head_threshold", "medium_threshold")


def _run_record(cfg, dataset):
    """The settings and the training data a resumed run must share with its checkpoint."""
    record = asdict(cfg)  # the loss weights become a dict of their fields
    for key in _NOT_RECORDED:
        del record[key]
    record["active_experts"] = list(cfg.active_experts)
    record["data_sha256"] = dataset.sha256()
    return record


def _refuse_other_settings(path, holder, saved, run):
    """Raise ValueError naming the first setting that the two records do not share."""
    for key in {**run, **saved}:
        if key not in run or saved.get(key) != run[key]:
            need = (f"this run needs {key}={run[key]!r}" if key in run
                    else "a setting this run lacks")
            raise ValueError(f"cannot resume from {path}: {holder} {key}={saved.get(key)!r}, "
                             f"{need}")


def _resume_point(path, extra, cfg, run):
    """(epoch, history) of the run record `extra`; ValueError names a key `run` cannot take."""
    def refuse(why):
        raise ValueError(f"cannot resume from {path}: {why}")

    if not isinstance(extra.get("run"), dict):
        refuse("it has no 'run' record of the settings it was trained with")
    _refuse_other_settings(path, "it was trained with", extra["run"], run)
    epoch, history = extra.get("epoch"), extra.get("history")
    if type(epoch) is not int or epoch < 0:
        refuse(f"its 'epoch' must be an epoch count >= 0, got {epoch!r}")
    if epoch > cfg.epochs:
        refuse(f"it holds {epoch} epochs, past this run's epochs={cfg.epochs}")
    keys = [[e, k, t] for e in range(epoch) for k in cfg.active_experts for t in TERM_NAMES]
    if not (isinstance(history, list) and len(history) == len(keys) and all(
            isinstance(row, list) and len(row) == 4 and row[:3] == key and type(row[0]) is int
            and fits_type(row[3], float) for row, key in zip(history, keys))):
        refuse(f"its 'history' is not the loss rows [epoch, expert, term, value] of its "
               f"{epoch} epochs: {history!r:.60}")
    return epoch, [tuple(row) for row in history]


def checkpoint_names(cfg, start_epoch):
    """{epoch: file name} of the checkpoints a run from start_epoch writes.

    One every checkpoint_every epochs before the last, then the final one.
    """
    due = {epoch: f"checkpoint_epoch{epoch:04d}.bin"
           for epoch in range(start_epoch + 1, cfg.epochs)
           if cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0}
    due[cfg.epochs] = "checkpoint_final.bin"
    return due


def train(cfg, dataset, out_dir=None, resume_from=None):
    """Full training run; returns (model, loss_history).

    loss_history rows: (epoch, expert, term, value), three terms per active
    expert per epoch. Checkpoints land in out_dir every checkpoint_every
    epochs plus a final one, with a record of cfg and the Dataset's sha256,
    hashed only by a run that writes or resumes checkpoints. A resume is refused,
    naming the field, when the checkpoint's model, recorded cfg or data differs
    from this run's in anything but epochs, checkpoint_every and the
    head/medium thresholds, or records a setting this run does not have, or
    holds more epochs than this run's, or lacks a run-record or Adam key or
    holds a malformed one.

    Batches are gathered from the Dataset's own features, so the caller's
    Dataset is the only copy of them.
    """
    stats = compute_label_stats(dataset, cfg.head_threshold, cfg.medium_threshold)
    samplers = build_samplers(dataset.labels, stats, cfg.active_experts)
    run = None if out_dir is None and resume_from is None else _run_record(cfg, dataset)

    mcfg = ModelConfig(D=dataset.features.shape[2], C=dataset.labels.shape[1], d_trunk=cfg.d_trunk,
                       hidden=cfg.hidden, d=cfg.d, experts=cfg.active_experts,
                       temporal_attention=cfg.temporal_attention)
    if resume_from is not None:
        model, extra = load_checkpoint(resume_from)
        _refuse_other_settings(resume_from, "its model has", model.cfg.to_dict(), mcfg.to_dict())
        start_epoch, history = _resume_point(resume_from, extra, cfg, run)
        adam = Adam(model.parameters())
        adam.load_state_dict(extra)
    else:
        model = Model(mcfg, seed=cfg.seed)
        for kind in cfg.active_experts:
            model.heads[kind].gamma = gamma_targets(stats, kind)
        start_epoch = 0
        history = []
        adam = Adam(model.parameters())

    due = checkpoint_names(cfg, start_epoch)

    def checkpoint(epoch):
        if out_dir is None:
            return
        os.makedirs(out_dir, exist_ok=True)
        extra = {"epoch": epoch, **adam.state_dict(), "history": history, "run": run}
        save_checkpoint(os.path.join(out_dir, due[epoch]), model, extra)

    for epoch in range(start_epoch, cfg.epochs):
        means = train_epoch(model, dataset, samplers, cfg, epoch, adam)
        for kind in cfg.active_experts:
            for term, value in zip(TERM_NAMES, means[kind]):
                history.append((epoch, kind, term, value))
        if epoch + 1 in due and epoch + 1 < cfg.epochs:
            checkpoint(epoch + 1)
    checkpoint(cfg.epochs)
    return model, history
