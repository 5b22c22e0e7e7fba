"""The multi-expert network.

A shared per-frame MLP trunk feeds three expert heads. Each head estimates
a Gaussian embedding per video with two branches, phi_mu and phi_var, each
one normalized ReLU layer and a linear output layer: the mean is phi_mu's
output mean-pooled over frames, the variance comes from a temporal
self-attention module over phi_var's frame deviations, and the stochastic
embedding z = mu + eps * sigma goes through a linear classifier, whose
logits train it; inference averages the experts' sigmoid probabilities.

Every head has the same parameter roles, declared once in `_head_roles`.
The model holds each role once: `Model.stacked_heads` maps it to one
Parameter of shape (E,) + the role's shape, E the expert axis. The forward
functions index roles by name, so they run unchanged on that stack, with E
in front of every activation, and on a slice of it; the fused ops line up a
vector's leading axes as a weight's, so no role stores a broadcast axis.
Training and inference run all experts as one batched graph on the stack,
which `Model.parameters()` returns, and a checkpoint writes each stack
under its name as it is held, beside gamma as one (E, C) array.

The float dtype is a setting of the model, `ModelConfig.dtype`: float32 for
training and inference, float64 for the gradient checks, whose finite
differences need it. Every parameter is held at it, and the activations
follow it. Gamma, the per-class variance targets, is float64 at either.
"""

from dataclasses import asdict, dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import autograd as ag
from .autograd import Parameter
from .data import Container, fits_type, require_at_least
from .sampling import EXPERT_KINDS, checked_kinds
from .seeding import derive_rng

CHECKPOINT_MAGIC = b"MEDCCKP1"
CHECKPOINT_VERSIONS = (6,)
DTYPES = ("float32", "float64")
# a checkpoint payload's dtype, by the array's dtype in memory
_ON_DISK = {np.dtype(np.float32): "<f4", np.dtype(np.float64): "<f8"}


@dataclass
class ModelConfig:
    D: int
    C: int
    d_trunk: int = 64
    hidden: int = 64
    d: int = 64
    experts: tuple[str, ...] = EXPERT_KINDS
    temporal_attention: bool = True
    dtype: str = "float32"

    def __post_init__(self):
        self.experts = checked_kinds(self.experts, "experts")
        require_at_least(self, 1, "D", "C", "d_trunk", "hidden", "d")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {DTYPES}, got {self.dtype!r}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """The config of a JSON dict; a field of the wrong JSON type raises ValueError naming it."""
        for f in fields(cls):
            if f.name in d and not fits_type(d[f.name], f.type):
                raise ValueError(f"model config field {f.name!r} has the wrong JSON type: "
                                 f"{d[f.name]!r}")
        return cls(**d)


def _head_roles(cfg):
    """(role, shape) of every parameter of one expert head, in checkpoint order.

    phi_mu and phi_var are each one normalized ReLU layer, `layer0`, and a
    linear output layer `out`; f_q, f_k and f_v are the attention
    projections, cls the classifier.
    """
    roles = []
    for branch in ("phi_mu", "phi_var"):
        roles += [(f"{branch}.layer0.W", (cfg.d_trunk, cfg.hidden))]
        roles += [(f"{branch}.layer0.{r}", (cfg.hidden,)) for r in ("b", "scale", "shift")]
        roles += [(f"{branch}.out.W", (cfg.hidden, cfg.d)), (f"{branch}.out.b", (cfg.d,))]
    for name, d_out in (("f_q", cfg.d), ("f_k", cfg.d), ("f_v", cfg.d), ("cls", cfg.C)):
        roles += [(f"{name}.W", (cfg.d, d_out)), (f"{name}.b", (d_out,))]
    return roles


def _trunk_roles(cfg):
    return [("trunk.W", (cfg.D, cfg.d_trunk)), ("trunk.b", (cfg.d_trunk,))]


def _stored_arrays(cfg):
    """(name, shape, dtype on disk) of every stored parameter, then gamma's.

    These are a checkpoint's arrays before `extra`.
    """
    E, at = len(cfg.experts), _ON_DISK[np.dtype(cfg.dtype)]
    return ([(role, shape, at) for role, shape in _trunk_roles(cfg)]
            + [(f"expert.*.{role}", (E,) + shape, at) for role, shape in _head_roles(cfg)]
            + [("gamma", (E, cfg.C), "<f8")])


def _initial_value(rng, role, shape):
    """A weight is drawn uniform in +-1/sqrt(fan_in); a scale is 1, the rest 0."""
    if role.endswith(".W"):
        return rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(shape[0])
    return np.ones(shape) if role.endswith(".scale") else np.zeros(shape)


def _initial_values(cfg, seed):
    """The random init of every stored parameter, in `Model.parameters()` order, at float64.

    The draw order, the trunk's roles and then each expert's head roles in
    turn, fixes the values; a float32 model rounds them.
    """
    rng = derive_rng(seed, "init")
    trunk = [_initial_value(rng, role, shape) for role, shape in _trunk_roles(cfg)]
    roles = _head_roles(cfg)
    drawn = [[_initial_value(rng, role, shape) for role, shape in roles] for _ in cfg.experts]
    return trunk + [np.stack(values) for values in zip(*drawn)]


class Model:
    """The trunk and the expert heads, each parameter role held once.

    `trunk` and `stacked_heads` map role names to Parameters. A head role is
    stacked along a leading expert axis in `cfg.experts` order, as
    (E,) + its shape in the role table: (E, n) for a vector, (E, n, m) for
    a weight, each at `dtype`, the config's. `heads[kind].gamma` holds the
    expert's per-class variance targets.

    `stored`, one array per stored parameter in `parameters()` order, gives
    the values in place of the random init of `seed`; an array already at
    the model's dtype is held, not copied.
    """

    def __init__(self, cfg, seed=0, stored=None):
        self.cfg = cfg
        self.seed = seed
        self.dtype = np.dtype(cfg.dtype)
        if stored is None:
            stored = _initial_values(cfg, seed)
        params = [Parameter(a.astype(self.dtype, copy=False), name)
                  for (name, _, _), a in zip(_stored_arrays(cfg), stored)]
        n_trunk = len(_trunk_roles(cfg))
        self.trunk = {p.name: p for p in params[:n_trunk]}
        self.stacked_heads = {role: p for (role, _), p in zip(_head_roles(cfg), params[n_trunk:])}
        self.heads = {kind: SimpleNamespace(gamma=np.full(cfg.C, 0.5)) for kind in cfg.experts}

    def parameters(self):
        """The Parameters that own the model's memory: the trunk's, then the stacked roles."""
        return list(self.trunk.values()) + list(self.stacked_heads.values())

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()


# -- forward ops --------------------------------------------------------------
# `head` maps role names to tensors: the stacked heads, whose leading expert
# axis every op carries through, or one expert's slice of them. Any further
# leading axes, such as the gradient check's probe axis, broadcast too.

def _linear(params, name, x):
    return ag.linear(x, params[f"{name}.W"], params[f"{name}.b"])


def _hidden(params, name, x):
    """The normalized ReLU layer name.layer0."""
    return ag.affine_norm_relu(x, *(params[f"{name}.layer0.{r}"]
                                    for r in ("W", "b", "scale", "shift")))


def trunk_forward(X, trunk):
    """Per-frame trunk application to X (..., L, D), such as (E or 1, B, L, D)."""
    return ag.linear(X, trunk["trunk.W"], trunk["trunk.b"], relu=True)


def estimate_mean(H0, head):
    """phi_mu's output mean-pooled over frames, then L2-normalized per row.

    phi_mu's output layer is affine, so pooling commutes with it: the
    hidden layer's output is pooled first, and the output layer runs once
    per video instead of once per frame. H0 is (..., L, d_trunk) and the
    result (..., d).
    """
    pooled = ag.mean_along(_hidden(head, "phi_mu", H0), axis=-2)
    return ag.l2_normalize(_linear(head, "phi_mu.out", pooled))


def estimate_variance(H0, mu, head, temporal_attention=True):
    """Variance of the per-video Gaussian from frame deviations.

    delta_l = phi_var(H0)_l - mu. With temporal attention the frames are
    pooled by `ag.attention_pool`, whose scores
    s_l = f_q(delta_l) . f_k(delta_l) / sqrt(d) are softmaxed over frames;
    without it they are mean-pooled. Either way the pooling weights sum to
    1, so the affine value projection f_v commutes with the pooling, as
    phi_mu's output layer does in `estimate_mean`: it runs once per video on
    the pooled deviation, not once per frame. Softplus keeps sigma
    non-negative.
    """
    h = _linear(head, "phi_var.out", _hidden(head, "phi_var", H0))   # (..., L, d)
    mu_b = ag.reshape(mu, mu.shape[:-1] + (1,) + mu.shape[-1:])
    delta = ag.sub(h, mu_b)
    if temporal_attention:
        pooled = ag.attention_pool(delta, *(head[role] for role in
                                            ("f_q.W", "f_q.b", "f_k.W", "f_k.b")))
    else:
        pooled = ag.mean_along(delta, axis=-2)
    return ag.softplus(_linear(head, "f_v", pooled))


def reparameterize(mu, sigma, eps):
    """The stochastic embedding z = mu + eps * sigma; the noise array eps takes sigma's dtype."""
    return ag.add(mu, ag.mul(eps, sigma))


def class_logits(z, head):
    """The classifier's per-class logits, a linear map of z; training's loss takes these."""
    return _linear(head, "cls", z)


def classify(z, head):
    """Per-class sigmoid probabilities of `class_logits`, for inference."""
    return ag.sigmoid(class_logits(z, head))


def forward_inference(X, model):
    """Eval-mode probabilities averaged over the model's experts, at the model's dtype.

    The trunk runs once on X (B, L, D), which its weights take to their
    dtype, and the stacked heads once, on the parameters' arrays: no input
    is a Parameter, so no op records a tape and each activation is freed as
    soon as it is consumed. Eval mode sets z = mu, so the variance branch is
    not run.
    """
    arrays = {role: p.data for role, p in {**model.trunk, **model.stacked_heads}.items()}
    mu = estimate_mean(trunk_forward(X[None], arrays), arrays)
    return ag.mean_along(classify(mu, arrays), axis=0)


# -- checkpoints ---------------------------------------------------------------
# data.py's container, whose manifest adds the model `config`, the `seed` and
# `extra`, the run record's JSON values; the payloads are every stored
# parameter, gamma, then each ndarray at the top level of `extra`.

CHECKPOINT = Container(name="checkpoint", magic=CHECKPOINT_MAGIC, versions=CHECKPOINT_VERSIONS,
                       keys=("version", "config", "seed", "arrays", "extra"), error=ValueError,
                       whose="model")


def save_checkpoint(path, model, extra=None):
    """Write model and `extra` atomically; an ndarray at the top level of `extra` goes as binary."""
    extra = extra if extra is not None else {}
    gamma = np.stack([model.heads[kind].gamma for kind in model.cfg.experts], dtype=np.float64)
    named = ([(p.name, p.data) for p in model.parameters()] + [("gamma", gamma)]
             + [(k, v) for k, v in extra.items() if isinstance(v, np.ndarray)])
    manifest = {
        "version": CHECKPOINT_VERSIONS[-1],
        "config": model.cfg.to_dict(),
        "seed": model.seed,
        "extra": {k: v for k, v in extra.items() if not isinstance(v, np.ndarray)},
    }
    CHECKPOINT.write(path, manifest,
                     [(name, _ON_DISK.get(a.dtype, "<f8"), a) for name, a in named])


def read_checkpoint_manifest(path):
    """The manifest of the checkpoint at `path`, read from its header alone."""
    with open(path, "rb") as f:
        return CHECKPOINT.read_manifest(f)[0]


def load_checkpoint(path):
    """Rebuild a Model from a checkpoint file; returns (model, extra).

    The model is built from the payloads, at the dtype its config names,
    with no random init; gamma is float64, and the arrays after it join
    `extra` under their names at their own dtype. A model config with an
    unknown or missing field or one of the wrong JSON type raises ValueError
    naming it, beside what `Container` refuses.
    """
    with open(path, "rb") as f:
        manifest, reader = CHECKPOINT.read_manifest(f)
        try:
            cfg = ModelConfig.from_dict(manifest["config"])
        except TypeError as e:  # the message names the unknown or missing field
            raise ValueError(f"checkpoint config does not fit the model: {e}") from None
        listed, extra, seed = manifest["arrays"], manifest["extra"], manifest["seed"]
        if not isinstance(extra, dict):
            raise ValueError(f"checkpoint 'extra' is not a JSON object: {extra!r:.40}")
        if not (fits_type(seed, int) and seed >= 0):
            raise ValueError(f"checkpoint 'seed' is not an int >= 0: {seed!r:.40}")
        held = _stored_arrays(cfg)
        for meta in listed[len(held):]:
            if not (isinstance(meta, dict) and isinstance(meta.get("name"), str)
                    and fits_type(meta.get("shape"), list[int])
                    and meta.get("dtype") in _ON_DISK.values()):
                raise ValueError(f"checkpoint arrays entry {meta!r} is not a name, a shape and "
                                 f"a dtype of {list(_ON_DISK.values())}")
        expected = held + [(m["name"], m["shape"], m["dtype"]) for m in listed[len(held):]]
        values = CHECKPOINT.read_arrays(reader, listed, expected)
    for (name, _, _), a in zip(expected, values):
        if not np.isfinite(a).all():
            raise ValueError(f"checkpoint array {name!r} holds a non-finite value")
    model = Model(cfg, seed=seed, stored=values[:len(held) - 1])
    for kind, g in zip(cfg.experts, values[len(held) - 1]):
        model.heads[kind].gamma = g
    extra.update((name, a) for (name, _, _), a in zip(expected[len(held):], values[len(held):]))
    return model, extra
