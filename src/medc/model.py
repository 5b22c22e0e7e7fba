"""The multi-expert network.

A shared per-frame MLP trunk feeds three expert heads. Each head estimates
a Gaussian embedding per video: the mean comes from an MLP plus mean
pooling over frames, the variance from a temporal self-attention module
over frame deviations, and the stochastic embedding z = mu + eps * sigma
goes through a per-class sigmoid classifier. Inference averages the expert
probability vectors.

Every head has the same parameter roles, declared once in `_head_roles`.
The model holds each role once: `Model.stacked_heads` maps it to one
Parameter with a leading expert axis E. The forward functions index roles
by name, so they run unchanged on that stack, with E in front of every
activation, and on one expert's slice of it
`{role: p[e] for role, p in model.stacked_heads.items()}`, whose gradients
flow back into the stack. Training and inference run all experts as one
batched graph on the stack, which `Model.parameters()` returns; only the
checkpoint file lays it out per expert, through `per_expert_arrays`.
"""

import json
import struct
from dataclasses import asdict, dataclass, fields
from types import SimpleNamespace

import numpy as np

from . import autograd as ag
from .autograd import Parameter, Tensor
from .data import ByteReader, fits_type
from .sampling import EXPERT_KINDS
from .seeding import derive_rng

CHECKPOINT_MAGIC = b"MEDCCKP1"
CHECKPOINT_VERSIONS = (1, 2, 3)


@dataclass
class ModelConfig:
    D: int
    C: int
    d_trunk: int = 64
    hidden: int = 64
    d: int = 64
    phi_depth: int = 2
    experts: tuple[str, ...] = EXPERT_KINDS
    temporal_attention: bool = True

    def __post_init__(self):
        self.experts = tuple(self.experts)
        if not self.experts:
            raise ValueError("need at least one expert")
        for k in self.experts:
            if k not in EXPERT_KINDS:
                raise ValueError(f"unknown expert kind {k!r}")
        if self.phi_depth < 1:
            raise ValueError("phi_depth must be >= 1")

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

    phi_mu and phi_var are phi_depth-1 normalized ReLU layers and a linear
    output, f_q, f_k and f_v the attention projections, cls the classifier.
    """
    roles = []
    for branch in ("phi_mu", "phi_var"):
        d_in = cfg.d_trunk
        for i in range(cfg.phi_depth - 1):
            layer = f"{branch}.layer{i}"
            roles += [(f"{layer}.W", (d_in, cfg.hidden))]
            roles += [(f"{layer}.{r}", (cfg.hidden,)) for r in ("b", "scale", "shift")]
            d_in = cfg.hidden
        roles += [(f"{branch}.out.W", (d_in, cfg.d)), (f"{branch}.out.b", (cfg.d,))]
    for name, d_out in (("f_q", cfg.d), ("f_k", cfg.d), ("f_v", cfg.d), ("cls", cfg.C)):
        roles += [(f"{name}.W", (cfg.d, d_out)), (f"{name}.b", (d_out,))]
    return roles


def _initial_value(rng, role, shape):
    """A weight is drawn uniform in +-1/sqrt(fan_in); a scale is 1, the rest 0."""
    if role.endswith(".W"):
        return rng.uniform(-1.0, 1.0, size=shape) / np.sqrt(shape[0])
    return np.ones(shape) if role.endswith(".scale") else np.zeros(shape)


class Model:
    """The trunk and the expert heads, each parameter role held once.

    `trunk` and `stacked_heads` map role names to Parameters. A head role is
    stacked along a leading expert axis in `cfg.experts` order; its vectors
    get singleton axes after E to broadcast over the batch axes: (E, 1, 1, n)
    per frame, (E, 1, n) in the classifier. `heads[kind].gamma` holds the
    expert's per-class variance targets.
    """

    def __init__(self, cfg, seed=0):
        self.cfg = cfg
        self.seed = seed
        rng = derive_rng(seed, "init")
        self.trunk = {role: Parameter(_initial_value(rng, role, shape), role)
                      for role, shape in (("trunk.W", (cfg.D, cfg.d_trunk)),
                                          ("trunk.b", (cfg.d_trunk,)))}
        roles = _head_roles(cfg)
        drawn = [[_initial_value(rng, role, shape) for role, shape in roles]
                 for _ in cfg.experts]
        self.stacked_heads = {}
        for (role, shape), values in zip(roles, zip(*drawn)):
            data = np.stack(values)
            if len(shape) == 1:
                frame_axes = 1 if role.startswith("cls.") else 2
                data = data.reshape(data.shape[:1] + (1,) * frame_axes + shape)
            self.stacked_heads[role] = Parameter(data, f"expert.*.{role}")
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
    """The normalized ReLU layers name.layer0, name.layer1, ... present, in order."""
    i = 0
    while f"{name}.layer{i}.W" in params:
        x = ag.affine_norm_relu(x, *(params[f"{name}.layer{i}.{r}"]
                                     for r in ("W", "b", "scale", "shift")))
        i += 1
    return x


def trunk_forward(X, trunk):
    """Per-frame trunk application; X is (B, L, D), (L, D), (E, B, L, D) or (1, E, B, L, D)."""
    return ag.linear(X, trunk["trunk.W"], trunk["trunk.b"], relu=True)


def estimate_mean(H0, head):
    """phi_mu's output mean-pooled over frames, then L2-normalized per row.

    phi_mu's output layer is affine, so pooling commutes with it: the
    hidden layers' output is pooled first, and the output layer runs once
    per video instead of once per frame. The pooled frame axis is kept
    while the stacked (E, 1, 1, d) bias broadcasts, then dropped.
    """
    pooled = ag.mean_along(_hidden(head, "phi_mu", H0), axis=-2, keepdims=True)
    mu = _linear(head, "phi_mu.out", pooled)
    return ag.l2_normalize(ag.reshape(mu, mu.shape[:-2] + mu.shape[-1:]), axis=-1)


def estimate_variance(H0, mu, head, temporal_attention=True):
    """Variance of the per-video Gaussian from frame deviations.

    delta_l = phi_var(H0)_l - mu. With temporal attention, per-frame scores
    s_l = f_q(delta_l) . f_k(delta_l) / sqrt(d) are softmaxed over frames
    and weight the value projections; without it, value projections are
    mean-pooled. Softplus keeps sigma non-negative.
    """
    h = _linear(head, "phi_var.out", _hidden(head, "phi_var", H0))   # (..., L, d)
    mu_b = ag.reshape(mu, mu.shape[:-1] + (1,) + mu.shape[-1:])
    delta = ag.sub(h, mu_b)
    v = _linear(head, "f_v", delta)
    if temporal_attention:
        q = _linear(head, "f_q", delta)
        k = _linear(head, "f_k", delta)
        d = delta.shape[-1]
        scores = ag.mul(ag.sum_along(ag.mul(q, k), axis=-1), 1.0 / np.sqrt(d))
        alpha = ag.softmax_along(scores, axis=-1)            # (..., L)
        alpha_b = ag.reshape(alpha, alpha.shape + (1,))
        raw = ag.sum_along(ag.mul(alpha_b, v), axis=-2)
    else:
        raw = ag.mean_along(v, axis=-2)
    return ag.softplus(raw)


def reparameterize(mu, sigma, eps):
    """The stochastic embedding z = mu + eps * sigma for the noise array eps."""
    return ag.add(mu, ag.mul(Tensor(eps), sigma))


def classify(z, head):
    """Per-class sigmoid probabilities from linear logits."""
    return ag.sigmoid(_linear(head, "cls", z))


def forward_inference(X, model):
    """Eval-mode probabilities averaged over the model's experts.

    The trunk runs once on X (B, L, D) and the stacked heads once, on the
    stored parameters under `ag.no_tape`, so no tape is built and each
    activation is freed as soon as it is consumed. Eval mode sets z = mu,
    so the variance branch is not run.
    """
    with ag.no_tape():
        H0 = trunk_forward(X, model.trunk)
        mu = estimate_mean(ag.reshape(H0, (1,) + H0.shape), model.stacked_heads)
        return ag.mean_along(classify(mu, model.stacked_heads), axis=0)


# -- checkpoints ---------------------------------------------------------------
# single file: magic, u64 manifest length, JSON manifest, then little-endian
# f64 payloads: the parameters in manifest order, then the arrays of `extra`.

_PAYLOAD = "f8_payload"


def _lift_arrays(obj, arrays):
    """Copy of the dict tree `obj` with each ndarray moved to `arrays`."""
    if isinstance(obj, np.ndarray):
        arrays.append(obj)
        return {_PAYLOAD: len(arrays) - 1}
    if isinstance(obj, dict):
        return {k: _lift_arrays(v, arrays) for k, v in obj.items()}
    return obj


def _restore_arrays(obj, arrays):
    if isinstance(obj, dict):
        if set(obj) == {_PAYLOAD}:
            index = obj[_PAYLOAD]
            if type(index) is not int or not 0 <= index < len(arrays):
                raise ValueError(f"checkpoint extra refers to payload array {index!r}, "
                                 f"but the checkpoint holds {len(arrays)}")
            return arrays[index]
        return {k: _restore_arrays(v, arrays) for k, v in obj.items()}
    return obj


def _read_f8(reader, shape, what):
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    return np.frombuffer(reader.read(8 * count, what), dtype="<f8").reshape(shape)


def per_expert_arrays(model):
    """(name, array) of every parameter in checkpoint order, each a view of the stored value.

    The trunk's come first, then each expert's slice of every head role as
    `expert.<kind>.<role>`, in the role table's order and shape.
    """
    named = [(p.name, p.data) for p in model.trunk.values()]
    roles = _head_roles(model.cfg)
    for e, kind in enumerate(model.cfg.experts):
        named += [(f"expert.{kind}.{role}", model.stacked_heads[role].data[e].reshape(shape))
                  for role, shape in roles]
    return named


def save_checkpoint(path, model, extra=None):
    """Write model and `extra`; float64 arrays in `extra`'s dicts go as binary."""
    named = per_expert_arrays(model)
    arrays = []
    extra = _lift_arrays(extra if extra is not None else {}, arrays)
    manifest = {
        "version": CHECKPOINT_VERSIONS[-1],
        "config": model.cfg.to_dict(),
        "seed": model.seed,
        "gamma": {kind: model.heads[kind].gamma.tolist() for kind in model.cfg.experts},
        "params": [{"name": name, "shape": list(a.shape)} for name, a in named],
        "arrays": [list(a.shape) for a in arrays],
        "extra": extra,
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for a in [a for _, a in named] + arrays:
            f.write(a.astype("<f8").tobytes())


def read_checkpoint_manifest(path):
    """The JSON manifest of a checkpoint file and a reader at its first payload.

    Bad magic, a truncated manifest, a manifest that is not a JSON object,
    a lacking key or another version raise ValueError; the parameters are
    not read.
    """
    with open(path, "rb") as f:
        reader = ByteReader(f.read(), ValueError)
    magic = reader.read(8, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {magic!r}")
    (mlen,) = reader.unpack("<Q", "manifest length")
    manifest = json.loads(reader.read(mlen, "manifest").decode("utf-8"))
    if not isinstance(manifest, dict):
        raise ValueError(f"checkpoint manifest is not a JSON object: {manifest!r:.40}")
    missing = [k for k in ("version", "config", "seed", "gamma", "params", "extra")
               if k not in manifest]
    if missing:
        raise ValueError(f"checkpoint manifest lacks the key {missing[0]!r}")
    if manifest["version"] not in CHECKPOINT_VERSIONS:
        raise ValueError(f"unsupported checkpoint version {manifest['version']!r}; "
                         f"this reader accepts versions {CHECKPOINT_VERSIONS}")
    return manifest, reader


def load_checkpoint(path):
    """Rebuild a Model from a checkpoint file; returns (model, extra).

    The parameter values are written into the new model through `per_expert_arrays`.
    A truncated file, or bytes after the last payload, raise ValueError
    with the byte offset. A manifest of another version, or one that lacks
    a key, whose model config has an unknown or missing field or one of the
    wrong JSON type, whose gamma targets are not one vector of C per
    expert, or whose parameter list or payload references do not fit the
    model, raises ValueError naming it.
    """
    manifest, reader = read_checkpoint_manifest(path)
    try:
        cfg = ModelConfig.from_dict(manifest["config"])
    except TypeError as e:  # the message names the unknown or missing field
        raise ValueError(f"checkpoint config does not fit the model: {e}") from None
    gamma = manifest["gamma"]
    kinds = sorted(gamma) if isinstance(gamma, dict) else None
    if kinds != sorted(cfg.experts):
        raise ValueError(f"checkpoint 'gamma' is given for the kinds {kinds}, "
                         f"not for the model's experts {sorted(cfg.experts)}")
    model = Model(cfg, seed=manifest["seed"])
    for kind, g in gamma.items():
        g = np.asarray(g, dtype=np.float64)
        if g.shape != (cfg.C,):
            raise ValueError(f"checkpoint 'gamma' of {kind!r} has shape {g.shape}, "
                             f"the model's C={cfg.C} classes need ({cfg.C},)")
        model.heads[kind].gamma = g
    named = per_expert_arrays(model)
    if len(named) != len(manifest["params"]):
        raise ValueError(f"checkpoint lists {len(manifest['params'])} parameters, "
                         f"model has {len(named)}")
    for (name, a), meta in zip(named, manifest["params"]):
        shape = list(a.shape)
        if not isinstance(meta, dict) or meta.get("name") != name or meta.get("shape") != shape:
            raise ValueError(f"checkpoint params entry {meta!r} does not match the model's "
                             f"parameter {name!r} of shape {shape}")
        a[...] = _read_f8(reader, a.shape, f"parameter {name}")
    arrays = [_read_f8(reader, tuple(shape), f"array {i}").astype(np.float64)
              for i, shape in enumerate(manifest.get("arrays", []))]
    reader.finish()
    return model, _restore_arrays(manifest["extra"], arrays)
