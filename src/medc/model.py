"""The multi-expert network.

A shared per-frame MLP trunk feeds three expert heads. Each head estimates
a Gaussian embedding per video: the mean comes from an MLP plus mean
pooling over frames, the variance from a temporal self-attention module
over frame deviations, and the stochastic embedding z = mu + eps * sigma
goes through a per-class sigmoid classifier. Inference averages the expert
probability vectors.

The active heads are stored as one: `Model.stacked_heads` holds each
parameter role as a single Parameter with a leading expert axis E, and each
head's Parameters are views of their expert's slice. The forward functions
take that axis in front of every activation, so training and inference run
all experts as one batched graph on the stored stack.
"""

import copy
import json
import struct
from dataclasses import asdict, dataclass, fields

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


def _init_weight(rng, fan_in, fan_out):
    return rng.uniform(-1.0, 1.0, size=(fan_in, fan_out)) / np.sqrt(fan_in)


class Linear:
    def __init__(self, rng, d_in, d_out, name):
        self.W = Parameter(_init_weight(rng, d_in, d_out), f"{name}.W")
        self.b = Parameter(np.zeros(d_out), f"{name}.b")

    def __call__(self, x):
        return ag.add(ag.matmul(x, self.W), self.b)

    def parameters(self):
        return [self.W, self.b]


class AffineNormLayer:
    """Linear map + per-row feature normalization with learnable scale/shift."""

    def __init__(self, rng, d_in, d_out, name):
        self.W = Parameter(_init_weight(rng, d_in, d_out), f"{name}.W")
        self.b = Parameter(np.zeros(d_out), f"{name}.b")
        self.scale = Parameter(np.ones(d_out), f"{name}.scale")
        self.shift = Parameter(np.zeros(d_out), f"{name}.shift")

    def __call__(self, x):
        return ag.affine_norm_layer(x, self.W, self.b, self.scale, self.shift)

    def parameters(self):
        return [self.W, self.b, self.scale, self.shift]


class MLP:
    """phi_depth-1 normalized ReLU layers followed by a plain linear output."""

    def __init__(self, rng, d_in, hidden, d_out, depth, name):
        self.layers = []
        cur = d_in
        for i in range(depth - 1):
            self.layers.append(AffineNormLayer(rng, cur, hidden, f"{name}.layer{i}"))
            cur = hidden
        self.out = Linear(rng, cur, d_out, f"{name}.out")

    def __call__(self, x):
        for layer in self.layers:
            x = ag.relu(layer(x))
        return self.out(x)

    def parameters(self):
        ps = []
        for layer in self.layers:
            ps.extend(layer.parameters())
        return ps + self.out.parameters()


class Trunk:
    """Shared per-frame linear + ReLU block, consumed by every expert."""

    def __init__(self, rng, D, d_trunk):
        self.lin = Linear(rng, D, d_trunk, "trunk")

    def __call__(self, x):
        return ag.relu(self.lin(x))

    def parameters(self):
        return self.lin.parameters()


class ExpertHead:
    def __init__(self, rng, cfg, kind):
        name = f"expert.{kind}"
        self.phi_mu = MLP(rng, cfg.d_trunk, cfg.hidden, cfg.d, cfg.phi_depth, f"{name}.phi_mu")
        self.phi_var = MLP(rng, cfg.d_trunk, cfg.hidden, cfg.d, cfg.phi_depth, f"{name}.phi_var")
        self.f_q = Linear(rng, cfg.d, cfg.d, f"{name}.f_q")
        self.f_k = Linear(rng, cfg.d, cfg.d, f"{name}.f_k")
        self.f_v = Linear(rng, cfg.d, cfg.d, f"{name}.f_v")
        self.classifier = Linear(rng, cfg.d, cfg.C, f"{name}.cls")
        self.gamma = np.full(cfg.C, 0.5)  # per-class variance targets

    def parameters(self):
        return (self.phi_mu.parameters() + self.phi_var.parameters()
                + self.f_q.parameters() + self.f_k.parameters()
                + self.f_v.parameters() + self.classifier.parameters())

    def variance_parameters(self):
        return (self.phi_var.parameters() + self.f_q.parameters()
                + self.f_k.parameters() + self.f_v.parameters())


@dataclass
class Embedding:
    mu: Tensor       # (B, d), L2-normalized rows
    sigma: Tensor    # (B, d), non-negative
    z: Tensor        # (B, d)


class Model:
    def __init__(self, cfg, seed=0):
        self.cfg = cfg
        self.seed = seed
        rng = derive_rng(seed, "init")
        self.trunk = Trunk(rng, cfg.D, cfg.d_trunk)
        self.heads = {kind: ExpertHead(rng, cfg, kind) for kind in cfg.experts}
        self.stacked_heads = _stack_storage([self.heads[kind] for kind in cfg.experts])

    def parameters(self):
        """Every parameter under its own name, trunk then heads: the checkpoint order."""
        ps = self.trunk.parameters()
        for kind in self.cfg.experts:
            ps.extend(self.heads[kind].parameters())
        return ps

    def stored_parameters(self):
        """The tensors that own the parameter memory: the trunk's, then the stacked roles."""
        return self.trunk.parameters() + self.stacked_heads.parameters()

    def zero_grad(self):
        for p in self.stored_parameters():
            p.zero_grad()


def _view(modules, combine):
    """A copy of modules[0] whose tensors are combine(that role in every module)."""
    view = copy.copy(modules[0])
    for name, value in list(vars(view).items()):
        parts = [getattr(m, name) for m in modules]
        if isinstance(value, Tensor):
            setattr(view, name, combine(parts))
        elif isinstance(value, list):
            setattr(view, name, [_view(group, combine) for group in zip(*parts)])
        elif hasattr(value, "parameters"):
            setattr(view, name, _view(parts, combine))
    return view


def _stack_storage(heads):
    """The heads as one head whose parameter roles are stacked along axis 0.

    Each role becomes one Parameter of shape (E, ...) that owns the values
    and gradients, and every head's Parameter becomes a view of its
    expert's slice of both, so either side sees the other's writes. Vectors
    get singleton axes after E to broadcast over the batch axes: (B, L) per
    frame, (B,) in the classifier. The result has the ExpertHead
    attributes, so estimate_mean, estimate_variance and classify run it as
    they run a single head, with E in front of every activation. The gamma
    targets stay on the heads.
    """
    def store(frame_axes):
        def combine(params):
            data = np.stack([p.data for p in params])
            if data.ndim == 2:
                data = data.reshape(data.shape[:1] + (1,) * frame_axes + data.shape[1:])
            role = Parameter(data, "expert.*." + params[0].name.split(".", 2)[2])
            for p, value, grad in zip(params, role.data, role.grad):
                p.data = value.reshape(p.data.shape)
                p.grad = grad.reshape(p.data.shape)
            return role
        return combine

    view = copy.copy(heads[0])
    view.gamma = None
    for name in ("phi_mu", "phi_var", "f_q", "f_k", "f_v", "classifier"):
        frame_axes = 1 if name == "classifier" else 2
        setattr(view, name, _view([getattr(h, name) for h in heads], store(frame_axes)))
    return view


# -- forward ops --------------------------------------------------------------
# Every op takes an optional leading expert axis when given stacked heads.

def trunk_forward(X, trunk):
    """Per-frame trunk application; X is (B, L, D), (L, D) or (E, B, L, D)."""
    X = X if isinstance(X, Tensor) else Tensor(X)
    return trunk(X)


def estimate_mean(H0, head):
    """Mean-pool phi_mu over frames, then L2-normalize each row."""
    h = head.phi_mu(H0)
    mu = ag.mean_along(h, axis=-2)
    return ag.l2_normalize(mu, axis=-1)


def estimate_variance(H0, mu, head, temporal_attention=True):
    """Variance of the per-video Gaussian from frame deviations.

    delta_l = phi_var(H0)_l - mu. With temporal attention, per-frame scores
    s_l = f_q(delta_l) . f_k(delta_l) / sqrt(d) are softmaxed over frames
    and weight the value projections; without it, value projections are
    mean-pooled. Softplus keeps sigma non-negative.
    """
    h = head.phi_var(H0)                       # (..., L, d)
    mu_b = ag.reshape(mu, mu.shape[:-1] + (1,) + mu.shape[-1:])
    delta = ag.sub(h, mu_b)
    v = head.f_v(delta)
    if temporal_attention:
        q = head.f_q(delta)
        k = head.f_k(delta)
        d = delta.shape[-1]
        scores = ag.mul(ag.sum_along(ag.mul(q, k), axis=-1), 1.0 / np.sqrt(d))
        alpha = ag.softmax_along(scores, axis=-1)            # (..., L)
        alpha_b = ag.reshape(alpha, alpha.shape + (1,))
        raw = ag.sum_along(ag.mul(alpha_b, v), axis=-2)
    else:
        raw = ag.mean_along(v, axis=-2)
    return ag.softplus(raw)


def reparameterize(mu, sigma, rng, train_mode):
    """z = mu + eps * sigma with eps ~ N(0,1) in train mode, eps = 0 in eval."""
    if train_mode:
        epsilon = rng.standard_normal(mu.shape)
    else:
        epsilon = np.zeros(mu.shape)
    z = ag.add(mu, ag.mul(Tensor(epsilon), sigma))
    return Embedding(mu=mu, sigma=sigma, z=z)


def classify(z, head):
    """Per-class sigmoid probabilities from linear logits."""
    return ag.sigmoid(head.classifier(z))


def forward_expert(X, trunk, head, rng=None, train_mode=False, temporal_attention=True):
    H0 = trunk_forward(X, trunk)
    mu = estimate_mean(H0, head)
    sigma = estimate_variance(H0, mu, head, temporal_attention)
    emb = reparameterize(mu, sigma, rng, train_mode)
    p = classify(emb.z, head)
    return emb, p


def forward_inference(X, model):
    """Eval-mode probabilities averaged over the model's experts.

    The trunk runs once on X (B, L, D) and the stacked heads once. Both
    read frozen copies of the stored parameter values, so no tape is built
    and each activation is freed as soon as it is consumed. Eval mode sets
    z = mu, so the variance branch is not run.
    """
    heads = _view([model.stacked_heads], lambda params: Tensor(params[0].data))
    H0 = trunk_forward(X, _view([model.trunk], lambda params: Tensor(params[0].data)))
    mu = estimate_mean(ag.reshape(H0, (1,) + H0.shape), heads)
    return ag.mean_along(classify(mu, heads), axis=0)


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


def save_checkpoint(path, model, extra=None):
    """Write model and `extra`; float64 arrays in `extra`'s dicts go as binary."""
    params = model.parameters()
    arrays = []
    extra = _lift_arrays(extra if extra is not None else {}, arrays)
    manifest = {
        "version": CHECKPOINT_VERSIONS[-1],
        "config": model.cfg.to_dict(),
        "seed": model.seed,
        "gamma": {kind: model.heads[kind].gamma.tolist() for kind in model.cfg.experts},
        "params": [{"name": p.name, "shape": list(p.data.shape)} for p in params],
        "arrays": [list(a.shape) for a in arrays],
        "extra": extra,
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for a in [p.data for p in params] + arrays:
            f.write(a.astype("<f8").tobytes())


def read_checkpoint_manifest(path):
    """The JSON manifest of a checkpoint file and a reader at its first payload.

    Bad magic, a truncated manifest, a lacking key or another version raise
    ValueError; the parameters are not read.
    """
    with open(path, "rb") as f:
        reader = ByteReader(f.read(), ValueError)
    magic = reader.read(8, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {magic!r}")
    (mlen,) = reader.unpack("<Q", "manifest length")
    manifest = json.loads(reader.read(mlen, "manifest").decode("utf-8"))
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

    The parameter values are written into the new model's stored stack.
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
    params = model.parameters()
    if len(params) != len(manifest["params"]):
        raise ValueError(f"checkpoint lists {len(manifest['params'])} parameters, "
                         f"model has {len(params)}")
    for p, meta in zip(params, manifest["params"]):
        shape = list(p.data.shape)
        if not isinstance(meta, dict) or meta.get("name") != p.name or meta.get("shape") != shape:
            raise ValueError(f"checkpoint params entry {meta!r} does not match the model's "
                             f"parameter {p.name!r} of shape {shape}")
        p.data[...] = _read_f8(reader, p.data.shape, f"parameter {p.name}")
    arrays = [_read_f8(reader, tuple(shape), f"array {i}").astype(np.float64)
              for i, shape in enumerate(manifest.get("arrays", []))]
    reader.finish()
    return model, _restore_arrays(manifest["extra"], arrays)
