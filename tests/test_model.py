import hashlib
import json
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from medc import autograd as ag
from medc import cli
from medc.autograd import Tensor
from medc.data import Dataset, write_feature_file
from medc.evaluation import write_csv
from medc.model import (CHECKPOINT_MAGIC, DTYPES, EXPERT_KINDS, Model, ModelConfig, _head_roles,
                        _hidden, _linear, class_logits, classify, estimate_mean, estimate_variance,
                        forward_inference, load_checkpoint, read_checkpoint_manifest,
                        reparameterize, save_checkpoint, trunk_forward)
from medc.seeding import derive_rng
from medc.verify import composed_objective_gradcheck


def tiny_cfg(**over):
    """A small model config, at float64 unless `over` says otherwise: the hand cases and
    identities below are pinned at float64's roundoff."""
    base = dict(D=3, C=4, d_trunk=3, hidden=5, d=6, dtype="float64")
    base.update(over)
    return ModelConfig(**base)


def expert_slice(model, kind):
    """One expert's head as the forward functions take it: its slice of every stored role.

    The slice is a one-hot weighted sum over the expert axis, exact in value and
    gradient, so a loss of the slice backpropagates into the stack.
    """
    onehot = np.array(model.cfg.experts) == kind
    return {role: ag.sum_along(ag.mul(p, onehot.reshape((-1,) + (1,) * (p.ndim - 1))), axis=0)
            for role, p in model.stacked_heads.items()}


def expert_forward(model, X, kind, eps):
    """mu, sigma and the class logits of one expert, through its slice, as training takes them."""
    head = expert_slice(model, kind)
    H0 = trunk_forward(X, model.trunk)
    mu = estimate_mean(H0, head)
    sigma = estimate_variance(H0, mu, head, model.cfg.temporal_attention)
    return mu, sigma, class_logits(reparameterize(mu, sigma, eps), head)


def zero_linear(model, kind, name):
    e = model.cfg.experts.index(kind)
    model.stacked_heads[f"{name}.W"].data[e] = 0.0
    model.stacked_heads[f"{name}.b"].data[e] = 0.0


@pytest.mark.parametrize("experts", [("uniform",), EXPERT_KINDS])
def test_every_stacked_role_is_the_expert_axis_then_its_role_shape(experts):
    cfg = tiny_cfg(experts=experts)
    model = Model(cfg, seed=0)
    roles = _head_roles(cfg)
    assert list(model.stacked_heads) == [role for role, _ in roles]
    for role, shape in roles:
        assert model.stacked_heads[role].shape == (len(experts),) + shape, role


def test_trunk_identity_weights_give_relu():
    model = Model(tiny_cfg(), seed=0)
    model.trunk["trunk.W"].data = np.eye(3)
    model.trunk["trunk.b"].data[:] = 0.0
    X = np.array([[[1.0, -2.0, 0.5], [-0.1, 3.0, -4.0]]])
    out = trunk_forward(X, model.trunk)
    assert np.array_equal(out.data, np.maximum(X, 0.0))


def test_estimate_mean_hand_case():
    set_to = {"layer0.W": [[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]], "layer0.b": [0.0, 0.5, 0.0],
              "layer0.scale": [1.0, 2.0, 1.0], "layer0.shift": [0.1, -0.5, 0.0],
              "out.W": [[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]], "out.b": [0.5, -0.25]}
    model = Model(tiny_cfg(d=2, d_trunk=2, hidden=3), seed=0)
    for role, value in set_to.items():
        model.stacked_heads[f"phi_mu.{role}"].data[0] = value
    x = np.array([[1.0, 3.0], [4.0, 2.0]])  # one video of two frames
    mu = estimate_mean(Tensor(x[None]), expert_slice(model, "long_tailed"))
    # numpy reference: the normalized ReLU layer per frame, the mean over frames,
    # the output layer, then the L2 normalization
    W, b, scale, shift, W_out, b_out = (np.array(v) for v in set_to.values())
    a = x @ W + b
    h = np.maximum(scale * (a - a.mean(-1, keepdims=True)) / (a.std(-1, keepdims=True) + 1e-5)
                   + shift, 0.0)
    assert (h == 0.0).any() and (h > 0.0).any()  # the ReLU cuts some units, not all
    o = h.mean(axis=0) @ W_out + b_out
    np.testing.assert_allclose(mu.data[0], o / np.linalg.norm(o), rtol=1e-9)


def test_estimate_mean_rows_are_unit_norm():
    model = Model(tiny_cfg(), seed=3)
    X = derive_rng(3, "x").uniform(-1, 1, size=(5, 4, 3))
    H0 = trunk_forward(X, model.trunk)
    mu = estimate_mean(H0, expert_slice(model, "uniform"))
    assert mu.shape == (5, 6)
    np.testing.assert_allclose(np.linalg.norm(mu.data, axis=-1), 1.0, atol=1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pooled_estimate_mean_matches_per_frame_output_layer(seed):
    # pooling commutes with phi_mu's affine output layer: pooling before it equals
    # the mean over frames of the output layer applied to every frame
    model = Model(tiny_cfg(), seed=seed)
    X = derive_rng(seed, "x").uniform(-1, 1, size=(5, 4, 3))
    H0 = trunk_forward(X, model.trunk)
    for head, H in ((expert_slice(model, "inverse"), H0),
                    (model.stacked_heads, ag.reshape(H0, (1,) + H0.shape))):
        per_frame = _linear(head, "phi_mu.out", _hidden(head, "phi_mu", H))
        reference = ag.l2_normalize(ag.mean_along(per_frame, axis=-2), axis=-1)
        mu = estimate_mean(H, head)
        assert mu.shape == reference.shape
        np.testing.assert_allclose(mu.data, reference.data, rtol=0, atol=1e-12)


def _softmax_over_frames(s):
    """Softmax over the last axis as its own tape node, with max subtraction."""
    e = np.exp(s.data - s.data.max(axis=-1, keepdims=True))
    y = e / e.sum(axis=-1, keepdims=True)
    return ag._track(Tensor(y), (s,), lambda g: (y * (g - (g * y).sum(axis=-1, keepdims=True)),))


def _per_frame_variance(H0, mu, head, temporal_attention):
    """estimate_variance with f_v applied to every frame and the attention as separate ops."""
    h = _linear(head, "phi_var.out", _hidden(head, "phi_var", H0))
    delta = ag.sub(h, ag.reshape(mu, mu.shape[:-1] + (1,) + mu.shape[-1:]))
    v = _linear(head, "f_v", delta)
    if not temporal_attention:
        return ag.softplus(ag.mean_along(v, axis=-2))
    q, k = _linear(head, "f_q", delta), _linear(head, "f_k", delta)
    scores = ag.mul(ag.sum_along(ag.mul(q, k), axis=-1), 1.0 / np.sqrt(delta.shape[-1]))
    alpha = _softmax_over_frames(scores)
    return ag.softplus(ag.sum_along(ag.mul(ag.reshape(alpha, alpha.shape + (1,)), v), axis=-2))


@pytest.mark.parametrize("attention", [True, False])
def test_value_projection_after_pooling_matches_per_frame(attention):
    # the pooling weights sum to 1, so the affine f_v commutes with the pooling
    model = Model(tiny_cfg(), seed=8)
    rng = derive_rng(8, "perturb")
    for p in model.parameters():   # every bias and shift away from 0
        p.data += 0.5 * rng.standard_normal(p.data.shape)
    X = derive_rng(8, "x").uniform(-1, 1, size=(5, 4, 3))
    w = derive_rng(8, "w").standard_normal((3, 5, 6))
    results = []
    for variance in (estimate_variance, _per_frame_variance):
        model.zero_grad()
        H0 = trunk_forward(X, model.trunk)
        H = ag.reshape(H0, (1,) + H0.shape)
        sigma = variance(H, estimate_mean(H, model.stacked_heads), model.stacked_heads, attention)
        ag.sum_along(ag.mul(sigma, w)).backward()
        results.append((sigma.data, [p.grad.copy() for p in model.parameters()]))
    (sigma, grads), (reference, reference_grads) = results
    assert sigma.shape == reference.shape == (3, 5, 6)
    np.testing.assert_allclose(sigma, reference, rtol=0, atol=1e-12)
    for p, g, r in zip(model.parameters(), grads, reference_grads):
        np.testing.assert_allclose(g, r, rtol=0, atol=1e-12, err_msg=p.name)


def test_sigma_is_softplus_zero_when_values_vanish():
    model = Model(tiny_cfg(), seed=1)
    zero_linear(model, "long_tailed", "f_v")
    head = expert_slice(model, "long_tailed")
    X = derive_rng(1, "x").uniform(-1, 1, size=(2, 4, 3))
    H0 = trunk_forward(X, model.trunk)
    mu = estimate_mean(H0, head)
    sigma = estimate_variance(H0, mu, head)
    assert sigma.data == pytest.approx(np.full((2, 6), np.log(2.0)))


def test_zero_query_attention_equals_mean_pooling():
    model = Model(tiny_cfg(), seed=2)
    zero_linear(model, "inverse", "f_q")
    head = expert_slice(model, "inverse")
    X = derive_rng(2, "x").uniform(-1, 1, size=(3, 5, 3))
    H0 = trunk_forward(X, model.trunk)
    mu = estimate_mean(H0, head)
    with_attn = estimate_variance(H0, mu, head, temporal_attention=True)
    pooled = estimate_variance(H0, mu, head, temporal_attention=False)
    np.testing.assert_allclose(with_attn.data, pooled.data, atol=1e-12)


def test_single_frame_attention_is_identity_weighting():
    model = Model(tiny_cfg(), seed=4)
    head = expert_slice(model, "uniform")
    X = derive_rng(4, "x").uniform(-1, 1, size=(2, 1, 3))
    H0 = trunk_forward(X, model.trunk)
    mu = estimate_mean(H0, head)
    with_attn = estimate_variance(H0, mu, head, temporal_attention=True)
    pooled = estimate_variance(H0, mu, head, temporal_attention=False)
    np.testing.assert_allclose(with_attn.data, pooled.data, atol=1e-12)


def test_sigma_nonnegative():
    model = Model(tiny_cfg(), seed=6)
    X = derive_rng(6, "x").uniform(-3, 3, size=(4, 3, 3))
    for kind in model.cfg.experts:
        head = expert_slice(model, kind)
        H0 = trunk_forward(X, model.trunk)
        mu = estimate_mean(H0, head)
        sigma = estimate_variance(H0, mu, head)
        assert (sigma.data > 0).all()


def test_reparameterize_eval_mode_returns_mean():
    mu = Tensor([[0.3, -0.7]])
    sigma = Tensor([[2.0, 5.0]])
    z = reparameterize(mu, sigma, np.zeros(mu.shape))
    assert np.array_equal(z.data, mu.data)


def test_reparameterize_train_mode_statistics():
    n = 20000
    mu = Tensor(np.zeros((n, 1)))
    sigma = Tensor(np.full((n, 1), 1.5))
    z = reparameterize(mu, sigma, derive_rng(0, "eps").standard_normal(mu.shape)).data
    assert abs(z.mean()) < 0.05
    assert abs(z.std() - 1.5) < 0.05


def test_classify_zero_logits_give_half():
    model = Model(tiny_cfg(), seed=0)
    zero_linear(model, "long_tailed", "cls")
    p = classify(Tensor(np.ones((2, 6))), expert_slice(model, "long_tailed"))
    assert np.array_equal(p.data, np.full((2, 4), 0.5))


def test_classify_bias_hand_case():
    model = Model(tiny_cfg(C=2), seed=0)
    zero_linear(model, "long_tailed", "cls")
    model.stacked_heads["cls.b"].data[0] = [0.0, np.log(3.0)]
    p = classify(Tensor(np.zeros((1, 6))), expert_slice(model, "long_tailed"))
    assert p.data.ravel() == pytest.approx([0.5, 0.75])


def test_expert_slice_forward_shapes_and_determinism():
    model = Model(tiny_cfg(), seed=8)
    X = derive_rng(8, "x").uniform(-1, 1, size=(5, 4, 3))
    mu1, sigma1, p1 = expert_forward(model, X, "uniform", np.zeros((5, 6)))
    mu2, sigma2, p2 = expert_forward(model, X, "uniform", np.zeros((5, 6)))
    assert p1.shape == (5, 4) and mu1.shape == (5, 6)
    assert np.array_equal(p1.data, p2.data)
    assert np.array_equal(sigma1.data, sigma2.data)
    model.zero_grad()
    ag.sum_along(p1).backward()
    for role, p in model.stacked_heads.items():  # the gradient lands in the slice only
        assert not np.delete(p.grad, 1, axis=0).any(), role
    assert model.stacked_heads["cls.W"].grad[1].any()


def copy_parameters(dst, src):
    """Write src's trunk and, by expert kind, its heads into dst's stored values."""
    for role, p in dst.trunk.items():
        p.data[...] = src.trunk[role].data
    for e, kind in enumerate(dst.cfg.experts):
        for role, p in dst.stacked_heads.items():
            p.data[e] = src.stacked_heads[role].data[src.cfg.experts.index(kind)]


def test_inference_average_of_identical_experts_is_idempotent():
    model = Model(tiny_cfg(), seed=9)
    for p in model.stacked_heads.values():  # every expert a copy of long_tailed
        p.data[:] = p.data[model.cfg.experts.index("long_tailed")]
    single = Model(tiny_cfg(experts=("long_tailed",)), seed=0)
    copy_parameters(single, model)
    X = derive_rng(9, "x").uniform(-1, 1, size=(3, 2, 3))
    avg = forward_inference(X, model)
    np.testing.assert_allclose(avg.data, forward_inference(X, single).data, atol=1e-12)


def test_inference_average_arithmetic():
    model = Model(tiny_cfg(C=1), seed=10)
    probs = [0.2, 0.4, 0.6]
    for e, (kind, p) in enumerate(zip(EXPERT_KINDS, probs)):
        zero_linear(model, kind, "cls")
        model.stacked_heads["cls.b"].data[e] = np.log(p / (1.0 - p))
    X = derive_rng(10, "x").uniform(0.1, 1.0, size=(2, 3, 3))
    out = forward_inference(X, model)
    assert out.data == pytest.approx(np.full((2, 1), 0.4))


def test_inference_invariant_to_expert_order():
    a = Model(tiny_cfg(experts=("uniform", "inverse")), seed=11)
    b = Model(tiny_cfg(experts=("inverse", "uniform")), seed=0)
    copy_parameters(b, a)
    X = derive_rng(11, "x").uniform(-1, 1, size=(2, 3, 3))
    np.testing.assert_allclose(forward_inference(X, a).data, forward_inference(X, b).data,
                               atol=1e-15)


def test_inference_builds_no_tape_and_matches_tracked_forward():
    model = Model(tiny_cfg(), seed=14)
    X = derive_rng(14, "x").uniform(-1, 1, size=(4, 3, 3))
    out = forward_inference(X, model)
    assert out._parents == () and out._backward is None
    H0 = trunk_forward(X, model.trunk)
    heads = model.stacked_heads
    tracked = ag.mean_along(classify(estimate_mean(ag.reshape(H0, (1,) + H0.shape), heads),
                                     heads), axis=0)
    assert tracked._parents
    assert np.array_equal(out.data, tracked.data)


def test_checkpoint_roundtrip(tmp_path):
    model = Model(tiny_cfg(), seed=12)
    model.heads["uniform"].gamma = np.linspace(0.1, 0.9, 4)
    path = tmp_path / "model.bin"
    save_checkpoint(path, model, extra={"epoch": 7})
    loaded, extra = load_checkpoint(path)
    assert extra == {"epoch": 7}
    assert loaded.cfg.to_dict() == model.cfg.to_dict()
    assert np.array_equal(loaded.heads["uniform"].gamma, model.heads["uniform"].gamma)
    X = derive_rng(12, "x").uniform(-1, 1, size=(3, 2, 3))
    np.testing.assert_array_equal(forward_inference(X, model).data,
                                  forward_inference(X, loaded).data)


def test_checkpoint_stores_extra_arrays_as_binary(tmp_path):
    model = Model(tiny_cfg(), seed=12)
    moments = derive_rng(12, "m").standard_normal(50)
    path = tmp_path / "model.bin"
    save_checkpoint(path, model, extra={"epoch": 3, "adam.t": 4, "adam.m": moments,
                                        "adam.v": np.square(moments, dtype=np.float32),
                                        "counts": np.arange(3)})
    manifest = read_checkpoint_manifest(path)
    assert manifest["arrays"][-3:] == [{"name": "adam.m", "shape": [50], "dtype": "<f8"},
                                       {"name": "adam.v", "shape": [50], "dtype": "<f4"},
                                       {"name": "counts", "shape": [3], "dtype": "<f8"}]
    assert manifest["extra"] == {"epoch": 3, "adam.t": 4}
    _, extra = load_checkpoint(path)
    assert extra["epoch"] == 3 and extra["adam.t"] == 4
    for name, expected in (("adam.m", moments), ("adam.v", np.square(moments, dtype=np.float32)),
                           ("counts", np.arange(3.0))):
        assert extra[name].dtype == expected.dtype and np.array_equal(extra[name], expected)


def rewrite_manifest(path, change):
    """Apply change(manifest) to the JSON manifest of the checkpoint at path."""
    blob = path.read_bytes()
    (mlen,) = struct.unpack("<Q", blob[8:16])
    manifest = json.loads(blob[16:16 + mlen])
    change(manifest)
    new_m = json.dumps(manifest, sort_keys=True).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(new_m)) + new_m + blob[16 + mlen:])


# sha256 of the checkpoint of Model(tiny_cfg(**over), seed=12): the role table's
# order, its names, its RNG draw order and the rounding of a float32 model are
# pinned to these bytes
GOLDEN_CHECKPOINTS = [
    ({}, "a4f8d6da41a3cf8eb7968241a611de00226e2a70c1f609d87fd165340f995c95"),
    (dict(experts=("inverse", "uniform")),
     "18875bbeb8f5f8da725e97a8d1cb2f3c47e029d520dd7fcfe1e211b39ab570b2"),
    (dict(dtype="float32"),
     "9712ea12736697bfe03e5fadf9b00d206745248f10d0b95baeebf62260c4ea48"),
    (dict(dtype="float32", experts=("inverse", "uniform")),
     "84a1152707a327fcb021cb32d394204a09e9c801e4027bd45ad71ab8744a3f27"),
]


@pytest.mark.parametrize("over,digest", GOLDEN_CHECKPOINTS,
                         ids=["three-experts", "two-experts", "float32-three-experts",
                              "float32-two-experts"])
def test_checkpoint_bytes_are_pinned(tmp_path, over, digest):
    path = tmp_path / "model.bin"
    save_checkpoint(path, Model(tiny_cfg(**over), seed=12))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hidden=st.integers(1, 3), seed=st.integers(0, 2**16),
       experts=st.lists(st.sampled_from(EXPERT_KINDS), min_size=1, max_size=3, unique=True),
       dtype=st.sampled_from(DTYPES))
def test_checkpoint_round_trip_over_role_tables(tmp_path, hidden, seed, experts, dtype):
    model = Model(tiny_cfg(hidden=hidden, experts=experts, dtype=dtype), seed=seed)
    rng = derive_rng(seed, "perturb")
    for p in model.parameters():
        p.data += rng.standard_normal(p.data.shape)
    for head in model.heads.values():
        head.gamma = rng.uniform(0.01, 1.0, size=model.cfg.C)
    first, second = tmp_path / "first.bin", tmp_path / "second.bin"
    save_checkpoint(first, model)
    loaded, _ = load_checkpoint(first)
    save_checkpoint(second, loaded)
    assert first.read_bytes() == second.read_bytes()
    for p, q in zip(model.parameters(), loaded.parameters(), strict=True):
        assert p.name == q.name
        assert q.data.dtype == dtype and np.array_equal(p.data, q.data), p.name


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    model = Model(tiny_cfg(), seed=13)
    path = tmp_path / "model.bin"
    save_checkpoint(path, model)
    rewrite_manifest(path, lambda m: m["arrays"][0].update(shape=[99, 99]))
    with pytest.raises(ValueError, match="99"):
        load_checkpoint(path)


@pytest.mark.parametrize("change,named", [
    (lambda m: m.pop("seed"), "'seed'"),
    (lambda m: m.pop("config"), "'config'"),
    (lambda m: m["arrays"].pop(), "None does not match the model's 'gamma'"),
    (lambda m: m["arrays"].clear(), "None does not match the model's 'trunk.W'"),
    (lambda m: m.pop("extra"), "'extra'"),
    (lambda m: m.pop("arrays"), "'arrays'"),
    (lambda m: m.pop("version"), "'version'"),
    (lambda m: m["config"].update(width=3), "'width'"),
    (lambda m: m["config"].pop("D"), "'D'"),
    (lambda m: m.update(version=99), "version 99"),
    (lambda m: m.update(version=0), "version 0"),
    (lambda m: m.update(version=2), "version 2"),
    (lambda m: m.update(version=3), "version 3"),
    (lambda m: m.update(version=4), "version 4"),
    (lambda m: m.update(version=5), "version 5"),
    (lambda m: m["arrays"][-1].update(name="sideways"), "sideways.*the model's 'gamma'"),
    (lambda m: m["arrays"][-1].update(shape=[3, 5]), r"the model's 'gamma' of shape \[3, 4\]"),
    (lambda m: m["config"].update(d="6"), "'d'"),
    (lambda m: m["config"].update(experts=[]), "at least one expert"),
    (lambda m: m["config"].update(hidden=0), "hidden must be >= 1, got 0"),
    (lambda m: m["config"].update(dtype="float16"), "dtype must be one of .*'float16'"),
    (lambda m: m["config"].update(dtype="float32"), r"the model's 'trunk\.W' .* dtype '<f4'"),
    (lambda m: m["arrays"][-1].update(dtype="<f4"), r"the model's 'gamma' .* dtype '<f8'"),
], ids=["no-seed", "no-config", "no-gamma", "no-params", "no-extra", "no-arrays", "no-version",
        "unknown-config-field", "missing-config-field", "version-99", "version-0",
        "version-2", "version-3", "version-4", "version-5", "unknown-gamma-kind",
        "gamma-wrong-length", "config-field-wrong-type", "no-experts",
        "config-dimension-below-one", "unknown-dtype", "payloads-of-another-dtype",
        "gamma-of-another-dtype"])
def test_checkpoint_manifest_is_validated_by_name(tmp_path, change, named):
    path = tmp_path / "model.bin"
    save_checkpoint(path, Model(tiny_cfg(), seed=13), extra={"epoch": 1})
    rewrite_manifest(path, change)
    with pytest.raises(ValueError, match=named):
        load_checkpoint(path)


def _raise(*args):
    raise OSError("disk full")


@pytest.mark.parametrize("extra,patch,error", [
    ({"moments": np.array(["x"], dtype=object)}, None, ValueError),  # a payload that fails
    ({}, (os, "fsync", _raise), OSError),
], ids=["mid-payload", "at-fsync"])
def test_an_interrupted_checkpoint_write_leaves_the_old_file(tmp_path, monkeypatch, extra, patch,
                                                            error):
    path = tmp_path / "model.bin"
    save_checkpoint(path, Model(tiny_cfg(), seed=13))
    before = path.read_bytes()
    if patch:
        monkeypatch.setattr(*patch)
    with pytest.raises(error):
        save_checkpoint(path, Model(tiny_cfg(), seed=14), extra)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


# every other artifact goes through the same atomic writer: a CSV, a feature file, and the
# JSON of a report or a command manifest
ARTIFACT_WRITERS = {
    "csv": lambda path, n: write_csv(path, ("epoch", "value"), [(n, 0.5)]),
    "feature-file": lambda path, n: write_feature_file(path, Dataset([f"r{n}"], [[[n]]], [[1]])),
    "json": lambda path, n: cli._write_json(path, {"seed": n}),
}


@pytest.mark.parametrize("write", ARTIFACT_WRITERS.values(), ids=ARTIFACT_WRITERS)
def test_an_interrupted_artifact_write_leaves_the_old_file(tmp_path, monkeypatch, write):
    path = tmp_path / "artifact"
    write(path, 1)
    before = path.read_bytes()
    monkeypatch.setattr(os, "fsync", _raise)
    with pytest.raises(OSError, match="disk full"):
        write(path, 2)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("manifest", [5, None, "x", []], ids=["number", "null", "string", "list"])
def test_checkpoint_manifest_that_is_not_an_object_is_refused(tmp_path, manifest):
    blob = json.dumps(manifest).encode()
    path = tmp_path / "model.bin"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(ValueError, match="checkpoint manifest is not a JSON object"):
        load_checkpoint(path)


def test_a_manifest_claiming_a_larger_model_is_refused_before_allocating(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, Model(tiny_cfg(), seed=13), extra={"epoch": 1})
    rewrite_manifest(path, lambda m: m["config"].update(d=1500))  # 54 MB a (3, 1500, 1500) role
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"the model's 'expert\.\*\.phi_mu\.out\.W' of "
                                             r"shape \[3, 5, 1500\]"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak


def test_the_checkpoint_manifest_is_read_from_the_header_alone(tmp_path):
    # at paper shapes the payloads are megabytes and the manifest a few kilobytes
    path = tmp_path / "model.bin"
    cfg = ModelConfig(D=2048, C=1004, d_trunk=256, hidden=256, d=128)
    save_checkpoint(path, Model(cfg, seed=0), extra={"epoch": 4})
    size = os.path.getsize(path)
    assert size >= 5e6, size
    tracemalloc.start()
    try:
        manifest = read_checkpoint_manifest(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert manifest["extra"] == {"epoch": 4} and ModelConfig.from_dict(manifest["config"]) == cfg
    assert peak < 0.05 * size, (peak, size)


def test_model_config_dict_round_trip():
    cfg = tiny_cfg()
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    assert ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_reader_is_bounds_checked(tmp_path):
    model = Model(tiny_cfg(), seed=13)
    path = tmp_path / "model.bin"
    save_checkpoint(path, model, extra={"adam.m": np.zeros(5)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(ValueError, match=f"array 'adam.m' at byte offset {len(blob) - 40}"):
        load_checkpoint(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(ValueError, match=f"trailing garbage at byte offset {len(blob)}"):
        load_checkpoint(path)
    path.write_bytes(blob)
    rewrite_manifest(path, lambda m: m["arrays"][-1].update(shape=[-5]))
    with pytest.raises(ValueError, match="negative length -40 for array 'adam.m' at byte offset"):
        load_checkpoint(path)


def _overwrite_f8(path, offset, value):
    blob = bytearray(path.read_bytes())
    blob[offset:offset + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(blob))


# the checkpoint ends with the (3, 4) stack of cls.b, the (3, 4) gamma, then Adam's two
# 3-moment arrays
NON_FINITE = {
    "nan-gamma": (lambda path: _overwrite_f8(path, path.stat().st_size - 56, np.nan),
                  "array 'gamma' holds a non-finite value"),
    "inf-parameter": (lambda path: _overwrite_f8(path, path.stat().st_size - 152, np.inf),
                      r"array 'expert\.\*\.cls\.b' holds a non-finite value"),
    "nan-adam-moment": (lambda path: _overwrite_f8(path, path.stat().st_size - 8, np.nan),
                        "array 'adam.v' holds a non-finite value"),
}


@pytest.mark.parametrize("damage", NON_FINITE.values(), ids=NON_FINITE)
def test_checkpoint_refuses_a_non_finite_value_by_name(tmp_path, damage):
    write, named = damage
    path = tmp_path / "model.bin"
    save_checkpoint(path, Model(tiny_cfg(), seed=13),
                    extra={"adam.t": 1, "adam.m": np.zeros(3), "adam.v": np.ones(3)})
    load_checkpoint(path)
    write(path)
    with pytest.raises(ValueError, match=named):
        load_checkpoint(path)


def test_composed_objective_gradient_single_seed():
    assert composed_objective_gradcheck(seed=0) < 1e-4
