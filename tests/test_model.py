import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from medc import autograd as ag
from medc.autograd import Tensor
from medc.model import (CHECKPOINT_MAGIC, EXPERT_KINDS, Model, ModelConfig, _hidden,
                        _linear, classify, estimate_mean, estimate_variance,
                        forward_inference, load_checkpoint, per_expert_arrays,
                        reparameterize, save_checkpoint, trunk_forward)
from medc.seeding import derive_rng
from medc.verify import composed_objective_gradcheck


def tiny_cfg(**over):
    base = dict(D=3, C=4, d_trunk=3, hidden=5, d=6, phi_depth=2)
    base.update(over)
    return ModelConfig(**base)


def expert_slice(model, kind):
    """One expert's head as the forward functions take it: its slice of every stored role."""
    e = model.cfg.experts.index(kind)
    return {role: p[e] for role, p in model.stacked_heads.items()}


def expert_forward(model, X, kind, eps):
    """mu, sigma and the class probabilities of one expert, through its slice."""
    head = expert_slice(model, kind)
    H0 = trunk_forward(X, model.trunk)
    mu = estimate_mean(H0, head)
    sigma = estimate_variance(H0, mu, head, model.cfg.temporal_attention)
    return mu, sigma, classify(reparameterize(mu, sigma, eps), head)


def zero_linear(model, kind, name):
    e = model.cfg.experts.index(kind)
    model.stacked_heads[f"{name}.W"].data[e] = 0.0
    model.stacked_heads[f"{name}.b"].data[e] = 0.0


def test_trunk_identity_weights_give_relu():
    model = Model(tiny_cfg(), seed=0)
    model.trunk["trunk.W"].data = np.eye(3)
    model.trunk["trunk.b"].data[:] = 0.0
    X = np.array([[[1.0, -2.0, 0.5], [-0.1, 3.0, -4.0]]])
    out = trunk_forward(X, model.trunk)
    assert np.array_equal(out.data, np.maximum(X, 0.0))


def test_estimate_mean_hand_case():
    model = Model(tiny_cfg(d=2, d_trunk=2, phi_depth=1), seed=0)
    model.stacked_heads["phi_mu.out.W"].data[0] = np.eye(2)  # phi_mu is the identity
    model.stacked_heads["phi_mu.out.b"].data[0] = 0.0
    H0 = Tensor([[[1.0, 3.0], [3.0, 5.0]]])  # one video, pools to (2, 4)
    mu = estimate_mean(H0, expert_slice(model, "long_tailed"))
    assert mu.data[0] == pytest.approx(np.array([2.0, 4.0]) / np.sqrt(20.0))


def test_estimate_mean_rows_are_unit_norm():
    model = Model(tiny_cfg(), seed=3)
    X = derive_rng(3, "x").uniform(-1, 1, size=(5, 4, 3))
    H0 = trunk_forward(X, model.trunk)
    mu = estimate_mean(H0, expert_slice(model, "uniform"))
    assert mu.shape == (5, 6)
    np.testing.assert_allclose(np.linalg.norm(mu.data, axis=-1), 1.0, atol=1e-12)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_pooled_estimate_mean_matches_per_frame_output_layer(depth):
    # pooling commutes with phi_mu's affine output layer: pooling before it equals
    # the mean over frames of the output layer applied to every frame
    model = Model(tiny_cfg(phi_depth=depth), seed=depth)
    X = derive_rng(depth, "x").uniform(-1, 1, size=(5, 4, 3))
    H0 = trunk_forward(X, model.trunk)
    for head, H in ((expert_slice(model, "inverse"), H0),
                    (model.stacked_heads, ag.reshape(H0, (1,) + H0.shape))):
        per_frame = _linear(head, "phi_mu.out", _hidden(head, "phi_mu", H))
        reference = ag.l2_normalize(ag.mean_along(per_frame, axis=-2), axis=-1)
        mu = estimate_mean(H, head)
        assert mu.shape == reference.shape
        np.testing.assert_allclose(mu.data, reference.data, rtol=0, atol=1e-12)


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
    named = dict(per_expert_arrays(src))
    for name, a in per_expert_arrays(dst):
        a[...] = named[name]


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
    save_checkpoint(path, model, extra={"epoch": 3, "adam": {"t": 4, "m": moments}})
    assert b"f8_payload" in path.read_bytes()
    _, extra = load_checkpoint(path)
    assert extra["epoch"] == 3 and extra["adam"]["t"] == 4
    assert np.array_equal(extra["adam"]["m"], moments)


def rewrite_manifest(path, change):
    """Apply change(manifest) to the JSON manifest of the checkpoint at path."""
    blob = path.read_bytes()
    (mlen,) = struct.unpack("<Q", blob[8:16])
    manifest = json.loads(blob[16:16 + mlen])
    change(manifest)
    new_m = json.dumps(manifest, sort_keys=True).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(new_m)) + new_m + blob[16 + mlen:])


# sha256 of the checkpoint of Model(tiny_cfg(**over), seed=12): the role table's
# order, its names and its RNG draw order are pinned to these bytes
GOLDEN_CHECKPOINTS = [
    (dict(phi_depth=1), "c5b1ac7a0031879dcff350ac5b11a1018194f149f58cbe8ab05a5871862dba2f"),
    (dict(phi_depth=3, experts=("inverse", "uniform")),
     "bb0b5176a6d6e4e6003a6987558c712799734d91d7264e7e743f3353a864331f"),
]


@pytest.mark.parametrize("over,digest", GOLDEN_CHECKPOINTS, ids=["depth1", "depth3-two-experts"])
def test_checkpoint_bytes_are_pinned(tmp_path, over, digest):
    path = tmp_path / "model.bin"
    save_checkpoint(path, Model(tiny_cfg(**over), seed=12))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(phi_depth=st.integers(1, 3), seed=st.integers(0, 2**16),
       experts=st.lists(st.sampled_from(EXPERT_KINDS), min_size=1, max_size=3, unique=True))
def test_checkpoint_round_trip_over_role_tables(tmp_path, phi_depth, seed, experts):
    model = Model(tiny_cfg(phi_depth=phi_depth, experts=experts), seed=seed)
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
        assert np.array_equal(p.data, q.data), p.name


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    model = Model(tiny_cfg(), seed=13)
    path = tmp_path / "model.bin"
    save_checkpoint(path, model)
    rewrite_manifest(path, lambda m: m["params"][0].update(shape=[99, 99]))
    with pytest.raises(ValueError, match="99"):
        load_checkpoint(path)


@pytest.mark.parametrize("change,named", [
    (lambda m: m.pop("seed"), "'seed'"),
    (lambda m: m.pop("config"), "'config'"),
    (lambda m: m.pop("gamma"), "'gamma'"),
    (lambda m: m.pop("params"), "'params'"),
    (lambda m: m.pop("extra"), "'extra'"),
    (lambda m: m.pop("version"), "'version'"),
    (lambda m: m["config"].update(width=3), "'width'"),
    (lambda m: m["config"].pop("D"), "'D'"),
    (lambda m: m.update(version=99), "version 99"),
    (lambda m: m.update(version=0), "version 0"),
    (lambda m: m["gamma"].update(sideways=m["gamma"].pop("uniform")), "'gamma'.*sideways"),
    (lambda m: m["gamma"]["uniform"].append(0.5), "'gamma' of 'uniform'"),
    (lambda m: m["config"].update(d="6"), "'d'"),
    (lambda m: m["config"].update(experts=[]), "at least one expert"),
], ids=["no-seed", "no-config", "no-gamma", "no-params", "no-extra", "no-version",
        "unknown-config-field", "missing-config-field", "version-99", "version-0",
        "unknown-gamma-kind", "gamma-wrong-length", "config-field-wrong-type", "no-experts"])
def test_checkpoint_manifest_is_validated_by_name(tmp_path, change, named):
    path = tmp_path / "model.bin"
    save_checkpoint(path, Model(tiny_cfg(), seed=13), extra={"epoch": 1})
    rewrite_manifest(path, change)
    with pytest.raises(ValueError, match=named):
        load_checkpoint(path)


@pytest.mark.parametrize("manifest", [5, None, "x", []], ids=["number", "null", "string", "list"])
def test_checkpoint_manifest_that_is_not_an_object_is_refused(tmp_path, manifest):
    blob = json.dumps(manifest).encode()
    path = tmp_path / "model.bin"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(ValueError, match="checkpoint manifest is not a JSON object"):
        load_checkpoint(path)


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
    save_checkpoint(path, model, extra={"adam": {"m": np.zeros(5)}})
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(ValueError, match=f"array 0 at byte offset {len(blob) - 40}"):
        load_checkpoint(path)
    path.write_bytes(blob + b"\x00")
    with pytest.raises(ValueError, match=f"trailing garbage at byte offset {len(blob)}"):
        load_checkpoint(path)
    path.write_bytes(blob)
    rewrite_manifest(path, lambda m: m.update(arrays=[[-5]]))
    with pytest.raises(ValueError, match="negative length -40 for array 0 at byte offset"):
        load_checkpoint(path)


def test_composed_objective_gradient_single_seed():
    assert composed_objective_gradcheck(seed=0) < 1e-4
