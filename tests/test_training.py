import functools

import numpy as np
import pytest

from medc import autograd as ag
from medc import verify
from medc.autograd import Parameter
from medc.data import SyntheticConfig, generate_synthetic
from medc.losses import (LossWeights, classification_loss, mean_contrastive_loss,
                         total_loss, variance_region_loss)
from medc.model import (EXPERT_KINDS, Model, ModelConfig, _head_roles, forward_inference,
                        load_checkpoint, per_expert_arrays, save_checkpoint)
from medc.seeding import derive_rng
from medc.training import (TERM_NAMES, Adam, TrainConfig, composed_objective,
                           train)

from test_model import expert_forward, rewrite_manifest


def small_dataset(seed=0, counts=(12, 8, 4)):
    cfg = SyntheticConfig(C=len(counts), D=5, L=3, counts=list(counts),
                          class_sep=2.0, noise=0.3, temporal_jitter=0.1,
                          seed=seed)
    records, _ = generate_synthetic(cfg)
    return records


def small_train_cfg(**over):
    base = dict(learning_rate=1e-3, epochs=2, batch_size=8, d_trunk=6,
                hidden=6, d=4, seed=1, head_threshold=10, medium_threshold=6,
                checkpoint_every=1)
    base.update(over)
    return TrainConfig(**base)


# -- Adam ----------------------------------------------------------------------

def test_adam_first_step_moves_by_learning_rate():
    # with bias correction the first update is exactly lr * sign(g)
    p = Parameter(np.array([1.0, -2.0]), "p")
    p.grad = np.array([0.5, -3.0])
    Adam([p]).step(1e-4)
    assert p.data == pytest.approx([1.0 - 1e-4, -2.0 + 1e-4])


def test_adam_zero_gradient_is_noop():
    p = Parameter(np.array([3.0]), "p")
    p.grad = np.zeros(1)
    Adam([p]).step(0.1)
    assert p.data == pytest.approx([3.0])


def test_adam_zero_learning_rate_freezes_parameters():
    p = Parameter(np.array([3.0]), "p")
    p.grad = np.array([1.0])
    adam = Adam([p])
    adam.step(0.0)
    assert np.array_equal(p.data, [3.0])
    assert adam.t == 1  # moments still advance


def test_adam_descends_a_quadratic():
    p = Parameter(np.array([4.0]), "p")
    adam = Adam([p])
    for _ in range(200):
        p.zero_grad()
        ag.sum_along(ag.square(p)).backward()
        adam.step(0.05)
    assert abs(p.data[0]) < 0.5


def test_adam_rejects_nonfinite_gradient_naming_parameter():
    p = Parameter(np.array([1.0]), "trunk.W")
    p.grad = np.array([np.nan])
    with pytest.raises(FloatingPointError, match="trunk.W"):
        Adam([p]).step(0.1)


def test_adam_state_roundtrip():
    p = Parameter(np.array([1.0, 2.0]), "p")
    adam = Adam([p])
    for g in ([0.1, -0.2], [0.3, 0.4]):
        p.grad = np.array(g)
        adam.step(0.01)
    q = Parameter(p.data.copy(), "p")
    adam2 = Adam([q])
    adam2.load_state_dict(adam.state_dict())
    p.grad = np.array([0.5, -0.5])
    q.grad = p.grad.copy()
    adam.step(0.01)
    adam2.step(0.01)
    assert np.array_equal(p.data, q.data)


def test_adam_fused_update_matches_per_tensor_loop():
    rng = np.random.default_rng(5)
    shapes = [(3, 4), (4,), (1,), (2, 2)]
    params = [Parameter(rng.standard_normal(s), f"p{i}") for i, s in enumerate(shapes)]
    ref = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    adam = Adam(params)
    for t in range(1, 6):
        grads = [rng.standard_normal(s) for s in shapes]
        for p, g in zip(params, grads):
            p.grad = g
        adam.step(0.01)
        b1t, b2t = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        for i, g in enumerate(grads):
            m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
            v[i] = 0.999 * v[i] + (1.0 - 0.999) * g * g
            ref[i] = ref[i] - 0.01 * (m[i] / b1t) / (np.sqrt(v[i] / b2t) + 1e-8)
    for p, r in zip(params, ref):
        assert np.array_equal(p.data, r)


def test_adam_load_state_rejects_wrong_moment_length():
    adam = Adam([Parameter(np.zeros(3), "p")])
    state = {"t": 1, "m": np.zeros(2), "v": np.zeros(3)}
    with pytest.raises(ValueError, match="'m'"):
        adam.load_state_dict(state)


def test_train_config_rejects_zero_learning_rate():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


# -- training loop -------------------------------------------------------------

def test_training_loss_decreases():
    records = small_dataset()
    cfg = small_train_cfg(epochs=6, learning_rate=3e-3)
    _, history = train(cfg, records)
    cls = [v for (e, k, t, v) in history if t == "classification" and k == "long_tailed"]
    assert cls[-1] < cls[0]


def test_training_is_deterministic():
    records = small_dataset()
    m1, h1 = train(small_train_cfg(), records)
    m2, h2 = train(small_train_cfg(), records)
    assert h1 == h2
    for p1, p2 in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(p1.data, p2.data)


def test_zero_epochs_leaves_parameters_at_init():
    records = small_dataset()
    trained, history = train(small_train_cfg(epochs=0), records)
    fresh, _ = train(small_train_cfg(epochs=0), records)
    assert history == []
    for p1, p2 in zip(trained.parameters(), fresh.parameters()):
        assert np.array_equal(p1.data, p2.data)


def test_history_shape_and_terms():
    records = small_dataset()
    cfg = small_train_cfg(epochs=3)
    _, history = train(cfg, records)
    assert len(history) == 3 * 3 * 3  # epochs x experts x terms
    assert {t for (_, _, t, _) in history} == set(TERM_NAMES)
    assert all(np.isfinite(v) for (_, _, _, v) in history)


def test_resume_matches_uninterrupted_run(tmp_path):
    records = small_dataset()
    full_cfg = small_train_cfg(epochs=4, checkpoint_every=2)
    m_full, h_full = train(full_cfg, records, out_dir=str(tmp_path / "a"))

    part_dir = tmp_path / "part"
    train(small_train_cfg(epochs=4, checkpoint_every=2), records,
          out_dir=str(part_dir))
    ckpt = part_dir / "checkpoint_epoch0002.bin"
    assert ckpt.exists()
    m_res, h_res = train(small_train_cfg(epochs=4, checkpoint_every=2), records,
                         resume_from=str(ckpt))
    assert h_res == h_full
    for p1, p2 in zip(m_full.parameters(), m_res.parameters()):
        assert np.array_equal(p1.data, p2.data)


@pytest.mark.parametrize("field,value,name", [
    ("active_experts", ("long_tailed", "uniform"), "experts"),
    ("temporal_attention", False, "temporal_attention"),
    ("d", 5, "d"),
    ("hidden", 7, "hidden"),
    ("phi_depth", 3, "phi_depth"),
    ("learning_rate", 2e-3, "learning_rate"),
    ("batch_size", 4, "batch_size"),
    ("seed", 2, "seed"),
    ("weights", LossWeights(lambda1=0.5), "weights"),
])
def test_resume_refuses_a_different_model(tmp_path, field, value, name):
    records = small_dataset()
    train(small_train_cfg(epochs=1), records, out_dir=str(tmp_path))
    with pytest.raises(ValueError, match=f"{name}="):
        train(small_train_cfg(epochs=2, **{field: value}), records,
              resume_from=str(tmp_path / "checkpoint_final.bin"))


def test_resume_refuses_data_of_another_shape(tmp_path):
    train(small_train_cfg(epochs=1), small_dataset(), out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="C=4"):
        train(small_train_cfg(epochs=2), small_dataset(counts=(12, 8, 4, 4)),
              resume_from=str(tmp_path / "checkpoint_final.bin"))


def test_resume_refuses_a_checkpoint_past_the_runs_end(tmp_path):
    records = small_dataset()
    train(small_train_cfg(epochs=3), records, out_dir=str(tmp_path))
    path = tmp_path / "checkpoint_final.bin"
    before = path.read_bytes()
    with pytest.raises(ValueError, match="holds 3 epochs, past this run's epochs=1"):
        train(small_train_cfg(epochs=1), records, out_dir=str(tmp_path), resume_from=str(path))
    assert path.read_bytes() == before


def test_version_2_checkpoint_loads_but_is_not_resumed(tmp_path):
    records = small_dataset()
    model, _ = train(small_train_cfg(epochs=1), records, out_dir=str(tmp_path))
    path = tmp_path / "checkpoint_final.bin"

    def as_version_2(manifest):
        manifest["version"] = 2
        del manifest["extra"]["adam"]["params"]  # version 2 kept no parameter order

    rewrite_manifest(path, as_version_2)
    loaded, _ = load_checkpoint(path)
    for p, q in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(p.data, q.data)
    with pytest.raises(ValueError, match="version 2"):
        train(small_train_cfg(epochs=2), records, resume_from=str(path))


def test_resume_refuses_a_setting_this_run_does_not_have(tmp_path):
    records = small_dataset()
    train(small_train_cfg(epochs=1), records, out_dir=str(tmp_path))
    path = tmp_path / "checkpoint_final.bin"
    rewrite_manifest(path, lambda m: m["extra"]["run"].update(tau=0.5))
    with pytest.raises(ValueError, match="tau=0.5, a setting this run lacks"):
        train(small_train_cfg(epochs=2), records, resume_from=str(path))


def test_checkpoint_without_run_record_loads_but_is_not_resumed(tmp_path):
    records = small_dataset()
    model, _ = train(small_train_cfg(epochs=1), records, out_dir=str(tmp_path))
    path = tmp_path / "checkpoint_final.bin"
    rewrite_manifest(path, lambda m: m["extra"].pop("run"))
    loaded, _ = load_checkpoint(path)
    for p, q in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(p.data, q.data)
    with pytest.raises(ValueError, match="'run' record"):
        train(small_train_cfg(epochs=2), records, resume_from=str(path))


def _assert_parameters_are_the_stored_tensors(model):
    params = model.parameters()
    stored = [*model.trunk.values(), *model.stacked_heads.values()]
    assert all(p is q for p, q in zip(params, stored, strict=True))
    assert [p.name for p in params] == (["trunk.W", "trunk.b"] +
                                        [f"expert.*.{role}" for role, _ in _head_roles(model.cfg)])
    for name, a in per_expert_arrays(model)[len(model.trunk):]:
        _, kind, role = name.split(".", 2)
        e = model.cfg.experts.index(kind)
        assert np.shares_memory(a, model.stacked_heads[role].data[e]), name


def test_parameters_are_the_trunk_then_the_stacked_roles(tmp_path, monkeypatch):
    cfg = ModelConfig(D=5, C=3, d_trunk=6, hidden=6, d=4)
    model = Model(cfg, seed=3)
    _assert_parameters_are_the_stored_tensors(model)

    save_checkpoint(tmp_path / "m.bin", model)
    loaded, _ = load_checkpoint(tmp_path / "m.bin")
    _assert_parameters_are_the_stored_tensors(loaded)

    trained, _ = train(small_train_cfg(epochs=1), small_dataset())
    _assert_parameters_are_the_stored_tensors(trained)
    assert all(p.grad.any() for p in trained.parameters())

    built = []

    def capture(*args, **kwargs):
        built.append(Model(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(verify, "Model", capture)
    assert verify.composed_objective_gradcheck(seed=0) < 1e-4
    _assert_parameters_are_the_stored_tensors(built[0])


def test_probe_batch_equals_serial_in_place_evaluation():
    f, probe, params = verify.composed_objective_problem(seed=0)
    rng = np.random.default_rng(0)
    probes = [(j, int(rng.integers(p.data.size)), step)
              for j, p in enumerate(params) for step in (2e-5, -2e-5, 8e-5, -8e-5)]
    assert len(probes) > verify.PROBES  # more than one chunk
    before = [p.data.copy() for p in params]
    batched = verify._probe_values(f, params, probes, probe)
    for p, b in zip(params, before):
        np.testing.assert_array_equal(p.data, b)
    for (j, i, step), got in zip(probes, batched):
        flat = params[j].data.reshape(-1)
        orig = flat[i]
        flat[i] = orig + step
        assert f().item() == got, (params[j].name, i, step)
        flat[i] = orig
    assert len(set(batched.tolist())) > len(params)  # the probes moved the objective


def test_final_checkpoint_reproduces_model(tmp_path):
    records = small_dataset()
    model, _ = train(small_train_cfg(epochs=2), records, out_dir=str(tmp_path))
    loaded, extra = load_checkpoint(tmp_path / "checkpoint_final.bin")
    assert extra["epoch"] == 2
    X = np.stack([r.features for r in records[:4]])
    np.testing.assert_array_equal(forward_inference(X, model).data,
                                  forward_inference(X, loaded).data)


def test_training_without_temporal_attention_runs():
    records = small_dataset()
    cfg = small_train_cfg(epochs=1, temporal_attention=False)
    _, history = train(cfg, records)
    assert len(history) == 9


def test_training_single_expert_subset():
    records = small_dataset()
    cfg = small_train_cfg(epochs=1, active_experts=("uniform",))
    model, history = train(cfg, records)
    assert set(model.heads) == {"uniform"}
    assert len(history) == 3


def test_gamma_assigned_per_expert():
    records = small_dataset(counts=(20, 10, 4))
    cfg = small_train_cfg(epochs=0, head_threshold=15, medium_threshold=8)
    model, _ = train(cfg, records)
    lt = model.heads["long_tailed"].gamma
    inv = model.heads["inverse"].gamma
    assert np.array_equal(model.heads["uniform"].gamma, [0.5] * 3)
    assert lt[0] == pytest.approx(1.0) and lt[-1] == pytest.approx(0.01)
    assert inv == pytest.approx(lt[::-1])


# -- batched objective ---------------------------------------------------------

@pytest.mark.parametrize("E", [1, 2, 3])
@pytest.mark.parametrize("attention", [True, False])
def test_batched_objective_matches_per_head_reference(E, attention):
    kinds = EXPERT_KINDS[:E]
    B, L, D, C, d = 5, 3, 4, 3, 6
    model = Model(ModelConfig(D=D, C=C, d_trunk=5, hidden=4, d=d, experts=kinds,
                              temporal_attention=attention), seed=E)
    rng = derive_rng(E, "batched")
    for kind in kinds:
        model.heads[kind].gamma = rng.uniform(0.01, 1.0, size=C)
    X = rng.uniform(-1.0, 1.0, size=(E, B, L, D))
    Y = np.zeros((E, B, C), dtype=np.uint8)
    Y[np.arange(E)[:, None], np.arange(B), rng.integers(0, C, size=(E, B))] = 1
    Y[0] = 0
    Y[0, :, 1] = 1  # one label for the whole batch: no eligible contrastive anchor
    weights = LossWeights(0.8, 1.0, 0.4)
    params = model.parameters()

    def gradients(loss):
        model.zero_grad()
        loss.backward()
        return [p.grad.copy() for p in params]

    eps = np.stack([derive_rng(E, "eps", kind).standard_normal((B, d)) for kind in kinds])
    loss, terms = composed_objective(model, X, Y, eps, weights)
    batched = gradients(loss)

    per_head = []
    for e, kind in enumerate(kinds):
        mu, sigma, p = expert_forward(model, X[e], kind, eps[e])
        per_head.append((mean_contrastive_loss(mu, Y[e]), classification_loss(p, Y[e]),
                         variance_region_loss(sigma, Y[e], model.heads[kind].gamma)))
    ref_loss = functools.reduce(ag.add, [total_loss(t, weights) for t in per_head])
    reference = gradients(ref_loss)

    assert terms[0].data[0] == 0.0
    for i, term in enumerate(terms):
        np.testing.assert_allclose(term.data, [t[i].item() for t in per_head],
                                   rtol=1e-12, atol=1e-12)
    assert loss.item() == pytest.approx(ref_loss.item(), rel=1e-12, abs=1e-12)
    for p, g, r in zip(params, batched, reference):
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12, err_msg=p.name)


def _tape_nodes(out):
    """The ops recorded on the tape that out's backward walks."""
    seen, stack, nodes = set(), [out], 0
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes += t._backward is not None
            stack.extend(t._parents)
    return nodes


def test_training_step_tape_node_count_is_pinned():
    # one step at the criterion-6 shapes (C=20, D=32, L=8, B=32, three experts);
    # with the linear and normalized ReLU layers fused it records 63 ops (80 unfused)
    E, B, L, D, C, d = 3, 32, 8, 32, 20, 16
    model = Model(ModelConfig(D=D, C=C, d_trunk=32, hidden=32, d=d), seed=0)
    rng = derive_rng(0, "tape")
    Y = np.zeros((E, B, C), dtype=np.uint8)
    Y[np.arange(E)[:, None], np.arange(B), rng.integers(0, C, size=(E, B))] = 1
    loss, _ = composed_objective(model, rng.uniform(-1.0, 1.0, size=(E, B, L, D)), Y,
                                 rng.standard_normal((E, B, d)), LossWeights())
    assert _tape_nodes(loss) == 63
