import functools
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest

from medc import autograd as ag
from medc import training, verify
from medc.autograd import Parameter, Tensor
from medc.data import Dataset, SyntheticConfig, generate_synthetic
from medc.losses import (LossWeights, classification_loss, mean_contrastive_loss,
                         total_loss, variance_region_loss)
from medc.model import (EXPERT_KINDS, Model, ModelConfig, _head_roles, forward_inference,
                        load_checkpoint, save_checkpoint)
from medc.seeding import derive_rng
from medc.training import (TERM_NAMES, Adam, TrainConfig, composed_objective,
                           train)

import reference_ops as ref
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


def test_an_overflowing_learning_rate_is_refused_before_a_checkpoint(tmp_path):
    # at 1e300 the first update overflows float32: the step is refused, naming the setting,
    # before any parameter or checkpoint takes an infinity
    records, _ = generate_synthetic(SyntheticConfig(C=3, D=4, L=2, counts=[4, 3, 2]))
    cfg = TrainConfig(learning_rate=1e300, epochs=1, batch_size=16, d_trunk=5, hidden=5, d=4)
    with pytest.raises(FloatingPointError, match="learning_rate=1e"):
        train(cfg, records, out_dir=tmp_path)
    assert not (tmp_path / "checkpoint_final.bin").exists()


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
        ag.sum_along(ref.square(p)).backward()
        adam.step(0.05)
    assert abs(p.data[0]) < 0.5


def test_adam_rejects_nonfinite_gradient_naming_parameter():
    p = Parameter(np.array([1.0]), "trunk.W")
    p.grad = np.array([np.nan])
    with pytest.raises(FloatingPointError, match="trunk.W"):
        Adam([p]).step(0.1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("grad,lr,named", [
    (np.nan, 0.1, "non-finite gradient in parameter 'q'"),
    (np.inf, 0.1, "non-finite gradient in parameter 'q'"),
    # lr times the first moment overflows at either dtype
    (1e9, 1e300, "non-finite Adam update at step 3, learning_rate=1e+300"),
], ids=["nan-gradient", "inf-gradient", "overflowing-learning-rate"])
def test_a_refused_adam_step_changes_nothing(dtype, grad, lr, named):
    p, q = Parameter(np.array([1.0, -2.0], dtype), "p"), Parameter(np.array([0.5], dtype), "q")
    adam = Adam([p, q])
    for g in (0.1, -0.3):
        p.grad, q.grad = np.array([g, -g], dtype), np.array([g], dtype)
        adam.step(1e-2)
    before = [a.copy() for a in (p.data, q.data, adam.m, adam.v)]
    p.grad, q.grad = np.array([0.2, 0.4], dtype), np.array([grad], dtype)
    with pytest.raises(FloatingPointError, match=re.escape(named)):
        adam.step(lr)
    for a, b in zip((p.data, q.data, adam.m, adam.v), before):
        np.testing.assert_array_equal(a, b)
    assert adam.t == 2


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
    state = {"adam.t": 1, "adam.m": np.zeros(2), "adam.v": np.zeros(3), "adam.params": ["p"]}
    with pytest.raises(ValueError, match="'adam.m'"):
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


def test_train_refuses_no_records():
    with pytest.raises(ValueError, match="no records"):
        train(small_train_cfg(epochs=1), small_dataset()[:0])


def _traced_peak_of_one_epoch(records):
    cfg = small_train_cfg(epochs=1, checkpoint_every=0)
    tracemalloc.start()
    try:
        train(cfg, records)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_holds_no_second_copy_of_the_features():
    # 4 KB of features a record, against some 100 B of labels and sampler weights
    def records(n):
        cfg = SyntheticConfig(C=3, D=32, L=16, counts=[n, n, n], seed=2)
        return generate_synthetic(cfg)[0]

    small, large = records(8), records(32)
    added = large.features.nbytes - small.features.nbytes
    _traced_peak_of_one_epoch(small)  # the first train() in a process allocates once for good
    growth = _traced_peak_of_one_epoch(large) - _traced_peak_of_one_epoch(small)
    assert growth < added / 4, (growth, added)


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
    ("d_trunk", 7, "d_trunk"),
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


def test_resume_ignores_the_eval_thresholds(tmp_path):
    records = small_dataset()
    m_full, h_full = train(small_train_cfg(epochs=4, checkpoint_every=2), records)
    train(small_train_cfg(epochs=4, checkpoint_every=2), records, out_dir=str(tmp_path))
    fresh = tmp_path / "checkpoint_epoch0002.bin"
    other = dict(epochs=4, checkpoint_every=2, head_threshold=31, medium_threshold=5)
    m_res, h_res = train(small_train_cfg(**other), records, resume_from=str(fresh))
    assert h_res == h_full
    for p, q in zip(m_full.parameters(), m_res.parameters(), strict=True):
        assert p.data.tobytes() == q.data.tobytes(), p.name
    with pytest.raises(ValueError, match="learning_rate="):
        train(small_train_cfg(**other, learning_rate=2e-3), records, resume_from=str(fresh))


def test_resume_refuses_data_of_another_shape(tmp_path):
    train(small_train_cfg(epochs=1), small_dataset(), out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="C=4"):
        train(small_train_cfg(epochs=2), small_dataset(counts=(12, 8, 4, 4)),
              resume_from=str(tmp_path / "checkpoint_final.bin"))


def test_resume_refuses_other_data_of_the_same_shape(tmp_path):
    # two draws of one synthetic config: the same shapes, ids and labels, other features
    train(small_train_cfg(epochs=1), small_dataset(seed=0), out_dir=str(tmp_path))
    path = tmp_path / "checkpoint_final.bin"
    run = load_checkpoint(path)[1]["run"]
    assert run["data_sha256"] == small_dataset(seed=0).sha256() != small_dataset(seed=1).sha256()
    with pytest.raises(ValueError, match=f"data_sha256='{run['data_sha256']}', this run needs "
                                         "data_sha256='"):
        train(small_train_cfg(epochs=2), small_dataset(seed=1), resume_from=str(path))
    train(small_train_cfg(epochs=2), small_dataset(seed=0), resume_from=str(path))


def test_a_run_that_writes_and_resumes_no_checkpoint_hashes_no_data(monkeypatch):
    def refuse(dataset):
        raise AssertionError("hashed the data")

    monkeypatch.setattr(Dataset, "sha256", refuse)
    train(small_train_cfg(epochs=1), small_dataset())


def test_resume_refuses_a_checkpoint_past_the_runs_end(tmp_path):
    records = small_dataset()
    train(small_train_cfg(epochs=3), records, out_dir=str(tmp_path))
    path = tmp_path / "checkpoint_final.bin"
    before = path.read_bytes()
    with pytest.raises(ValueError, match="holds 3 epochs, past this run's epochs=1"):
        train(small_train_cfg(epochs=1), records, out_dir=str(tmp_path), resume_from=str(path))
    assert path.read_bytes() == before


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


def _serial_probe_values(f, params, probes, monkeypatch):
    """Each probe (j, i, step) of the checked problem on its serial graph, the entry moved in place.

    A trunk probe's value is f(). The probe of an entry of expert e's head
    gives total_loss of the slice [e:e+1] of the serial three-expert graph's
    terms: expert e's part of the objective, the part the entry moves.
    """
    calls = []

    def capture(*args):
        calls.append(args)
        return composed_objective(*args)

    monkeypatch.setattr(verify, "composed_objective", capture)
    f()
    monkeypatch.undo()
    (stacks, X, Y, eps, gamma, weights, attention), = calls
    E = len(gamma)
    values = []
    for j, i, step in probes:
        flat = params[j].data.reshape(-1)
        orig = flat[i]
        flat[i] = orig + step
        if params[j].name.startswith("trunk."):
            values.append(f().item())
        else:
            e = i // (flat.size // E)   # the expert axis leads a head role
            _, terms = composed_objective(stacks, X, Y, eps, gamma, weights, attention)
            values.append(total_loss([Tensor(t.data[e:e + 1]) for t in terms], weights).item())
        flat[i] = orig
    return values


def test_probe_batch_equals_serial_in_place_evaluation(monkeypatch):
    f, probe, params = verify.composed_objective_problem(seed=0)
    rng = np.random.default_rng(0)
    probes = [(j, int(rng.integers(p.data.size)), step)
              for j, p in enumerate(params) for step in (2e-5, -2e-5, 8e-5, -8e-5)]
    assert len(probes) > verify.PROBES  # more than one chunk
    before = [p.data.copy() for p in params]
    batched = verify._probe_values(f, params, probes, probe)
    for p, b in zip(params, before):
        np.testing.assert_array_equal(p.data, b)
    serial = _serial_probe_values(f, params, probes, monkeypatch)
    for (j, i, step), got, want in zip(probes, batched, serial, strict=True):
        assert got == want, (params[j].name, i, step)
    assert len(set(batched.tolist())) > len(params)  # the probes moved the objective


def test_head_probes_run_their_own_expert_alone(monkeypatch):
    f, probe, params = verify.composed_objective_problem(seed=0)
    E = len(params[-1].data)
    n_trunk = 2
    entries = [(j, i) for j in range(n_trunk) for i in range(params[j].data.size)]
    for j, p in enumerate(params[n_trunk:], n_trunk):
        per_expert = p.data.size // E
        entries += [(j, e * per_expert + i) for e in range(E) for i in (0, per_expert - 1)]
    probes = [(j, i, step) for j, i in entries for step in (2e-5, -2e-5)]

    seen = []

    def spy(params, X, Y, eps, gamma, *args):
        seen.append((len(gamma), X.shape[1]))
        return composed_objective(params, X, Y, eps, gamma, *args)

    monkeypatch.setattr(verify, "composed_objective", spy)
    batched = verify._probe_values(f, params, probes, probe)
    monkeypatch.undo()

    # every expert's head probes in chunks of one expert, the trunk's in one of all experts
    head_chunks = -(-4 * (len(params) - n_trunk) // verify.PROBES)
    assert sorted(seen) == [(1, 1)] * (E * head_chunks) + [(E, E)]
    serial = _serial_probe_values(f, params, probes, monkeypatch)
    for (j, i, step), got, want in zip(probes, batched, serial, strict=True):
        assert got == want, (params[j].name, i, step)


def test_final_checkpoint_reproduces_model(tmp_path):
    records = small_dataset()
    model, _ = train(small_train_cfg(epochs=2), records, out_dir=str(tmp_path))
    loaded, extra = load_checkpoint(tmp_path / "checkpoint_final.bin")
    assert extra["epoch"] == 2
    X = records.features[:4]
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
                              temporal_attention=attention, dtype="float64"), seed=E)
    rng = derive_rng(E, "batched")
    gamma = rng.uniform(0.01, 1.0, size=(E, C))
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
    loss, terms = composed_objective({**model.trunk, **model.stacked_heads}, X, Y, eps, gamma,
                                     weights, attention)
    batched = gradients(loss)

    per_head = []
    for e, kind in enumerate(kinds):
        mu, sigma, logits = expert_forward(model, X[e], kind, eps[e])
        per_head.append((mean_contrastive_loss(mu, Y[e]), classification_loss(logits, Y[e]),
                         variance_region_loss(sigma, Y[e], gamma[e])))
    ref_loss = functools.reduce(ag.add, [total_loss(t, weights) for t in per_head])
    reference = gradients(ref_loss)

    assert terms[0].data[0] == 0.0
    for i, term in enumerate(terms):
        np.testing.assert_allclose(term.data, [t[i].item() for t in per_head],
                                   rtol=1e-12, atol=1e-12)
    assert loss.item() == pytest.approx(ref_loss.item(), rel=1e-12, abs=1e-12)
    for p, g, r in zip(params, batched, reference):
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12, err_msg=p.name)
    # the gradient check's splice: each expert's terms computed on its own slices alone
    # are bit for bit its column of the E-expert terms
    for e in range(E):
        alone = {role: Tensor(p.data[e:e + 1]) for role, p in model.stacked_heads.items()}
        _, own = composed_objective({**model.trunk, **alone}, X[e:e + 1], Y[e:e + 1],
                                    eps[e:e + 1], gamma[e:e + 1], weights, attention)
        for t, column in zip(own, terms):
            np.testing.assert_array_equal(t.data, column.data[e:e + 1])


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
    # with the linear and normalized ReLU layers fused it records 63 ops (80 unfused),
    # with the attention pool fused and f_v applied after pooling 56, and with the
    # pooled frame axis dropped rather than kept and reshaped away 54, and with the
    # classification loss taken from the logits as softplus(x) - y x 48, and with each
    # loss term and their weighted total one node with a hand-written backward 20
    E, B, L, D, C, d = 3, 32, 8, 32, 20, 16
    model = Model(ModelConfig(D=D, C=C, d_trunk=32, hidden=32, d=d), seed=0)
    rng = derive_rng(0, "tape")
    Y = np.zeros((E, B, C), dtype=np.uint8)
    Y[np.arange(E)[:, None], np.arange(B), rng.integers(0, C, size=(E, B))] = 1
    loss, _ = composed_objective({**model.trunk, **model.stacked_heads},
                                 rng.uniform(-1.0, 1.0, size=(E, B, L, D)), Y,
                                 rng.standard_normal((E, B, d)), np.full((E, C), 0.5),
                                 LossWeights(), True)
    assert _tape_nodes(loss) == 20


def _medc_calls(run):
    """The calls into medc's named functions while run() runs.

    Comprehensions, generator expressions and lambdas are left out: Python
    3.12 inlines a list, dict or set comprehension into its function, so
    counting them would tie the count to the interpreter.
    """
    package, calls = os.path.dirname(training.__file__) + os.sep, 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(package)
                and not code.co_name.startswith("<")):
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("experts", [("long_tailed",), EXPERT_KINDS],
                         ids=["one-expert", "three-experts"])
def test_training_step_call_count_is_pinned(experts):
    # one step at the criterion-6 shapes (C=20, D=32, L=8, B=32), as train_epoch runs it:
    # the objective, zero_grad, backward and Adam's update. The count depends only on this
    # package's code and the shapes, and every step makes as many calls
    E, B, L, D, C, d = len(experts), 32, 8, 32, 20, 16
    model = Model(ModelConfig(D=D, C=C, d_trunk=32, hidden=32, d=d, experts=experts), seed=0)
    params, adam = {**model.trunk, **model.stacked_heads}, Adam(model.parameters())
    weights = LossWeights()
    rng = derive_rng(0, "calls")
    X = rng.uniform(-1.0, 1.0, size=(E, B, L, D)).astype(np.float32)
    Y = np.zeros((E, B, C), dtype=np.uint8)
    Y[np.arange(E)[:, None], np.arange(B), rng.integers(0, C, size=(E, B))] = 1
    eps, gamma = rng.standard_normal((E, B, d)), np.full((E, C), 0.5)

    def step():
        loss, _ = composed_objective(params, X, Y, eps, gamma, weights, True)
        model.zero_grad()
        loss.backward()
        adam.step(1e-3)

    assert [_medc_calls(step) for _ in range(3)] == [352] * 3


@pytest.mark.parametrize("seed", range(5))
def test_the_float32_gradient_agrees_with_the_float64_one_on_every_role(seed):
    # one step at the criterion-6 shapes on the same parameters and batch, each exact
    # at float32; the worst role, trunk.W at every seed, read 5.5e-7 to 5.9e-7. At much
    # larger shapes a phi_mu ReLU row can sit within float32 roundoff of 0 and flip
    # with the dtype, which moves trunk.W's gradient by about 2e-4
    E, B, L, D, C, d = 3, 32, 8, 32, 20, 16
    shapes = dict(D=D, C=C, d_trunk=32, hidden=32, d=d)
    m32 = Model(ModelConfig(**shapes, dtype="float32"), seed=seed)
    m64 = Model(ModelConfig(**shapes, dtype="float64"), seed=seed,
                stored=[p.data for p in m32.parameters()])
    rng = derive_rng(seed, "dtypes")
    X = rng.uniform(-1.0, 1.0, size=(E, B, L, D)).astype(np.float32)
    eps = rng.standard_normal((E, B, d)).astype(np.float32)
    Y = np.zeros((E, B, C), dtype=np.uint8)
    Y[np.arange(E)[:, None], np.arange(B), rng.integers(0, C, size=(E, B))] = 1
    gamma = rng.uniform(0.01, 1.0, size=(E, C))
    for model in (m32, m64):
        loss, _ = composed_objective({**model.trunk, **model.stacked_heads}, X, Y, eps, gamma,
                                     LossWeights(), True)
        loss.backward()
    for p32, p64 in zip(m32.parameters(), m64.parameters()):
        assert p32.grad.dtype == np.float32 and p64.grad.dtype == np.float64
        err = np.linalg.norm(p32.grad - p64.grad) / np.linalg.norm(p64.grad)
        assert err < 16 * np.finfo(np.float32).eps, f"{p64.name}: relative L2 error {err:.2e}"


def test_a_float32_training_step_is_float32_on_the_whole_tape(monkeypatch):
    # every node's data and every gradient the backward passes, from the loss down to
    # the parameters, over the steps of one epoch of the default (float32) model
    seen = {"batch": set(), "data": set(), "grad": set()}

    def recording(backward):
        def wrapped(g):
            grads = backward(g)
            seen["grad"].update(np.asarray(pg).dtype for pg in (g, *grads) if pg is not None)
            return grads
        return wrapped

    def walked(params, X, *rest):
        loss, terms = composed_objective(params, X, *rest)
        seen["batch"].add(X.dtype)
        stack, visited = [loss], set()
        while stack:
            t = stack.pop()
            if id(t) not in visited:
                visited.add(id(t))
                seen["data"].add(t.data.dtype)
                if t._backward is not None:
                    t._backward = recording(t._backward)
                stack.extend(t._parents)
        return loss, terms

    monkeypatch.setattr(training, "composed_objective", walked)
    records = small_dataset()
    model, _ = train(small_train_cfg(epochs=1), records)
    assert seen == {"batch": {np.dtype(np.float32)}, "data": {np.dtype(np.float32)},
                    "grad": {np.dtype(np.float32)}}
    for p in model.parameters():
        assert (p.data.dtype, p.grad.dtype) == (np.float32, np.float32), p.name
    X = records.features[:4]
    assert forward_inference(X, model).data.dtype == np.float32
    assert forward_inference(X.astype(np.float64), model).data.dtype == np.float32
