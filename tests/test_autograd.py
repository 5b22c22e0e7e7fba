import gc
import re
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medc import autograd as ag
from medc.autograd import Parameter, ShapeError, Tensor
from medc.losses import LossWeights
from medc.model import Model, ModelConfig
from medc.seeding import derive_rng
from medc.training import composed_objective
from medc.verify import REFINE_ABOVE, gradient_check


def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ag.matmul(a, b).data, [[1, 2], [3, 4]])


def test_matmul_projector():
    a = Tensor([[1.0, 0.0], [0.0, 0.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(ag.matmul(a, b).data, [[5, 6], [0, 0]])


def test_matmul_hand_case():
    out = ag.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.ravel() == pytest.approx([11.0])


def test_matmul_folds_leading_axes_like_numpy():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 5, 2, 4))
    w = rng.standard_normal((4, 6))
    np.testing.assert_allclose(ag.matmul(Tensor(a), Tensor(w)).data, a @ w, atol=1e-14)
    stackw = rng.standard_normal((3, 4, 6))
    expected = np.stack([a[e] @ stackw[e] for e in range(3)])
    np.testing.assert_allclose(ag.matmul(Tensor(a), Tensor(stackw)).data, expected,
                               atol=1e-14)
    with pytest.raises(ShapeError, match=r"\(3, 5, 2, 4\).*\(2, 4, 6\)"):
        ag.matmul(Tensor(a), Tensor(stackw[:2]))


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))
    with pytest.raises(ShapeError, match=r"\(2,\).*\(2, 2\)"):  # a vector is not a matrix
        ag.matmul(Tensor(np.zeros(2)), Tensor(np.zeros((2, 2))))


def test_attention_pool_equal_scores_pool_to_the_frame_mean():
    rng = np.random.default_rng(0)
    delta = rng.standard_normal((2, 3, 4))
    out = ag.attention_pool(delta, np.zeros((4, 4)), np.zeros(4), rng.standard_normal((4, 4)),
                            rng.standard_normal(4))   # q = 0, so every score is 0
    assert out.shape == (2, 4)
    np.testing.assert_allclose(out.data, delta.mean(axis=-2), atol=1e-15)


# one feature, q = delta and k = 1, so each frame's score is its own value
IDENTITY_SCORES = (np.ones((1, 1)), np.zeros(1), np.zeros((1, 1)), np.ones(1))


def test_attention_pool_hand_case():
    out = ag.attention_pool(np.array([[0.0], [np.log(3.0)]]), *IDENTITY_SCORES)
    # the weights are softmax(0, log 3) = (1/4, 3/4)
    assert out.data.ravel() == pytest.approx([0.75 * np.log(3.0)])


def test_attention_pool_scores_near_1000_stay_finite():
    delta = Parameter(np.array([[1000.0], [1000.0 + np.log(3.0)]]), "delta")
    weights = [Parameter(v, f"w{i}") for i, v in enumerate(IDENTITY_SCORES)]
    out = ag.attention_pool(delta, *weights)
    assert out.data.ravel() == pytest.approx([1000.0 + 0.75 * np.log(3.0)])
    ag.sum_along(out).backward()
    for p in [delta, *weights]:
        assert np.isfinite(p.grad).all(), p.name


def test_attention_pool_is_a_convex_combination_of_the_frames():
    rng = np.random.default_rng(0)
    delta = rng.uniform(-1.0, 1.0, size=(4, 7, 3))
    weights = [rng.uniform(-50, 50, size=shape) for shape in ((3, 3), 3, (3, 3), 3)]
    out = ag.attention_pool(delta, *weights).data
    assert np.isfinite(out).all()
    assert out.shape == (4, 3)
    assert (out >= delta.min(axis=-2) - 1e-12).all()
    assert (out <= delta.max(axis=-2) + 1e-12).all()


def test_attention_pool_empty_frame_axis_errors():
    with pytest.raises(ShapeError, match=r"\(3, 0, 4\)"):
        ag.attention_pool(np.zeros((3, 0, 4)), np.zeros((4, 4)), np.zeros(4),
                          np.zeros((4, 4)), np.zeros(4))


@pytest.mark.parametrize("Wk,bk", [((2, 4, 4), (2, 4)), ((4, 4), (1, 1, 4))])
def test_attention_pool_refuses_f_q_and_f_k_of_two_shapes(Wk, bk):
    both = [re.escape(str(shape)) for shape in ((4, 4), (4,), Wk, bk)]
    with pytest.raises(ShapeError, match=".*".join(both)):
        ag.attention_pool(np.zeros((2, 3, 4)), np.zeros((4, 4)), np.zeros(4),
                          np.zeros(Wk), np.zeros(bk))


def test_mean_pool_hand_case():
    out = ag.mean_along(Tensor([[1.0, 3.0], [3.0, 5.0]]), 0)
    assert np.array_equal(out.data, [2.0, 4.0])


def test_mean_pool_single_row_identity():
    out = ag.mean_along(Tensor([[1.5, -2.0]]), 0)
    assert np.array_equal(out.data, [1.5, -2.0])


def test_mean_pool_constant():
    out = ag.mean_along(Tensor(np.full((4, 3), 7.0)), 0)
    assert np.array_equal(out.data, np.full(3, 7.0))


def test_mean_pool_zero_extent_errors():
    with pytest.raises(ShapeError):
        ag.mean_along(Tensor(np.zeros((0, 3))), 0)


def test_affine_norm_degenerate_row_outputs_shift():
    x = Tensor(np.full((2, 3), 4.0))
    W = Tensor(np.eye(3))
    out = ag.affine_norm_relu(x, W, Tensor(np.zeros(3)), Tensor(np.ones(3)),
                              Tensor(np.full(3, 2.5)))
    assert out.data == pytest.approx(np.full((2, 3), 2.5))


def test_affine_norm_hand_case():
    out = ag.affine_norm_relu(Tensor([[1.0, 3.0]]), Tensor(np.eye(2)),
                              Tensor(np.zeros(2)), Tensor(np.ones(2)),
                              Tensor(np.ones(2)))
    # (x - 2) / (1 + guard) + 1, then the ReLU, which both entries pass
    assert out.data.ravel() == pytest.approx([0.0, 2.0], abs=5e-5)
    assert (out.data > 0.0).all()


def test_affine_norm_row_shift_invariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 4))
    W, b = Tensor(np.eye(4)), Tensor(np.zeros(4))
    s, t = Tensor(np.ones(4)), Tensor(np.zeros(4))
    base = ag.affine_norm_relu(Tensor(x), W, b, s, t).data
    shifted = ag.affine_norm_relu(Tensor(x + 3.7), W, b, s, t).data
    np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_gradient_check_quadratic():
    theta = Parameter(np.array([3.0]), "theta")
    err = gradient_check(lambda: ag.sum_along(ag.square(theta)), [theta])
    assert err < 1e-8


def test_gradient_check_constant():
    theta = Parameter(np.array([1.0, 2.0]), "theta")
    err = gradient_check(lambda: ag.sum_along(ag.mul(theta, 0.0)), [theta])
    assert err == 0.0


def test_gradient_check_probe_batches_match_serial_probes():
    theta = Parameter(np.array([[1e-5, 0.5, -0.3]]), "theta")  # entry 0 sits on the ReLU kink

    def relu(x):
        return ag.linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)), relu=True)

    def batched(values):
        return ag.sum_along(relu(Tensor(values[0])), axis=(-2, -1)).data

    serial = gradient_check(lambda: ag.sum_along(relu(theta)), [theta])
    assert serial > REFINE_ABOVE  # so the refinement ladder ran
    assert gradient_check(lambda: ag.sum_along(relu(theta)), [theta],
                          probe=lambda j, i: batched) == serial


def test_an_op_records_only_when_a_gradient_can_reach_an_input():
    p = Parameter(np.array([1.0, 2.0]), "p")
    for a, b in [(np.array([1.0, 2.0]), np.array([3.0, 4.0])),
                 (Tensor([1.0, 2.0]), Tensor([3.0, 4.0])), (Tensor([1.0, 2.0]), 3.0)]:
        y = ag.mul(a, b)
        assert y._parents == () and y._backward is None
        assert not hasattr(y, "grad") and not hasattr(a, "grad")
    for a, b in [(p, Tensor([3.0, 4.0])), (np.array([3.0, 4.0]), p), (ag.mul(p, 2.0), 3.0)]:
        y = ag.mul(a, b)
        assert y._parents and y._backward is not None
        assert not hasattr(y, "grad")


def test_the_objective_on_plain_tensors_records_nothing():
    # as the gradient check's batched probes call it: the same value, with no tape
    E, B, L, D, C, d = 3, 4, 4, 4, 4, 8
    model = Model(ModelConfig(D=D, C=C, d_trunk=3, hidden=3, d=d, dtype="float64"), seed=1)
    rng = derive_rng(1, "plain")
    Y = np.zeros((E, B, C), dtype=np.uint8)
    Y[:, np.arange(B), np.arange(B) % 2] = 1
    inputs = (rng.uniform(-1.0, 1.0, size=(E, B, L, D)), Y, rng.standard_normal((E, B, d)),
              np.full((E, C), 0.5), LossWeights(), True)
    params = {**model.trunk, **model.stacked_heads}
    taped, _ = composed_objective(params, *inputs)
    plain, terms = composed_objective({k: Tensor(p.data) for k, p in params.items()}, *inputs)
    assert _taped_nodes(taped)
    for t in (plain, *terms):
        assert t._parents == () and t._backward is None
    assert plain.data.tobytes() == taped.data.tobytes()


def _rand(rng, *shape):
    return rng.uniform(-1.0, 1.0, size=shape)


def _transpose(x):
    """x with its last two axes swapped, as its own tape node."""
    return ag._track(Tensor(np.swapaxes(x.data, -1, -2)), (x,),
                     lambda g: (np.swapaxes(g, -1, -2),))


@pytest.mark.parametrize("name,builder", [
    ("add", lambda p, q: ag.add(p, q)),
    ("sub", lambda p, q: ag.sub(p, q)),
    ("mul", lambda p, q: ag.mul(p, q)),
    ("matmul", lambda p, q: ag.matmul(p, _transpose(q))),
    ("matmul_3d_left", lambda p, q: ag.matmul(ag.reshape(p, (2, 2, 4)), q)),
    ("matmul_4d_left", lambda p, q: ag.matmul(ag.reshape(p, (2, 1, 2, 4)), q)),
    ("matmul_expert_axis", lambda p, q: ag.matmul(ag.reshape(p, (2, 2, 1, 4)),
                                                  ag.reshape(q, (2, 4, 2)))),
    ("matmul_shared_left", lambda p, q: ag.matmul(ag.reshape(p, (1, 4, 4)),
                                                  ag.reshape(q, (2, 4, 2)))),
    ("sigmoid", lambda p, q: ag.sigmoid(ag.mul(p, q))),
    ("softplus", lambda p, q: ag.softplus(ag.mul(p, 3.0))),
    ("exp", lambda p, q: ag.exp(p)),
    ("log", lambda p, q: ag.log(ag.add(ag.square(p), 0.5))),
    ("square", lambda p, q: ag.square(p)),
    ("attention_pool", lambda p, q: ag.attention_pool(ag.reshape(p, (2, 2, 4)), q,
                                                      ag.mean_along(p, axis=0),
                                                      _transpose(q), ag.sum_along(q, axis=0))),
    ("mean", lambda p, q: ag.mean_along(ag.mul(p, q), axis=0)),
    ("linear", lambda p, q: ag.linear(p, q, ag.mean_along(q, axis=0))),
    ("linear_relu", lambda p, q: ag.linear(p, q, ag.mean_along(q, axis=0), relu=True)),
    ("affine_norm_relu", lambda p, q: ag.affine_norm_relu(ag.mul(p, 2.0), q,
                                                          ag.mean_along(q, axis=0),
                                                          ag.sum_along(p, axis=0),
                                                          ag.add(ag.mean_along(q, axis=1), 1.0))),
    ("l2_normalize", lambda p, q: ag.mul(ag.l2_normalize(p, axis=1), q)),
])
def test_op_gradients_match_finite_differences(name, builder):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    p = Parameter(_rand(rng, 4, 4), "p")
    q = Parameter(_rand(rng, 4, 4), "q")
    err = gradient_check(lambda: ag.sum_along(ag.square(builder(p, q))), [p, q],
                         h=1e-4)
    assert err < 1e-4


def test_relu_gradient_away_from_kink():
    rng = np.random.default_rng(7)
    vals = _rand(rng, 5, 5)
    vals[np.abs(vals) < 0.01] = 0.5  # keep finite differences off the kink
    p = Parameter(vals, "p")
    err = gradient_check(lambda: ag.sum_along(ag.square(ag.linear(
        p, Tensor(np.eye(5)), Tensor(np.zeros(5)), relu=True))), [p])
    assert err < 1e-4


# -- the fused layers against the separate ops they replace -------------------

def _relu(x):
    """ReLU as its own tape node: the op `linear(relu=True)` and `affine_norm_relu` fuse."""
    return ag._track(Tensor(np.maximum(x.data, 0.0)), (x,), lambda g: (g * (x.data > 0.0),))


def _feature_norm(x):
    """(x - mean) / (std + 1e-5) over the last axis as its own tape node, with its own backward."""
    n = x.data.shape[-1]
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-12)
    denom = std + 1e-5

    def backward(g):
        gc = g / denom - centered * ((g * centered).sum(axis=-1, keepdims=True)
                                     / (n * std * denom * denom))
        return (gc - gc.mean(axis=-1, keepdims=True),)

    return ag._track(Tensor(centered / denom), (x,), backward)


def _centre(x):
    """x less its mean over the last axis, as its own tape node."""
    out = Tensor(x.data - x.data.mean(axis=-1, keepdims=True))
    return ag._track(out, (x,), lambda g: (g - g.mean(axis=-1, keepdims=True),))


def _centred_feature_scale(c):
    """c / (std + 1e-5) over the last axis of rows c that are already centred, as one node."""
    n = c.data.shape[-1]
    std = np.sqrt(np.einsum("...i,...i->...", c.data, c.data)[..., None] / n + 1e-12)
    denom = std + 1e-5

    def backward(g):
        return (g / denom - c.data * ((g * c.data).sum(axis=-1, keepdims=True)
                                      / (n * std * denom * denom)),)

    return ag._track(Tensor(c.data / denom), (c,), backward)


def _unfused_linear(x, W, b, relu=False):
    out = ag.add(ag.matmul(x, W), b)
    return _relu(out) if relu else out


def _unfused_affine_norm_relu(x, W, b, scale, shift):
    """The layer as first written: the affine map, then the rows centred and scaled."""
    return _relu(ag.add(ag.mul(scale, _feature_norm(ag.add(ag.matmul(x, W), b))), shift))


def _weight_centred_affine_norm_relu(x, W, b, scale, shift):
    """The fused op's arithmetic as separate ops: W and b centred, so the GEMM's rows are."""
    return _relu(ag.add(ag.mul(scale, _centred_feature_scale(
        ag.add(ag.matmul(x, _centre(W)), _centre(b)))), shift))


# (x, W, b-like) shapes: no expert axis, a single expert's slice with its vectors
# given the product's axes, the expert axis, the gradient check's probe axis in front
# of it (heads (K, E, ...), trunk (K, 1, ...) over a shared (1, E, ...) input), and
# a bias that broadcasts beyond the product's shape; then the last three with each
# vector stored as the model stores a role, with its weight's leading axes only
FUSED_SHAPES = {
    "plain": ((6, 4), (4, 5), (5,)),
    "expert_slice": ((3, 4, 4), (4, 5), (1, 1, 5)),
    "expert_axis": ((2, 3, 4, 4), (2, 4, 5), (2, 1, 1, 5)),
    "probe_axis": ((3, 2, 3, 4, 4), (3, 2, 4, 5), (3, 2, 1, 1, 5)),
    "probe_trunk": ((1, 2, 3, 4, 4), (3, 1, 4, 5), (3, 1, 1, 1, 5)),
    "bias_beyond": ((4, 4), (4, 5), (1, 1, 5)),
    "expert_role": ((2, 3, 4, 4), (2, 4, 5), (2, 5)),
    "probe_role": ((3, 2, 3, 4, 4), (3, 2, 4, 5), (3, 2, 5)),
    "probe_trunk_role": ((1, 2, 3, 4, 4), (3, 1, 4, 5), (3, 1, 5)),
}
# op: (the fused op, its arithmetic as separate ops, and for a fused op whose
# arithmetic differs from the layer as first written, that layer's separate ops)
FUSED_OPS = {
    "linear": (lambda x, W, b, s, t: ag.linear(x, W, b),
               lambda x, W, b, s, t: _unfused_linear(x, W, b), None),
    "linear_relu": (lambda x, W, b, s, t: ag.linear(x, W, b, relu=True),
                    lambda x, W, b, s, t: _unfused_linear(x, W, b, relu=True), None),
    "affine_norm_relu": (ag.affine_norm_relu, _weight_centred_affine_norm_relu,
                         _unfused_affine_norm_relu),
}


@pytest.mark.parametrize("shapes", FUSED_SHAPES.values(), ids=FUSED_SHAPES)
@pytest.mark.parametrize("op", FUSED_OPS, ids=FUSED_OPS)
def test_fused_op_equals_the_separate_ops(op, shapes):
    fused, unfused, first_written = FUSED_OPS[op]
    rng = np.random.default_rng(zlib.crc32(f"{op}{shapes}".encode()))
    x_shape, w_shape, v_shape = shapes
    values = [rng.standard_normal(x_shape), rng.standard_normal(w_shape)]
    values += [rng.standard_normal(v_shape) for _ in range(3)]
    # the separate ops broadcast by numpy's rule, so they see each vector with axes of 1
    # inserted before its features, up to the product's axes
    nd = max(len(x_shape), len(w_shape))
    lifted = v_shape[:-1] + (1,) * (nd - len(v_shape)) + v_shape[-1:]

    def run(build):
        params = [Parameter(v.copy(), f"p{i}") for i, v in enumerate(values)]
        args = params if build is fused else params[:2] + [ag.reshape(p, lifted)
                                                           for p in params[2:]]
        out = build(*args)
        weights = derive_rng(0, "weights").standard_normal(out.shape)
        ag.sum_along(ag.mul(out, weights)).backward()
        return out.data, [p.grad for p in params]

    out_f, grads_f = run(fused)
    out_u, grads_u = run(unfused)
    assert np.array_equal(out_f, out_u)
    for g_f, g_u in zip(grads_f, grads_u):
        np.testing.assert_allclose(g_f, g_u, rtol=0, atol=1e-12)
    # on plain tensors nothing is taped, and the output may reuse a buffer, with the same values
    assert np.array_equal(fused(*(Tensor(v) for v in values)).data, out_f)
    if first_written is not None:
        out_r, grads_r = run(first_written)
        np.testing.assert_allclose(out_f, out_r, rtol=1e-12)
        for g_f, g_r in zip(grads_f, grads_r):
            np.testing.assert_allclose(g_f, g_r, rtol=1e-12)


@pytest.mark.parametrize("op", [*FUSED_OPS, "attention_pool"])
def test_fused_op_computes_no_gradient_for_a_data_input(op):
    rng = np.random.default_rng(5)
    X = Tensor(rng.standard_normal((3, 4, 4)))  # data: no gradient, no parents
    if op == "attention_pool":
        fused, shapes = ag.attention_pool, ((4, 5), (5,), (4, 5), (5,))
    else:
        fused, shapes = FUSED_OPS[op][0], ((4, 5), (5,), (5,), (5,))
    params = [Parameter(rng.standard_normal(shape)) for shape in shapes]
    out = fused(X, *params)
    grads = out._backward(np.ones(out.shape))
    assert grads[0] is None
    assert all(g is not None for g in grads[1:])
    x = Parameter(X.data)
    assert fused(x, *params)._backward(np.ones(out.shape))[0] is not None


# -- the ops over random broadcast shapes ------------------------------------------
# x is (*lead, n, k) with 0-2 leading axes. A weight's leading axes are a prefix of
# lead. A vector has none, its weight's, as the model's stacked roles do, or all of
# lead and an axis of 1. Each leading axis of an operand has lead's size or 1, and
# attention_pool's f_k has f_q's shapes.

# each op's operands in order: x the input, w a (k, m) weight, v an m-vector
OPERANDS = {"linear": "xwv", "affine_norm_relu": "xwvvv", "attention_pool": "xwvwv",
            "l2_normalize": "x"}

@st.composite
def broadcast_operands(draw, op):
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    # one feature l2-normalizes to its sign, whose gradient (about 1e-12 / |x|^3) a central
    # difference sees as roundoff alone; the checker's relative error cannot judge it
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    k = draw(st.integers(2 if op == "l2_normalize" else 1, 4))

    def leading(depth):
        return tuple(draw(st.sampled_from((a, 1))) for a in lead[:depth])

    shapes = []
    for kind in OPERANDS[op]:
        if kind == "x":
            shapes.append(leading(len(lead)) + (n, k))
        elif kind == "w":
            w_lead = leading(draw(st.integers(0, len(lead))))
            shapes.append(w_lead + (k, m))
        else:
            shapes.append(draw(st.sampled_from(((m,), w_lead + (m,),
                                                leading(len(lead)) + (1, m)))))
    if op == "attention_pool":
        shapes[3:] = shapes[1:3]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = [rng.uniform(-1.0, 1.0, size=shape) for shape in shapes]
    return values, draw(st.booleans())  # linear's relu flag


BROADCAST_OPS = {
    "linear": lambda args, relu: ag.linear(*args, relu=relu),
    "affine_norm_relu": lambda args, _: ag.affine_norm_relu(*args),
    "attention_pool": lambda args, _: ag.attention_pool(*args),
    "l2_normalize": lambda args, _: ag.l2_normalize(args[0], axis=-1),
}


def _at(a, idx, core):
    """a's operand at the leading index idx: its leading axes indexed, a size-1 axis at 0."""
    lead = a.shape[:a.ndim - core]
    return a[tuple(i if size > 1 else 0 for i, size in zip(idx, lead))]


@pytest.mark.parametrize("op", BROADCAST_OPS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_op_over_leading_axes_equals_the_op_at_each_index(op, data):
    values, extra = data.draw(broadcast_operands(op))
    run = BROADCAST_OPS[op]
    out = run([Tensor(v) for v in values], extra).data
    cores = [2 if kind in "xw" else 1 for kind in OPERANDS[op]]
    for idx in np.ndindex(out.shape[:values[0].ndim - 2]):   # x's leading axes
        alone = run([Tensor(_at(v, idx, c)) for v, c in zip(values, cores)], extra).data
        np.testing.assert_allclose(out[idx], alone, rtol=1e-12)

    # unequal weights: the plain sum of an l2-normalized row's squares is constant
    w = np.random.default_rng(0).uniform(0.5, 1.5, size=out.shape)
    params = [Parameter(v, f"p{i}") for i, v in enumerate(values)]
    err = gradient_check(lambda: ag.sum_along(ag.mul(ag.square(run(params, extra)), w)),
                         params)
    assert err < 1e-4


# an affine_norm_relu example with a row 4.9e-4 from its sign flip (x's third row under
# W[0, 0]): with two features the 1e-5 guard makes the layer a step smoothed over about
# that width, so a central difference is accurate only at steps well below it
NEAR_FLIP = [np.array([[[[-0.12028323], [0.20733838], [0.29330843]]]]),
             np.array([[[[0.08328584, -0.36848433]], [[-0.61173144, 0.29431552]],
                        [[0.33230699, 0.38554033]]]]),
             np.array([-0.30022504, -0.16673746]), np.array([-0.88932599, -0.44871969]),
             np.array([0.61667041, 0.49291081])]


def _near_flip_error(**kw):
    w = np.random.default_rng(0).uniform(0.5, 1.5, size=(1, 3, 3, 2))
    params = [Parameter(v.copy(), f"p{i}") for i, v in enumerate(NEAR_FLIP)]
    return gradient_check(lambda: ag.sum_along(ag.mul(ag.square(ag.affine_norm_relu(*params)),
                                                      w)), params, **kw)


def test_affine_norm_relu_gradient_near_a_two_feature_sign_flip():
    assert _near_flip_error(h=1e-5) < 1e-4


@pytest.mark.xfail(strict=True, reason="the checker's h/4 retry still spans the smoothed "
                                       "step; a deeper retry ladder would resolve it")
def test_gradient_check_at_its_default_step_judges_a_row_near_its_sign_flip():
    assert _near_flip_error() < 1e-4


def _masked_sigmoid(x):
    """The logistic function by a boolean-mask gather and scatter: the reference formula."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def test_stable_sigmoid_bytes_equal_the_masked_formula():
    rng = np.random.default_rng(9)
    x = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0, -746.0, 1e308, -1e308,
         5e-324, -5e-324, 36.0, -36.0, 710.0, -710.0],
        rng.standard_normal(200_000) * 10.0,
        rng.uniform(-800.0, 800.0, 200_000),
        np.sign(rng.standard_normal(50_000)) * 10.0 ** rng.uniform(-320, 308, 50_000)])
    assert ag._stable_sigmoid(x).tobytes() == _masked_sigmoid(x).tobytes()
    block = x[:3 * 256 * 50].reshape(3, 256, 50)   # an eval chunk's logits
    assert ag._stable_sigmoid(block).tobytes() == _masked_sigmoid(block).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softplus_agrees_with_logaddexp_within_4_ulp(dtype):
    # the one-pass form max(x, 0) + log1p(exp(-|x|)) against numpy's log(exp(0) + exp(x));
    # the two round differently in the last bits, more often at float32
    x = np.concatenate([[0.0, -0.0, 1e-30, -1e-30, 200.0, -200.0],
                        np.random.default_rng(10).uniform(-200.0, 200.0, 200_000)]).astype(dtype)
    got = ag.softplus(x).data
    assert got.dtype == dtype and np.isfinite(got).all()
    np.testing.assert_array_max_ulp(got, np.logaddexp(dtype(0.0), x), maxulp=4, dtype=dtype)


def test_broadcast_add_gradient():
    rng = np.random.default_rng(11)
    a = Parameter(_rand(rng, 3, 4), "a")
    b = Parameter(_rand(rng, 4), "b")
    err = gradient_check(lambda: ag.sum_along(ag.square(ag.add(a, b))), [a, b])
    assert err < 1e-4


def test_fan_out_accumulates_both_contributions():
    x = Parameter(np.array([2.0]), "x")
    y = ag.add(ag.square(x), ag.mul(x, 3.0))  # x**2 + 3x, dy/dx = 2x + 3
    y_sum = ag.sum_along(y)
    x.zero_grad()
    y_sum.backward()
    assert x.grad == pytest.approx([7.0])


def test_parameter_zero_grad_resets_exactly():
    p = Parameter(np.array([1.0, 2.0]), "p")
    ag.sum_along(ag.square(p)).backward()
    assert p.grad == pytest.approx([2.0, 4.0])
    p.zero_grad()
    assert np.array_equal(p.grad, np.zeros(2))
    assert p.grad.shape == p.data.shape


def test_forward_bit_identical_across_runs():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((3, 5)))
        w1, b, s, t = (Tensor(rng.standard_normal(shape)) for shape in ((5, 5), 5, 5, 5))
        w = Tensor(rng.standard_normal((5, 2)))
        return ag.sigmoid(ag.matmul(ag.affine_norm_relu(x, w1, b, s, t), w)).data

    assert np.array_equal(run(), run())


def test_backward_requires_scalar():
    with pytest.raises(ShapeError):
        Tensor(np.zeros(3)).backward()


def test_finished_graph_is_freed_without_the_cycle_collector():
    gc.collect()
    gc.disable()
    try:
        p = Parameter(np.array([[0.3, -1.2], [2.0, 0.5]]), "p")
        mid = ag.exp(p)
        probe = weakref.ref(mid.data)
        out = ag.sum_along(ag.l2_normalize(ag.log(ag.add(mid, 1.0)), axis=1))
        out.backward()
        del mid, out
        assert probe() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the backward order ---------------------------------------------------------

def _topological_backward(out):
    """The backward by depth-first topological sort that creation order replaced.

    A post-order walk from out lists every reachable node after its parents;
    the nodes then run in reverse of that list, accumulating as
    `Tensor.backward` does.
    """
    topo = []
    visited = set()
    stack = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))

    grads = {id(out): np.ones_like(out.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad += g
        if node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg


def _taped_nodes(out):
    """Every node reachable from out that has a backward."""
    nodes, stack, seen = [], [out], set()
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            if t._backward is not None:
                nodes.append(t)
            stack.extend(t._parents)
    return nodes


def _objective_graph(dtype, experts=("uniform", "inverse", "long_tailed"),
                     temporal_attention=True):
    """The composed objective at the criterion-6 shapes (C=20, D=32, L=8, B=32)."""
    B, L, D, C, d = 32, 8, 32, 20, 16
    E = len(experts)
    model = Model(ModelConfig(D=D, C=C, d_trunk=32, hidden=32, d=d, experts=experts,
                              temporal_attention=temporal_attention, dtype=dtype), seed=0)
    rng = derive_rng(0, "tape")
    Y = np.zeros((E, B, C), dtype=np.uint8)
    Y[np.arange(E)[:, None], np.arange(B), rng.integers(0, C, size=(E, B))] = 1
    loss, _ = composed_objective({**model.trunk, **model.stacked_heads},
                                 rng.uniform(-1.0, 1.0, size=(E, B, L, D)), Y,
                                 rng.standard_normal((E, B, d)), np.full((E, C), 0.5),
                                 LossWeights(), temporal_attention)
    return loss, model.parameters()


def _fan_out_graph():
    """A node n that feeds three ops and a leaf q that feeds two.

    Each of n's consumers depends on the one before it, so every
    topological order runs them in one order, and n's three gradients sum
    in that order under either backward; q's two sum exactly in either
    order. Consumers that do not depend on one another may take their turns
    in another order under the two designs, and three or more gradients
    then round differently.
    """
    rng = np.random.default_rng(4)
    p = Parameter(_rand(rng, 3, 4), "p")
    q = Parameter(_rand(rng, 4), "q")
    n = ag.exp(p)
    b = ag.add(ag.mul(ag.square(n), q), n)
    c = ag.mul(ag.sigmoid(b), n)
    return ag.sum_along(ag.sub(c, q)), [p, q]


GRAPHS = {
    "three-experts-float32": lambda: _objective_graph("float32"),
    "three-experts-float64": lambda: _objective_graph("float64"),
    "one-expert-no-attention": lambda: _objective_graph("float64", ("long_tailed",), False),
    "fan-out": _fan_out_graph,
}


@pytest.mark.parametrize("build", GRAPHS.values(), ids=GRAPHS)
def test_creation_order_backward_equals_the_topological_sort_bit_for_bit(build):
    grads = []
    for backward in (Tensor.backward, _topological_backward):
        out, params = build()
        backward(out)
        grads.append([(p.grad.dtype, p.grad.tobytes()) for p in params])
    assert grads[0] == grads[1]


@pytest.mark.parametrize("build", GRAPHS.values(), ids=GRAPHS)
def test_each_node_runs_once_after_every_node_that_consumed_it(build):
    out, _ = build()
    nodes = _taped_nodes(out)
    ran = []

    def recording(node, backward):
        def wrapped(g):
            ran.append(node)
            return backward(g)
        return wrapped

    for node in nodes:
        node._backward = recording(node, node._backward)
    out.backward()
    assert sorted(map(id, ran)) == sorted(map(id, nodes))   # each node once
    at = {id(node): k for k, node in enumerate(ran)}
    for consumer in nodes:
        for parent in consumer._parents:
            if id(parent) in at:
                assert at[id(consumer)] < at[id(parent)]
