"""Minimal dense-tensor math with reverse-mode automatic differentiation.

Tensors wrap float numpy arrays, float32 or float64, and record a computation
graph on the fly. A tensor keeps the dtype of the float array it is given, and
a constant that meets a tensor in an op takes the tensor's dtype, so a
float32 graph stays float32 and a float64 graph (the gradient checks') stays
float64.
Every tensor is stamped with its place in the order tensors were made, and
an op makes its output after its inputs, so that order is already a
topological order of the graph. Calling ``backward()`` on a scalar output
runs the reachable nodes in reverse creation order and accumulates
gradients into every ``Parameter``, the one type that holds a ``grad``. An
op is recorded only when a gradient can reach one of its inputs, so a graph
of arrays and plain tensors records nothing. Only the ops needed by the
model live here; everything is deterministic and single threaded.
"""

import heapq
import itertools
import math

import numpy as np


class ShapeError(ValueError):
    pass


# the creation order of every Tensor: an op's output is stamped after its inputs
_stamps = itertools.count()


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "_parents", "_backward", "_stamp")
    requires_grad = False

    def __init__(self, data):
        if type(data) is not np.ndarray or data.dtype.kind != "f":
            data = np.asarray(data)
            if data.dtype.kind != "f":
                data = data.astype(np.float64)
        self.data = data
        self._parents = ()
        self._backward = None
        self._stamp = next(_stamps)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def item(self):
        return float(self.data)

    def backward(self):
        """Accumulate d(self)/d(p) into the grad of every Parameter p it depends on.

        A node's stamp is its place in the creation order, and an op makes
        its output after its inputs, so every consumer of a node is newer
        than the node. The pending nodes run from a heap, newest first: when
        a node runs, every consumer that gives it a gradient has run.
        """
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar output, got shape "
                             f"{self.data.shape}")
        grads = {id(self): np.ones_like(self.data)}
        pending = [(-self._stamp, self)]
        while pending:
            node = heapq.heappop(pending)[1]
            g = grads.pop(id(node))
            if node.requires_grad:
                node.grad += g
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None:
                    continue
                acc = grads.get(id(parent))
                if acc is None:
                    heapq.heappush(pending, (-parent._stamp, parent))
                    grads[id(parent)] = pg
                else:
                    # no in-place accumulation: pg may alias g or be a readonly view
                    grads[id(parent)] = acc + pg


class Parameter(Tensor):
    """A named trainable tensor, with a zero `grad` of its shape that backward() adds into."""

    __slots__ = ("grad", "name")
    requires_grad = True

    def __init__(self, data, name=""):
        super().__init__(data)
        self.grad = np.zeros_like(self.data)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"

    def zero_grad(self):
        """Zero the gradient in place."""
        self.grad.fill(0.0)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b):
    """a and b as Tensors; a constant (an array or a number) takes the dtype of the other Tensor.

    Under numpy 2 a float64 array, 0-d ones included, would widen a float32
    operand, so a mask, a shift, a weight or a batch of data meets the
    tensor at its dtype.
    """
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.data.dtype) if isinstance(b, Tensor) else a)
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    return a, b


def _needs_grad(t):
    """Whether a gradient can reach anything through t: a data input has none to give."""
    return t.requires_grad or bool(t._parents)


def _records(parents):
    """Whether an op on these inputs goes on the tape: a gradient can reach one of them."""
    return any(map(_needs_grad, parents))


def _track(out, parents, backward):
    if _records(parents):
        out._parents = parents
        out._backward = backward
    return out


# -- elementwise binary -----------------------------------------------------

def add(a, b):
    a, b = _operands(a, b)
    out = Tensor(a.data + b.data)
    return _track(out, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a, b):
    a, b = _operands(a, b)
    out = Tensor(a.data - b.data)
    return _track(out, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b):
    a, b = _operands(a, b)
    out = Tensor(a.data * b.data)
    return _track(out, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.data.shape),
        _unbroadcast(g * a.data, b.data.shape)))


def _matmul_forward(a, b):
    """(a @ b, a as its GEMM sees it) for arrays; the product is a fresh array.

    The batch axes of `b` line up with the leading axes of `a`, and any
    further axes of `a` fold into the rows of one GEMM per batch entry. So a
    2-D `b` (a weight) takes every leading axis of `a` as rows in a single
    GEMM, and an expert stack (E, K, N) maps (E or 1, ..., K) to (E, ..., N).
    Both operands have at least two axes. When `a` has no more axes than
    `b`, numpy broadcasting applies and nothing folds.
    """
    A, Bs = a.shape, b.shape
    lead = len(Bs) - 2
    if (a.ndim < 2 or b.ndim < 2 or A[-1] != Bs[-2]
            or (a.ndim > b.ndim
                and any(m != n and 1 not in (m, n) for m, n in zip(A[:lead], Bs[:lead])))):
        raise ShapeError(f"matmul: incompatible shapes {A} x {Bs}")
    if a.ndim <= b.ndim:
        return np.matmul(a, b), a
    a2 = a.reshape(A[:lead] + (-1, A[-1]))
    y = np.matmul(a2, b)
    return y.reshape(y.shape[:-2] + A[lead:-1] + Bs[-1:]), a2


def _matmul_backward(g, a, a2, b, need_a, need_b):
    """The gradients of a and b from g, the gradient of the product of `_matmul_forward`.

    a2 is the folded a it returned. An input whose flag is false gets None,
    and its GEMM is skipped.
    """
    g = g.reshape(g.shape[:b.ndim - 2] + (-1, g.shape[-1]))   # the GEMM's output shape
    ga = gb = None
    if need_a:
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b, -1, -2)), a2.shape).reshape(a.shape)
    if need_b:
        gb = _unbroadcast(np.matmul(np.swapaxes(a2, -1, -2), g), b.shape)
    return ga, gb


# -- elementwise unary ------------------------------------------------------

def _stable_sigmoid(x):
    """Logistic function of an array, with no overflow in exp for either sign: with
    z = exp(-|x|), 1 / (1 + z) where x >= 0 and z / (1 + z) elsewhere. The numerator is
    max(z, x >= 0), which is 1 or z as z lies in [0, 1] (NaN stays NaN), so no select runs;
    the bytes equal the two-branch form's at float32 and float64, with ±0, ±inf and NaN."""
    z = np.exp(-np.abs(x))
    num = np.maximum(z, x >= 0)
    z += 1.0
    num /= z
    return num


def sigmoid(x):
    x = _as_tensor(x)
    y = _stable_sigmoid(x.data)
    return _track(Tensor(y), (x,), lambda g: (g * y * (1.0 - y),))


def _softplus(x):
    """log(1 + exp(x)) of an array as max(x, 0) + log1p(exp(-|x|)): finite for every x, and
    several times faster than np.logaddexp(0, x)."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus(x):
    """`_softplus` of a tensor. The sigmoid, its derivative, is made only when the backward
    runs, so an untaped call never builds it."""
    x = _as_tensor(x)
    return _track(Tensor(_softplus(x.data)), (x,), lambda g: (g * _stable_sigmoid(x.data),))


# -- reductions and shape ---------------------------------------------------

def sum_along(x, axis=None):
    x = _as_tensor(x)
    out = Tensor(x.data.sum(axis=axis))

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape),)

    return _track(out, (x,), backward)


def mean_along(x, axis=None):
    """Mean over `axis`: None for all axes, an int, or a tuple of ints."""
    x = _as_tensor(x)
    axes = range(x.data.ndim) if axis is None else np.atleast_1d(axis)
    n = int(np.prod([x.data.shape[a] for a in axes]))
    if n == 0:
        raise ShapeError(f"mean over empty axis {axis} of shape {x.data.shape}")
    return mul(sum_along(x, axis), 1.0 / n)


def reshape(x, shape):
    x = _as_tensor(x)
    out = Tensor(x.data.reshape(shape))
    return _track(out, (x,), lambda g: (g.reshape(x.data.shape),))


# -- fused layers -----------------------------------------------------------
# Each is one tape node. The forward works in place on the array its own
# matmul allocated; the backward is written by hand and computes no gradient
# for a data input, which takes the weight's dtype. A vector (bias, scale or
# shift) has its weight's batch axes, as (E, n) in an expert stack, and `_lift`
# lines them up as a weight's are.

def _lift(v, ndim):
    """v with axes of 1 before its last, to `ndim` axes, so that it broadcasts by its leading ones."""
    return v.reshape(v.shape[:-1] + (1,) * (ndim - v.ndim) + v.shape[-1:])


def _sum_to(g, v, ndim):
    """g summed to the shape of the vector v lifted to `ndim` axes, then given v's shape."""
    return _unbroadcast(g, _lift(v, ndim).shape).reshape(v.shape)


def _into(op, y, b):
    """op(y, b), written into y when b broadcasts within y's shape."""
    if np.broadcast_shapes(y.shape, b.shape) == y.shape:
        return op(y, b, out=y)
    return op(y, b)


def _centred(a):
    """a less its mean over the last axis."""
    return a - a.mean(axis=-1, keepdims=True)


def _row_dot(a, b):
    """The dot products of a's and b's rows along the last axis, kept as an axis of 1."""
    return np.einsum("...i,...i->...", a, b)[..., None]


def linear(x, W, b, relu=False):
    """The affine map x @ W + b, then max(., 0) if `relu`."""
    W, b = _as_tensor(W), _as_tensor(b)
    x, W = _operands(x, W)
    y, x2 = _matmul_forward(x.data, W.data)
    prod_shape = y.shape
    out = _into(np.add, y, _lift(b.data, y.ndim))
    if relu:
        np.maximum(out, 0.0, out=out)

    def backward(g):
        if relu:
            g = g * (out > 0.0)
        gx, gW = _matmul_backward(_unbroadcast(g, prod_shape), x.data, x2, W.data,
                                  _needs_grad(x), _needs_grad(W))
        return gx, gW, _sum_to(g, b.data, len(prod_shape))

    return _track(Tensor(out), (x, W, b), backward)


def affine_norm_relu(x, W, b, scale, shift):
    """A normalized ReLU layer: max(scale * (a - mean(a)) / (std(a) + 1e-5) + shift, 0).

    a = x @ W + b; mean and std run over the feature (last) axis of each
    row, and the 1e-5 guard keeps the all-equal-features row finite. The
    centring goes through the weights: a - mean(a) = x @ Wc + bc, where Wc
    and bc are W and b less their means over that axis, so the GEMM gives
    centred rows and no pass over the activations centres them. The values
    equal those of centring a itself up to roundoff. The backward keeps
    x_hat = (a - mean(a)) / denom, std, denom = std + 1e-5 and the output,
    and centres the small gradients of W and b in place of the activations'.
    """
    W = _as_tensor(W)
    x, W, b, scale, shift = parents = _operands(x, W) + tuple(map(_as_tensor, (b, scale, shift)))
    if 0 in (W.data.shape[-1:] + b.data.shape[-1:]):
        raise ShapeError("affine_norm_relu on empty feature axis")
    Wc = _centred(W.data)
    y, x2 = _matmul_forward(x.data, Wc)
    prod_shape, nd = y.shape, y.ndim
    x_hat = _into(np.add, y, _lift(_centred(b.data), nd))
    n = x_hat.shape[-1]
    std = np.sqrt(_row_dot(x_hat, x_hat) / n + 1e-12)
    denom = std + 1e-5
    x_hat /= denom
    s = _lift(scale.data, nd)
    # off the tape nothing reads x_hat again, so the output may take its memory
    out = s * x_hat if _records(parents) else _into(np.multiply, x_hat, s)
    out = _into(np.add, out, _lift(shift.data, nd))
    np.maximum(out, 0.0, out=out)

    def backward(g):
        g = g * (out > 0.0)
        g_hat = _unbroadcast(g * s, x_hat.shape)
        # the feature-norm gradient with a - mean(a) = x_hat * denom substituted:
        # g_hat / denom - x_hat * sum(g_hat * x_hat) / (n * std); its centring
        # is the projection through Wc and bc
        coef = _row_dot(g_hat, x_hat) / (n * std)
        g_hat /= denom
        g_hat -= x_hat * coef
        gx, gW = _matmul_backward(_unbroadcast(g_hat, prod_shape), x.data, x2, Wc,
                                  _needs_grad(x), _needs_grad(W))
        return (gx, None if gW is None else _centred(gW), _centred(_sum_to(g_hat, b.data, nd)),
                _sum_to(g * x_hat, scale.data, nd), _sum_to(g, shift.data, nd))

    return _track(Tensor(out), parents, backward)


def attention_pool(delta, Wq, bq, Wk, bk):
    """Frames pooled by self-attention: sum_l alpha_l * delta_l over the frame axis.

    delta is (..., L, d), one row per frame. The scores are
    s_l = q_l . k_l / sqrt(d) with q = delta @ Wq + bq and k = delta @ Wk + bk,
    both from one GEMM on the two weights side by side, so f_q and f_k must
    have one shape. alpha is the scores' softmax over the L frames, taken
    after subtracting the largest score so that large scores stay finite.
    The result is (..., d). The backward keeps q, k and alpha, and computes
    no gradient for a data delta.
    """
    Wq = _as_tensor(Wq)
    delta, Wq, bq, Wk, bk = parents = _operands(delta, Wq) + tuple(map(_as_tensor, (bq, Wk, bk)))
    if delta.data.ndim < 2 or delta.data.shape[-2] == 0:
        raise ShapeError("attention_pool needs frames (..., L, d) with L >= 1, "
                         f"got shape {delta.data.shape}")
    if (Wq.data.shape, bq.data.shape) != (Wk.data.shape, bk.data.shape):
        raise ShapeError(f"attention_pool needs f_q and f_k of one shape, got W {Wq.data.shape} "
                         f"and b {bq.data.shape} against W {Wk.data.shape} and b {bk.data.shape}")
    m = Wq.data.shape[-1]
    W = np.concatenate((Wq.data, Wk.data), axis=-1)
    b = np.concatenate((bq.data, bk.data), axis=-1)
    y, d2 = _matmul_forward(delta.data, W)
    prod_shape = y.shape
    y = _into(np.add, y, _lift(b, y.ndim))
    q, k = y[..., :m], y[..., m:]
    c = 1.0 / math.sqrt(delta.data.shape[-1])   # a Python float keeps s at its dtype
    s = _row_dot(q, k)                                   # (..., L, 1)
    s *= c
    s -= s.max(axis=-2, keepdims=True)
    alpha = np.exp(s, out=s)
    alpha /= alpha.sum(axis=-2, keepdims=True)
    out = np.matmul(np.swapaxes(alpha, -1, -2), delta.data)[..., 0, :]

    def backward(g):
        g = np.expand_dims(g, -2)
        # through alpha: d out / d alpha_l = delta_l, then the softmax's and the scores'
        g_alpha = np.matmul(delta.data, np.swapaxes(g, -1, -2))
        g_s = alpha * (g_alpha - (alpha * g_alpha).sum(axis=-2, keepdims=True))
        g_s *= c
        g_y = np.empty_like(y)
        np.multiply(k, g_s, out=g_y[..., :m])
        np.multiply(q, g_s, out=g_y[..., m:])
        g_delta, gW = _matmul_backward(_unbroadcast(g_y, prod_shape), delta.data, d2, W,
                                       _needs_grad(delta), True)
        if g_delta is not None:   # and each frame's own share of the pool
            g_delta += _unbroadcast(alpha * g, delta.data.shape)
        gb = _sum_to(g_y, b, len(prod_shape))
        return g_delta, gW[..., :m], gb[..., :m], gW[..., m:], gb[..., m:]

    return _track(Tensor(out), parents, backward)


# -- composite layers -------------------------------------------------------

def l2_normalize(x):
    """Scale rows of x to unit L2 norm along the last axis. Fused forward/backward.

    A 1e-12 guard inside the square root keeps all-zero rows (and their
    gradients) finite; such rows map to zero instead of NaN.
    """
    x = _as_tensor(x)
    norm = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True) + 1e-12)
    y = x.data / norm

    def backward(g):
        return ((g - y * (g * y).sum(axis=-1, keepdims=True)) / norm,)

    return _track(Tensor(y), (x,), backward)
