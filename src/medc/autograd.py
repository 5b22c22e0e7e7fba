"""Minimal dense-tensor math with reverse-mode automatic differentiation.

Tensors wrap float64 numpy arrays and record a computation graph on the fly.
Calling ``backward()`` on a scalar output accumulates gradients into every
reachable tensor with ``requires_grad=True``; inside ``with no_tape():`` ops
record no graph. Only the ops needed by the
model live here; everything is deterministic and single threaded.
"""

import numpy as np


class ShapeError(ValueError):
    pass


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        if type(data) is np.ndarray and data.dtype == np.float64:
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data)

    def zero_grad(self):
        """Zero the gradient in place, allocating it on first use."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def backward(self):
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar output, got shape "
                             f"{self.data.shape}")
        topo = []
        visited = set()
        stack = [(self, False)]
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

        grads = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
            if node._backward is None:
                continue
            for parent, pg in zip(node._parents, node._backward(g)):
                if pg is None:
                    continue
                acc = grads.get(id(parent))
                # no in-place accumulation: pg may alias g or be a readonly view
                grads[id(parent)] = pg if acc is None else acc + pg

    def __getitem__(self, idx):
        return take(self, idx)


class Parameter(Tensor):
    """A named trainable tensor; grad is always allocated."""

    __slots__ = ("name",)

    def __init__(self, data, name=""):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


# False inside a `no_tape` block: ops then record nothing
_taping = True


class no_tape:
    """Context in which every op returns its bare output, with no tape.

    The idea of torch.no_grad: nothing computed inside can be backpropagated,
    and each intermediate is freed as soon as it is consumed. The previous
    mode is restored on exit, also when the block raises.
    """

    def __enter__(self):
        global _taping
        self._was, _taping = _taping, False

    def __exit__(self, *exc_info):
        global _taping
        _taping = self._was


def _track(out, parents, backward):
    if _taping and any(p.requires_grad or p._parents for p in parents):
        out._parents = parents
        out._backward = backward
    return out


# -- elementwise binary -----------------------------------------------------

def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)
    return _track(out, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data - b.data)
    return _track(out, (a, b), lambda g: (
        _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
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


def _needs_grad(t):
    """Whether a gradient can reach anything through t: a data input has none to give."""
    return t.requires_grad or bool(t._parents)


def matmul(a, b):
    """Matrix product over the last two axes, folding as `_matmul_forward` says."""
    a, b = _as_tensor(a), _as_tensor(b)
    y, a2 = _matmul_forward(a.data, b.data)
    return _track(Tensor(y), (a, b), lambda g: _matmul_backward(
        g, a.data, a2, b.data, _needs_grad(a), _needs_grad(b)))


# -- elementwise unary ------------------------------------------------------

def _stable_sigmoid(x):
    """Logistic function of an array, with no overflow in exp for either sign."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def sigmoid(x):
    x = _as_tensor(x)
    y = _stable_sigmoid(x.data)
    return _track(Tensor(y), (x,), lambda g: (g * y * (1.0 - y),))


def softplus(x):
    x = _as_tensor(x)
    s = _stable_sigmoid(x.data)  # d/dx softplus
    return _track(Tensor(np.logaddexp(0.0, x.data)), (x,), lambda g: (g * s,))


def log(x):
    x = _as_tensor(x)
    out = Tensor(np.log(x.data))
    return _track(out, (x,), lambda g: (g / x.data,))


def exp(x):
    x = _as_tensor(x)
    y = np.exp(x.data)
    return _track(Tensor(y), (x,), lambda g: (g * y,))


def square(x):
    x = _as_tensor(x)
    out = Tensor(x.data * x.data)
    return _track(out, (x,), lambda g: (g * 2.0 * x.data,))


def clamp(x, lo, hi):
    """Clip values to [lo, hi]; gradient passes only where unclipped."""
    x = _as_tensor(x)
    out = Tensor(np.clip(x.data, lo, hi))
    inside = (x.data > lo) & (x.data < hi)
    return _track(out, (x,), lambda g: (g * inside,))


# -- reductions and shape ---------------------------------------------------

def sum_along(x, axis=None, keepdims=False):
    x = _as_tensor(x)
    out = Tensor(x.data.sum(axis=axis, keepdims=keepdims))

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape),)

    return _track(out, (x,), backward)


def mean_along(x, axis=None, keepdims=False):
    """Mean over `axis`: None for all axes, an int, or a tuple of ints."""
    x = _as_tensor(x)
    axes = range(x.data.ndim) if axis is None else np.atleast_1d(axis)
    n = int(np.prod([x.data.shape[a] for a in axes]))
    if n == 0:
        raise ShapeError(f"mean over empty axis {axis} of shape {x.data.shape}")
    return mul(sum_along(x, axis, keepdims), 1.0 / n)


def softmax_along(x, axis):
    """Numerically stabilized softmax along `axis` (max subtraction)."""
    x = _as_tensor(x)
    if x.data.shape[axis] == 0:
        raise ShapeError(f"softmax over empty axis {axis} of shape {x.data.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y)

    def backward(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return _track(out, (x,), backward)


def reshape(x, shape):
    x = _as_tensor(x)
    out = Tensor(x.data.reshape(shape))
    return _track(out, (x,), lambda g: (g.reshape(x.data.shape),))


def transpose(x, axes=None):
    x = _as_tensor(x)
    out = Tensor(x.data.transpose(axes))
    inv = None if axes is None else np.argsort(axes)
    return _track(out, (x,), lambda g: (g.transpose(inv),))


def take(x, idx):
    """Indexing/slicing; backward scatter-adds into the source positions."""
    x = _as_tensor(x)
    out = Tensor(x.data[idx])

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return _track(out, (x,), backward)


# -- fused layers -----------------------------------------------------------
# Each is one tape node. The forward works in place on the array its own
# matmul allocated, running the numpy operations of the separate ops in
# their order, so the values equal theirs; the backward is written by hand
# and computes no gradient for a data input.

def _add_into(y, b):
    """y + b, written into y when b broadcasts within y's shape."""
    if np.broadcast_shapes(y.shape, b.shape) == y.shape:
        y += b
        return y
    return y + b


def linear(x, W, b, relu=False):
    """The affine map x @ W + b, then max(., 0) if `relu`."""
    x, W, b = _as_tensor(x), _as_tensor(W), _as_tensor(b)
    y, x2 = _matmul_forward(x.data, W.data)
    prod_shape = y.shape
    out = _add_into(y, b.data)
    if relu:
        np.maximum(out, 0.0, out=out)

    def backward(g):
        if relu:
            g = g * (out > 0.0)
        gx, gW = _matmul_backward(_unbroadcast(g, prod_shape), x.data, x2, W.data,
                                  _needs_grad(x), _needs_grad(W))
        return gx, gW, _unbroadcast(g, b.data.shape)

    return _track(Tensor(out), (x, W, b), backward)


def affine_norm_relu(x, W, b, scale, shift):
    """A normalized ReLU layer: max(scale * (a - mean(a)) / (std(a) + 1e-5) + shift, 0).

    a = x @ W + b; mean and std run over the feature (last) axis of each
    row, and the 1e-5 guard keeps the all-equal-features row finite. The
    backward keeps x_hat = (a - mean(a)) / denom, std, denom = std + 1e-5
    and the output.
    """
    x, W, b, scale, shift = (_as_tensor(t) for t in (x, W, b, scale, shift))
    y, x2 = _matmul_forward(x.data, W.data)
    prod_shape = y.shape
    x_hat = _add_into(y, b.data)
    n = x_hat.shape[-1]
    if n == 0:
        raise ShapeError("affine_norm_relu on empty feature axis")
    x_hat -= x_hat.mean(axis=-1, keepdims=True)
    std = np.sqrt((x_hat * x_hat).mean(axis=-1, keepdims=True) + 1e-12)
    denom = std + 1e-5
    x_hat /= denom
    out = _add_into(scale.data * x_hat, shift.data)
    np.maximum(out, 0.0, out=out)

    def backward(g):
        g = g * (out > 0.0)
        g_hat = _unbroadcast(g * scale.data, x_hat.shape)
        # the feature-norm gradient with a - mean(a) = x_hat * denom substituted:
        # g_hat / denom - x_hat * sum(g_hat * x_hat) / (n * std), then centered
        coef = (g_hat * x_hat).sum(axis=-1, keepdims=True) / (n * std)
        g_hat /= denom
        g_hat -= x_hat * coef
        g_hat -= g_hat.mean(axis=-1, keepdims=True)
        gx, gW = _matmul_backward(_unbroadcast(g_hat, prod_shape), x.data, x2, W.data,
                                  _needs_grad(x), _needs_grad(W))
        return (gx, gW, _unbroadcast(g_hat, b.data.shape),
                _unbroadcast(g * x_hat, scale.data.shape), _unbroadcast(g, shift.data.shape))

    return _track(Tensor(out), (x, W, b, scale, shift), backward)


# -- composite layers -------------------------------------------------------

def l2_normalize(x, axis=-1):
    """Scale rows of x to unit L2 norm along `axis`. Fused forward/backward.

    A 1e-12 guard inside the square root keeps all-zero rows (and their
    gradients) finite; such rows map to zero instead of NaN.
    """
    x = _as_tensor(x)
    norm = np.sqrt((x.data * x.data).sum(axis=axis, keepdims=True) + 1e-12)
    y = x.data / norm

    def backward(g):
        return ((g - y * (g * y).sum(axis=axis, keepdims=True)) / norm,)

    return _track(Tensor(y), (x,), backward)
