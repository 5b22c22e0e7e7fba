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
        """Zero the gradient in place, so a gradient that is a view stays one."""
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


def matmul(a, b):
    """Matrix product over the last two axes.

    The batch axes of `b` line up with the leading axes of `a`, and any
    further axes of `a` fold into the rows of one GEMM per batch entry. So a
    2-D `b` (a weight) takes every leading axis of `a` as rows in a single
    GEMM, and an expert stack (E, K, N) maps (E or 1, ..., K) to (E, ..., N).
    Both operands have at least two axes. When `a` has fewer axes than `b`,
    numpy broadcasting applies.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    A, Bs = a.data.shape, b.data.shape
    lead = len(Bs) - 2
    if (a.data.ndim < 2 or b.data.ndim < 2 or A[-1] != Bs[-2]
            or (a.data.ndim > b.data.ndim
                and any(m != n and 1 not in (m, n) for m, n in zip(A[:lead], Bs[:lead])))):
        raise ShapeError(f"matmul: incompatible shapes {A} x {Bs}")
    fold = a.data.ndim > b.data.ndim
    a2 = a.data.reshape(A[:lead] + (-1, A[-1])) if fold else a.data
    y = np.matmul(a2, b.data)
    out = Tensor(y.reshape(y.shape[:-2] + A[lead:-1] + Bs[-1:]) if fold else y)

    def backward(g):
        g = g.reshape(y.shape)
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a2, -1, -2), g)
        return _unbroadcast(ga, a2.shape).reshape(A), _unbroadcast(gb, Bs)

    return _track(out, (a, b), backward)


# -- elementwise unary ------------------------------------------------------

def relu(x):
    x = _as_tensor(x)
    out = Tensor(np.maximum(x.data, 0.0))
    return _track(out, (x,), lambda g: (g * (x.data > 0.0),))


def _stable_sigmoid(x):
    """Logistic function of an array, with no overflow in exp for either sign."""
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


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


# -- composite layers -------------------------------------------------------

def feature_norm(x):
    """Per-row feature normalization: (x - mean) / (std + 1e-5).

    Mean and std run over the last axis of each row; the 1e-5 guard keeps
    the all-equal-features row finite. Fused forward/backward.
    """
    x = _as_tensor(x)
    n = x.data.shape[-1]
    if n == 0:
        raise ShapeError("feature_norm on empty feature axis")
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    std = np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-12)
    denom = std + 1e-5
    out = Tensor(centered / denom)

    def backward(g):
        gc = g / denom - centered * ((g * centered).sum(axis=-1, keepdims=True)
                                     / (n * std * denom * denom))
        return (gc - gc.mean(axis=-1, keepdims=True),)

    return _track(out, (x,), backward)


def affine_norm_layer(x, W, b, scale, shift):
    """Affine map followed by per-row feature normalization.

    y = scale * (a - mean(a)) / (std(a) + 1e-5) + shift with a = xW + b,
    mean/std taken over the feature (last) axis of each row.
    """
    a = add(matmul(x, W), b)
    return add(mul(scale, feature_norm(a)), shift)


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
