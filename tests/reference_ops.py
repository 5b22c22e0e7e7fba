"""Generic ops that only the tests compose: matmul, log, exp and square.

The library runs its layers and losses as fused tape nodes, so it keeps no
op that only a reference composition calls. These four are built on the
library's own tape helpers, so a graph that mixes them with library ops
records and backpropagates as one. `matmul` folds and raises through
`ag._matmul_forward` and `ag._matmul_backward`, which the fused layers run,
so the tests of `matmul` test the program's fold rule and its ShapeError.
"""

import numpy as np

from medc import autograd as ag


def matmul(a, b):
    """Matrix product over the last two axes, folding as `ag._matmul_forward` says."""
    a, b = ag._operands(a, b)
    y, a2 = ag._matmul_forward(a.data, b.data)
    return ag._track(ag.Tensor(y), (a, b), lambda g: ag._matmul_backward(
        g, a.data, a2, b.data, ag._needs_grad(a), ag._needs_grad(b)))


def log(x):
    x = ag._as_tensor(x)
    out = ag.Tensor(np.log(x.data))
    return ag._track(out, (x,), lambda g: (g / x.data,))


def exp(x):
    x = ag._as_tensor(x)
    y = np.exp(x.data)
    return ag._track(ag.Tensor(y), (x,), lambda g: (g * y,))


def square(x):
    x = ag._as_tensor(x)
    out = ag.Tensor(x.data * x.data)
    return ag._track(out, (x,), lambda g: (g * 2.0 * x.data,))
