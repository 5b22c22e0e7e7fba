"""Mutation tests of the composed gradient check: a wrong backward must fail it.

Each mutation rewrites only the backward of the taped objective's nodes, so the
finite differences, which run with the tape off, still see the true objective.
"""

import numpy as np
import pytest

from medc import autograd as ag
from medc import losses, training
from medc.verify import composed_objective_gradcheck, composed_objective_problem


def _rewire(out, backward):
    """out with its backward replaced by backward(g, the original backward)."""
    if out._backward is not None:
        inner = out._backward
        out._backward = lambda g: backward(g, inner)
    return out


def scale_one_experts_cls_gradient(monkeypatch):
    linear = ag.linear

    def mutated(x, W, b, relu=False):
        out = linear(x, W, b, relu)
        if getattr(W, "name", None) == "expert.*.cls.W":
            def scaled(g, inner):
                gx, gW, gb = inner(g)
                gW = gW.copy()
                gW[1] *= 1.001
                return gx, gW, gb
            _rewire(out, scaled)
        return out

    monkeypatch.setattr(ag, "linear", mutated)


def zero_one_experts_variance_region_backward(monkeypatch):
    def mutated(sigmas, labels, gamma):
        def without_expert_2(g, inner):
            g = g.copy()
            g[..., 2] = 0.0
            return inner(g)

        return _rewire(losses.variance_region_loss(sigmas, labels, gamma), without_expert_2)

    monkeypatch.setattr(training, "variance_region_loss", mutated)


def unmask_affine_norm_relu_shift_gradient(monkeypatch):
    affine_norm_relu = ag.affine_norm_relu

    def mutated(x, W, b, scale, shift):
        out = affine_norm_relu(x, W, b, scale, shift)

        def unmasked(g, inner):
            *rest, _ = inner(g)
            return (*rest, ag._sum_to(g, shift.data, g.ndim))  # forgets the ReLU mask

        return _rewire(out, unmasked)

    monkeypatch.setattr(ag, "affine_norm_relu", mutated)


@pytest.mark.parametrize("mutate", [scale_one_experts_cls_gradient,
                                    zero_one_experts_variance_region_backward,
                                    unmask_affine_norm_relu_shift_gradient])
def test_a_wrong_backward_fails_the_composed_gradient_check(monkeypatch, mutate):
    assert composed_objective_gradcheck(0) < 1e-4
    mutate(monkeypatch)
    assert composed_objective_gradcheck(0) > 1e-4


def test_the_checked_problem_is_float64_and_its_errors_are_pinned():
    # criterion 1's errors for seeds 0-2 since a head probe returns its own expert's
    # objective alone (seed 1's did not move; 0's and 2's moved at roundoff), and since
    # the classification loss takes the logits (all three moved at roundoff). Another
    # BLAS build may round a GEMM, and so these errors, differently
    f, _, params = composed_objective_problem(0)
    assert [p.data.dtype for p in params] == [np.float64] * len(params)
    assert f().data.dtype == np.float64
    assert [composed_objective_gradcheck(seed) for seed in range(3)] == [
        1.598442348322056e-05, 1.735885953967999e-05, 1.0248117448326796e-05]
