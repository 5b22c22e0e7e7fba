import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medc import autograd as ag
from medc.autograd import Parameter, Tensor
from medc.losses import (LossWeights, _label_overlap, _mean_weights, classification_loss,
                         gamma_targets, mean_contrastive_loss, total_loss, variance_region_loss)
from medc.sampling import INVERSE, LONG_TAILED, UNIFORM
from medc.verify import gradient_check

from test_autograd import _transpose
from test_sampling import stats_for


# -- variance targets ----------------------------------------------------------

def test_gamma_uniform_expert_constant():
    assert np.array_equal(gamma_targets(stats_for([500, 100, 10]), UNIFORM),
                          [0.5, 0.5, 0.5])


def test_gamma_long_tailed_hand_case():
    g = gamma_targets(stats_for([500, 100, 10]), LONG_TAILED)
    assert g == pytest.approx([1.0, 0.01 + 0.99 * 90 / 490, 0.01])


def test_gamma_inverse_is_reversed():
    lt = gamma_targets(stats_for([500, 100, 10]), LONG_TAILED)
    inv = gamma_targets(stats_for([500, 100, 10]), INVERSE)
    assert inv == pytest.approx(lt[::-1])


def test_gamma_degenerate_balanced():
    assert gamma_targets(stats_for([7, 7, 7]), LONG_TAILED) == pytest.approx([0.505] * 3)


def test_gamma_bounds_validated():
    with pytest.raises(ValueError):
        gamma_targets(stats_for([2, 1]), "nonsense")


def test_gamma_within_bounds_random_counts():
    rng = np.random.default_rng(3)
    counts = rng.integers(1, 400, size=12).tolist()
    for kind in (LONG_TAILED, INVERSE):
        g = gamma_targets(stats_for(counts), kind)
        assert g.min() >= 0.01 and g.max() <= 1.0


# -- contrastive loss ----------------------------------------------------------

def one_hot(c, C=3):
    v = np.zeros(C)
    v[c] = 1
    return v


def test_contrastive_no_eligible_anchor_is_zero():
    mus = Tensor(np.eye(3))
    same = np.array([one_hot(0), one_hot(0), one_hot(0)])
    assert mean_contrastive_loss(mus, same).item() == 0.0
    single = Tensor(np.ones((1, 3)))
    assert mean_contrastive_loss(single, [one_hot(1)]).item() == 0.0


def test_contrastive_equidistant_triple():
    angles = [0.0, 2 * np.pi / 3, 4 * np.pi / 3]
    mus = Tensor([[np.cos(a), np.sin(a)] for a in angles])
    labels = [one_hot(0), one_hot(0), one_hot(1)]
    assert mean_contrastive_loss(mus, labels).item() == pytest.approx(np.log(2.0))


def test_contrastive_aligned_positive_opposed_negative():
    mus = Tensor([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    labels = [one_hot(0), one_hot(0), one_hot(1)]
    expected = np.log(1.0 + np.exp(-2.0))
    assert mean_contrastive_loss(mus, labels).item() == pytest.approx(expected)


def test_contrastive_decreases_as_positive_aligns():
    labels = [one_hot(0), one_hot(0), one_hot(1)]
    losses = []
    for a in (2.0, 1.0, 0.3):
        mus = Tensor([[1.0, 0.0],
                      [np.cos(a), np.sin(a)],
                      [0.0, -1.0]])
        losses.append(mean_contrastive_loss(mus, labels).item())
    assert losses[0] > losses[1] > losses[2]


def reference_contrastive(mus, labels):
    """Loop-based restatement of the pull-together objective."""
    labels = np.asarray(labels).astype(bool)
    sims = mus @ mus.T
    terms = []
    for i in range(len(labels)):
        positives = [j for j in range(len(labels)) if j != i
                     and (labels[i] & labels[j]).any()]
        negatives = [j for j in range(len(labels))
                     if not (labels[i] & labels[j]).any()]
        if not positives or not negatives:
            continue
        best = max(positives, key=lambda j: (sims[i, j], -j))
        den = np.exp(sims[i, best]) + sum(np.exp(sims[i, j]) for j in negatives)
        terms.append(-np.log(np.exp(sims[i, best]) / den))
    return float(np.mean(terms)) if terms else 0.0


@pytest.mark.parametrize("seed", range(6))
def test_contrastive_matches_loop_reference(seed):
    rng = np.random.default_rng(seed)
    B, C, d = 10, 4, 5
    labels = (rng.random((B, C)) < 0.35).astype(np.uint8)
    labels[np.arange(B), rng.integers(0, C, B)] = 1  # at least one positive
    mus = rng.standard_normal((B, d))
    mus /= np.linalg.norm(mus, axis=1, keepdims=True)
    got = mean_contrastive_loss(Tensor(mus), labels).item()
    assert got == pytest.approx(reference_contrastive(mus, labels))


@pytest.mark.parametrize("shape", [(10, 4), (128, 50), (3, 16, 30), (4, 3, 32, 200)],
                         ids=["batch", "train1_large", "experts", "probes-experts"])
def test_label_overlap_equals_the_integer_matmul(shape):
    rng = np.random.default_rng(sum(shape))
    for density in (0.02, 0.2, 0.9):
        labels = rng.random(shape) < density
        counts = labels.astype(np.int64)
        exact = counts @ np.swapaxes(counts, -1, -2) > 0
        assert np.array_equal(_label_overlap(labels), exact)


def test_contrastive_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    labels = (rng.random((6, 3)) < 0.4).astype(np.uint8)
    labels[np.arange(6), rng.integers(0, 3, 6)] = 1
    mus = Parameter(rng.standard_normal((6, 4)), "mus")
    err = gradient_check(lambda: mean_contrastive_loss(mus, labels), [mus])
    assert err < 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scale", [3.0, 30.0])
def test_contrastive_of_unnormalized_mus_is_finite(scale, dtype):
    # a column outside the softmax mask, such as a partial-overlap row's, may have the largest
    # similarity by more than exp's range; it must add exactly 0, not exp(inf) * 0
    rng = np.random.default_rng(int(scale))
    for _ in range(200):
        B, C, d = rng.integers(2, 9), rng.integers(2, 5), rng.integers(1, 6)
        labels = (rng.random((B, C)) < 0.4).astype(np.uint8)
        labels[np.arange(B), rng.integers(0, C, B)] = 1
        mus = Parameter((rng.standard_normal((B, d)) * rng.uniform(0.0, scale)).astype(dtype))
        loss = mean_contrastive_loss(mus, labels)
        loss.backward()
        assert np.isfinite(loss.data) and np.isfinite(mus.grad).all(), (B, C, d)


# -- classification loss -------------------------------------------------------

def reference_clamped_bce(logits, y):
    """The probability-form BCE the logit form replaced: -[y log p + (1 - y) log(1 - p)]
    of p = sigmoid(logits) clamped to [1e-7, 1 - 1e-7], averaged over the last two axes."""
    p = np.clip(1.0 / (1.0 + np.exp(-logits)), 1e-7, 1.0 - 1e-7)
    return -(y * np.log(p) + (1 - y) * np.log(1.0 - p)).mean(axis=(-2, -1))


def test_bce_hand_cases():
    assert classification_loss(Tensor([[0.0]]), [[1]]).item() == pytest.approx(np.log(2.0))
    assert classification_loss(Tensor([[0.0, 0.0]]), [[1, 0]]).item() == pytest.approx(np.log(2.0))
    assert classification_loss(Tensor([[np.log(9.0)]]), [[1]]).item() == pytest.approx(-np.log(0.9))
    for x in (1000.0, -1000.0):
        right, wrong = ([[1]], [[0]]) if x > 0 else ([[0]], [[1]])
        assert classification_loss(Tensor([[x]]), right).item() == pytest.approx(0.0, abs=1e-12)
        assert classification_loss(Tensor([[x]]), wrong).item() == pytest.approx(1000.0)


def test_bce_equals_the_clamped_probability_form_for_moderate_logits():
    rng = np.random.default_rng(5)
    logits = rng.uniform(-8.0, 8.0, size=(3, 40, 20))
    y = (rng.random((3, 40, 20)) < 0.3).astype(np.uint8)
    got = classification_loss(Tensor(logits), y).data
    np.testing.assert_allclose(got, reference_clamped_bce(logits, y), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bce_a_confidently_wrong_logit_keeps_its_gradient(dtype):
    # the clamped probability form gave the three saturated logits a gradient of 0
    x = np.array([[30.0, -30.0, 2.0, 1000.0]])
    y = np.array([[0, 1, 1, 0]], dtype=np.uint8)
    logits = Parameter(x.astype(dtype), "logits")
    loss = classification_loss(logits, y)
    assert loss.data.dtype == dtype and np.isfinite(loss.item())
    loss.backward()
    assert logits.grad.dtype == dtype
    np.testing.assert_allclose(logits.grad, (ag._stable_sigmoid(x) - y) / 4, rtol=1e-6)


def test_bce_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    logits = Parameter(rng.standard_normal((4, 3)), "logits")
    y = (rng.random((4, 3)) < 0.5).astype(np.uint8)
    err = gradient_check(lambda: classification_loss(logits, y), [logits])
    assert err < 1e-4


# -- variance region loss ------------------------------------------------------

def test_variance_loss_zero_at_target():
    sigma = Tensor(np.full((2, 3), np.sqrt(0.25)))
    labels = [[1, 0], [0, 1]]
    assert variance_region_loss(sigma, labels, [0.25, 0.25]).item() == 0.0


def test_variance_loss_hand_case():
    sigma = Tensor([[np.sqrt(0.35)]])
    loss = variance_region_loss(sigma, [[1]], [0.25])
    assert loss.item() == pytest.approx(0.01)


def test_variance_loss_quadratic_scaling():
    base = variance_region_loss(Tensor([[np.sqrt(0.3)]]), [[1]], [0.25]).item()
    double = variance_region_loss(Tensor([[np.sqrt(0.35)]]), [[1]], [0.25]).item()
    assert double == pytest.approx(4.0 * base)


def test_variance_loss_only_positive_labels_count():
    sigma = Tensor([[1.0, 1.0], [5.0, 5.0]])
    labels = [[1, 0], [0, 0]]
    # second sample has no positives after masking class 0 off
    loss = variance_region_loss(sigma, np.array(labels), [1.0, 1.0])
    assert loss.item() == pytest.approx(0.0)


def test_variance_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    raw = Parameter(rng.standard_normal((3, 4)), "raw")
    labels = np.array([[1, 0], [1, 1], [0, 1]])
    gamma = [0.3, 0.8]
    err = gradient_check(lambda: variance_region_loss(ag.softplus(raw), labels, gamma),
                         [raw])
    assert err < 1e-4


# -- combination ---------------------------------------------------------------

def test_total_loss_weighted_sum():
    terms = (Tensor([1.0]), Tensor([2.0]), Tensor([3.0]))
    out = total_loss(terms, LossWeights(0.8, 1.0, 0.4))
    assert out.item() == pytest.approx(0.8 * 1 + 1.0 * 2 + 0.4 * 3)


def test_total_loss_sums_over_experts():
    terms = (Tensor(np.ones(3)), Tensor(np.ones(3)), Tensor(np.ones(3)))
    out = total_loss(terms, LossWeights(1.0, 1.0, 1.0))
    assert out.item() == pytest.approx(9.0)


@pytest.mark.parametrize("per_probe", [False, True], ids=["shared-labels", "labels-per-probe"])
def test_losses_carry_a_probe_axis(per_probe):
    rng = np.random.default_rng(7)
    K, E, B, C, d = 5, 3, 6, 4, 3
    labels = (rng.random((K, E, B, C) if per_probe else (E, B, C)) < 0.4).astype(np.uint8)
    labels[..., np.arange(B), rng.integers(0, C, B)] = 1  # at least one positive
    labels = np.broadcast_to(labels, (K, E, B, C))
    mus = rng.standard_normal((K, E, B, d))
    mus /= np.linalg.norm(mus, axis=-1, keepdims=True)
    logits = 4.0 * rng.standard_normal((K, E, B, C))
    sigmas = rng.uniform(0.1, 1.5, size=(K, E, B, d))
    gamma = rng.uniform(0.01, 1.0, size=(E, C))
    weights = LossWeights()

    def terms(k):
        at = (slice(None),) if k is None else k
        return (mean_contrastive_loss(Tensor(mus[at]), labels[at]),
                classification_loss(Tensor(logits[at]), labels[at]),
                variance_region_loss(Tensor(sigmas[at]), labels[at], gamma))

    batched = terms(None)
    assert all(t.shape == (K, E) for t in batched)
    total = total_loss(batched, weights)
    assert total.shape == (K,)
    assert (batched[0].data > 0.0).any(axis=-1).all()  # every probe has anchors
    for k in range(K):
        alone = terms(k)
        got = np.hstack([t.data[k] for t in batched] + [total.data[k]])
        want = np.hstack([t.data for t in alone] + [total_loss(alone, weights).data])
        np.testing.assert_array_equal(got, want)


def reference_variance(sigmas, labels, gamma):
    """Loop-based restatement of the variance-region mean."""
    terms = [(s ** 2 - gamma[c]) ** 2 for s, row in zip(sigmas, labels)
             for c in np.flatnonzero(row)]
    return float(np.mean(terms)) if terms else 0.0


@st.composite
def per_index_batches(draw):
    """A (K, E) grid of batches, each with its own labels of 1-9 positives per sample.

    Batch (0, 0) puts class 0 on every sample, so no anchor has a negative, and 9
    labels on its first, so the batches differ in the most labels a sample has;
    batch (K-1, E-1) has no positive label at all.
    """
    K, E, B, C = (draw(st.integers(1, 3)), draw(st.integers(2, 3)),
                  draw(st.integers(2, 6)), draw(st.integers(9, 12)))
    labels = np.zeros((K, E, B, C), dtype=np.uint8)
    for idx in np.ndindex(K, E, B):
        labels[idx + (sorted(draw(st.sets(st.integers(0, C - 1), min_size=1,
                                          max_size=9))),)] = 1
    labels[0, 0, :, 0] = 1
    labels[0, 0, 0, :9] = 1
    labels[-1, -1] = 0
    return labels, draw(st.integers(1, 4)), draw(st.integers(0, 2 ** 32 - 1))


def _batched_losses_equal_per_index_calls(batch, dtype, rel):
    """Each (k, e) index of the batched losses and their gradients, at `dtype`, equals
    a call on that index alone bit for bit, and the loop references within `rel`."""
    labels, d, seed = batch
    K, E, B, C = labels.shape
    rng = np.random.default_rng(seed)
    mus = rng.standard_normal((K, E, B, d))
    mus /= np.linalg.norm(mus, axis=-1, keepdims=True)
    logits = 4.0 * rng.standard_normal((K, E, B, C))
    sigmas = rng.uniform(0.1, 1.5, size=(K, E, B, d))
    gamma = rng.uniform(0.01, 1.0, size=(E, C))
    mus, logits, sigmas = (x.astype(dtype) for x in (mus, logits, sigmas))

    def run(at, g):
        ins = [Parameter(x[at], "x") for x in (mus, logits, sigmas)]
        terms = (mean_contrastive_loss(ins[0], labels[at]),
                 classification_loss(ins[1], labels[at]),
                 variance_region_loss(ins[2], labels[at], g))
        ag.sum_along(ag.add(ag.add(terms[0], terms[1]), terms[2])).backward()
        return [t.data for t in terms], [x.grad for x in ins]

    values, grads = run((slice(None),), gamma)
    for v in values + grads:
        assert v.dtype == dtype and np.isfinite(v).all()
    for k, e in np.ndindex(K, E):
        alone, alone_grads = run((k, e), gamma[e])
        for batched, one in zip(values + grads, alone + alone_grads):
            np.testing.assert_array_equal(batched[k, e], one)
        assert alone[0] == pytest.approx(reference_contrastive(mus[k, e], labels[k, e]),
                                         rel=rel, abs=1e-15)
        assert alone[2] == pytest.approx(reference_variance(sigmas[k, e], labels[k, e],
                                                            gamma[e]), rel=rel, abs=1e-15)
    assert values[0][0, 0] == 0.0 and values[0][-1, -1] == 0.0 and values[2][-1, -1] == 0.0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(per_index_batches())
def test_batched_losses_equal_per_index_calls_bit_for_bit(batch):
    _batched_losses_equal_per_index_calls(batch, np.float64, rel=1e-12)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(per_index_batches())
def test_batched_float32_losses_equal_per_index_calls_bit_for_bit(batch):
    _batched_losses_equal_per_index_calls(batch, np.float32, rel=1e-5)


# -- the fused losses against the compositions they replace ------------------------

def composed_contrastive(mus, labels):
    """The contrastive loss as generic ops composed it before it was one tape node."""
    labels = np.asarray(labels).astype(bool)
    B = labels.shape[-2]
    overlap = _label_overlap(labels)
    share = overlap & ~np.eye(B, dtype=bool)
    disjoint = ~overlap
    eligible = share.any(axis=-1) & disjoint.any(axis=-1)
    sims = ag.matmul(mus, _transpose(mus))
    sv = sims.data
    nearest = np.where(share, sv, -np.inf).argmax(axis=-1)[..., None] == np.arange(B)
    mask = disjoint | nearest
    shift = np.where(mask, sv, -np.inf).max(axis=-1, keepdims=True)
    e = ag.mul(ag.exp(ag.sub(sims, shift)), mask)
    lse = ag.add(ag.log(ag.sum_along(e, axis=-1)), shift[..., 0])
    pos = ag.sum_along(ag.mul(sims, nearest), axis=-1)
    loss = ag.mul(ag.sub(lse, pos), _mean_weights(eligible))
    return ag.sum_along(loss, axis=-1)


def composed_bce(logits, y):
    """The classification loss as generic ops composed it before it was one tape node."""
    return ag.mean_along(ag.sub(ag.softplus(logits), ag.mul(y, logits)), axis=(-2, -1))


def composed_variance(sigmas, labels, gamma):
    """The variance region loss as generic ops composed it before it was one tape node."""
    held = np.asarray(labels) != 0
    n = held.sum(axis=-1)
    gamma = np.asarray(gamma)[..., None, :]
    m = (held * gamma).sum(axis=-1) / np.maximum(n, 1)
    v = (held * np.square(gamma - m[..., None])).sum(axis=-1) / np.maximum(n, 1)
    dev = ag.mean_along(ag.square(ag.sub(ag.square(sigmas), m[..., None])), axis=-1)
    per_sample = ag.mul(ag.add(dev, v), _mean_weights(n))
    return ag.sum_along(per_sample, axis=-1)


def composed_total(terms, weights):
    """The weighted total as generic ops composed it before it was one tape node."""
    m, c, s = terms
    t = ag.add(ag.add(ag.mul(m, weights.lambda1), ag.mul(c, weights.lambda2)),
               ag.mul(s, weights.lambda3))
    return ag.sum_along(t, axis=-1) if t.ndim else t


FUSED_AND_COMPOSED = {"contrastive": (mean_contrastive_loss, composed_contrastive),
                      "bce": (classification_loss, composed_bce),
                      "variance": (variance_region_loss, composed_variance)}
# (leading axes of the activations, leading axes of the labels)
LAYOUTS = {"no-lead": ((), ()), "experts": ((3,), (3,)),
           "probes-per-probe": ((4, 3), (4, 3)), "probes-shared": ((4, 3), (1, 3))}
LABEL_KINDS = ("mixed", "no-eligible", "all-disjoint", "multi-label")
BATCH, CLASSES, DIM = 6, 8, 4
# the largest gradient difference from the composition, over the largest gradient entry
GRAD_TOL = {np.float32: 2e-6, np.float64: 1e-14}


def _labels(kind, lead, rng):
    """(*lead, BATCH, CLASSES) uint8 labels. mixed: 1-3 labels a row, so anchors of every kind;
    no-eligible: every row holds class 0, so no anchor has a negative; all-disjoint: row i
    holds class i alone, so no anchor has a positive; multi-label: most classes a row."""
    labels = np.zeros(lead + (BATCH, CLASSES), dtype=np.uint8)
    if kind == "all-disjoint":
        labels[..., np.arange(BATCH), np.arange(BATCH)] = 1
        return labels
    labels[...] = rng.random(labels.shape) < (0.7 if kind == "multi-label" else 0.2)
    labels[..., np.arange(BATCH), rng.integers(0, CLASSES, BATCH)] = 1
    if kind == "no-eligible":
        labels[..., 0] = 1
    return labels


def _inputs(layout, kind, seed):
    lead, label_lead = LAYOUTS[layout]
    rng = np.random.default_rng(seed)
    labels = _labels(kind, label_lead, rng)
    mus = rng.standard_normal(lead + (BATCH, DIM))
    mus /= np.linalg.norm(mus, axis=-1, keepdims=True)
    logits = 4.0 * rng.standard_normal(lead + (BATCH, CLASSES))
    sigmas = rng.uniform(0.1, 1.5, size=lead + (BATCH, DIM))
    gamma = rng.uniform(0.01, 1.0, size=lead[-1:] + (CLASSES,))
    out_w = rng.uniform(0.5, 1.5, size=lead)   # each output entry's own weight in the backward
    return {"contrastive": (mus, (labels,)), "bce": (logits, (labels,)),
            "variance": (sigmas, (labels, gamma))}, out_w


def _value_and_grad(loss, x, args, out_w, dtype):
    p = Parameter(x.astype(dtype), "x")
    out = loss(p, *args)
    ag.sum_along(ag.mul(out, out_w)).backward()
    return out, p.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("kind", LABEL_KINDS)
def test_each_fused_loss_equals_its_composition(kind, layout, dtype):
    inputs, out_w = _inputs(layout, kind, LABEL_KINDS.index(kind))
    for name, (fused, composed) in FUSED_AND_COMPOSED.items():
        x, args = inputs[name]
        (got, grad), (want, want_grad) = (_value_and_grad(loss, x, args, out_w, dtype)
                                          for loss in (fused, composed))
        assert got.data.dtype == want.data.dtype == grad.dtype == dtype
        assert got.shape == want.shape == LAYOUTS[layout][0]
        assert got.data.tobytes() == want.data.tobytes(), name
        assert len(got._parents) == 1 and isinstance(got._parents[0], Parameter)  # one node
        np.testing.assert_allclose(grad, want_grad, rtol=0.0,
                                   atol=GRAD_TOL[dtype] * np.abs(want_grad).max(), err_msg=name)
        if name == "contrastive" and kind in ("no-eligible", "all-disjoint"):
            assert not got.data.any() and not grad.any()


@pytest.mark.parametrize("weights", [LossWeights(), LossWeights(0.0, 1.0, 0.4),
                                     LossWeights(0.8, 0.0, 0.0)],
                         ids=["paper", "no-lambda1", "lambda1-alone"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_the_fused_total_equals_its_composition(layout, dtype, weights):
    inputs, out_w = _inputs(layout, "mixed", 7)
    results = []
    for total, at in ((total_loss, 0), (composed_total, 1)):
        params = [Parameter(inputs[name][0].astype(dtype), name) for name in FUSED_AND_COMPOSED]
        terms = [FUSED_AND_COMPOSED[name][at](p, *inputs[name][1])
                 for name, p in zip(FUSED_AND_COMPOSED, params)]
        out = total(terms, weights)
        ag.sum_along(ag.mul(out, out_w[..., 0] if out_w.ndim else out_w)).backward()
        results.append((out, [p.grad for p in params]))
    (got, grads), (want, want_grads) = results
    assert got.data.dtype == dtype and got.shape == want.shape == LAYOUTS[layout][0][:-1]
    assert got.data.tobytes() == want.data.tobytes()
    assert len(got._parents) == 3
    lambdas = (weights.lambda1, weights.lambda2, weights.lambda3)
    for grad, want_grad, lam in zip(grads, want_grads, lambdas):
        assert grad.dtype == dtype and (lam != 0.0 or not grad.any())
        np.testing.assert_allclose(grad, want_grad, rtol=0.0,
                                   atol=GRAD_TOL[dtype] * np.abs(want_grad).max())


@pytest.mark.parametrize("name", [*FUSED_AND_COMPOSED, "total"])
def test_each_fused_loss_passes_the_gradient_check(name):
    inputs, out_w = _inputs("experts", "mixed", 11)
    if name == "total":
        terms = [Parameter(x, name) for x in np.random.default_rng(11).uniform(0.1, 2.0, (3, 3))]
        params, f = terms, lambda: total_loss(terms, LossWeights())
    else:
        x, args = inputs[name]
        params = [Parameter(x, "x")]
        f = lambda: ag.sum_along(ag.mul(FUSED_AND_COMPOSED[name][0](params[0], *args), out_w))
    assert gradient_check(f, params) < 1e-4


def test_loss_weights_validate():
    with pytest.raises(ValueError):
        LossWeights(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        LossWeights(0.0, 0.0, 0.0)
