import numpy as np
import pytest

from medc.data import Dataset, compute_label_stats
from medc.sampling import (SamplerSpec, inverse_class_weights, original_weights,
                           reversed_frequencies, sample_batch,
                           uniform_class_weights)
from medc.seeding import derive_rng


def make_records(counts):
    """A Dataset of counts[c] records of class c alone, each with 1 x 2 features of ones."""
    return Dataset([f"{c}-{j}" for c, n in enumerate(counts) for j in range(n)],
                   np.ones((sum(counts), 1, 2)), np.repeat(np.eye(len(counts)), counts, axis=0))


def stats_for(counts):
    return compute_label_stats(make_records(counts), 5000, 50)


def record_labels(counts):
    return make_records(counts).labels


def test_original_weights_uniform_per_record():
    spec = original_weights(4)
    assert np.array_equal(spec.per_sample_weights, [0.25] * 4)


def test_original_weights_single_pair():
    spec = original_weights(2)
    assert np.array_equal(spec.per_sample_weights, [0.5, 0.5])


def test_original_class_probability_equals_omega():
    counts = [6, 3, 1]
    stats = stats_for(counts)
    spec = original_weights(sum(counts))
    labels = np.array(record_labels(counts))
    class_prob = spec.per_sample_weights @ labels
    assert class_prob == pytest.approx(stats.frequencies)


def test_uniform_weights_hand_case():
    counts = [8, 2]
    spec = uniform_class_weights(stats_for(counts), record_labels(counts))
    assert spec.per_sample_weights[:8] == pytest.approx([0.0625] * 8)
    assert spec.per_sample_weights[8:] == pytest.approx([0.25] * 2)


def test_uniform_weights_balanced_equals_original():
    counts = [5, 5]
    uni = uniform_class_weights(stats_for(counts), record_labels(counts))
    orig = original_weights(10)
    assert uni.per_sample_weights == pytest.approx(orig.per_sample_weights)


def test_uniform_expected_class_frequency():
    counts = [9, 6, 3]
    spec = uniform_class_weights(stats_for(counts), record_labels(counts))
    labels = np.array(record_labels(counts))
    class_prob = spec.per_sample_weights @ labels
    assert class_prob == pytest.approx([1 / 3] * 3)


@pytest.mark.parametrize("builder", [uniform_class_weights, inverse_class_weights])
def test_a_multilabel_records_weight_is_the_mean_over_its_labels(builder):
    # the per-record loop as the reference: up to 7 labels a record, over 12 classes, where
    # the running sum adds the weights in the order the mean of the gathered weights does
    rng = derive_rng(4, "multilabel")
    labels = np.zeros((40, 12), dtype=np.uint8)
    for row in labels:
        row[rng.choice(12, rng.integers(1, 8), replace=False)] = 1
    stats = compute_label_stats(Dataset([str(i) for i in range(40)], np.ones((40, 1, 2)), labels),
                                5000, 50)
    class_w = (reversed_frequencies(stats.frequencies) if builder is inverse_class_weights
               else 1.0 / len(stats.counts)) / stats.counts
    loop = np.array([class_w[np.flatnonzero(row)].mean() for row in labels])
    assert builder(stats, labels).per_sample_weights.tobytes() == (loop / loop.sum()).tobytes()


def test_reversed_frequencies_hand_case():
    rev = reversed_frequencies([500 / 610, 100 / 610, 10 / 610])
    assert rev == pytest.approx([10 / 610, 100 / 610, 500 / 610])


def test_reversed_frequencies_symmetric_fixed_point():
    rev = reversed_frequencies([0.25, 0.25, 0.25, 0.25])
    assert rev == pytest.approx([0.25] * 4)


def test_reversed_frequencies_tie_break_by_index():
    # classes 0 and 1 tie; ranks (0,1,2) reverse to freqs of (2,1,0)
    rev = reversed_frequencies([0.4, 0.4, 0.2])
    assert rev == pytest.approx([0.2, 0.4, 0.4])


def test_inverse_weight_ratio_hand_case():
    counts = [9, 1]
    spec = inverse_class_weights(stats_for(counts), record_labels(counts))
    ratio = spec.per_sample_weights[-1] / spec.per_sample_weights[0]
    assert ratio == pytest.approx(81.0)


def test_sample_batch_point_mass():
    w = np.zeros(5)
    w[3] = 1.0
    spec = SamplerSpec(w)
    batch = sample_batch(spec, 10, derive_rng(0, "s"))
    assert (batch == 3).all()


def test_sample_batch_deterministic():
    spec = original_weights(6)
    b1 = sample_batch(spec, 32, derive_rng(7, "batch"))
    b2 = sample_batch(spec, 32, derive_rng(7, "batch"))
    assert np.array_equal(b1, b2)


@pytest.mark.parametrize("n", [1, 5, 540])
def test_sample_batch_equals_generator_choice(n):
    w = derive_rng(n, "w").uniform(0.0, 1.0, size=n)
    spec = SamplerSpec(w / w.sum())
    ours, theirs = derive_rng(n, "draw"), derive_rng(n, "draw")
    for batch_size in [1, 32, 7] * 100:
        expected = theirs.choice(n, size=batch_size, replace=True, p=spec.per_sample_weights)
        got = sample_batch(spec, batch_size, ours)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_original_sampler_monte_carlo_frequencies():
    counts = [500, 100, 10]
    stats = stats_for(counts)
    spec = original_weights(sum(counts))
    labels = np.array(record_labels(counts))
    idx = sample_batch(spec, 100_000, derive_rng(1, "mc"))
    emp = labels[idx].mean(axis=0)
    assert np.all(np.abs(emp - stats.frequencies) < 0.01)


def test_uniform_sampler_three_sigma_bound():
    counts = [500, 100, 10]
    spec = uniform_class_weights(stats_for(counts), record_labels(counts))
    labels = np.array(record_labels(counts))
    n = 100_000
    idx = sample_batch(spec, n, derive_rng(2, "mc"))
    emp = labels[idx].mean(axis=0)
    bound = 3 * np.sqrt((1 / 3) * (2 / 3) / n)
    assert np.all(np.abs(emp - 1 / 3) < bound)


def test_inverse_sampler_perfectly_anticorrelated():
    counts = [120, 60, 30, 15, 8]
    spec = inverse_class_weights(stats_for(counts), record_labels(counts))
    labels = np.array(record_labels(counts))
    idx = sample_batch(spec, 10_000, derive_rng(3, "mc"))
    emp = labels[idx].mean(axis=0)
    count_ranks = np.argsort(np.argsort(counts))
    emp_ranks = np.argsort(np.argsort(emp))
    rho = np.corrcoef(count_ranks, emp_ranks)[0, 1]
    assert rho == pytest.approx(-1.0)


def test_specs_invariant_to_record_permutation():
    counts = [4, 2, 1]
    stats = stats_for(counts)
    labels = record_labels(counts)
    perm = [3, 0, 6, 1, 5, 2, 4]
    permuted = [labels[i] for i in perm]
    for builder in (uniform_class_weights, inverse_class_weights):
        w = builder(stats, labels).per_sample_weights
        wp = builder(stats, permuted).per_sample_weights
        assert wp == pytest.approx(w[perm])


def test_weights_validate():
    with pytest.raises(ValueError):
        SamplerSpec([0.5, 0.4])
    with pytest.raises(ValueError):
        SamplerSpec([1.5, -0.5])
