"""Per-expert re-sampling distributions over the training set.

Three inter-class regimes, one per expert kind: the original long-tailed
distribution, a class-uniform distribution, and an inversely long-tailed
distribution obtained by reversing the sorted label frequencies.
"""

from dataclasses import dataclass

import numpy as np

LONG_TAILED = "long_tailed"
UNIFORM = "uniform"
INVERSE = "inverse"
EXPERT_KINDS = (LONG_TAILED, UNIFORM, INVERSE)


@dataclass
class SamplerSpec:
    """Per-record sampling weights, and their normalized cumulative sum `cdf`."""

    per_sample_weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.per_sample_weights, dtype=np.float64)
        if (w < 0).any():
            raise ValueError("sampler weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"sampler weights sum to {w.sum()}, expected 1")
        self.per_sample_weights = w
        self.cdf = w.cumsum()
        self.cdf /= self.cdf[-1]


def original_weights(n_records):
    """Each record weight 1/N: class probability equals the empirical omega."""
    if n_records < 1:
        raise ValueError("need at least one record")
    return SamplerSpec(np.full(n_records, 1.0 / n_records))


def _per_record_from_class_weights(class_w, labels_per_record):
    # cumsum adds a row's weights one at a time in class order, as np.mean sums fewer than 8
    # values, so a record with fewer than 8 labels gets their mean to the last bit
    labels = np.asarray(labels_per_record, dtype=bool)
    weights = np.cumsum(labels * class_w, axis=1)[:, -1] / labels.sum(axis=1)
    return SamplerSpec(weights / weights.sum())


def uniform_class_weights(stats, labels_per_record):
    """Each class drawn with probability 1/C (single-label case exactly).

    A record of class c gets weight (1/C)/N^(c); multi-label records take
    the mean over their positive labels, then everything is renormalized.
    """
    if (stats.counts == 0).any():
        raise ValueError(f"empty classes: {np.flatnonzero(stats.counts == 0).tolist()}")
    C = len(stats.counts)
    class_w = (1.0 / C) / stats.counts
    return _per_record_from_class_weights(class_w, labels_per_record)


def reversed_frequencies(frequencies):
    """Reverse the sorted order of label frequencies.

    The class at descending-frequency rank r receives the frequency of the
    class at rank C-1-r. Ties are broken by ascending class index before
    reversal, which makes the mapping deterministic.
    """
    freqs = np.asarray(frequencies, dtype=np.float64)
    order = np.lexsort((np.arange(len(freqs)), -freqs))  # descending, ties by index
    rev = np.empty_like(freqs)
    rev[order] = freqs[order[::-1]]
    return rev


def inverse_class_weights(stats, labels_per_record):
    """Sampling proportional to the inversely long-tailed frequencies."""
    if (stats.counts == 0).any():
        raise ValueError(f"empty classes: {np.flatnonzero(stats.counts == 0).tolist()}")
    rev = reversed_frequencies(stats.frequencies)
    class_w = rev / stats.counts
    return _per_record_from_class_weights(class_w, labels_per_record)


def sample_batch(spec, batch_size, rng):
    """i.i.d. draws with replacement from the spec's per-record weights.

    The arithmetic of rng.choice(n, batch_size, p=weights) on the CDF built
    once: the same indices, and the same generator state after.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return spec.cdf.searchsorted(rng.random(batch_size), side="right")
