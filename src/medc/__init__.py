"""Multi-expert distribution-calibrated long-tailed classification.

A numpy-based library that models per-class embedding distributions as
Gaussians, estimates their means and variances with a small trainable
network (temporal self-attention over frame features), and trains three
experts under long-tailed, uniform, and inversely long-tailed re-sampling
regimes whose averaged predictions are robust to unknown test-time class
distributions.
"""

__version__ = "0.1.0"

from .autograd import Parameter, Tensor
from .data import (Dataset, LabelStats, SyntheticConfig,
                   compute_label_stats, generate_synthetic, read_feature_file,
                   split_records, write_feature_file, zipf_counts)
from .evaluation import MetricsReport, ablate, average_precision, evaluate, lambda_sweep
from .losses import LossWeights, gamma_targets
from .model import Model, ModelConfig, forward_inference
from .sampling import SamplerSpec, inverse_class_weights, original_weights, \
    sample_batch, uniform_class_weights
from .training import Adam, TrainConfig, train
from .verify import gradient_check
