"""Compare expert subsets on the same long-tailed split.

The single long-tailed expert does well on head classes and poorly on the
tail; the uniform and inverse experts trade that off the other way. The
averaged ensemble should match or beat each single expert on the tail.

Run: python3 demos/03_expert_ablation.py   (about 7 s on a 2-vCPU VM)
"""

from medc.data import (SyntheticConfig, compute_label_stats, generate_synthetic,
                       split_records, zipf_counts)
from medc.evaluation import ablate
from medc.training import TrainConfig

counts = zipf_counts(C=12, max_count=120, min_count=6)
data_cfg = SyntheticConfig(C=12, D=16, L=4, counts=counts, class_sep=6.0,
                           noise=0.4, temporal_jitter=0.2, seed=42)
records, _ = generate_synthetic(data_cfg)
train_recs, test_recs = split_records(records, test_fraction=0.25, seed=42)
stats = compute_label_stats(train_recs, head_threshold=60, medium_threshold=20)

cfg = TrainConfig(learning_rate=1e-3, epochs=40, batch_size=32,
                  d_trunk=24, hidden=24, d=12,
                  head_threshold=60, medium_threshold=20, checkpoint_every=0)

variants = (
    ("E1 (long-tailed)", ("long_tailed",), True),
    ("E2 (uniform)", ("uniform",), True),
    ("E3 (inverse)", ("inverse",), True),
    ("all three", ("long_tailed", "uniform", "inverse"), True),
    ("all, no attention", ("long_tailed", "uniform", "inverse"), False),
)
rows = ablate(cfg, train_recs, test_recs, stats, variants=variants, seeds=(0, 1))

print(f"{'variant':20s} {'overall':>8s} {'head':>7s} {'medium':>7s} {'tail':>7s}")
for row in rows:
    print(f"{row['variant']:20s} {row['overall_mAP']:8.3f} {row['head_mAP']:7.3f} "
          f"{row['medium_mAP']:7.3f} {row['tail_mAP']:7.3f}")
