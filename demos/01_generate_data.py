"""Build a small long-tailed synthetic feature set and look at its shape.

Run: python3 demos/01_generate_data.py
"""

import numpy as np

from medc.data import (SyntheticConfig, compute_label_stats, generate_synthetic,
                       read_feature_file, write_feature_file, zipf_counts)

counts = zipf_counts(C=12, max_count=120, min_count=6)
print("per-class record counts:", counts)

cfg = SyntheticConfig(C=12, D=16, L=4, counts=counts, class_sep=6.0,
                      noise=0.4, temporal_jitter=0.2, multilabel_prob=0.1,
                      seed=42)
records, prototypes = generate_synthetic(cfg)
print(f"generated {len(records)} records, each {cfg.L} frames x {cfg.D} dims")

stats = compute_label_stats(records, head_threshold=60, medium_threshold=20)
for group in ("head", "medium", "tail"):
    classes = [c for c, g in enumerate(stats.groups) if g == group]
    print(f"  {group}: classes {classes}")

multi = int((records.labels.sum(axis=1) > 1).sum())
print(f"{multi} records carry more than one label")

path = "/tmp/medc_demo.medc"
write_feature_file(path, records)
back = read_feature_file(path)
assert back == records
print(f"wrote and re-read {path}: round trip exact")

# within-class spread vs the prototype, for one head and one tail class
for c in (0, 11):
    feats = records.features[records.labels[:, c] == 1].reshape(-1, cfg.D)
    dist = np.linalg.norm(feats.mean(axis=0) - prototypes[c])
    print(f"class {c:2d}: {int(stats.counts[c])} records, "
          f"mean-to-prototype distance {dist:.3f}")
