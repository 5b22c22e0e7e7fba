"""Train the three-expert model on long-tailed data and evaluate by group.

Each expert sees the data through a different sampler (original, class
uniform, inversely long-tailed) and calibrates its embedding variances to
a matching per-class target. Inference averages the three probability
vectors.

Run: python3 demos/02_train_and_evaluate.py   (about a second on a 2-vCPU VM)
"""

from medc.data import (SyntheticConfig, compute_label_stats, generate_synthetic,
                       split_records, zipf_counts)
from medc.evaluation import evaluate
from medc.training import TrainConfig, train

counts = zipf_counts(C=12, max_count=120, min_count=6)
data_cfg = SyntheticConfig(C=12, D=16, L=4, counts=counts, class_sep=6.0,
                           noise=0.4, temporal_jitter=0.2, seed=42)
records, _ = generate_synthetic(data_cfg)
train_recs, test_recs = split_records(records, test_fraction=0.25, seed=42)
stats = compute_label_stats(train_recs, head_threshold=60, medium_threshold=20)
print(f"{len(train_recs)} train / {len(test_recs)} test records")

cfg = TrainConfig(learning_rate=1e-3, epochs=40, batch_size=32,
                  d_trunk=24, hidden=24, d=12, seed=0,
                  head_threshold=60, medium_threshold=20, checkpoint_every=0)
model, history = train(cfg, train_recs)

print("\nper-class variance targets:")
for kind in cfg.active_experts:
    g = model.heads[kind].gamma
    print(f"  {kind:12s} gamma[0]={g[0]:.3f} gamma[-1]={g[-1]:.3f}")

print("\nclassification loss over training (long-tailed expert):")
cls = [v for (e, k, t, v) in history
       if k == "long_tailed" and t == "classification"]
for epoch in (0, len(cls) // 2, len(cls) - 1):
    print(f"  epoch {epoch:3d}: {cls[epoch]:.4f}")

report = evaluate(model, test_recs, stats)
print(f"\noverall mAP {report.overall_mAP:.3f}")
print(f"   head mAP {report.head_mAP:.3f}")
print(f" medium mAP {report.medium_mAP:.3f}")
print(f"   tail mAP {report.tail_mAP:.3f}")
print(f"      acc@1 {report.acc_at_1:.3f}, acc@5 {report.acc_at_5:.3f}")
