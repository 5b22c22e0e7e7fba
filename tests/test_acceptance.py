"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line for its criterion (visible even under
pytest's output capture) and then asserts it.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from medc import autograd as ag
from medc.cli import main
from medc.data import (FeatureFileError, SyntheticConfig, compute_label_stats,
                       generate_synthetic, read_feature_file, split_records,
                       write_feature_file, zipf_counts)
from medc.evaluation import average_precision, evaluate
from medc.losses import variance_region_loss
from medc.model import (Model, ModelConfig, estimate_mean, estimate_variance,
                        reparameterize, trunk_forward)
from medc.sampling import (inverse_class_weights, sample_batch,
                           uniform_class_weights)
from medc.seeding import derive_rng
from medc.training import Adam, TrainConfig, train
from medc.verify import composed_objective_gradcheck

from test_evaluation import reference_ap
from test_model import expert_slice
from test_sampling import make_records, record_labels, stats_for


def report(capsys, number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"criterion {number} ({name}): {status} ({detail})")
    assert passed, f"criterion {number} ({name}): {detail}"


def test_criterion_1_gradient_correctness(capsys):
    t0 = time.time()
    errs = [composed_objective_gradcheck(seed) for seed in range(10)]
    elapsed = time.time() - t0
    worst = max(errs)
    report(capsys, 1, "gradient correctness", worst < 1e-4 and elapsed < 60,
           f"max_rel_err={worst:.2e} over 10 seeds, {elapsed:.1f}s")


def test_criterion_2_sampler_fidelity(capsys):
    counts = [500, 100, 10]
    stats = stats_for(counts)
    labels = np.array(record_labels(counts))
    n = 100_000
    spec = uniform_class_weights(stats, make_records(counts).labels)
    idx = sample_batch(spec, n, derive_rng(0, "acceptance", "uniform"))
    emp = labels[idx].mean(axis=0)
    bound = 3 * np.sqrt((1 / 3) * (2 / 3) / n)
    uniform_ok = np.all(np.abs(emp - 1 / 3) < bound)

    counts5 = [160, 80, 40, 20, 10]
    spec5 = inverse_class_weights(stats_for(counts5), record_labels(counts5))
    labels5 = np.array(record_labels(counts5))
    idx5 = sample_batch(spec5, n, derive_rng(0, "acceptance", "inverse"))
    emp5 = labels5[idx5].mean(axis=0)
    rho = np.corrcoef(np.argsort(np.argsort(counts5)),
                      np.argsort(np.argsort(emp5)))[0, 1]
    report(capsys, 2, "sampler fidelity",
           bool(uniform_ok) and abs(rho + 1.0) < 1e-12,
           f"uniform max dev={np.abs(emp - 1 / 3).max():.4f} "
           f"(3-sigma bound {bound:.4f}), inverse Spearman rho={rho:.1f}")


def test_criterion_3_reparameterization_statistics(capsys):
    n = 100_000
    mu = ag.Tensor(np.zeros((n, 1)))
    sigma = ag.Tensor(np.ones((n, 1)))
    eps = derive_rng(0, "acceptance", "reparam").standard_normal(mu.shape)
    z = reparameterize(mu, sigma, eps).data
    mean, std = float(z.mean()), float(z.std())
    ok = abs(mean) < 0.0095 and 0.99 <= std <= 1.01
    report(capsys, 3, "reparameterization statistics", ok,
           f"mean={mean:+.5f} (|.|<0.0095), std={std:.5f} (in [0.99, 1.01])")


def test_criterion_4_variance_calibration(capsys):
    rng = derive_rng(0, "acceptance", "calibration")
    C, D, L, B = 2, 6, 4, 8
    X = rng.uniform(-1, 1, size=(B, L, D))
    labels = np.zeros((B, C), dtype=int)
    labels[: B // 2, 0] = 1
    labels[B // 2:, 1] = 1
    gamma = np.array([0.9, 0.1])

    model = Model(ModelConfig(D=D, C=C, d_trunk=6, hidden=8, d=8,
                              experts=("long_tailed",)), seed=0)
    model.heads["long_tailed"].gamma = gamma
    params = [p for role, p in model.stacked_heads.items()
              if role.startswith(("phi_var.", "f_"))]  # everything else stays frozen
    adam = Adam(params)
    for _ in range(500):
        for p in params:
            p.zero_grad()
        head = expert_slice(model, "long_tailed")
        H0 = trunk_forward(X, model.trunk)
        mu = estimate_mean(H0, head)
        sigma = estimate_variance(H0, mu, head)
        loss = ag.mul(variance_region_loss(sigma, labels, gamma), 0.4)
        loss.backward()
        adam.step(0.01)

    sq = sigma.data ** 2
    mean0 = float(sq[: B // 2].mean())
    mean1 = float(sq[B // 2:].mean())
    ok = abs(mean0 - 0.9) < 0.05 and abs(mean1 - 0.1) < 0.05
    report(capsys, 4, "variance calibration", ok,
           f"class means sigma^2=({mean0:.3f}, {mean1:.3f}) vs targets (0.9, 0.1)")


def test_criterion_5_ap_oracle_equivalence(capsys):
    hand = average_precision([0.9, 0.8, 0.7], [1, 0, 1])
    hand_ok = abs(hand - 5.0 / 6.0) <= 1e-9

    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        scores = rng.choice(np.linspace(0.0, 1.0, 5), size=n)
        pos = rng.random(n) < 0.5
        pos[int(rng.integers(0, n))] = True
        got = average_precision(scores, pos)
        ref = reference_ap(scores.tolist(), pos.tolist())
        worst = max(worst, abs(got - ref))
    report(capsys, 5, "AP oracle equivalence", hand_ok and worst <= 1e-12,
           f"hand case={hand:.6f}, max |diff| vs oracle={worst:.1e} over 1000 instances")


def test_criterion_6_synthetic_long_tailed_trend(capsys):
    t0 = time.time()
    counts = zipf_counts(20, 200, min_count=5)
    data_cfg = SyntheticConfig(C=20, D=32, L=8, counts=counts, class_sep=12.0,
                               noise=0.3, temporal_jitter=0.3, seed=100)
    records, _ = generate_synthetic(data_cfg)
    train_recs, test_recs = split_records(records, 0.25, seed=100)
    stats = compute_label_stats(train_recs, 60, 20)

    def run(seed, experts):
        cfg = TrainConfig(learning_rate=1e-3, epochs=60, batch_size=32,
                          d_trunk=32, hidden=32, d=16, seed=seed,
                          active_experts=experts, head_threshold=60,
                          medium_threshold=20, checkpoint_every=0)
        model, _ = train(cfg, train_recs)
        return evaluate(model, test_recs, stats)

    singles = {"E1": ("long_tailed",), "E2": ("uniform",), "E3": ("inverse",)}
    tail_wins = overall_wins = 0
    e1_tails = []
    for seed in range(5):
        reps = {name: run(seed, experts) for name, experts in singles.items()}
        medc = run(seed, ("long_tailed", "uniform", "inverse"))
        e1_tails.append(reps["E1"].tail_mAP)
        if all(medc.tail_mAP >= r.tail_mAP for r in reps.values()):
            tail_wins += 1
        if medc.overall_mAP >= reps["E1"].overall_mAP:
            overall_wins += 1
    elapsed = time.time() - t0
    e1_tail = float(np.mean(e1_tails))
    ok = (tail_wins >= 4 and overall_wins >= 4 and 0.3 <= e1_tail <= 0.7
          and elapsed < 15 * 60)
    report(capsys, 6, "synthetic long-tailed trend", ok,
           f"tail wins {tail_wins}/5, overall wins {overall_wins}/5, "
           f"single-expert tail mAP={e1_tail:.3f} (band [0.3, 0.7]), {elapsed:.0f}s")


def _small_cli_config(path, epochs=1):
    cfg = {
        "version": 1,
        "seed": 11,
        "data": {"C": 3, "D": 4, "L": 2, "counts": [14, 8, 4],
                 "class_sep": 2.5, "noise": 0.3, "temporal_jitter": 0.1},
        "train": {"learning_rate": 1e-3, "epochs": epochs, "batch_size": 8,
                  "d_trunk": 5, "hidden": 5, "d": 4, "checkpoint_every": 0},
        "eval": {"head_threshold": 10, "medium_threshold": 6,
                 "test_fraction": 0.3},
    }
    path.write_text(json.dumps(cfg))
    return path


def test_criterion_7_ablation_harness_shape(capsys, tmp_path):
    cfg = _small_cli_config(tmp_path / "run.json")
    data = tmp_path / "train.medc"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    out = tmp_path / "abl"
    rc = main(["ablate", "--config", str(cfg), "--data", str(data),
               "--out", str(out)])
    lines = (out / "ablation.csv").read_text().splitlines()
    header = lines[0].split(",")
    body = [line.split(",") for line in lines[1:]]
    populated = all(len(row) == 7 and all(cell for cell in row) for row in body)
    ok = rc == 0 and len(body) == 8 and len(header) == 7 and populated
    report(capsys, 7, "ablation harness shape", ok,
           f"{len(body)} rows x {len(header) - 1} metric columns, all populated")


def test_criterion_8_determinism(capsys, tmp_path):
    cfg = _small_cli_config(tmp_path / "run.json", epochs=2)
    data = tmp_path / "train.medc"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    digests = []
    for tag in ("a", "b"):
        run_dir = tmp_path / f"run_{tag}"
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(run_dir)]) == 0
        eval_dir = tmp_path / f"eval_{tag}"
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint_final.bin"),
                     "--data", str(data), "--out", str(eval_dir),
                     "--config", str(cfg)]) == 0
        blob = (eval_dir / "metrics.csv").read_bytes()
        digests.append(hashlib.sha256(blob).hexdigest())
    ok = digests[0] == digests[1]
    report(capsys, 8, "determinism", ok,
           f"metrics.csv sha256 run A == run B: {ok}")


def test_criterion_9_file_format_roundtrip(capsys, tmp_path):
    counts = zipf_counts(10, 400, min_count=20)
    cfg = SyntheticConfig(C=10, D=8, L=3, counts=counts, class_sep=3.0,
                          noise=0.4, temporal_jitter=0.2, multilabel_prob=0.2,
                          seed=21)
    records, _ = generate_synthetic(cfg)
    assert len(records) >= 1000
    records = records[:1000]
    path = tmp_path / "ds.medc"
    write_feature_file(path, records)
    back = read_feature_file(path)
    exact = back == records

    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    bad_magic = tmp_path / "bad.medc"
    bad_magic.write_bytes(bytes(blob))
    with pytest.raises(FeatureFileError, match="magic"):
        read_feature_file(bad_magic)
    truncated = tmp_path / "trunc.medc"
    truncated.write_bytes(path.read_bytes()[:-11])
    with pytest.raises(FeatureFileError, match="byte offset"):
        read_feature_file(truncated)
    report(capsys, 9, "file-format round-trip", exact,
           f"1000-record round trip exact: {exact}; corrupt files rejected "
           "with diagnostics")
