"""Command-line entry points.

Subcommands: gen-data, train, eval, ablate, sweep, gradcheck. Every
command that writes artifacts also writes a manifest.json recording the
config digest, seed, and output checksums. Exit codes: 0 success, 1
validation error, 2 runtime error. Seed precedence: --seed flag, then the
MEDC_SEED environment variable, then the config file.
"""

import argparse
import csv
import datetime
import hashlib
import json
import os
import sys

from . import evaluation
from .config import ConfigError, RunConfig, load_config
from .data import (compute_label_stats, generate_synthetic, read_feature_file,
                   split_records, write_feature_file)
from .model import load_checkpoint
from .training import train
from .verify import composed_objective_gradcheck


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(manifest_path, config_path, seed, output_paths):
    config_sha = _sha256_file(config_path) if config_path else ""
    manifest = {
        "config_sha256": config_sha,
        "seed": seed,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [{"path": os.path.basename(p), "sha256": _sha256_file(p)}
                    for p in sorted(output_paths)],
    }
    with open(manifest_path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _resolve_seed(args, cfg):
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("MEDC_SEED")
    if env is not None:
        return int(env)
    return cfg.seed


def _int_list(text):
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text):
    return [float(x) for x in text.split(",") if x.strip()]


def cmd_gen_data(args):
    cfg = load_config(args.config)
    seed = _resolve_seed(args, cfg)
    records, _ = generate_synthetic(cfg.synthetic_config(seed=seed))
    write_feature_file(args.out, records)
    _write_manifest(args.out + ".manifest.json", args.config, seed, [args.out])
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _load_train_inputs(args, cfg, seed):
    records = read_feature_file(args.data)
    if not records:
        raise ValueError(f"data file {args.data} contains no records")
    return records, cfg.train_config(seed=seed)


def cmd_train(args):
    cfg = load_config(args.config)
    seed = _resolve_seed(args, cfg)
    records, tcfg = _load_train_inputs(args, cfg, seed)
    os.makedirs(args.out, exist_ok=True)
    _, history = train(tcfg, records, out_dir=args.out, resume_from=args.resume)
    loss_csv = os.path.join(args.out, "loss_history.csv")
    with open(loss_csv, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "expert", "term", "value"])
        for epoch, expert, term, value in history:
            w.writerow([epoch, expert, term, repr(value)])
    outputs = [loss_csv] + [os.path.join(args.out, n) for n in os.listdir(args.out)
                            if n.startswith("checkpoint_")]
    _write_manifest(os.path.join(args.out, "manifest.json"), args.config, seed, outputs)
    print(f"trained {tcfg.epochs} epochs; artifacts in {args.out}")
    return 0


def cmd_eval(args):
    model, _ = load_checkpoint(args.checkpoint)
    records = read_feature_file(args.data)
    if not records:
        raise ValueError(f"data file {args.data} contains no records")
    data_C = len(records[0].labels)
    if data_C != model.cfg.C:
        raise ValueError(f"class count mismatch: checkpoint has C={model.cfg.C}, "
                         f"data file has C={data_C}")
    if records[0].features.shape[1] != model.cfg.D:
        raise ValueError(f"feature dim mismatch: checkpoint has D={model.cfg.D}, "
                         f"data file has D={records[0].features.shape[1]}")
    if args.config:
        cfg = load_config(args.config)
        seed = _resolve_seed(args, cfg)
    else:  # the default thresholds of a config that gives none
        cfg, seed = RunConfig({"seed": model.seed}), model.seed
    stats = compute_label_stats(records, cfg.head_threshold, cfg.medium_threshold)
    report = evaluation.evaluate(model, records, stats, seed=seed)
    os.makedirs(args.out, exist_ok=True)
    paths = [os.path.join(args.out, n) for n in
             ("report.json", "metrics.csv", "per_class_ap.csv")]
    evaluation.write_report_json(report, paths[0])
    evaluation.write_metrics_csv(report, paths[1])
    evaluation.write_per_class_csv(report, paths[2])
    _write_manifest(os.path.join(args.out, "manifest.json"), args.config, seed, paths)
    print(f"overall_mAP={report.overall_mAP:.4f} tail_mAP={report.tail_mAP:.4f}")
    return 0


def _select_variants(names):
    if names is None:
        return evaluation.STANDARD_VARIANTS
    by_name = {v[0]: v for v in evaluation.STANDARD_VARIANTS}
    chosen = []
    for name in names.split(","):
        name = name.strip()
        if name not in by_name:
            raise ValueError(f"unknown ablation variant {name!r}; "
                             f"known: {sorted(by_name)}")
        chosen.append(by_name[name])
    return tuple(chosen)


def cmd_ablate(args):
    cfg = load_config(args.config)
    seed = _resolve_seed(args, cfg)
    records, tcfg = _load_train_inputs(args, cfg, seed)
    train_recs, test_recs = split_records(records, cfg.test_fraction, seed)
    stats = compute_label_stats(train_recs, cfg.head_threshold, cfg.medium_threshold)
    variants = _select_variants(args.experts)
    if args.no_temporal_attention and args.experts is not None:
        nta = evaluation.STANDARD_VARIANTS[-1]
        if nta not in variants:
            variants = variants + (nta,)
    seeds = _int_list(args.seeds) if args.seeds else [seed]
    rows = evaluation.ablate(tcfg, train_recs, test_recs, stats, variants, seeds)
    os.makedirs(args.out, exist_ok=True)
    out_csv = os.path.join(args.out, "ablation.csv")
    evaluation.write_ablation_csv(rows, out_csv)
    _write_manifest(os.path.join(args.out, "manifest.json"), args.config, seed, [out_csv])
    print(f"wrote {len(rows)} ablation rows to {out_csv}")
    return 0


def cmd_sweep(args):
    cfg = load_config(args.config)
    seed = _resolve_seed(args, cfg)
    records, tcfg = _load_train_inputs(args, cfg, seed)
    train_recs, test_recs = split_records(records, cfg.test_fraction, seed)
    stats = compute_label_stats(train_recs, cfg.head_threshold, cfg.medium_threshold)
    rows = evaluation.lambda_sweep(tcfg, train_recs, test_recs, stats,
                                   _float_list(args.lambda1), _float_list(args.lambda3))
    os.makedirs(args.out, exist_ok=True)
    out_csv = os.path.join(args.out, "sweep.csv")
    evaluation.write_sweep_csv(rows, out_csv)
    _write_manifest(os.path.join(args.out, "manifest.json"), args.config, seed, [out_csv])
    print(f"wrote {len(rows)} sweep rows to {out_csv}")
    return 0


def cmd_gradcheck(args):
    err = composed_objective_gradcheck(args.seed)
    if err < 1e-4:
        print(f"PASS max_rel_err={err:.3e}")
        return 0
    print(f"FAIL max_rel_err={err:.3e}")
    return 1


def build_parser():
    p = argparse.ArgumentParser(prog="medc",
                                description="Multi-expert distribution-calibrated "
                                            "long-tailed classification over frame features")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic long-tailed feature file")
    g.add_argument("--config", required=True, help="JSON run config")
    g.add_argument("--out", required=True, help="output feature file path")
    g.add_argument("--seed", type=int, help="override config/env seed")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train the multi-expert model")
    t.add_argument("--config", required=True)
    t.add_argument("--data", required=True, help="feature file")
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--resume", help="checkpoint to resume from")
    t.add_argument("--seed", type=int)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a feature file")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--config", help="optional config for group thresholds")
    e.add_argument("--seed", type=int)
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="expert-subset and attention ablation grid")
    a.add_argument("--config", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--experts", help="comma-separated variant names "
                                     "(default: the full 8-variant grid)")
    a.add_argument("--no-temporal-attention", action="store_true",
                   help="include the attention-off variant when --experts is given")
    a.add_argument("--seeds", help="comma-separated training seeds")
    a.add_argument("--out", required=True)
    a.add_argument("--seed", type=int)
    a.set_defaults(func=cmd_ablate)

    s = sub.add_parser("sweep", help="lambda1 x lambda3 sensitivity sweep")
    s.add_argument("--config", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--lambda1", required=True, help="comma-separated values")
    s.add_argument("--lambda3", required=True, help="comma-separated values")
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=int)
    s.set_defaults(func=cmd_sweep)

    c = sub.add_parser("gradcheck", help="finite-difference check of the full objective")
    c.add_argument("--seed", type=int, required=True)
    c.set_defaults(func=cmd_gradcheck)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
