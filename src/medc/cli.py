"""Command-line entry points.

Subcommands: gen-data, train, eval, ablate, sweep, gradcheck. Every
command that writes artifacts also writes a manifest.json recording the
config digest, seed, and output checksums. Exit codes: 0 success, 1
validation error, 2 runtime error. The seed of gen-data, train, ablate and
sweep resolves as: --seed flag, then the MEDC_SEED environment variable,
then the config file. eval takes no seed; its manifest records the seed the
checkpoint's model was built with.
"""

import argparse
import datetime
import hashlib
import json
import os
import sys

from . import evaluation
from .config import ConfigError, load_config
from .data import (atomic_write, compute_label_stats, generate_synthetic, read_feature_file,
                   split_records, write_feature_file)
from .model import load_checkpoint, read_checkpoint_manifest
from .training import checkpoint_names, train
from .verify import composed_objective_gradcheck


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, obj):
    atomic_write(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()])


def _finish(manifest_path, config_path, seed, output_paths, message):
    """Write the manifest of a command's outputs, print its message, and return 0."""
    config_sha = _sha256_file(config_path) if config_path else ""
    manifest = {
        "config_sha256": config_sha,
        "seed": seed,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": [{"path": os.path.basename(p), "sha256": _sha256_file(p)}
                    for p in sorted(output_paths)],
    }
    _write_json(manifest_path, manifest)
    print(message)
    return 0


def _resolve_seed(args, cfg):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MEDC_SEED")
    if env is None:
        return cfg.seed
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"environment variable MEDC_SEED must be an integer, "
                          f"got {env!r}") from None


def _values(flag, text, kind):
    """The comma-separated values of `flag`, each converted by `kind`; a bad item is named."""
    values = []
    for item in filter(None, (x.strip() for x in text.split(","))):
        try:
            values.append(kind(item))
        except ValueError:
            raise ConfigError(f"{flag} item {item!r} is not a valid {kind.__name__}") from None
    return values


def cmd_gen_data(args):
    cfg = load_config(args.config)
    seed = _resolve_seed(args, cfg)
    records, _ = generate_synthetic(cfg.synthetic_config(seed=seed))
    write_feature_file(args.out, records)
    return _finish(args.out + ".manifest.json", args.config, seed, [args.out],
                   f"wrote {len(records)} records to {args.out}")


def _read_records(path):
    """The Dataset of the feature file at path; a file with no records is refused."""
    records = read_feature_file(path)
    if not records:
        raise ValueError(f"data file {path} contains no records")
    return records


def cmd_train(args):
    cfg = load_config(args.config)
    seed = _resolve_seed(args, cfg)
    records, tcfg = _read_records(args.data), cfg.train_config(seed=seed)
    # read before train(), which may overwrite the checkpoint it resumes from
    resumed = read_checkpoint_manifest(args.resume)["extra"] if args.resume else {}
    _, history = train(tcfg, records, out_dir=args.out, resume_from=args.resume)
    loss_csv = os.path.join(args.out, "loss_history.csv")
    evaluation.write_csv(loss_csv, ("epoch", "expert", "term", "value"), history)
    outputs = [loss_csv] + [os.path.join(args.out, name) for name in
                            checkpoint_names(tcfg, resumed.get("epoch", 0)).values()]
    return _finish(os.path.join(args.out, "manifest.json"), args.config, seed, outputs,
                   f"trained {tcfg.epochs} epochs; artifacts in {args.out}")


def cmd_eval(args):
    model, _ = load_checkpoint(args.checkpoint)
    records = _read_records(args.data)
    if args.config:
        cfg = load_config(args.config)
        stats = compute_label_stats(records, cfg.head_threshold, cfg.medium_threshold)
    else:
        stats = compute_label_stats(records)
    report = evaluation.evaluate(model, records, stats)
    os.makedirs(args.out, exist_ok=True)
    paths = [os.path.join(args.out, n) for n in
             ("report.json", "metrics.csv", "per_class_ap.csv")]
    _write_json(paths[0], report.to_dict())
    evaluation.write_csv(paths[1], ("metric", "value"), report.metric_rows())
    evaluation.write_csv(paths[2], ("class", "AP"), sorted(report.per_class_AP.items()))
    return _finish(os.path.join(args.out, "manifest.json"), args.config, model.seed, paths,
                   f"overall_mAP={report.overall_mAP:.4f} tail_mAP={report.tail_mAP:.4f}")


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
        if by_name[name] in chosen:
            raise ValueError(f"--experts names the variant {name!r} twice")
        chosen.append(by_name[name])
    return tuple(chosen)


def _experiment(args, name, header, run):
    """Train and evaluate a grid on the config's split of --data, one CSV row per point.

    run(inputs) returns the rows, where inputs are the train config (with
    the run's seed), the train Dataset, the test Dataset and the train
    set's label stats.
    """
    cfg = load_config(args.config)
    seed = _resolve_seed(args, cfg)
    tcfg = cfg.train_config(seed=seed)
    # no name keeps the file's Dataset, so the split's two copies are the only features held
    train_recs, test_recs = split_records(_read_records(args.data), cfg.test_fraction, seed)
    stats = compute_label_stats(train_recs, cfg.head_threshold, cfg.medium_threshold)
    rows = run((tcfg, train_recs, test_recs, stats))
    os.makedirs(args.out, exist_ok=True)
    out_csv = os.path.join(args.out, f"{name}.csv")
    evaluation.write_csv(out_csv, header, [[row[k] for k in header] for row in rows])
    return _finish(os.path.join(args.out, "manifest.json"), args.config, seed, [out_csv],
                   f"wrote {len(rows)} {name} rows to {out_csv}")


def cmd_ablate(args):
    variants = _select_variants(args.experts)
    seeds = _values("--seeds", args.seeds, int) if args.seeds else None
    return _experiment(args, "ablation", ("variant",) + evaluation.METRIC_COLUMNS,
                       lambda inputs: evaluation.ablate(
                           *inputs, variants, [inputs[0].seed] if seeds is None else seeds))


def cmd_sweep(args):
    grids = (_values("--lambda1", args.lambda1, float),
             _values("--lambda3", args.lambda3, float))
    return _experiment(args, "sweep", ("lambda1", "lambda3", "overall_mAP"),
                       lambda inputs: evaluation.lambda_sweep(*inputs, *grids))


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
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="expert-subset and attention ablation grid")
    a.add_argument("--config", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--experts", help="comma-separated variant names, among them "
                                     "No-Temporal-Attention (default: all 8 variants)")
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
