import hashlib
import json

import pytest

from medc.cli import main
from medc.config import ConfigError, load_config
from medc.data import read_feature_file, write_feature_file
from medc.model import load_checkpoint, save_checkpoint
from test_model import rewrite_manifest


def write_config(path, **over):
    cfg = {
        "version": 1,
        "seed": 7,
        "data": {"C": 3, "D": 4, "L": 2, "counts": [14, 8, 4],
                 "class_sep": 2.5, "noise": 0.3, "temporal_jitter": 0.1},
        "train": {"learning_rate": 1e-3, "epochs": 2, "batch_size": 8,
                  "d_trunk": 5, "hidden": 5, "d": 4, "checkpoint_every": 0},
        "eval": {"head_threshold": 10, "medium_threshold": 6,
                 "test_fraction": 0.3},
    }
    for key, val in over.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def workspace(tmp_path):
    cfg = write_config(tmp_path / "run.json")
    data = tmp_path / "train.medc"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    return tmp_path, cfg, data


def test_gen_data_writes_records_and_manifest(workspace):
    tmp_path, cfg, data = workspace
    records = read_feature_file(data)
    assert len(records) == 26
    manifest = json.loads((tmp_path / "train.medc.manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()
    (entry,) = manifest["outputs"]
    assert entry["path"] == "train.medc"
    assert entry["sha256"] == hashlib.sha256(data.read_bytes()).hexdigest()


def test_gen_data_writes_the_same_bytes_for_a_config_and_seed(tmp_path):
    # the data section and seed of the CI run's inline config; the digest pins the
    # generator's RNG draw order and the feature file's version-2 bytes
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"version": 1, "seed": 7,
                               "data": {"C": 3, "D": 4, "L": 2, "counts": [14, 8, 4]}}))
    data = tmp_path / "data.medc"
    assert main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    assert hashlib.sha256(data.read_bytes()).hexdigest() == (
        "b7bdb06edcd4052b42d8c1bf77971687493bcb03c53ce9797b082da11e9f164b")


def test_train_then_eval_end_to_end(workspace, capsys):
    tmp_path, cfg, data = workspace
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(run_dir)]) == 0
    ckpt = run_dir / "checkpoint_final.bin"
    assert ckpt.exists()
    assert (run_dir / "loss_history.csv").exists()

    eval_dir = tmp_path / "eval"
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(eval_dir), "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "overall_mAP=" in out
    report = json.loads((eval_dir / "report.json").read_text())
    assert 0.0 <= report["overall_mAP"] <= 1.0
    assert (eval_dir / "metrics.csv").exists()
    assert (eval_dir / "per_class_ap.csv").exists()


def test_repeated_eval_metrics_are_byte_identical(workspace):
    tmp_path, cfg, data = workspace
    run_dir = tmp_path / "run"
    main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run_dir)])
    ckpt = str(run_dir / "checkpoint_final.bin")
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert main(["eval", "--checkpoint", ckpt, "--data", str(data),
                     "--out", str(out), "--config", str(cfg)]) == 0
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_eval_reads_no_seed_and_records_the_checkpoints(workspace, monkeypatch):
    tmp_path, cfg, data = workspace
    run_dir = tmp_path / "run"
    main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run_dir)])
    monkeypatch.setenv("MEDC_SEED", "abc")  # refused by every command that reads it
    for name, config_args in (("with-config", ["--config", str(cfg)]), ("default", [])):
        out = tmp_path / name
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint_final.bin"),
                     "--data", str(data), "--out", str(out)] + config_args) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 7
        assert "seed" not in json.loads((out / "report.json").read_text())


def test_eval_rejects_class_count_mismatch(workspace, tmp_path, capsys):
    ws, cfg, data = workspace
    run_dir = ws / "run"
    main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run_dir)])
    other_cfg = write_config(tmp_path / "other.json", data={"C": 4, "counts": [8, 6, 4, 3]})
    other_data = tmp_path / "other.medc"
    main(["gen-data", "--config", str(other_cfg), "--out", str(other_data)])
    rc = main(["eval", "--checkpoint", str(run_dir / "checkpoint_final.bin"),
               "--data", str(other_data), "--out", str(tmp_path / "e")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "C=3" in err and "C=4" in err


def test_eval_rejects_feature_dim_mismatch(workspace, tmp_path, capsys):
    ws, cfg, data = workspace
    run_dir = ws / "run"
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run_dir)]) == 0
    other_data = tmp_path / "other.medc"
    assert main(["gen-data", "--config", str(write_config(tmp_path / "other.json", data={"D": 5})),
                 "--out", str(other_data)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run_dir / "checkpoint_final.bin"),
                 "--data", str(other_data), "--out", str(tmp_path / "e")]) == 1
    assert ("error: records of D=5, C=3 do not fit the model's D=4, C=3"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["train", "eval"])
def test_an_empty_feature_file_is_refused(workspace, capsys, command):
    tmp_path, cfg, data = workspace
    empty = tmp_path / "empty.medc"
    write_feature_file(empty, read_feature_file(data)[:0])
    if command == "train":
        argv = ["train", "--config", str(cfg), "--data", str(empty), "--out", str(tmp_path / "r")]
    else:
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "run")]) == 0
        argv = ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint_final.bin"),
                "--data", str(empty), "--out", str(tmp_path / "e")]
    capsys.readouterr()
    assert main(argv) == 1
    assert f"error: data file {empty} contains no records" in capsys.readouterr().err


def test_a_repeated_expert_kind_is_refused_in_training(workspace, capsys):
    tmp_path, _, data = workspace
    cfg = write_config(tmp_path / "twice.json", train={"active_experts": ["uniform", "uniform"]})
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith(
        "error: active_experts names the kind 'uniform' twice")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("key,value", [("active_experts", []), ("active_experts", ["bogus"]),
                                       ("active_experts", ["uniform", "uniform"]), ("d", 0)],
                         ids=["no-experts", "unknown-kind", "repeated-kind", "d-zero"])
def test_a_bad_train_setting_is_named_before_the_data_is_read(tmp_path, capsys, command,
                                                              key, value):
    cfg = write_config(tmp_path / "bad.json", train={key: value})
    assert main([command, "--config", str(cfg), "--data", str(tmp_path / "missing.medc"),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} ")
    assert not (tmp_path / "out").exists()


def test_a_checkpoint_with_a_repeated_expert_kind_is_refused(workspace, capsys):
    tmp_path, cfg, data = workspace
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 0
    ckpt = tmp_path / "run" / "checkpoint_final.bin"
    rewrite_manifest(ckpt, lambda m: m["config"].update(experts=["uniform", "uniform"]))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(tmp_path / "e")]) == 1
    assert capsys.readouterr().err.startswith("error: experts names the kind 'uniform' twice")


def test_ablate_rejects_a_repeated_variant(workspace, capsys):
    tmp_path, cfg, data = workspace
    assert main(["ablate", "--config", str(cfg), "--data", str(data),
                 "--experts", "E1,E1", "--out", str(tmp_path / "abl")]) == 1
    assert "--experts names the variant 'E1' twice" in capsys.readouterr().err
    assert not (tmp_path / "abl").exists()


def test_unknown_config_key_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", train={"learningrate": 0.1})
    rc = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x.medc")])
    assert rc == 1
    assert "learningrate" in capsys.readouterr().err


def test_malformed_json_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"seed": 1,\n  "data": }\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(str(bad))
    rc = main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "x.medc")])
    assert rc == 1


def test_missing_config_file_exits_one(tmp_path, capsys):
    rc = main(["gen-data", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "x.medc")])
    assert rc == 1


def test_seed_precedence_flag_env_config(workspace, tmp_path, monkeypatch):
    ws, cfg, _ = workspace

    def gen(seed_args, name):
        out = tmp_path / name
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]
                    + seed_args) == 0
        return out.read_bytes()

    base = gen([], "a.medc")                       # config seed 7
    monkeypatch.setenv("MEDC_SEED", "7")
    assert gen([], "b.medc") == base               # env agrees with config
    monkeypatch.setenv("MEDC_SEED", "99")
    env99 = gen([], "c.medc")
    assert env99 != base                           # env overrides config
    flag99 = gen(["--seed", "99"], "d.medc")
    assert flag99 == env99                         # flag matches same seed
    monkeypatch.setenv("MEDC_SEED", "1234")
    assert gen(["--seed", "99"], "e.medc") == env99  # flag beats env


def test_env_seed_that_is_not_an_integer_is_named(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path / "run.json")
    monkeypatch.setenv("MEDC_SEED", "abc")
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x.medc")]) == 1
    assert "MEDC_SEED must be an integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("batch_size", 0), ("checkpoint_every", -1), ("d", 0),
                                       ("d_trunk", -1), ("hidden", 0)])
def test_a_dimension_or_schedule_setting_below_its_minimum_is_named(workspace, capsys,
                                                                   key, value):
    tmp_path, _, data = workspace
    cfg = write_config(tmp_path / "bad.json", train={key: value})
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be >= ")


@pytest.mark.parametrize("key", ["D", "L"])
def test_a_data_dimension_below_one_is_named(tmp_path, capsys, key):
    cfg = write_config(tmp_path / "run.json", data={key: 0})
    assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x.medc")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be >= 1, got 0")
    assert "record" not in err


@pytest.mark.parametrize("section,key,value", [
    ("train", "learning_rate", float("nan")),
    ("train", "lambda3", float("inf")),
    ("data", "class_sep", float("inf")),
    ("data", "noise", float("nan")),
], ids=["learning_rate-NaN", "lambda3-Infinity", "class_sep-Infinity", "noise-NaN"])
def test_a_non_finite_setting_is_named(workspace, capsys, section, key, value):
    tmp_path, _, data = workspace
    cfg = write_config(tmp_path / "bad.json", **{section: {key: value}})
    assert ("NaN" if value != value else "Infinity") in cfg.read_text()   # as json.load reads it
    if section == "data":
        argv = ["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x.medc")]
    else:
        argv = ["train", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "run")]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be finite, got {value}")


@pytest.mark.parametrize("source", ["flag", "env", "config", "gradcheck"])
def test_a_negative_seed_is_named(workspace, monkeypatch, capsys, source):
    tmp_path, cfg, data = workspace
    argv = ["train", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "run")]
    if source == "flag":
        argv, value = argv + ["--seed", "-1"], -1
    elif source == "env":
        monkeypatch.setenv("MEDC_SEED", "-3")
        value = -3
    elif source == "config":
        argv[2], value = str(write_config(tmp_path / "neg.json", seed=-5)), -5
    else:
        argv, value = ["gradcheck", "--seed", "-1"], -1
    assert main(argv) == 1
    assert f"seed must be a non-negative integer, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,named", [
    (["ablate", "--seeds", "0,x"], "--seeds item 'x'"),
    (["sweep", "--lambda1", "0.8,y", "--lambda3", "0.4"], "--lambda1 item 'y'"),
    (["sweep", "--lambda1", "0.8", "--lambda3", "z"], "--lambda3 item 'z'"),
], ids=["seeds", "lambda1", "lambda3"])
def test_a_bad_item_of_a_list_flag_is_named(tmp_path, capsys, argv, named):
    paths = ["--config", str(tmp_path / "run.json"), "--data", str(tmp_path / "train.medc"),
             "--out", str(tmp_path / "out")]
    assert main(argv + paths) == 1
    assert named in capsys.readouterr().err


def test_ablate_subset_and_csv(workspace):
    tmp_path, cfg, data = workspace
    cfg1 = write_config(tmp_path / "fast.json", train={"epochs": 1})
    out = tmp_path / "abl"
    assert main(["ablate", "--config", str(cfg1), "--data", str(data),
                 "--experts", "E1,MEDC,No-Temporal-Attention", "--out", str(out)]) == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].startswith("E1,") and lines[2].startswith("MEDC,")
    assert lines[3].startswith("No-Temporal-Attention,")


def test_ablate_rejects_unknown_variant(workspace, capsys):
    tmp_path, cfg, data = workspace
    rc = main(["ablate", "--config", str(cfg), "--data", str(data),
               "--experts", "E9", "--out", str(tmp_path / "abl")])
    assert rc == 1
    assert "E9" in capsys.readouterr().err


def test_sweep_single_point(workspace):
    tmp_path, cfg, data = workspace
    cfg1 = write_config(tmp_path / "fast.json", train={"epochs": 1})
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg1), "--data", str(data),
                 "--lambda1", "0.8", "--lambda3", "0.4", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "lambda1,lambda3,overall_mAP"
    assert len(lines) == 2


def test_gradcheck_command_passes(capsys):
    assert main(["gradcheck", "--seed", "3"]) == 0
    assert capsys.readouterr().out.startswith("PASS")


def test_train_resume_from_checkpoint(workspace):
    tmp_path, cfg, data = workspace
    cfg4 = write_config(tmp_path / "c4.json",
                        train={"epochs": 4, "checkpoint_every": 2})
    full = tmp_path / "full"
    assert main(["train", "--config", str(cfg4), "--data", str(data),
                 "--out", str(full)]) == 0
    resumed = tmp_path / "resumed"
    assert main(["train", "--config", str(cfg4), "--data", str(data),
                 "--out", str(resumed),
                 "--resume", str(full / "checkpoint_epoch0002.bin")]) == 0
    assert (resumed / "checkpoint_final.bin").read_bytes() == \
        (full / "checkpoint_final.bin").read_bytes()


@pytest.mark.parametrize("train_over,reason", [
    ({"epochs": 1}, "holds 3 epochs, past this run's epochs=1"),
    ({"batch_size": 4}, "batch_size=8, this run needs batch_size=4"),
], ids=["past_the_end", "other_setting"])
def test_a_refused_resume_leaves_no_output_directory(workspace, capsys, train_over, reason):
    tmp_path, _, data = workspace
    cfg3 = write_config(tmp_path / "c3.json", train={"epochs": 3})
    full = tmp_path / "full"
    assert main(["train", "--config", str(cfg3), "--data", str(data), "--out", str(full)]) == 0
    other = write_config(tmp_path / "other.json", train={"epochs": 3, **train_over})
    new = tmp_path / "new"
    assert main(["train", "--config", str(other), "--data", str(data), "--out", str(new),
                 "--resume", str(full / "checkpoint_final.bin")]) == 1
    assert reason in capsys.readouterr().err
    assert not new.exists()


@pytest.mark.parametrize("key,value", [
    ("epoch", "1"), ("epoch", -3), ("adam.t", "x"), ("adam.t", -1), ("history", [[1]]),
    ("history", 5), ("run", []), ("adam.m", None),
], ids=["epoch-string", "epoch-negative", "adam-t-string", "adam-t-negative", "history-short-row",
        "history-number", "run-list", "no-adam-moment"])
def test_resume_refuses_a_damaged_run_record_by_name(workspace, capsys, key, value):
    tmp_path, _, data = workspace
    cfg = write_config(tmp_path / "c2.json", train={"epochs": 2, "checkpoint_every": 1})
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(run)]) == 0
    path = run / "checkpoint_epoch0001.bin"
    model, extra = load_checkpoint(path)
    extra[key] = value
    if value is None:  # the entry is lacking
        del extra[key]
    save_checkpoint(path, model, extra)
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "new"),
                 "--resume", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err, err
    assert not (tmp_path / "new").exists()


def test_train_manifest_lists_only_this_runs_checkpoints(workspace):
    tmp_path, _, data = workspace
    out = tmp_path / "run"
    # (epochs, checkpoint_every, resume from, files this run writes)
    runs = [(2, 1, None, ["checkpoint_epoch0001.bin", "checkpoint_final.bin"]),
            (2, 0, None, ["checkpoint_final.bin"]),
            (2, 1, "checkpoint_epoch0001.bin", ["checkpoint_final.bin"]),
            (4, 1, "checkpoint_final.bin", ["checkpoint_epoch0003.bin", "checkpoint_final.bin"])]
    for i, (epochs, every, resume, written) in enumerate(runs):
        cfg = write_config(tmp_path / f"run{i}.json",
                           train={"epochs": epochs, "checkpoint_every": every})
        assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)]
                    + (["--resume", str(out / resume)] if resume else [])) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(e["path"] for e in manifest["outputs"]) == written + ["loss_history.csv"]


def test_config_zipf_counts(tmp_path):
    cfg = write_config(tmp_path / "z.json")
    raw = json.loads(cfg.read_text())
    del raw["data"]["counts"]
    raw["data"]["zipf"] = {"max_count": 20, "min_count": 2}
    cfg.write_text(json.dumps(raw))
    sc = load_config(str(cfg)).synthetic_config(seed=7)
    assert sc.counts == [20, 10, 7]


def test_config_rejects_counts_and_zipf_together(tmp_path):
    cfg = write_config(tmp_path / "z.json", data={"zipf": {"max_count": 20}})
    with pytest.raises(ConfigError, match="not both"):
        load_config(str(cfg)).synthetic_config(seed=7)
