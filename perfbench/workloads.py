"""The four benchmark workloads, each driving the medc library in-process.

A workload builds its inputs from the benchmark seed in ``setup()``, then
``op(i)`` performs one closed-loop operation on input ``key(i)`` and returns
an ``OpResult``. Library functions are always looked up through their module
(``training.train``, ``evaluation.evaluate``, ...) so that a traced run sees
the wrappers installed by ``spans.Tracer``.

Why each workload exists is written down in README.md next to this file.
"""

import hashlib
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from medc import data, evaluation, losses, model, training, verify

clock = time.perf_counter


@dataclass
class OpResult:
    items: int            # work items done in the timed part
    seconds: float        # wall seconds of the timed part
    output: str           # canonical JSON of the results, compared across repeats
    checks: list          # (what, ok, detail), one per checked operation
    timings: dict = field(default_factory=dict)   # named parts of the op, seconds
    info: dict = field(default_factory=dict)      # other facts (mAPs, bytes)


def _check(what, ok, detail=""):
    return (what, bool(ok), detail)


def _epoch_checks(history):
    """One check per epoch: every loss term of every expert is finite."""
    by_epoch = {}
    for epoch, kind, term, value in history:
        by_epoch.setdefault(epoch, []).append(value)
    return [_check(f"epoch {e} loss terms finite", all(math.isfinite(v) for v in vals),
                   f"{vals}") for e, vals in sorted(by_epoch.items())]


def _param_bytes(m):
    return [(p.name, p.data.tobytes()) for p in m.parameters()]


def _roundtrip_check(saved, path):
    """load_checkpoint(path) must give bit-identical parameters and gammas."""
    loaded, _ = model.load_checkpoint(path)
    same = (_param_bytes(loaded) == _param_bytes(saved)
            and all(loaded.heads[k].gamma.tobytes() == saved.heads[k].gamma.tobytes()
                    for k in saved.cfg.experts))
    return _check("checkpoint round trip bit-identical", same, path)


def _report_check(report):
    values = [report.overall_mAP, report.acc_at_1, report.acc_at_5]
    return _check("evaluate metrics finite and in [0, 1]",
                  all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values),
                  f"{values}")


def _scores_check(m, records, stats, report):
    """Scores behind an evaluate() call are finite, in [0, 1], and give its report."""
    scores, labels = evaluation.score_records(m, records)
    ok = bool(np.isfinite(scores).all() and (scores >= 0).all() and (scores <= 1).all())
    again = evaluation.metrics_from_scores(scores, labels, stats.groups)
    return _check("scores finite and in [0, 1]",
                  ok and json.dumps(again.to_dict()) == json.dumps(report.to_dict()),
                  f"min={scores.min()!r} max={scores.max()!r}")


def _digest(m):
    h = hashlib.sha256()
    for _, raw in _param_bytes(m):
        h.update(raw)
    return h.hexdigest()


class Workload:
    name = ""
    item = ""            # what items_per_s counts
    trace_ops = 1        # operations per phase in a traced run
    scope = unit = ""    # autograd.op_calls counts ops inside `scope` spans per `unit` span

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def key(self, i):
        """The input operation i works on; equal keys must give equal outputs."""
        return 0

    def warmup(self):
        """One untimed operation; its result is checked when returned."""
        return self.op(0, first=True)


class Train3Small(Workload):
    """train() with all three experts at the criterion-6 shapes, then evaluate()."""

    name = "train3_small"
    item = "expert-sample"
    trace_ops = 4
    scope, unit = "training.train_epoch", "training.Adam.step"
    epochs = 4

    def setup(self):
        counts = data.zipf_counts(20, 200, min_count=5)
        cfg = data.SyntheticConfig(C=20, D=32, L=8, counts=counts, class_sep=12.0,
                                   noise=0.3, temporal_jitter=0.3, seed=self.seed)
        records, _ = data.generate_synthetic(cfg)
        self.train_records, self.test_records = data.split_records(records, 0.25, self.seed)
        self.stats = data.compute_label_stats(self.train_records, 60, 20)
        self.cfg = training.TrainConfig(learning_rate=1e-3, epochs=self.epochs, batch_size=32,
                                        d_trunk=32, hidden=32, d=16, seed=self.seed,
                                        head_threshold=60, medium_threshold=20,
                                        checkpoint_every=1)
        steps = -(-len(self.train_records) // self.cfg.batch_size)
        self.samples = self.cfg.batch_size * len(self.cfg.active_experts) * steps * self.epochs

    def op(self, i, first=False):
        out_dir = tempfile.mkdtemp(prefix="ckpt-", dir=self.workdir)
        try:
            t0 = clock()
            m, history = training.train(self.cfg, self.train_records, out_dir=out_dir)
            t1 = clock()
            report = evaluation.evaluate(m, self.test_records, self.stats)
            final = os.path.join(out_dir, "checkpoint_final.bin")
            checks = _epoch_checks(history) + [_roundtrip_check(m, final), _report_check(report)]
            if first:
                checks.append(_scores_check(m, self.test_records, self.stats, report))
            size = os.path.getsize(final)
        finally:
            shutil.rmtree(out_dir)
        output = json.dumps({"history": history, "report": report.to_dict()})
        return OpResult(self.samples, t1 - t0, output, checks,
                        info={"overall_mAP": report.overall_mAP, "tail_mAP": report.tail_mAP,
                              "checkpoint_bytes": size})

    def report(self, ops):
        return [("train_samples_per_s", _median(o.items / o.seconds for o in ops), "1/s",
                 f"median of {len(ops)} train() calls"),
                ("overall_mAP", ops[0].info["overall_mAP"], "mAP", "same on every op"),
                ("tail_mAP", ops[0].info["tail_mAP"], "mAP", "same on every op")]


class Train1Large(Workload):
    """train() with only the long-tailed expert at FLOP-heavy shapes, one epoch per op."""

    name = "train1_large"
    item = "expert-sample"
    trace_ops = 1
    scope, unit = "training.train_epoch", "training.Adam.step"

    def setup(self):
        counts = data.zipf_counts(50, 2000, min_count=20)
        cfg = data.SyntheticConfig(C=50, D=64, L=16, counts=counts, multilabel_prob=0.1,
                                   seed=self.seed)
        records, _ = data.generate_synthetic(cfg)
        self.train_records, _ = data.split_records(records, 0.25, self.seed)
        self.stats = data.compute_label_stats(self.train_records)
        self.cfg = training.TrainConfig(learning_rate=1e-3, epochs=1, batch_size=128,
                                        d_trunk=128, hidden=128, d=64, seed=self.seed,
                                        active_experts=("long_tailed",), checkpoint_every=0)
        steps = -(-len(self.train_records) // self.cfg.batch_size)
        self.samples = self.cfg.batch_size * steps

    def warmup(self):
        # a few steps at the same shapes; every sixth record keeps every class
        training.train(self.cfg, self.train_records[::6])

    def op(self, i, first=False):
        t0 = clock()
        m, history = training.train(self.cfg, self.train_records)
        t1 = clock()
        output = json.dumps({"history": history, "params": _digest(m)})
        return OpResult(self.samples, t1 - t0, output, _epoch_checks(history))

    def report(self, ops):
        return [("train_samples_per_s", _median(o.items / o.seconds for o in ops), "1/s",
                 f"median of {len(ops)} train() calls")]


class EvalLarge(Workload):
    """read_feature_file + load_checkpoint + evaluate() of a three-expert model."""

    name = "eval_large"
    item = "record"
    trace_ops = 2
    scope, unit = "evaluation.evaluate", "model.forward_inference"

    def setup(self):
        counts = data.zipf_counts(50, 500, min_count=5)
        cfg = data.SyntheticConfig(C=50, D=64, L=16, counts=counts, multilabel_prob=0.1,
                                   seed=self.seed)
        self.records, _ = data.generate_synthetic(cfg)
        self.stats = data.compute_label_stats(self.records, 100, 20)
        self.features_path = os.path.join(self.workdir, "features.medc")
        data.write_feature_file(self.features_path, self.records)
        # weights do not change inference cost, so an untrained model will do
        self.model = model.Model(model.ModelConfig(D=64, C=50), seed=self.seed)
        for kind in self.model.cfg.experts:
            self.model.heads[kind].gamma = losses.gamma_targets(self.stats, kind)
        self.checkpoint_path = os.path.join(self.workdir, "model.bin")
        model.save_checkpoint(self.checkpoint_path, self.model)
        self.file_mb = os.path.getsize(self.features_path) / 1e6

    def op(self, i, first=False):
        t0 = clock()
        records = data.read_feature_file(self.features_path)
        t1 = clock()
        m, _ = model.load_checkpoint(self.checkpoint_path)
        t2 = clock()
        report = evaluation.evaluate(m, records, self.stats)
        t3 = clock()
        checks = [_check("feature file read == generated records", records == self.records),
                  _check("checkpoint round trip bit-identical",
                         _param_bytes(m) == _param_bytes(self.model)),
                  _report_check(report)]
        if first:
            checks.append(_scores_check(m, records, self.stats, report))
        return OpResult(len(records), t3 - t0, json.dumps(report.to_dict()), checks,
                        timings={"read": t1 - t0, "load": t2 - t1, "evaluate": t3 - t2},
                        info={"checkpoint_bytes": os.path.getsize(self.checkpoint_path)})

    def report(self, ops):
        return [("eval_records_per_s", _median(o.items / o.timings["evaluate"] for o in ops),
                 "1/s", f"median of {len(ops)} evaluate() calls"),
                ("feature_read_mb_per_s", _median(self.file_mb / o.timings["read"] for o in ops),
                 "MB/s", f"median of {len(ops)} reads of {self.file_mb:.1f} MB")]


class Gradcheck(Workload):
    """composed_objective_gradcheck over the criterion-1 seeds, one seed per op.

    Criterion 1 gates seeds 0-9 at 1e-4; the benchmark seed picks where in
    that cycle a run starts. Seeds outside it are not used because the
    checker itself exceeds the gate on some of them (22, 26, 35, 37, 1001).
    On 35 and 1001 the analytic gradient matches finite differences at
    another step size: the worst entry sits within h/4 of a ReLU kink (35)
    or has a near-zero gradient lost in roundoff (1001).
    """

    name = "gradcheck"
    item = "seed"
    trace_ops = 1
    scope, unit = "verify.composed_objective_gradcheck", "losses.total_loss"
    seeds = 10
    gate = 1e-4

    def setup(self):
        self.first = self.seed % self.seeds

    def key(self, i):
        return (self.first + i) % self.seeds

    def warmup(self):
        return None

    def op(self, i, first=False):
        seed = self.key(i)
        t0 = clock()
        err = verify.composed_objective_gradcheck(seed)
        t1 = clock()
        return OpResult(1, t1 - t0, json.dumps(err),
                        [_check(f"gradcheck seed {seed} < {self.gate}", err < self.gate,
                                f"max_rel_err={err!r}")])

    def report(self, ops):
        return [("gradcheck_s", _median(o.seconds for o in ops), "s",
                 f"median of {len(ops)} seeds")]


def _median(values):
    return float(np.median(list(values)))


WORKLOADS = {w.name: w for w in (Train3Small, Train1Large, EvalLarge, Gradcheck)}
