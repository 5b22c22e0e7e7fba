"""Long-tailed evaluation metrics and experiment harnesses.

Per-class average precision with head/medium/tail group means, Acc@1 and
Acc@5 for multi-label data, an ablation harness over expert subsets, and a
lambda sensitivity sweep.
"""

import csv
import io
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import HEAD, MEDIUM, TAIL, atomic_write
from .model import forward_inference
from .sampling import EXPERT_KINDS, INVERSE, LONG_TAILED, UNIFORM
from .training import train

METRIC_COLUMNS = ("overall_mAP", "head_mAP", "medium_mAP", "tail_mAP",
                  "acc_at_1", "acc_at_5")
SCORE_CHUNK = 256  # records per forward_inference call


def average_precision(scores, positives):
    """Non-interpolated AP of one class's sample ranking.

    Samples are ranked by score descending, ties broken by sample index
    ascending; AP = (1/P) * sum over positive ranks of precision at rank.
    A positive's rank is 1 + the samples scoring above it, found by a
    binary search in the value-sorted scores, plus, when its score is tied,
    its place among the earlier samples of that score. That place needs a
    stable argsort only of the samples sharing a tied positive's score.
    Raises ValueError naming the sample of a non-finite score, and when no
    sample is positive.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    if n_pos == 0:
        raise ValueError("average_precision needs at least one positive sample")
    ascending = np.sort(scores)   # a NaN sorts last and an infinity at one end
    if not (np.isfinite(ascending[0]) and np.isfinite(ascending[-1])):
        bad = int(np.flatnonzero(~np.isfinite(scores))[0])
        raise ValueError(f"non-finite score {scores[bad]!r} at sample {bad}")
    pos_scores = scores[positives]
    after = np.searchsorted(ascending, pos_scores, side="right")
    ranks = len(scores) - after + 1
    tied = after - np.searchsorted(ascending, pos_scores, side="left") > 1
    if tied.any():
        # samples of a tied positive's score, in index order, then grouped by score
        members = np.flatnonzero(np.isin(scores, pos_scores[tied]))
        order = np.argsort(scores[members], kind="stable")
        grouped = scores[members[order]]
        place = np.empty(len(members), dtype=np.int64)
        place[order] = np.arange(len(members)) - np.searchsorted(grouped, grouped, side="left")
        # the positives among the members are the tied ones, in index order as well
        ranks[tied] += place[positives[members]]
    ranks.sort()
    return float((np.arange(1, n_pos + 1) / ranks).sum() / n_pos)


@dataclass
class MetricsReport:
    overall_mAP: float
    head_mAP: float
    medium_mAP: float
    tail_mAP: float
    acc_at_1: float
    acc_at_5: float
    per_class_AP: dict          # class index -> AP, evaluated classes only
    skipped_classes: list       # classes with no test positives

    def metric_rows(self):
        return [(name, getattr(self, name)) for name in METRIC_COLUMNS]

    def to_dict(self):
        d = asdict(self)
        d["per_class_AP"] = {str(k): v for k, v in self.per_class_AP.items()}
        return d


def score_records(model, dataset):
    """(scores, labels) of a Dataset's records sorted by id: eval-mode averaged-expert scores
    at the model's dtype, from SCORE_CHUNK rows gathered at a time, and their label rows. No
    records, or records whose D or C is not the model's, raise ValueError naming the values."""
    if not len(dataset):
        raise ValueError("no records to score")
    D, C = dataset.features.shape[2], dataset.labels.shape[1]
    if (D, C) != (model.cfg.D, model.cfg.C):
        raise ValueError(f"records of D={D}, C={C} do not fit the model's "
                         f"D={model.cfg.D}, C={model.cfg.C}")
    order = np.argsort(dataset.ids, kind="stable")
    parts = [forward_inference(dataset.features[order[start:start + SCORE_CHUNK]]
                               .astype(model.dtype, copy=False), model).data
             for start in range(0, len(order), SCORE_CHUNK)]
    return np.concatenate(parts), dataset.labels[order]


def _group_mean(per_class, groups, tag):
    vals = [ap for c, ap in per_class.items() if groups[c] == tag]
    return float(np.mean(vals)) if vals else math.nan


def _top_k_hit(scores, labels, k):
    """(N,) bool: does a label sit among each row's k best classes, ranked by score descending
    and ties by class index ascending. The k-th best score comes from np.partition; the classes
    above it are in, and of the classes at it, the first by index fill the remaining places."""
    kth = np.partition(scores, scores.shape[1] - k, axis=1)[:, -k, None]
    above, at = scores > kth, scores == kth
    room = k - above.sum(axis=1)
    fits = at.sum(axis=1) <= room
    hit = (labels & above).any(axis=1) | (fits & (labels & at).any(axis=1))
    # only the rows with more ties than places count their ties in index order
    crowded = np.flatnonzero(~fits)
    if crowded.size:
        first = at[crowded] & (np.cumsum(at[crowded], axis=1) <= room[crowded, None])
        hit[crowded] |= (labels[crowded] & first).any(axis=1)
    return hit


def metrics_from_scores(scores, labels, groups):
    """MetricsReport of scores (N, C) against 0/1 labels (N, C).

    Classes without a positive label are skipped. Raises ValueError when
    scores and labels differ in shape, groups does not hold one group per
    class, every class is skipped or a score is not finite.
    """
    n, C = scores.shape
    if labels.shape != scores.shape or len(groups) != C:
        raise ValueError(f"scores of shape {scores.shape}, labels of shape {labels.shape} and "
                         f"{len(groups)} groups do not share one (N, C)")
    if not np.isfinite(scores).all():
        bad = np.argwhere(~np.isfinite(scores))[0]
        raise ValueError(f"non-finite score {scores[tuple(bad)]!r} at sample {bad[0]}, "
                         f"class {bad[1]}")
    per_class = {}
    skipped = []
    for c in range(C):
        if labels[:, c].sum() == 0:
            skipped.append(c)
        else:
            per_class[c] = average_precision(scores[:, c], labels[:, c])
    if not per_class:
        raise ValueError(f"no class has a positive label among the {n} samples, "
                         "so no class can be evaluated")

    # rank classes per sample: score descending, ties by class index ascending.
    # argmax returns the first maximum, the lowest class index among ties
    acc1 = float(np.mean(labels[np.arange(n), scores.argmax(axis=1)] > 0))
    acc5 = float(np.mean(_top_k_hit(scores, labels.astype(bool), min(5, C))))

    return MetricsReport(
        overall_mAP=float(np.mean(list(per_class.values()))),
        head_mAP=_group_mean(per_class, groups, HEAD),
        medium_mAP=_group_mean(per_class, groups, MEDIUM),
        tail_mAP=_group_mean(per_class, groups, TAIL),
        acc_at_1=acc1, acc_at_5=acc5,
        per_class_AP=per_class, skipped_classes=skipped)


def evaluate(model, dataset, stats):
    """MetricsReport for a test Dataset under averaged-expert inference."""
    scores, labels = score_records(model, dataset)
    return metrics_from_scores(scores, labels, stats.groups)


# -- report serialization ------------------------------------------------------

def write_csv(path, header, rows):
    """One header line, then one line per row, atomically; a Python float is written as its repr."""
    text = io.StringIO()
    csv.writer(text).writerows([header, *rows])
    atomic_write(path, [text.getvalue().encode("utf-8")])


# -- ablation and sweep harnesses ----------------------------------------------

STANDARD_VARIANTS = (
    ("E1", (LONG_TAILED,), True),
    ("E2", (UNIFORM,), True),
    ("E3", (INVERSE,), True),
    ("E1+E2", (LONG_TAILED, UNIFORM), True),
    ("E1+E3", (LONG_TAILED, INVERSE), True),
    ("E2+E3", (UNIFORM, INVERSE), True),
    ("MEDC", EXPERT_KINDS, True),
    ("No-Temporal-Attention", EXPERT_KINDS, False),
)


def _grid(points, train_records, test_records, stats, seeds):
    """Train and evaluate each (label, TrainConfig) point once per seed.

    Returns one row per point: the label's items, then each metric
    averaged over the seeds.
    """
    if not points:
        raise ValueError("the experiment grid has no points")
    if not seeds:
        raise ValueError("the experiment grid has no seeds")
    rows = []
    for label, point_cfg in points:
        reports = []
        for seed in seeds:
            model, _ = train(replace(point_cfg, seed=seed), train_records)
            reports.append(evaluate(model, test_records, stats))
        rows.append({**label, **{col: float(np.mean([getattr(r, col) for r in reports]))
                                 for col in METRIC_COLUMNS}})
    return rows


def ablate(cfg, train_records, test_records, stats, variants=STANDARD_VARIANTS,
           seeds=(0,)):
    """Train and evaluate each (name, experts, attention) variant per seed.

    Returns one row per variant with each metric averaged over seeds.
    """
    points = [({"variant": name}, replace(cfg, active_experts=tuple(experts),
                                          temporal_attention=attention))
              for name, experts, attention in variants]
    return _grid(points, train_records, test_records, stats, seeds)


def lambda_sweep(cfg, train_records, test_records, stats, lambda1_grid,
                 lambda3_grid):
    """The metrics per (lambda1, lambda3) grid point with lambda2 fixed at 1, at cfg.seed."""
    points = [({"lambda1": float(l1), "lambda3": float(l3)},
               replace(cfg, weights=replace(cfg.weights, lambda1=l1, lambda2=1.0, lambda3=l3)))
              for l1 in lambda1_grid for l3 in lambda3_grid]
    return _grid(points, train_records, test_records, stats, (cfg.seed,))
