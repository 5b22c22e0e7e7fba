import re

import numpy as np
import pytest

from medc.data import (HEAD, MEDIUM, TAIL, SyntheticConfig,
                       compute_label_stats, generate_synthetic, split_records)
from medc.evaluation import (METRIC_COLUMNS, ablate, average_precision, evaluate,
                             lambda_sweep, metrics_from_scores, score_records, write_csv)
from medc.model import Model, ModelConfig
from medc.training import TrainConfig


# -- average precision ---------------------------------------------------------

def test_ap_hand_case():
    ap = average_precision([0.9, 0.8, 0.7], [1, 0, 1])
    assert ap == pytest.approx(5.0 / 6.0, abs=1e-9)


def test_ap_perfect_ranking():
    assert average_precision([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0


def test_ap_all_positive():
    assert average_precision([0.3, 0.9, 0.5], [1, 1, 1]) == 1.0


def test_ap_worst_ranking():
    assert average_precision([3.0, 2.0, 1.0], [0, 0, 1]) == pytest.approx(1 / 3)


def test_ap_ties_break_by_sample_index():
    # equal scores rank sample 0 first
    assert average_precision([0.5, 0.5], [1, 0]) == 1.0
    assert average_precision([0.5, 0.5], [0, 1]) == 0.5


def test_ap_requires_a_positive():
    with pytest.raises(ValueError):
        average_precision([0.1, 0.2], [0, 0])


def test_ap_invariant_to_monotone_transform():
    rng = np.random.default_rng(0)
    scores = rng.random(50)
    pos = rng.random(50) < 0.3
    pos[0] = True
    base = average_precision(scores, pos)
    assert average_precision(3.0 * scores + 1.0, pos) == pytest.approx(base, abs=1e-12)
    assert average_precision(np.exp(scores), pos) == pytest.approx(base, abs=1e-12)


def reference_ap(scores, positives):
    """Literal precision-at-positive-ranks definition."""
    idx = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    precisions = []
    hits = 0
    for rank, i in enumerate(idx, start=1):
        if positives[i]:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / sum(positives)


def test_ap_matches_loop_reference_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        scores = rng.choice([0.1, 0.2, 0.3, 0.4], size=n)  # force ties
        pos = rng.random(n) < 0.5
        pos[int(rng.integers(0, n))] = True
        assert average_precision(scores, pos) == pytest.approx(
            reference_ap(scores.tolist(), pos.tolist()), abs=1e-12)


def lexsort_average_precision(scores, positives):
    """The lexsort form average_precision replaced: every sample ranked by (-score, index)."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    order = np.lexsort((np.arange(len(scores)), -scores))
    hits = positives[order]
    cum_pos = np.cumsum(hits)
    ranks = np.arange(1, len(scores) + 1)
    return float((cum_pos[hits] / ranks[hits]).sum() / int(positives.sum()))


def ap_draw(rng, kind):
    n = 1 if kind == "n=1" else int(rng.integers(1, 200))
    scores = {
        "continuous": lambda: rng.standard_normal(n),
        "float32": lambda: rng.standard_normal(n).astype(np.float32).astype(np.float64),
        "quarters": lambda: rng.integers(0, 4, n) / 4.0,
        "signed-zeros": lambda: rng.choice([0.0, -0.0, 0.5, -0.5], n),
        "all-equal": lambda: np.full(n, rng.choice([0.0, -0.0, 0.3])),
        "n=1": lambda: rng.standard_normal(n),
        "all-positive": lambda: rng.integers(0, 4, n) / 4.0,
    }[kind]()
    positives = (np.ones(n, dtype=bool) if kind == "all-positive"
                 else rng.random(n) < rng.uniform(0.01, 0.9))
    positives[int(rng.integers(0, n))] = True
    return scores, positives


@pytest.mark.parametrize("kind", ["continuous", "float32", "quarters", "signed-zeros",
                                  "all-equal", "n=1", "all-positive"])
def test_ap_repr_equals_the_lexsort_form(kind):
    rng = np.random.default_rng(len(kind))
    for _ in range(1500):
        scores, positives = ap_draw(rng, kind)
        assert repr(average_precision(scores, positives)) == repr(
            lexsort_average_precision(scores, positives)), (scores, positives)


def test_ap_of_200k_equal_scores_equals_the_lexsort_form():
    # every positive is tied with every sample: ties must cost O(N log N), not O(N) each
    scores = np.zeros(200_000)
    positives = np.arange(200_000) % 2 == 0
    assert average_precision(scores, positives) == lexsort_average_precision(scores, positives)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ap_refuses_a_non_finite_score_by_sample(bad):
    scores = np.array([0.2, 0.1, 0.7, 0.4])
    scores[2] = bad
    with pytest.raises(ValueError, match=r"non-finite score .* at sample 2$"):
        average_precision(scores, [1, 0, 0, 1])


# -- metrics aggregation -------------------------------------------------------

def test_metrics_perfect_scores_give_ones():
    labels = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]])
    report = metrics_from_scores(labels.astype(float), labels,
                                 [HEAD, MEDIUM, TAIL])
    assert report.overall_mAP == 1.0
    assert report.head_mAP == 1.0 and report.tail_mAP == 1.0
    assert report.acc_at_1 == 1.0 and report.acc_at_5 == 1.0
    assert report.skipped_classes == []


def test_metrics_random_scores_near_half():
    rng = np.random.default_rng(9)
    n = 10_000
    labels = np.zeros((n, 2), dtype=int)
    labels[np.arange(n), rng.integers(0, 2, n)] = 1
    scores = rng.random((n, 2))
    report = metrics_from_scores(scores, labels, [HEAD, HEAD])
    assert 0.45 < report.overall_mAP < 0.55
    assert 0.45 < report.acc_at_1 < 0.55
    assert report.acc_at_5 == 1.0  # top-5 covers both classes


def test_metrics_skip_classes_without_positives():
    labels = np.array([[1, 0, 0], [1, 0, 0], [0, 0, 1]])
    scores = np.array([[0.9, 0.5, 0.1], [0.8, 0.5, 0.2], [0.1, 0.5, 0.9]])
    report = metrics_from_scores(scores, labels, [HEAD, MEDIUM, TAIL])
    assert report.skipped_classes == [1]
    assert set(report.per_class_AP) == {0, 2}
    assert np.isnan(report.medium_mAP)
    assert report.overall_mAP == pytest.approx(
        np.mean([report.per_class_AP[0], report.per_class_AP[2]]))


def test_metrics_reject_a_test_set_without_positives():
    labels = np.zeros((3, 2), dtype=int)
    with pytest.raises(ValueError, match="no class has a positive label"):
        metrics_from_scores(np.full((3, 2), 0.5), labels, [HEAD, TAIL])


@pytest.mark.parametrize("labels,groups", [
    (np.array([[1, 0, 0], [0, 1, 1], [1, 1, 0]]), [HEAD, TAIL]),
    (np.array([[1, 0], [0, 1]]), [HEAD, TAIL]),
    (np.array([[1, 0], [0, 1], [1, 1]]), [HEAD]),
], ids=["labels-classes", "labels-samples", "groups"])
def test_metrics_refuse_scores_labels_and_groups_that_differ_in_shape(labels, groups):
    named = f"scores of shape (3, 2), labels of shape {labels.shape} and {len(groups)} groups"
    with pytest.raises(ValueError, match=re.escape(named)):
        metrics_from_scores(np.full((3, 2), 0.5), labels, groups)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_metrics_reject_non_finite_scores(bad):
    labels = np.array([[1, 0], [0, 1], [1, 1]])
    scores = np.full((3, 2), 0.5)
    scores[2, 1] = bad
    with pytest.raises(ValueError, match="non-finite score .* sample 2, class 1"):
        metrics_from_scores(scores, labels, [HEAD, TAIL])


def test_group_means_recombine_to_overall():
    rng = np.random.default_rng(4)
    n, C = 60, 9
    labels = (rng.random((n, C)) < 0.3).astype(int)
    labels[np.arange(n), rng.integers(0, C, n)] = 1
    scores = rng.random((n, C))
    groups = [HEAD] * 3 + [MEDIUM] * 3 + [TAIL] * 3
    report = metrics_from_scores(scores, labels, groups)
    aps = report.per_class_AP
    regrouped = np.mean([np.mean([aps[c] for c in range(3)]),
                         np.mean([aps[c] for c in range(3, 6)]),
                         np.mean([aps[c] for c in range(6, 9)])])
    by_group = np.mean([report.head_mAP, report.medium_mAP, report.tail_mAP])
    assert by_group == pytest.approx(regrouped, abs=1e-12)
    assert report.overall_mAP == pytest.approx(np.mean(list(aps.values())))


def test_acc_topk_hand_case():
    labels = np.array([[0, 1, 0], [1, 0, 0]])
    scores = np.array([[0.9, 0.5, 0.1],   # top1 wrong, label in top2
                       [0.8, 0.3, 0.2]])  # top1 right
    report = metrics_from_scores(scores, labels, [HEAD, HEAD, HEAD])
    assert report.acc_at_1 == 0.5
    assert report.acc_at_5 == 1.0


def test_acc_at_5_matches_per_record_loop():
    rng = np.random.default_rng(4)
    scores = rng.integers(0, 4, size=(300, 12)) / 4.0  # many ties
    labels = (rng.random((300, 12)) < 0.1).astype(np.uint8)
    labels[0, 0] = 1
    top5 = np.argsort(-scores, axis=1, kind="stable")[:, :5]
    loop = float(np.mean([labels[i, top5[i]].any() for i in range(len(scores))]))
    assert metrics_from_scores(scores, labels, [HEAD] * 12).acc_at_5 == loop


def test_acc_at_1_and_5_equal_the_stable_argsort_on_tie_heavy_scores():
    rng = np.random.default_rng(11)
    for C in (1, 2, 4, 5, 6, 9, 30):
        for dtype in (np.float32, np.float64):
            scores = (rng.integers(0, 3, size=(400, C)) / 2.0).astype(dtype)
            scores[rng.random(scores.shape) < 0.2] = -0.0
            labels = (rng.random((400, C)) < 0.15).astype(np.uint8)
            labels[0, 0] = 1
            # the stable argsort the top-k selection replaced
            order = np.argsort(-scores, axis=1, kind="stable")
            acc1 = float(np.mean(labels[np.arange(400), order[:, 0]] > 0))
            acc5 = float(np.mean(np.take_along_axis(labels, order[:, :min(5, C)], axis=1)
                                 .any(axis=1)))
            report = metrics_from_scores(scores, labels, [HEAD] * C)
            assert (repr(report.acc_at_1), repr(report.acc_at_5)) == (repr(acc1), repr(acc5))


# -- end-to-end scoring and serialization ---------------------------------------

def tiny_setup(seed=0):
    data_cfg = SyntheticConfig(C=3, D=4, L=2, counts=[10, 6, 4], class_sep=2.5,
                               noise=0.3, temporal_jitter=0.1, seed=seed)
    records, _ = generate_synthetic(data_cfg)
    stats = compute_label_stats(records, 8, 5)
    model = Model(ModelConfig(D=4, C=3, d_trunk=5, hidden=5, d=4), seed=seed)
    return records, stats, model


def test_score_records_invariant_to_input_order():
    records, _, model = tiny_setup()
    s1, l1 = score_records(model, records)
    s2, l2 = score_records(model, records[::-1])
    assert np.array_equal(s1, s2) and np.array_equal(l1, l2)


def test_evaluate_rejects_empty_test_set():
    records, stats, model = tiny_setup()
    with pytest.raises(ValueError):
        evaluate(model, records[:0], stats)


@pytest.mark.parametrize("data,named", [
    (dict(C=4, counts=[10, 6, 4, 3]), "records of D=4, C=4 do not fit the model's D=4, C=3"),
    (dict(D=5), "records of D=5, C=3 do not fit the model's D=4, C=3"),
], ids=["classes", "features"])
def test_score_records_refuses_records_of_another_model_by_both_values(data, named):
    _, _, model = tiny_setup()
    cfg = dict(C=3, D=4, L=2, counts=[10, 6, 4], seed=0)
    records, _ = generate_synthetic(SyntheticConfig(**{**cfg, **data}))
    with pytest.raises(ValueError, match=named):
        score_records(model, records)


def test_score_records_refuses_no_records():
    records, _, model = tiny_setup()
    with pytest.raises(ValueError, match="no records"):
        score_records(model, records[:0])


def test_metrics_csv_is_byte_deterministic(tmp_path):
    records, stats, model = tiny_setup()
    report = evaluate(model, records, stats)
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_csv(p1, ("metric", "value"), report.metric_rows())
    write_csv(p2, ("metric", "value"), evaluate(model, records[::-1], stats).metric_rows())
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "metric,value"
    assert lines[1] == f"overall_mAP,{report.overall_mAP!r}"


def test_report_dict_roundtrips_through_json():
    import json
    records, stats, model = tiny_setup()
    report = evaluate(model, records, stats)
    blob = json.dumps(report.to_dict(), sort_keys=True)
    assert json.loads(blob)["overall_mAP"] == report.overall_mAP


# -- harnesses -------------------------------------------------------------------

def small_train_cfg():
    return TrainConfig(learning_rate=1e-3, epochs=1, batch_size=8, d_trunk=5,
                       hidden=5, d=4, seed=0, head_threshold=8,
                       medium_threshold=5, checkpoint_every=0)


def test_ablation_rows_and_csv(tmp_path):
    records, stats, _ = tiny_setup()
    train_recs, test_recs = split_records(records, 0.3, seed=1)
    variants = (("E1", ("long_tailed",), True),
                ("MEDC", ("long_tailed", "uniform", "inverse"), True))
    rows = ablate(small_train_cfg(), train_recs, test_recs, stats,
                  variants=variants, seeds=(0,))
    assert [r["variant"] for r in rows] == ["E1", "MEDC"]
    for row in rows:
        for col in METRIC_COLUMNS:
            assert 0.0 <= row[col] <= 1.0 or np.isnan(row[col])
    path = tmp_path / "ablation.csv"
    header = ("variant",) + METRIC_COLUMNS
    write_csv(path, header, [[row[k] for k in header] for row in rows])
    lines = path.read_text().splitlines()
    assert lines[0] == "variant," + ",".join(METRIC_COLUMNS)
    assert lines[1] == "E1," + ",".join(repr(rows[0][c]) for c in METRIC_COLUMNS)
    assert len(lines) == 3


def test_lambda_sweep_grid(tmp_path):
    records, stats, _ = tiny_setup()
    train_recs, test_recs = split_records(records, 0.3, seed=1)
    rows = lambda_sweep(small_train_cfg(), train_recs, test_recs, stats,
                        lambda1_grid=[0.5, 1], lambda3_grid=[0.4])
    assert len(rows) == 2
    assert [(r["lambda1"], r["lambda3"]) for r in rows] == [(0.5, 0.4), (1.0, 0.4)]
    header = ("lambda1", "lambda3", "overall_mAP")
    write_csv(tmp_path / "sweep.csv", header, [[row[k] for k in header] for row in rows])
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "lambda1,lambda3,overall_mAP"
    assert lines[1] == f"0.5,0.4,{rows[0]['overall_mAP']!r}"
    assert lines[2].startswith("1.0,0.4,")  # an int grid value is stored as a float


def test_ablation_rejects_empty_grid():
    records, stats, _ = tiny_setup()
    with pytest.raises(ValueError):
        ablate(small_train_cfg(), records, records, stats, variants=())
