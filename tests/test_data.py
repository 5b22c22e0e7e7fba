import struct

import numpy as np
import pytest

from medc.data import (HEAD, MAX_CLASSES, MEDIUM, TAIL, FeatureFileError, FeatureRecord,
                       SyntheticConfig, compute_label_stats, generate_synthetic,
                       read_feature_file, record_shape, split_records, write_feature_file,
                       zipf_counts)


def small_cfg(**over):
    base = dict(C=3, D=4, L=2, counts=[6, 4, 2], class_sep=3.0, noise=0.2,
                temporal_jitter=0.1, seed=5)
    base.update(over)
    return SyntheticConfig(**base)


def test_zipf_counts_rule():
    counts = zipf_counts(10, 100, exponent=1.0)
    assert counts == [100, 50, 33, 25, 20, 17, 14, 12, 11, 10]
    assert counts[0] == 100
    for k in range(10):
        assert counts[k] == max(1, round(100 / (k + 1)))


def test_zipf_counts_min_floor():
    assert zipf_counts(4, 10, exponent=2.0, min_count=3) == [10, 3, 3, 3]


def test_zero_noise_frames_equal_prototype():
    cfg = small_cfg(counts=[10, 10], C=2, noise=0.0, temporal_jitter=0.0)
    records, protos = generate_synthetic(cfg)
    protos32 = protos.astype(np.float32).astype(np.float64)
    for r in records:
        c = int(np.flatnonzero(r.labels)[0])
        assert np.array_equal(r.features, np.broadcast_to(protos32[c], (cfg.L, cfg.D)))


def test_generation_deterministic():
    a, _ = generate_synthetic(small_cfg())
    b, _ = generate_synthetic(small_cfg())
    assert a == b


def test_generation_rejects_single_class():
    with pytest.raises(ValueError):
        SyntheticConfig(C=1, D=2, L=2, counts=[5])


def test_multilabel_prob_adds_second_labels():
    cfg = small_cfg(counts=[50, 50, 50], multilabel_prob=0.5)
    records, _ = generate_synthetic(cfg)
    n_multi = sum(1 for r in records if r.labels.sum() == 2)
    assert 40 < n_multi < 110  # ~75 expected of 150


def test_within_class_std_matches_noise_model():
    cfg = small_cfg(C=2, counts=[200, 200], D=6, L=4, noise=0.3,
                    temporal_jitter=0.4, seed=9)
    records, _ = generate_synthetic(cfg)
    target = np.sqrt(0.3 ** 2 + 0.4 ** 2)
    for c in range(2):
        frames = np.concatenate([r.features for r in records
                                 if r.labels[c]], axis=0)
        stds = frames.std(axis=0, ddof=1)
        assert np.all(np.abs(stds - target) < 0.1 * target)


def test_label_stats_frequencies():
    records = []
    for c, n in enumerate([500, 100, 10]):
        for j in range(n):
            labels = np.zeros(3)
            labels[c] = 1
            records.append(FeatureRecord(f"{c}-{j}", np.ones((1, 2)), labels))
    stats = compute_label_stats(records)
    assert stats.counts.tolist() == [500, 100, 10]
    assert stats.frequencies == pytest.approx([500 / 610, 100 / 610, 10 / 610])
    assert abs(stats.frequencies.sum() - 1.0) < 1e-12


def test_label_stats_symmetric():
    records = [FeatureRecord(str(i), np.ones((1, 2)), [1, 0]) for i in range(5)]
    records += [FeatureRecord(str(5 + i), np.ones((1, 2)), [0, 1]) for i in range(5)]
    stats = compute_label_stats(records, 4, 2)
    assert stats.frequencies == pytest.approx([0.5, 0.5])


def test_group_assignment_default_thresholds():
    records = []
    for c, n in enumerate([600, 300, 50]):
        for j in range(n):
            labels = np.zeros(3)
            labels[c] = 1
            records.append(FeatureRecord(f"{c}-{j}", np.ones((1, 2)), labels))
    stats = compute_label_stats(records, head_threshold=500, medium_threshold=100)
    assert stats.groups == [HEAD, MEDIUM, TAIL]


def test_label_stats_rejects_empty_class():
    records = [FeatureRecord("a", np.ones((1, 2)), [1, 0, 0])]
    with pytest.raises(ValueError, match=r"\[1, 2\]"):
        compute_label_stats(records)


@pytest.mark.parametrize("function", [compute_label_stats, record_shape])
def test_no_records_are_refused_by_name(function):
    with pytest.raises(ValueError, match="no records"):
        function([])


def test_label_stats_refuse_a_record_of_another_class_count_by_id():
    records = [FeatureRecord("a", np.ones((1, 2)), [1, 0, 1]),
               FeatureRecord("b", np.ones((1, 2)), [1, 1, 0, 1])]
    with pytest.raises(ValueError, match="record b: shape"):
        compute_label_stats(records)


def test_label_stats_permutation_invariant():
    records, _ = generate_synthetic(small_cfg())
    s1 = compute_label_stats(records, 5, 3)
    s2 = compute_label_stats(records[::-1], 5, 3)
    assert np.array_equal(s1.counts, s2.counts)
    assert s1.groups == s2.groups


def test_file_roundtrip_empty(tmp_path):
    path = tmp_path / "empty.medc"
    write_feature_file(path, [])
    assert read_feature_file(path) == []


def test_file_size_byte_accounting(tmp_path):
    r = FeatureRecord("ab", np.zeros((2, 3)), [1, 0])
    path = tmp_path / "one.medc"
    write_feature_file(path, [r])
    header = 4 + 4 + 8 + 4 + 4 + 4
    record = (2 + 2) + (2 + 4) + 2 * 3 * 4
    assert path.stat().st_size == header + record


def test_file_roundtrip_generated_dataset(tmp_path):
    records, _ = generate_synthetic(small_cfg(multilabel_prob=0.3))
    path = tmp_path / "ds.medc"
    write_feature_file(path, records)
    assert read_feature_file(path) == records


def test_file_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.medc"
    records, _ = generate_synthetic(small_cfg())
    write_feature_file(path, records)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(FeatureFileError, match="magic"):
        read_feature_file(path)


def test_file_rejects_truncation(tmp_path):
    path = tmp_path / "trunc.medc"
    records, _ = generate_synthetic(small_cfg())
    write_feature_file(path, records)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 7])
    with pytest.raises(FeatureFileError, match="byte offset"):
        read_feature_file(path)


def test_file_rejects_version_mismatch(tmp_path):
    path = tmp_path / "ver.medc"
    write_feature_file(path, [])
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(FeatureFileError, match="version"):
        read_feature_file(path)


def _patch_id(blob):
    blob[30] = 0xFF


def _patch_no_labels(blob):
    blob[32:38] = b"\x00\x00"


def _patch_inf_feature(blob):
    blob[38:42] = struct.pack("<f", float("inf"))


@pytest.mark.parametrize("patch", [_patch_id, _patch_no_labels, _patch_inf_feature],
                         ids=["id-not-utf8", "no-labels", "non-finite-feature"])
def test_file_rejects_bad_record_with_index_and_offset(tmp_path, patch):
    # one record at byte 28: id_len, id "ab", n_labels, one label index, 1 x 2 f32 features
    path = tmp_path / "one.medc"
    write_feature_file(path, [FeatureRecord("ab", np.zeros((1, 2)), [1, 0])])
    blob = bytearray(path.read_bytes())
    patch(blob)
    path.write_bytes(bytes(blob))
    with pytest.raises(FeatureFileError, match="record 0 at byte offset 28"):
        read_feature_file(path)


def test_file_rejects_class_count_beyond_limit(tmp_path):
    path = tmp_path / "wide.medc"
    write_feature_file(path, [FeatureRecord("ab", np.zeros((1, 2)), [1, 0])])
    blob = bytearray(path.read_bytes())
    blob[16:20] = struct.pack("<I", MAX_CLASSES + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(FeatureFileError, match="byte offset 16"):
        read_feature_file(path)


def test_split_is_deterministic_and_stratified():
    records, _ = generate_synthetic(small_cfg(counts=[20, 8, 4]))
    tr1, te1 = split_records(records, 0.25, seed=3)
    tr2, te2 = split_records(records, 0.25, seed=3)
    assert tr1 == tr2 and te1 == te2
    assert len(tr1) + len(te1) == len(records)
    te_counts = np.sum([r.labels for r in te1], axis=0)
    tr_counts = np.sum([r.labels for r in tr1], axis=0)
    assert (te_counts >= 1).all() and (tr_counts >= 1).all()
