import json
import os
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from medc.data import (FEATURE_FILE, HEAD, MEDIUM, TAIL, Dataset, FeatureFileError, RecordError,
                       SyntheticConfig, compute_label_stats, generate_synthetic,
                       read_feature_file, split_records, write_feature_file, zipf_counts)

from test_model import rewrite_manifest  # feature files and checkpoints share the layout
from test_sampling import make_records


def one_record():
    """The Dataset of one record "ab" of 1 x 2 zero features and labels [1, 0]."""
    return Dataset(["ab"], np.zeros((1, 1, 2)), [[1, 0]])


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
    protos32 = protos.astype(np.float32)[records.labels.argmax(axis=1), None]
    assert np.array_equal(records.features, np.broadcast_to(protos32, records.features.shape))


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
    n_multi = int((records.labels.sum(axis=1) == 2).sum())
    assert 40 < n_multi < 110  # ~75 expected of 150


def test_within_class_std_matches_noise_model():
    cfg = small_cfg(C=2, counts=[200, 200], D=6, L=4, noise=0.3,
                    temporal_jitter=0.4, seed=9)
    records, _ = generate_synthetic(cfg)
    target = np.sqrt(0.3 ** 2 + 0.4 ** 2)
    for c in range(2):
        frames = records.features[records.labels[:, c] == 1].reshape(-1, cfg.D)
        stds = frames.std(axis=0, ddof=1)
        assert np.all(np.abs(stds - target) < 0.1 * target)


def test_label_stats_frequencies():
    stats = compute_label_stats(make_records([500, 100, 10]))
    assert stats.counts.tolist() == [500, 100, 10]
    assert stats.frequencies == pytest.approx([500 / 610, 100 / 610, 10 / 610])
    assert abs(stats.frequencies.sum() - 1.0) < 1e-12


def test_label_stats_symmetric():
    stats = compute_label_stats(make_records([5, 5]), 4, 2)
    assert stats.frequencies == pytest.approx([0.5, 0.5])


def test_group_assignment_default_thresholds():
    stats = compute_label_stats(make_records([600, 300, 50]), head_threshold=500,
                                medium_threshold=100)
    assert stats.groups == [HEAD, MEDIUM, TAIL]


def test_label_stats_rejects_empty_class():
    with pytest.raises(ValueError, match=r"\[1, 2\]"):
        compute_label_stats(Dataset(["a"], np.ones((1, 1, 2)), [[1, 0, 0]]))


@pytest.mark.parametrize("function", [compute_label_stats])
def test_no_records_are_refused_by_name(function):
    with pytest.raises(ValueError, match="no records"):
        function(one_record()[:0])


# two records of 1 x 2 features and 2 classes; each case replaces one column
COLUMNS = dict(ids=["a", "b"], features=np.zeros((2, 1, 2)), labels=[[1, 0], [0, 1]])


@pytest.mark.parametrize("column,value,named", [
    ("features", np.zeros((2, 2)), r"features of shape \(2, 2\)"),
    ("features", np.zeros((2, 0, 2)), r"features of shape \(2, 0, 2\)"),
    ("labels", [[1, 0]], r"labels of shape \(1, 2\)"),
    ("labels", np.zeros((2, 0)), r"labels of shape \(2, 0\)"),
    ("ids", ["a"], "got 1 ids"),
    ("ids", ["a", 5], "record 1: id 5 is not a string"),
    ("features", [[[0, 0]], [[0, np.nan]]], "record 1: a feature is not finite"),
    ("features", [[[np.inf, 0]], [[0, 0]]], "record 0: a feature is not finite"),
    ("labels", [[1, 0], [0, 2]], "record 1: a label is not 0 or 1"),
    ("labels", [[0.5, 1], [0, 1]], "record 0: a label is not 0 or 1"),
    ("labels", [[1, 0], [0, 0]], "record 1: needs at least one positive label"),
], ids=["features-2d", "no-frames", "labels-of-other-N", "no-classes", "ids-of-other-N",
        "id-not-a-string", "nan-feature", "inf-feature", "label-2", "label-0.5", "no-label"])
def test_a_dataset_refuses_columns_that_are_not_one_by_name(column, value, named):
    with pytest.raises(RecordError if "record" in named else ValueError, match=named):
        Dataset(**{**COLUMNS, column: value})


def test_a_dataset_holds_its_columns_as_given():
    records = Dataset(**COLUMNS)
    assert records.ids.tolist() == ["a", "b"]
    assert (records.features.dtype, records.labels.dtype) == (np.float32, np.uint8)
    assert records.labels.tolist() == [[1, 0], [0, 1]]


def test_a_slice_shares_the_columns_and_an_index_array_picks_rows():
    records, _ = generate_synthetic(small_cfg())
    view = records[::2]
    assert len(view) == 6 and np.shares_memory(view.features, records.features)
    assert view.ids.tolist() == records.ids.tolist()[::2]
    picked = records[np.array([3, 0])]
    assert picked.ids.tolist() == [records.ids[3], records.ids[0]]
    assert np.array_equal(picked.features, records.features[[3, 0]])
    assert np.array_equal(picked.labels, records.labels[[3, 0]])


def test_equality_is_one_bool_over_all_three_columns():
    records, _ = generate_synthetic(small_cfg())
    assert (records == records[:]) is True
    assert (records == records[:-1]) is False
    assert (records == records.features) is False
    other = records[:]
    other.ids = other.ids.copy()
    other.ids[0] = "x"
    assert (records == other) is False


def test_the_sha256_changes_with_any_column():
    records, _ = generate_synthetic(small_cfg())
    digest = records.sha256()
    assert generate_synthetic(small_cfg())[0].sha256() == digest
    assert records[::-1].sha256() != digest  # the same rows in another order
    assert generate_synthetic(small_cfg(seed=6))[0].sha256() != digest
    relabelled = Dataset(records.ids, records.features, records.labels[:, ::-1])
    assert relabelled.sha256() != digest


def test_label_stats_permutation_invariant():
    records, _ = generate_synthetic(small_cfg())
    s1 = compute_label_stats(records, 5, 3)
    s2 = compute_label_stats(records[::-1], 5, 3)
    assert np.array_equal(s1.counts, s2.counts)
    assert s1.groups == s2.groups


def test_file_roundtrip_empty(tmp_path):
    path = tmp_path / "empty.medc"
    empty = one_record()[:0]
    write_feature_file(path, empty)
    assert read_feature_file(path) == empty


def test_file_size_byte_accounting(tmp_path):
    path = tmp_path / "one.medc"
    write_feature_file(path, Dataset(["ab"], np.arange(6).reshape(1, 2, 3), [[1, 0]]))
    manifest = json.dumps({"version": 2, "ids": ["ab"], "arrays": [
        {"name": "features", "shape": [1, 2, 3], "dtype": "<f4"},
        {"name": "labels", "shape": [1, 2], "dtype": "|u1"}]}, sort_keys=True).encode()
    assert path.read_bytes() == (b"MEDCFEAT" + struct.pack("<Q", len(manifest)) + manifest
                                 + np.arange(6, dtype="<f4").tobytes() + bytes([1, 0]))


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


def random_dataset(N, L, D, C, seed=0):
    """N records of uniform float32 features, each with one label."""
    rng = np.random.default_rng(seed)
    labels = np.eye(C, dtype=np.uint8)[rng.integers(C, size=N)]
    return Dataset([f"r{i}" for i in range(N)], rng.uniform(-1, 1, (N, L, D)), labels)


def test_the_reader_holds_each_payload_once(tmp_path):
    # the payloads are read into the columns themselves: no whole-file blob, no second copy
    path = tmp_path / "ds.medc"
    write_feature_file(path, random_dataset(N=64, L=16, D=1024, C=10))
    tracemalloc.start()
    try:
        dataset = read_feature_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = dataset.features.nbytes + dataset.labels.nbytes
    assert peak < 1.5 * held, (peak, held)
    for column in (dataset.features, dataset.labels):
        assert column.flags.writeable and column.flags.c_contiguous


def test_the_reader_peaks_near_the_bytes_it_returns(tmp_path):
    # at these shapes a finiteness mask over all the features would add a quarter to the peak
    path = tmp_path / "ds.medc"
    write_feature_file(path, random_dataset(N=2249, L=16, D=64, C=50))
    tracemalloc.start()
    try:
        dataset = read_feature_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = (dataset.features.nbytes + dataset.labels.nbytes + dataset.ids.nbytes
                + sum(sys.getsizeof(rid) for rid in dataset.ids))
    assert peak <= 1.05 * returned, (peak, returned)


def test_a_file_cut_after_it_was_sized_is_refused_at_the_offset(tmp_path):
    # the payloads are larger than the file object's buffer, so the cut is read, not zeros
    path = tmp_path / "cut.medc"
    write_feature_file(path, random_dataset(N=8, L=4, D=512, C=3))
    with open(path, "rb") as f:
        manifest, reader = FEATURE_FILE.read_manifest(f)
        start = reader.offset
        os.truncate(path, start + 5)
        with pytest.raises(FeatureFileError,
                           match=f"truncated file: 65536 bytes for array 'features' "
                                 f"at byte offset {start}$"):
            FEATURE_FILE.read_arrays(reader, manifest["arrays"], [
                ("features", (8, "L", "D"), "<f4"), ("labels", (8, "C"), "|u1")])


def test_file_rejects_version_mismatch(tmp_path):
    path = tmp_path / "ver.medc"
    write_feature_file(path, one_record()[:0])
    rewrite_manifest(path, lambda m: m.update(version=99))
    with pytest.raises(FeatureFileError, match="version 99"):
        read_feature_file(path)


def test_a_version_1_file_is_refused_by_its_magic(tmp_path):
    # the version-1 layout: magic "MEDC", version u32, N u64, C u32, L u32, D u32, then per
    # record a u16-prefixed id, u16-prefixed u32 label indices and the L x D f32 features
    path = tmp_path / "v1.medc"
    path.write_bytes(b"MEDC" + struct.pack("<IQIII", 1, 1, 2, 1, 2) + struct.pack("<H", 2) + b"ab"
                     + struct.pack("<HI", 1, 0) + np.zeros(2, dtype="<f4").tobytes())
    with pytest.raises(FeatureFileError, match="bad magic .* at byte offset 0"):
        read_feature_file(path)


# one record "ab" of 1 x 2 features and labels [1, 0]; each patch returns what the refusal names
def _patch_id(path):
    rewrite_manifest(path, lambda m: m.update(ids=[5]))
    (size,) = struct.unpack("<Q", path.read_bytes()[8:16])
    return f"record 0 at byte offset {16 + size}: id 5 is not a string"


def _patch_no_labels(path):
    blob = bytearray(path.read_bytes())
    blob[-2:] = b"\x00\x00"
    path.write_bytes(bytes(blob))
    return f"record 0 at byte offset {len(blob) - 10}: .*needs at least one positive label"


def _patch_inf_feature(path):
    blob = bytearray(path.read_bytes())
    blob[-6:-2] = struct.pack("<f", float("inf"))
    path.write_bytes(bytes(blob))
    return f"record 0 at byte offset {len(blob) - 10}: a feature is not finite"


@pytest.mark.parametrize("patch", [_patch_id, _patch_no_labels, _patch_inf_feature],
                         ids=["id-not-a-string", "no-labels", "non-finite-feature"])
def test_file_rejects_bad_record_with_index_and_offset(tmp_path, patch):
    # the bad id, the record with no label and the record with an infinite feature are named
    # by index and by the byte offset of the record's features
    path = tmp_path / "one.medc"
    write_feature_file(path, one_record())
    read_feature_file(path)
    named = patch(path)
    with pytest.raises(FeatureFileError, match=named):
        read_feature_file(path)


def test_file_rejects_a_label_byte_other_than_0_or_1(tmp_path):
    path = tmp_path / "two.medc"
    write_feature_file(path, Dataset(["a", "b"], np.zeros((2, 1, 2)), [[1, 0], [0, 1]]))
    blob = bytearray(path.read_bytes())
    blob[-1] = 2
    path.write_bytes(bytes(blob))
    with pytest.raises(FeatureFileError, match=f"record 1 at byte offset {len(blob) - 1}: "
                                               "a label byte is not 0 or 1"):
        read_feature_file(path)


def _refused_before_allocating(path, change):
    """The read of the file at path after change(manifest) raises FeatureFileError in under 5 MB."""
    rewrite_manifest(path, change)
    tracemalloc.start()
    try:
        with pytest.raises(FeatureFileError, match="truncated file: needed .* at byte offset"):
            read_feature_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6, peak


def test_file_rejects_class_count_beyond_limit(tmp_path):
    # the class count is a payload's shape, so the size check before allocation bounds it
    path = tmp_path / "wide.medc"
    write_feature_file(path, one_record())
    _refused_before_allocating(path, lambda m: m["arrays"][1].update(shape=[1, 2**40]))


def test_a_manifest_claiming_huge_features_is_refused_before_allocating(tmp_path):
    path = tmp_path / "huge.medc"
    write_feature_file(path, one_record())
    _refused_before_allocating(path, lambda m: m["arrays"][0].update(shape=[1, 2**20, 2**20]))


def test_split_is_deterministic_and_stratified():
    records, _ = generate_synthetic(small_cfg(counts=[20, 8, 4]))
    tr1, te1 = split_records(records, 0.25, seed=3)
    tr2, te2 = split_records(records, 0.25, seed=3)
    assert tr1 == tr2 and te1 == te2
    assert len(tr1) + len(te1) == len(records)
    te_counts, tr_counts = te1.labels.sum(axis=0), tr1.labels.sum(axis=0)
    assert (te_counts >= 1).all() and (tr_counts >= 1).all()


def test_split_gives_two_datasets_of_every_record_in_file_order():
    records, _ = generate_synthetic(small_cfg(counts=[20, 8, 4], multilabel_prob=0.5))
    train, test = split_records(records, 0.25, seed=3)
    assert isinstance(train, Dataset) and isinstance(test, Dataset)
    assert sorted(train.ids.tolist() + test.ids.tolist()) == records.ids.tolist()
    for part in (train, test):
        rows = np.flatnonzero(np.isin(records.ids, part.ids))
        assert part == records[rows]


def test_a_file_whose_manifest_claims_no_classes_is_refused_by_the_format(tmp_path):
    path = tmp_path / "none.medc"
    write_feature_file(path, one_record()[:0])
    rewrite_manifest(path, lambda m: m["arrays"][1].update(shape=[0, 0]))
    with pytest.raises(FeatureFileError, match=r"labels of shape \(0, 0\)"):
        read_feature_file(path)
