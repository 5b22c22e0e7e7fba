"""Synthetic long-tailed feature datasets, label statistics, and file I/O."""

import struct
import typing
from dataclasses import dataclass, fields

import numpy as np

from .seeding import derive_rng

MAGIC = b"MEDC"
FORMAT_VERSION = 1
MAX_CLASSES = 1 << 20  # each record holds a dense row of C labels

HEAD = "head"
MEDIUM = "medium"
TAIL = "tail"
# default group thresholds of compute_label_stats and TrainConfig
HEAD_THRESHOLD, MEDIUM_THRESHOLD = 500, 100


def fits_type(value, kind):
    """Whether a JSON value can be a dataclass field annotated `kind`.

    An int fits a float, a bool fits no int, and a list or tuple fits a
    sequence field when each item fits its item type.
    """
    origin = typing.get_origin(kind)
    if origin in (list, tuple):
        item = typing.get_args(kind)[0]
        return isinstance(value, (list, tuple)) and all(fits_type(v, item) for v in value)
    if kind is float:
        kind = (int, float)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def require_finite(obj):
    """Raise ValueError naming the first float field of the dataclass `obj` that is NaN or infinite.

    JSON configs can spell NaN and Infinity, and `json.load` parses them.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type is float and not np.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


class FeatureFileError(ValueError):
    """Malformed feature file; message carries the byte offset."""


@dataclass
class FeatureRecord:
    id: str
    features: np.ndarray   # (L, D) float32, the feature file's precision
    labels: np.ndarray     # (C,) binary

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.features.ndim != 2 or self.features.shape[0] < 1 or self.features.shape[1] < 1:
            raise ValueError(f"record {self.id}: features must be L x D with L,D >= 1, "
                             f"got {self.features.shape}")
        if not np.isfinite(self.features).all():
            raise ValueError(f"record {self.id}: non-finite features")
        if self.labels.sum() < 1:
            raise ValueError(f"record {self.id}: needs at least one positive label")

    def __eq__(self, other):
        return (self.id == other.id
                and np.array_equal(self.features, other.features)
                and np.array_equal(self.labels, other.labels))


@dataclass
class LabelStats:
    counts: np.ndarray       # per-class positive-label occurrences
    frequencies: np.ndarray  # omega, sums to 1
    groups: list             # per-class tag in {head, medium, tail}


@dataclass
class SyntheticConfig:
    C: int
    D: int
    L: int
    counts: list[int]
    class_sep: float = 4.0
    noise: float = 0.5
    temporal_jitter: float = 0.1
    multilabel_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        require_finite(self)
        if self.C < 2:
            raise ValueError(f"need at least 2 classes, got C={self.C}")
        for name in ("D", "L"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if len(self.counts) != self.C:
            raise ValueError(f"counts has {len(self.counts)} entries for C={self.C} classes")
        if any(n <= 0 for n in self.counts):
            raise ValueError("all class counts must be strictly positive")
        if self.class_sep <= 0 or self.noise < 0 or self.temporal_jitter < 0:
            raise ValueError("class_sep must be > 0 and noise levels >= 0")


def zipf_counts(C, max_count, exponent=1.0, min_count=1):
    """Long-tailed class counts: round(max_count / (k+1)^exponent), floored."""
    return [max(min_count, int(round(max_count / (k + 1) ** exponent))) for k in range(C)]


def generate_synthetic(cfg):
    """Draw a long-tailed multi-label feature dataset.

    Class prototypes sit at pairwise distance ~class_sep. Each record gets
    one per-record noise draw (std cfg.noise, shared by its frames) plus
    independent per-frame jitter. Per-class RNG streams are derived from
    (seed, class index), so results are independent of generation order.

    Returns (records, prototypes) with prototypes of shape (C, D).
    """
    proto_rng = derive_rng(cfg.seed, "prototypes")
    protos = proto_rng.standard_normal((cfg.C, cfg.D))
    protos *= (cfg.class_sep / np.sqrt(2.0)) / np.linalg.norm(protos, axis=1, keepdims=True)

    records = []
    for c in range(cfg.C):
        rng = derive_rng(cfg.seed, "class", c)
        for j in range(cfg.counts[c]):
            shift = rng.standard_normal(cfg.D) * cfg.noise
            jitter = rng.standard_normal((cfg.L, cfg.D)) * cfg.temporal_jitter
            feats = protos[c] + shift + jitter
            labels = np.zeros(cfg.C, dtype=np.uint8)
            labels[c] = 1
            if cfg.multilabel_prob > 0 and rng.random() < cfg.multilabel_prob:
                extra = int(rng.integers(cfg.C - 1))
                extra += extra >= c
                labels[extra] = 1
            # FeatureRecord rounds to float32, as the file holds them
            records.append(FeatureRecord(f"c{c:04d}_r{j:06d}", feats, labels))
    return records, protos


def compute_label_stats(records, head_threshold=HEAD_THRESHOLD,
                        medium_threshold=MEDIUM_THRESHOLD):
    """Per-class counts, label frequencies, and head/medium/tail groups.

    A class is head if count > head_threshold, medium if
    medium_threshold < count <= head_threshold, tail otherwise. Every
    positive label occurrence contributes one count. No records, or records
    of more than one shape, raise ValueError as in `record_shape`.
    """
    if head_threshold <= medium_threshold or medium_threshold <= 0:
        raise ValueError(f"need head_threshold > medium_threshold > 0, "
                         f"got ({head_threshold}, {medium_threshold})")
    _, _, C = record_shape(records)
    counts = np.zeros(C, dtype=np.int64)
    for r in records:
        counts += r.labels
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise ValueError(f"classes with zero positive labels: {empty.tolist()}")
    freqs = counts / counts.sum()
    groups = [HEAD if n > head_threshold else MEDIUM if n > medium_threshold else TAIL
              for n in counts]
    return LabelStats(counts=counts, frequencies=freqs, groups=groups)


def split_records(records, test_fraction, seed):
    """Deterministic stratified train/test split.

    Stratifies on each record's first positive label with one RNG stream
    per class; every class with >= 2 records keeps at least one record on
    each side.
    """
    if not 0 <= test_fraction < 1:
        raise ValueError(f"test_fraction must be in [0, 1), got {test_fraction}")
    by_class = {}
    for i, r in enumerate(records):
        c = int(np.flatnonzero(r.labels)[0])
        by_class.setdefault(c, []).append(i)
    train_idx, test_idx = [], []
    for c in sorted(by_class):
        idx = np.asarray(by_class[c])
        perm = derive_rng(seed, "split", c).permutation(idx.size)
        n_test = int(round(idx.size * test_fraction))
        n_test = min(max(n_test, 1), idx.size - 1) if idx.size >= 2 else 0
        test_idx.extend(idx[perm[:n_test]].tolist())
        train_idx.extend(idx[perm[n_test:]].tolist())
    return ([records[i] for i in sorted(train_idx)],
            [records[i] for i in sorted(test_idx)])


# -- binary feature file format ----------------------------------------------
# little-endian: magic "MEDC", version u32, N u64, C u32, L u32, D u32;
# per record: id_len u16 + UTF-8 id, n_labels u16 + n_labels x u32 indices,
# L*D x f32 row-major features.

def record_shape(records):
    """(L, D, C) of the first record; ValueError names no records or the first of another shape."""
    if not records:
        raise ValueError("no records: a dataset shape needs at least one record")
    L, D = records[0].features.shape
    C = len(records[0].labels)
    for r in records:
        if len(r.labels) != C or r.features.shape != (L, D):
            raise ValueError(f"record {r.id}: shape {r.features.shape}/C={len(r.labels)} "
                             f"differs from dataset shape ({L},{D})/C={C}")
    return L, D, C


def write_feature_file(path, records):
    L, D, C = record_shape(records) if records else (0, 0, 0)
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IQIII", FORMAT_VERSION, len(records), C, L, D))
        for r in records:
            idb = r.id.encode("utf-8")
            f.write(struct.pack("<H", len(idb)))
            f.write(idb)
            pos = np.flatnonzero(r.labels).astype(np.uint32)
            f.write(struct.pack("<H", pos.size))
            f.write(pos.astype("<u4").tobytes())
            f.write(r.features.astype("<f4").tobytes())


class ByteReader:
    """Bounds-checked reads from a blob; each failure raises `error` with the byte offset."""

    def __init__(self, blob, error):
        self.blob = blob
        self.offset = 0
        self.error = error

    def _check(self, offset, n, what):
        if n < 0:
            raise self.error(f"negative length {n} for {what} at byte offset {offset}")
        if offset + n > len(self.blob):
            raise self.error(f"truncated file: needed {n} bytes for {what} "
                             f"at byte offset {offset}")

    def require(self, parts):
        """Raise what reading each (n, what) of `parts` in turn would raise, reading nothing."""
        offset = self.offset
        for n, what in parts:
            self._check(offset, n, what)
            offset += n

    def read(self, n, what):
        self._check(self.offset, n, what)
        out = self.blob[self.offset:self.offset + n]
        self.offset += n
        return out

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def finish(self):
        """Reject any bytes after the last read."""
        if self.offset != len(self.blob):
            raise self.error(f"trailing garbage at byte offset {self.offset}")


def read_feature_file(path):
    """The records of a feature file; malformed input raises FeatureFileError with the byte offset.

    Each record's float32 features are a read-only view of the file's bytes, not a copy.
    """
    with open(path, "rb") as f:
        blob = f.read()
    r = ByteReader(blob, FeatureFileError)
    magic = r.read(4, "magic")
    if magic != MAGIC:
        raise FeatureFileError(f"bad magic {magic!r} at byte offset 0, expected {MAGIC!r}")
    version, n, C, L, D = r.unpack("<IQIII", "header")
    if version != FORMAT_VERSION:
        raise FeatureFileError(f"unsupported version {version} at byte offset 4")
    if C > MAX_CLASSES:
        raise FeatureFileError(f"class count C={C} at byte offset 16 exceeds {MAX_CLASSES}")
    records = []
    for i in range(n):
        start = r.offset
        (id_len,) = r.unpack("<H", f"record {i} id length")
        rid = r.read(id_len, f"record {i} id")
        (n_labels,) = r.unpack("<H", f"record {i} label count")
        idx = np.frombuffer(r.read(4 * n_labels, f"record {i} labels"), dtype="<u4")
        if n_labels and idx.max() >= C:
            raise FeatureFileError(f"record {i}: label index {idx.max()} out of range "
                                   f"for C={C} at byte offset {r.offset}")
        labels = np.zeros(C, dtype=np.uint8)
        labels[idx.astype(np.int64)] = 1
        feats = np.frombuffer(r.read(4 * L * D, f"record {i} features"), dtype="<f4")
        try:
            records.append(FeatureRecord(rid.decode("utf-8"), feats.reshape(L, D), labels))
        except ValueError as e:  # an id that is not UTF-8, or a record FeatureRecord refuses
            raise FeatureFileError(f"record {i} at byte offset {start}: {e}") from None
    r.finish()
    return records
