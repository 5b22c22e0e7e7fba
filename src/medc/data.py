"""Synthetic long-tailed feature datasets, label statistics, and file I/O."""

import hashlib
import json
import math
import os
import struct
import typing
from dataclasses import dataclass, fields
from itertools import zip_longest

import numpy as np

from .seeding import derive_rng

HEAD = "head"
MEDIUM = "medium"
TAIL = "tail"
# default group thresholds of compute_label_stats, TrainConfig and a config's eval section
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


def require_at_least(obj, minimum, *names):
    """Raise ValueError naming the first field of `names` of the dataclass `obj` below `minimum`."""
    for name in names:
        value = getattr(obj, name)
        if value < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {value}")


class FeatureFileError(ValueError):
    """Malformed feature file; message carries the byte offset."""


class RecordError(ValueError):
    """A Dataset's refusal of one record, the one at `index`."""

    def __init__(self, index, why):
        super().__init__(f"record {index}: {why}")
        self.index, self.why = index, why


FINITE_CHUNK = 1 << 16  # feature values behind one finiteness mask


def _finite_records(features):
    """(N,) bool: are all of each record's features finite. The isfinite masks cover whole
    records of at most FINITE_CHUNK values together, so none is the size of the features."""
    rows = max(1, FINITE_CHUNK // math.prod(features.shape[1:]))
    finite = np.empty(len(features), dtype=bool)
    for start in range(0, len(features), rows):
        finite[start:start + rows] = np.isfinite(features[start:start + rows]).all(axis=(1, 2))
    return finite


def _binary_rows(labels):
    """(N,) bool: are all of each row's labels 0 or 1, from one mask that the second test
    is or-ed into in place."""
    ok = labels == 0
    ok |= labels == 1
    return ok.all(axis=1)


class Dataset:
    """N videos as columns: `ids`, N strings; `features`, (N, L, D) float32, the feature file's
    precision; `labels`, the (N, C) uint8 label matrix, 0 or 1 with a 1 in every row.

    Indexing with a slice (which shares the arrays), an index array or a mask gives the Dataset
    of those rows. Other shapes raise ValueError naming them, and the first record with an id
    not a string, a non-finite feature, a label not 0 or 1 or no label raises RecordError.
    """

    def __init__(self, ids, features, labels):
        features, labels = np.asarray(features, dtype=np.float32), np.asarray(labels)
        if not (features.ndim == 3 and labels.ndim == 2 and len(ids) == len(features) == len(labels)
                and min(features.shape[1:] + labels.shape[1:]) >= 1):
            raise ValueError(f"a Dataset takes N ids, (N, L, D) features and (N, C) labels with "
                             f"L, D, C >= 1, got {len(ids)} ids, features of shape "
                             f"{features.shape} and labels of shape {labels.shape}")
        for ok, why in (([isinstance(rid, str) for rid in ids], "id {!r} is not a string"),
                        (_finite_records(features), "a feature is not finite"),
                        (_binary_rows(labels), "a label is not 0 or 1"),
                        (labels.any(axis=1), "needs at least one positive label")):
            if not np.all(ok):
                i = int(np.argmin(ok))
                raise RecordError(i, why.format(ids[i]))
        self.ids = np.asarray(ids, dtype=object)
        self.features, self.labels = features, labels.astype(np.uint8, copy=False)

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, rows):
        return Dataset(self.ids[rows], self.features[rows], self.labels[rows])

    def __eq__(self, other):
        return (isinstance(other, Dataset) and np.array_equal(self.ids, other.ids)
                and np.array_equal(self.features, other.features)
                and np.array_equal(self.labels, other.labels))

    def sha256(self):
        """Hex sha256 of the ids and the shapes (as JSON), then the features and the labels."""
        h = hashlib.sha256(json.dumps([self.ids.tolist(), self.features.shape,
                                       self.labels.shape]).encode())
        for column in (self.features, self.labels):
            h.update(np.ascontiguousarray(column))
        return h.hexdigest()


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
        require_at_least(self, 2, "C")
        require_at_least(self, 1, "D", "L")
        if len(self.counts) != self.C:
            raise ValueError(f"counts has {len(self.counts)} entries for C={self.C} classes")
        if any(n <= 0 for n in self.counts):
            raise ValueError("all class counts must be strictly positive")
        require_at_least(self, 0, "noise", "temporal_jitter")
        if self.class_sep <= 0:
            raise ValueError(f"class_sep must be > 0, got {self.class_sep}")


def zipf_counts(C, max_count, exponent=1.0, min_count=1):
    """Long-tailed class counts: round(max_count / (k+1)^exponent), floored."""
    return [max(min_count, int(round(max_count / (k + 1) ** exponent))) for k in range(C)]


def generate_synthetic(cfg):
    """Draw a long-tailed multi-label feature dataset.

    Class prototypes sit at pairwise distance ~class_sep. Each record gets
    one per-record noise draw (std cfg.noise, shared by its frames) plus
    independent per-frame jitter. Per-class RNG streams are derived from
    (seed, class index), so results are independent of generation order.

    Returns (Dataset, prototypes) with prototypes of shape (C, D).
    """
    proto_rng = derive_rng(cfg.seed, "prototypes")
    protos = proto_rng.standard_normal((cfg.C, cfg.D))
    protos *= (cfg.class_sep / np.sqrt(2.0)) / np.linalg.norm(protos, axis=1, keepdims=True)

    ids = [f"c{c:04d}_r{j:06d}" for c, n in enumerate(cfg.counts) for j in range(n)]
    features = np.empty((len(ids), cfg.L, cfg.D), dtype=np.float32)  # the file's precision
    labels = np.zeros((len(ids), cfg.C), dtype=np.uint8)
    for c, end in enumerate(np.cumsum(cfg.counts)):
        rng = derive_rng(cfg.seed, "class", c)
        for i in range(end - cfg.counts[c], end):
            shift = rng.standard_normal(cfg.D) * cfg.noise
            jitter = rng.standard_normal((cfg.L, cfg.D)) * cfg.temporal_jitter
            features[i] = protos[c] + shift + jitter
            labels[i, c] = 1
            if cfg.multilabel_prob > 0 and rng.random() < cfg.multilabel_prob:
                extra = int(rng.integers(cfg.C - 1))
                labels[i, extra + (extra >= c)] = 1
    return Dataset(ids, features, labels), protos


def compute_label_stats(dataset, head_threshold=HEAD_THRESHOLD,
                        medium_threshold=MEDIUM_THRESHOLD):
    """Per-class counts, label frequencies, and head/medium/tail groups.

    A class is head if count > head_threshold, medium if
    medium_threshold < count <= head_threshold, tail otherwise. Every
    positive label occurrence contributes one count; no records raise ValueError.
    """
    if head_threshold <= medium_threshold or medium_threshold <= 0:
        raise ValueError(f"need head_threshold > medium_threshold > 0, "
                         f"got ({head_threshold}, {medium_threshold})")
    if not len(dataset):
        raise ValueError("no records: label statistics need at least one record")
    counts = dataset.labels.sum(axis=0, dtype=np.int64)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise ValueError(f"classes with zero positive labels: {empty.tolist()}")
    freqs = counts / counts.sum()
    groups = [HEAD if n > head_threshold else MEDIUM if n > medium_threshold else TAIL
              for n in counts]
    return LabelStats(counts=counts, frequencies=freqs, groups=groups)


def split_records(dataset, test_fraction, seed):
    """Deterministic stratified (train, test) split of a Dataset, each in the Dataset's order.

    Stratifies on each record's first positive label with one RNG stream
    per class; every class with >= 2 records keeps at least one record on
    each side.
    """
    if not 0 <= test_fraction < 1:
        raise ValueError(f"test_fraction must be in [0, 1), got {test_fraction}")
    first = dataset.labels.argmax(axis=1)
    test = np.zeros(len(dataset), dtype=bool)
    for c in range(dataset.labels.shape[1]):
        idx = np.flatnonzero(first == c)
        perm = derive_rng(seed, "split", c).permutation(idx.size)
        n_test = int(round(idx.size * test_fraction))
        n_test = min(max(n_test, 1), idx.size - 1) if idx.size >= 2 else 0
        test[idx[perm[:n_test]]] = True
    return dataset[~test], dataset[test]


# -- one container format for every binary file -------------------------------
# An 8-byte magic, the manifest's length as a u64, a sorted-keys JSON manifest holding
# `version` and `arrays` (each payload's name, shape and dtype, in file order), then the
# payloads, little-endian and row-major, each read straight into the array that keeps it.
# A feature file's manifest adds `ids`, and its payloads are `features` (N, L, D) "<f4"
# and `labels` (N, C) "|u1", one 0 or 1 byte per class.

def atomic_write(path, chunks):
    """Write the bytes-like `chunks` to a temporary file beside `path`, sync it and rename it
    over `path`, so an interrupted write leaves the earlier file there and no temporary file."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class ByteReader:
    """Checked reads of an open binary file, sized once when the reader is made; each failure
    raises `error` with the byte offset, also when the file ends before that size."""

    def __init__(self, f, error):
        self.f, self.error, self.offset = f, error, 0
        self.size = os.fstat(f.fileno()).st_size

    def require(self, parts):
        """Raise what reading each (n, what) of `parts` in turn would raise, reading nothing."""
        offset = self.offset
        for n, what in parts:
            if n < 0:
                raise self.error(f"negative length {n} for {what} at byte offset {offset}")
            if offset + n > self.size:
                raise self.error(f"truncated file: needed {n} bytes for {what} "
                                 f"at byte offset {offset}")
            offset += n

    def read(self, n, what, into=None):
        """The next `n` bytes, read into `into` (n writable bytes) or a new bytearray."""
        self.require([(n, what)])
        into = bytearray(n) if into is None else into
        if self.f.readinto(into) != n:  # the file shrank after it was sized
            raise self.error(f"truncated file: {n} bytes for {what} at byte offset {self.offset}")
        self.offset += n
        return into


@dataclass(frozen=True)
class Container:
    """One use of the layout; `name` begins its messages, and `whose` arrays the list must fit."""
    name: str
    magic: bytes
    versions: tuple
    keys: tuple
    error: type
    whose: str

    def write(self, path, manifest, arrays):
        """Write `manifest` and each (name, dtype, array) payload atomically; an array that is
        C-ordered at its dtype is written from its own memory, with no copy."""
        arrays = [(name, dtype, np.require(a, dtype, "C")) for name, dtype, a in arrays]
        listed = [{"name": n, "shape": list(a.shape), "dtype": dtype} for n, dtype, a in arrays]
        blob = json.dumps(dict(manifest, arrays=listed), sort_keys=True).encode("utf-8")
        atomic_write(path, [self.magic + struct.pack("<Q", len(blob)) + blob]
                     + [a for _, _, a in arrays])

    def read_manifest(self, f):
        """The manifest in the header of the open file `f` and a reader at its first payload; bad
        magic, a cut or undecodable manifest, a lacking key and another version raise `error`."""
        reader = ByteReader(f, self.error)
        magic = reader.read(len(self.magic), "magic")
        if magic != self.magic:
            raise self.error(f"not a {self.name} file: bad magic {bytes(magic)!r} "
                             f"at byte offset 0, expected {self.magic!r}")
        (size,) = struct.unpack("<Q", reader.read(8, "manifest length"))
        text = reader.read(size, "manifest")
        try:
            manifest = json.loads(str(text, "utf-8"))
        except ValueError as e:  # bytes that are not UTF-8, or text that is not JSON
            raise self.error(f"{self.name} manifest at byte offset {len(self.magic) + 8} "
                             f"does not decode: {e}") from None
        if not isinstance(manifest, dict):
            raise self.error(f"{self.name} manifest is not a JSON object: {manifest!r:.40}")
        missing = [k for k in self.keys if k not in manifest]
        if missing:
            raise self.error(f"{self.name} manifest lacks the key {missing[0]!r}")
        if manifest["version"] not in self.versions:
            raise self.error(f"unsupported {self.name} version {manifest['version']!r}; "
                             f"this reader accepts versions {self.versions}")
        if not isinstance(manifest["arrays"], list):
            raise self.error(f"{self.name} 'arrays' is not a list: {manifest['arrays']!r:.40}")
        return manifest, reader

    def read_arrays(self, reader, listed, expected):
        """The payloads once `listed` fits `expected`, each (name, shape, dtype) with a str for any
        size, each read into its own array, allocated once every byte count has been checked."""
        if len(listed) > len(expected):
            raise self.error(f"{self.name} arrays entry {listed[len(expected)]!r} is beyond "
                             f"the {len(expected)} arrays of the {self.whose}")
        for (name, shape, dtype), meta in zip_longest(expected, listed):  # lacking: None
            if not (isinstance(meta, dict) and meta.keys() == {"name", "shape", "dtype"}
                    and meta["name"] == name and meta["dtype"] == dtype
                    and isinstance(meta["shape"], list) and len(meta["shape"]) == len(shape)
                    and all(type(n) is int and (n >= 0 if isinstance(want, str) else n == want)
                            for n, want in zip(meta["shape"], shape))):
                raise self.error(f"{self.name} arrays entry {meta!r} does not match the "
                                 f"{self.whose}'s {name!r} of shape {list(shape)} and dtype "
                                 f"{dtype!r}")
        arrays = [(name, tuple(meta["shape"]), np.dtype(dtype))
                  for (name, _, dtype), meta in zip(expected, listed)]
        parts = [(dtype.itemsize * math.prod(shape), f"array {name!r}")
                 for name, shape, dtype in arrays]
        reader.require(parts)
        values = []
        for (name, shape, dtype), part in zip(arrays, parts):
            try:
                a = np.empty(shape, dtype)
            except ValueError as e:  # two negative sizes, or sizes whose product overflows
                raise self.error(f"{self.name} array {name!r} of shape {shape}: {e}") from None
            reader.read(*part, into=a.reshape(-1).view(np.uint8))
            values.append(a.astype(dtype.newbyteorder("="), copy=False))
        if reader.offset != reader.size:
            raise self.error(f"trailing garbage at byte offset {reader.offset}")
        return values


FEATURE_FILE = Container(name="feature", magic=b"MEDCFEAT", versions=(2,),
                         keys=("version", "ids", "arrays"), error=FeatureFileError, whose="file")


def write_feature_file(path, dataset):
    """Write a Dataset atomically, each column from its own memory when it is C-ordered."""
    FEATURE_FILE.write(path, {"version": FEATURE_FILE.versions[-1], "ids": dataset.ids.tolist()},
                       [("features", "<f4", dataset.features), ("labels", "|u1", dataset.labels)])


def read_feature_file(path):
    """The Dataset of a feature file, whose columns are the arrays the payloads are read into; a
    record the Dataset refuses, or a label byte not 0 or 1, is named by index and byte offset."""
    with open(path, "rb") as f:
        manifest, reader = FEATURE_FILE.read_manifest(f)
        ids = manifest["ids"]
        if not isinstance(ids, list):
            raise FeatureFileError(f"feature manifest 'ids' is not a list: {ids!r:.40}")
        start = reader.offset
        features, labels = FEATURE_FILE.read_arrays(reader, manifest["arrays"], [
            ("features", (len(ids), "L", "D"), "<f4"), ("labels", (len(ids), "C"), "|u1")])
    bad = np.flatnonzero(labels > 1)
    if bad.size:
        raise FeatureFileError(f"record {bad[0] // labels.shape[1]} at byte offset "
                               f"{start + features.nbytes + bad[0]}: a label byte is not 0 or 1")
    try:
        return Dataset(ids, features, labels)
    except RecordError as e:
        offset = start + e.index * features[0].nbytes
        raise FeatureFileError(f"record {e.index} at byte offset {offset}: {e.why}") from e
    except ValueError as e:  # a shape with L, D or C of 0
        raise FeatureFileError(f"feature file: {e}") from e
