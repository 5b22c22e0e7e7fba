"""Damaged feature files and checkpoints raise the format's own error, and nothing else.

Each format is cut at every offset, and single bytes are replaced under
Hypothesis (derandomized, so every run tries the same cases). A cut file
must be refused with the byte offset; a file with one byte replaced may
load, or be refused with the format's error, but no other exception may
escape the reader.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from medc.data import Dataset, FeatureFileError, read_feature_file, write_feature_file
from medc.model import Model, ModelConfig, load_checkpoint, save_checkpoint

MAX_EXAMPLES = 500


def _feature_file(path):
    write_feature_file(path, Dataset(["a", "bc"], [[[0.5, -1.0]], [[2.0, 0.25]]],
                                     [[1, 0, 0], [0, 1, 1]]))


def _checkpoint(path):
    cfg = ModelConfig(D=2, C=2, d_trunk=1, hidden=1, d=1, experts=("uniform",))
    save_checkpoint(path, Model(cfg, seed=3),
                    extra={"epoch": 1, "adam.t": 1, "adam.m": np.zeros(2), "adam.v": np.ones(2)})


FORMATS = {"feature_file": (_feature_file, read_feature_file, FeatureFileError),
           "checkpoint": (_checkpoint, load_checkpoint, ValueError)}


@pytest.fixture(scope="module", params=sorted(FORMATS))
def fmt(request, tmp_path_factory):
    write, read, error = FORMATS[request.param]
    path = tmp_path_factory.mktemp(request.param) / "file.bin"
    write(path)
    blob = path.read_bytes()
    read(path)  # the undamaged file loads
    return path, blob, read, error


def test_every_truncation_is_refused_with_its_offset(fmt):
    path, blob, read, error = fmt
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(error, match="byte offset"):
            read(path)


@settings(derandomize=True, database=None, deadline=None, max_examples=MAX_EXAMPLES)
@given(data=st.data())
def test_a_replaced_byte_loads_or_is_refused_by_the_format(fmt, data):
    path, blob, read, error = fmt
    offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
    damaged = bytearray(blob)
    damaged[offset] = data.draw(st.integers(0, 255).filter(lambda v: v != blob[offset]),
                                label="value")
    path.write_bytes(bytes(damaged))
    try:
        read(path)
    except error:
        pass
