"""Mutated HRGF and HRGM blobs fail only with the data errors that the CLI
maps to exit 3, never with a traceback or an oversized allocation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrgenet.checkpoint import load_model, save_model
from hrgenet.data import (
    FeatureDataset,
    ShapeRecord,
    load_dataset,
    save_dataset,
)
from hrgenet.errors import DataFormatError, LabelError
from hrgenet.graph import HrgeModel
from hrgenet.training import Classifier

# Positions wrap modulo the blob length; the low range keeps many edits
# in the headers, where most of the structure is.
POSITION = st.integers(0, 64) | st.integers(0, 4096)
MUTATION = st.one_of(
    st.tuples(st.just("flip"), POSITION, st.integers(1, 255)),
    st.tuples(st.just("truncate"), POSITION, st.just(b"")),
    st.tuples(st.just("insert"), POSITION, st.binary(min_size=1, max_size=8)),
)
MUTATIONS = st.lists(MUTATION, min_size=1, max_size=3)
FUZZ = settings(max_examples=150, derandomize=True, deadline=None)


def mutate(blob, mutations):
    out = bytearray(blob)
    for op, pos, arg in mutations:
        pos %= len(out) + 1
        if op == "flip" and pos < len(out):
            out[pos] ^= arg
        elif op == "truncate":
            del out[pos:]
        elif op == "insert":
            out[pos:pos] = arg
    return bytes(out)


@pytest.fixture(scope="module")
def blobs(tmp_path_factory):
    work = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    records = [ShapeRecord(id=f"s{k}", views=rng.normal(size=(4, 3)),
                           coarse_label=k % 2, fine_label=k % 4)
               for k in range(3)]
    save_dataset(FeatureDataset(records=records, num_classes=2,
                                num_fine_classes=4), work / "ds.hrgf")
    model = HrgeModel(num_views=6, width=2, variant="full", seed=0)
    save_model(model, work / "m.hrgm",
               Classifier(model.descriptor_length, 3))
    return {"hrgf": (work / "ds.hrgf").read_bytes(),
            "hrgm": (work / "m.hrgm").read_bytes(), "work": work}


@FUZZ
@given(mutations=MUTATIONS)
@example(mutations=[("flip", 30, 0x80)])  # record 0 id "s0" -> not UTF-8
def test_mutated_dataset_fails_only_as_data_error(blobs, mutations):
    path = blobs["work"] / "mutated.hrgf"
    path.write_bytes(mutate(blobs["hrgf"], mutations))
    try:
        load_dataset(path)
    except (DataFormatError, LabelError):
        pass


@FUZZ
@given(mutations=MUTATIONS)
@example(mutations=[("flip", 38, 67)])  # first block's ndim 2 -> 65
@example(mutations=[("flip", 20, 4)])   # width 2 -> 6
def test_mutated_checkpoint_fails_only_as_data_error(blobs, mutations):
    path = blobs["work"] / "mutated.hrgm"
    path.write_bytes(mutate(blobs["hrgm"], mutations))
    try:
        load_model(path)
    except DataFormatError:
        pass
