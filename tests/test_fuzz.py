"""Mutated HRGF and HRGM blobs fail only with the data errors that the CLI
maps to exit 3, and odd flag values of every subcommand end in a
documented exit code; never a traceback or an oversized allocation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hrgenet.checkpoint import load_model, save_model
from hrgenet.cli import main
from hrgenet.data import (
    GENERATOR_KINDS,
    FeatureDataset,
    ShapeRecord,
    load_dataset,
    save_dataset,
)
from hrgenet.errors import DataFormatError, LabelError
from hrgenet.graph import VARIANT_NAMES, HrgeModel
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


# Flags through main() in this process; each example runs in well under a
# second, and the size caps below keep each one far below 100 MB.
CLI_FUZZ = settings(max_examples=60, derandomize=True, deadline=None)
HUGE = 2**64  # for flags that size no array


def numbers(normal, large):
    """A numeric flag's values: 0, -1, NaN, +-inf, a large value, capped
    where it sizes the work, and a normal one."""
    return ["0", "-1", "nan", "inf", "-inf", str(large), str(normal)]


@st.composite
def flags(draw, table):
    """Up to four of `table`'s flags, each with one of its values (None
    for a switch); the rest keep the defaults, so that many examples get
    past the parser into the command."""
    argv = []
    for flag in draw(st.lists(st.sampled_from(sorted(table)), unique=True,
                              max_size=4)):
        value = draw(st.sampled_from(table[flag]))
        argv += [flag] if value is None else [flag, value]
    return argv


SYNTH = {
    "--mode": list(GENERATOR_KINDS), "--classes": numbers(3, 32),
    "--per-class": numbers(2, 32), "--views": numbers(6, 48),
    "--dim": numbers(3, 32), "--noise": numbers(0.5, 1e300),
    "--fine-per-class": numbers(1, HUGE), "--stride": numbers(3, HUGE),
    "--depth": numbers(1, HUGE), "--seed": numbers(7, HUGE),
}
TRAIN = {
    "--variant": list(VARIANT_NAMES), "--stride": numbers(3, HUGE),
    "--depth": numbers(1, HUGE), "--lr": numbers(1e-3, 1e300),
    "--weight-decay": numbers(1e-3, 1e300), "--batch": numbers(2, HUGE),
    "--epochs": numbers(2, 16), "--lr-decay-factor": numbers(0.5, 1e300),
    "--lr-decay-period": numbers(1, HUGE), "--use-fine-labels": [None],
    "--seed": numbers(3, HUGE),
}
# eval has no numeric flag; its paths name each kind of file, or none.
EVAL = {
    "--data": ["{data}", "{coarse}", "{dir}", "{missing}"],
    "--checkpoint": ["{coarse}", "{fine}", "{data}", "{dir}", "{missing}"],
    "--out": ["{work}/report.txt", "{dir}", "{under_file}"],
}
RETRIEVE = {
    "--tau": numbers(0.5, 1e300),
    "--data": ["{data}", "{coarse}", "{missing}"],
    "--checkpoint": ["{coarse}", "{fine}", "{data}", "{dir}"],
    "--fine-checkpoint": ["{fine}", "{coarse}", "{data}", "{missing}"],
    "--out": ["{work}/retr", "{data}", "{under_file}"],
}
GRADCHECK = {
    "--views": numbers(6, 12), "--dim": numbers(2, 4),
    "--stride": numbers(3, HUGE), "--depth": numbers(1, HUGE),
    "--variant": list(VARIANT_NAMES), "--classes": numbers(3, 8),
    "--tol": numbers(1e-4, 1e300), "--perturb": numbers(0.5, 1e300),
    "--seed": numbers(2, HUGE),
}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A 6-shape dataset with 6 fine classes, a coarse and a fine
    checkpoint trained on it, a directory, a missing path and a path
    under a file."""
    work = tmp_path_factory.mktemp("cli")
    files = {"work": str(work), "dir": str(work), "data": str(work / "d.hrgf"),
             "coarse": str(work / "coarse" / "checkpoint.hrgm"),
             "fine": str(work / "fine" / "checkpoint.hrgm"),
             "missing": str(work / "missing"),
             "under_file": str(work / "d.hrgf" / "x")}
    assert main(["synth", "--classes", "2", "--per-class", "3", "--views",
                 "6", "--dim", "3", "--fine-per-class", "3",
                 "--out", files["data"]]) == 0
    for name, extra in (("coarse", []), ("fine", ["--use-fine-labels"])):
        assert main(["train", "--data", files["data"], "--epochs", "1",
                     "--out", str(work / name), *extra]) == 0
    return files


def run_cli(argv, files):
    """`main` on `argv` with `files` filled in; under this suite's warning
    filter any warning the run gives fails it."""
    code = main([arg.format(**files) for arg in argv])
    assert code in (0, 2, 3, 4), argv


@CLI_FUZZ
@given(argv=flags(SYNTH))
def test_synth_flags_end_in_an_exit_code(cli_files, argv):
    run_cli(["synth", "--classes", "2", "--per-class", "2", "--views", "6",
             "--dim", "3", "--out", "{work}/s.hrgf", *argv], cli_files)


@CLI_FUZZ
@given(argv=flags(TRAIN))
def test_train_flags_end_in_an_exit_code(cli_files, argv):
    run_cli(["train", "--data", "{data}", "--epochs", "1",
             "--out", "{work}/run", *argv], cli_files)


@CLI_FUZZ
@given(argv=flags(EVAL))
def test_eval_flags_end_in_an_exit_code(cli_files, argv):
    run_cli(["eval", "--data", "{data}", "--checkpoint", "{coarse}", *argv],
            cli_files)


@CLI_FUZZ
@given(argv=flags(RETRIEVE))
def test_retrieve_flags_end_in_an_exit_code(cli_files, argv):
    run_cli(["retrieve", "--data", "{data}", "--checkpoint", "{coarse}",
             "--out", "{work}/retr", *argv], cli_files)


@CLI_FUZZ
@given(argv=flags(GRADCHECK))
def test_gradcheck_flags_end_in_an_exit_code(cli_files, argv):
    run_cli(["gradcheck", "--views", "4", "--dim", "2", "--classes", "2",
             *argv], cli_files)
