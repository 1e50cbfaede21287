import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import hrgenet
from hrgenet import autograd as ag
from hrgenet import cli
from hrgenet.checkpoint import load_model, save_model
from hrgenet.cli import main
from hrgenet.data import ShapeRecord, load_dataset, save_dataset
from hrgenet.errors import ConfigError
from hrgenet.graph import HrgeModel
from hrgenet.retrieval import METRIC_KEYS
from hrgenet.training import Classifier, TrainLog


def run(args):
    return main(args)


def child(args, timeout=60):
    """Run the CLI in a child process, so that a hang fails the test
    instead of stalling the suite."""
    src = os.path.dirname(os.path.dirname(hrgenet.__file__))
    return subprocess.run(
        [sys.executable, "-m", "hrgenet", *map(str, args)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=timeout)


def run_in_child(args, timeout=60):
    return child(args, timeout).returncode


def read_records(path):
    """The records of a JSON Lines run file."""
    return [json.loads(line) for line in path.read_text().splitlines()]


def write_checkpoint(path, views, width, num_classes):
    model = HrgeModel(num_views=views, width=width, variant="full", seed=0)
    save_model(model, path, Classifier(model.descriptor_length, num_classes))
    return path


@pytest.fixture
def synth_file(tmp_path):
    path = tmp_path / "data.hrgf"
    assert run(["synth", "--mode", "relational-order", "--classes", "3",
                "--per-class", "4", "--views", "12", "--dim", "6",
                "--seed", "7", "--out", str(path)]) == 0
    return path


class TestSynth:
    def test_writes_valid_deterministic_file(self, synth_file, tmp_path):
        ds = load_dataset(synth_file)
        assert len(ds) == 12
        other = tmp_path / "again.hrgf"
        run(["synth", "--mode", "relational-order", "--classes", "3",
             "--per-class", "4", "--views", "12", "--dim", "6",
             "--seed", "7", "--out", str(other)])
        assert synth_file.read_bytes() == other.read_bytes()

    def test_geometry_error_is_usage_error(self, tmp_path):
        code = run(["synth", "--views", "10", "--stride", "2", "--depth", "2",
                    "--out", str(tmp_path / "x.hrgf")])
        assert code == 2

    def test_bad_mode_is_usage_error(self, tmp_path):
        assert run(["synth", "--mode", "bogus",
                    "--out", str(tmp_path / "x.hrgf")]) == 2

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_non_finite_noise_is_usage_error(self, tmp_path, capsys, noise):
        out = tmp_path / "x.hrgf"
        assert run(["synth", "--noise", noise, "--out", str(out)]) == 2
        assert f"noise must be finite and >= 0, got {noise}" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--noise", "--noi"])
    def test_negative_infinite_noise_is_usage_error(self, tmp_path, capsys,
                                                    flag):
        # argparse reads "-inf" as an option unless it is joined to its flag.
        out = tmp_path / "x.hrgf"
        assert run(["synth", flag, "-inf", "--out", str(out)]) == 2
        assert "noise must be finite and >= 0, got -inf" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_negative_fine_per_class_is_usage_error(self, tmp_path):
        assert run(["synth", "--fine-per-class", "-1",
                    "--out", str(tmp_path / "x.hrgf")]) == 2

    @pytest.mark.parametrize("per_class, fine", [
        ("2", "5"), ("1", "2000000000")])
    def test_more_sub_categories_than_shapes_is_usage_error(
            self, tmp_path, capsys, per_class, fine):
        out = tmp_path / "x.hrgf"
        assert run(["synth", "--mode", "relational-order", "--classes", "3",
                    "--per-class", per_class, "--views", "6", "--dim", "2",
                    "--fine-per-class", fine, "--out", str(out)]) == 2
        assert f"fine_per_class {fine} exceeds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--classes", "100000000000000000"), ("--views", "4294967296"),
        ("--dim", "4294967296")])
    def test_size_beyond_the_u32_header_is_usage_error(self, tmp_path, capsys,
                                                       flag, value):
        out = tmp_path / "x.hrgf"
        argv = ["synth", "--classes", "2", "--per-class", "1", "--views",
                "6", "--dim", "2", "--out", str(out)]
        argv[argv.index(flag) + 1] = value
        assert run(argv) == 2
        assert "must each be <= 4294967295" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_is_usage_error(self, tmp_path, capsys,
                                          monkeypatch):
        def too_big(spec):
            raise MemoryError("Unable to allocate 2.79 TiB")

        monkeypatch.setattr(cli.data, "generate_synthetic", too_big)
        out = tmp_path / "x.hrgf"
        assert run(["synth", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 2.79 TiB\n")
        assert not out.exists()

    def test_more_classes_than_ring_orders_is_usage_error(self, tmp_path):
        # 3 views have 2 ring orders distinct up to rotation.
        assert run_in_child(["synth", "--mode", "relational-order",
                             "--views", "3", "--classes", "10", "--stride",
                             "3", "--out", tmp_path / "x.hrgf"]) == 2


@pytest.mark.parametrize("views,stride,depth", [
    (8, 2, 3), (8, 2, 0), (12, 2, 2), (10, 2, 2), (9, 3, 2), (4, 2, 1),
    (24, 2, None), (12, 2, 1), (12, 2, 3), (12, 2, -1), (12, 3, 2),
    (12, 4, 1), (12, 1, 1), (12, 0, None), (16, 2, 3), (16, 2, 4),
    (3, 3, 1), (2, 2, 1), (6, 3, None), (9, 2, None), (5, 5, 1),
])
def test_synth_accepts_what_the_model_accepts(tmp_path, views, stride, depth):
    """With --depth, synth accepts a geometry exactly when a hierarchical
    model does; without it, exactly when a non-hierarchical one does.
    Every model that builds round-trips its checkpoint byte for byte."""
    out = tmp_path / "x.hrgf"
    argv = ["synth", "--classes", "2", "--per-class", "1", "--dim", "3",
            "--views", str(views), "--stride", str(stride), "--out", str(out)]
    if depth is not None:
        argv += ["--depth", str(depth)]
    code = run(argv)
    assert code in (0, 2)
    assert out.exists() == (code == 0)
    built = {}
    for variant in ("full", "1l", "pr"):
        try:
            built[variant] = HrgeModel(views, 3, variant, stride, depth)
        except ConfigError:
            pass
    assert (code == 0) == (("full" if depth is not None else "pr") in built)
    for variant, model in built.items():
        first, second = tmp_path / f"{variant}.hrgm", tmp_path / "again.hrgm"
        save_model(model, first, Classifier(model.descriptor_length, 2))
        loaded, classifier = load_model(first)
        save_model(loaded, second, classifier)
        assert first.read_bytes() == second.read_bytes()


class TestTrainEval:
    def test_train_writes_run_artifacts(self, synth_file, tmp_path):
        out = tmp_path / "run"
        code = run(["train", "--data", str(synth_file), "--variant", "full",
                    "--epochs", "2", "--batch", "6", "--lr", "1e-3",
                    "--out", str(out)])
        assert code == 0
        assert (out / "checkpoint.hrgm").exists()
        assert (out / "checkpoint.hrgm.manifest.txt").exists()
        assert (out / "manifest.txt").exists()
        log = TrainLog(read_records(out / "train.log"))
        assert log.epoch_records()[-1]["epoch"] == 1

    def test_zero_lr_flat_loss_log(self, synth_file, tmp_path):
        out = tmp_path / "run"
        run(["train", "--data", str(synth_file), "--epochs", "3",
             "--batch", "12", "--lr", "0", "--weight-decay", "0",
             "--out", str(out)])
        losses = [r["loss"] for r in
                  TrainLog(read_records(out / "train.log")).epoch_records()]
        assert max(losses) - min(losses) < 1e-12

    @pytest.mark.parametrize("flags", [
        ["--lr-decay-period", "0"],
        ["--lr-decay-period", "-3"],
        ["--lr", "-1"],
        ["--lr", "nan"],
        ["--lr", "inf"],
        ["--weight-decay", "-5"],
        ["--weight-decay", "nan"],
        ["--weight-decay", "inf"],
        ["--lr-decay-factor", "nan"],
    ])
    def test_bad_training_flag_is_usage_error(self, synth_file, tmp_path,
                                              flags):
        out = tmp_path / "run"
        assert run(["train", "--data", str(synth_file), "--epochs", "1",
                    "--batch", "12", *flags, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("variant,depth", [("1l", "2"), ("pr", "5")])
    def test_depth_the_variant_does_not_run_is_usage_error(
            self, synth_file, tmp_path, capsys, variant, depth):
        out = tmp_path / "run"
        assert run(["train", "--data", str(synth_file), "--variant", variant,
                    "--depth", depth, "--epochs", "1",
                    "--out", str(out)]) == 2
        assert f"cannot run depth {depth}" in capsys.readouterr().err
        assert not out.exists()

    def test_neighbor_module_on_two_views_is_usage_error(self, tmp_path,
                                                         capsys):
        """A ring of two views has no neighbor triplets: `nr` is refused
        before the run directory is made, not at the first forward."""
        data_path, out = tmp_path / "two.hrgf", tmp_path / "run"
        assert run(["synth", "--classes", "2", "--per-class", "2",
                    "--views", "2", "--dim", "3", "--out",
                    str(data_path)]) == 0
        assert run(["train", "--data", str(data_path), "--variant", "nr",
                    "--epochs", "1", "--out", str(out)]) == 2
        assert not out.exists()
        assert "ring of >= 3 views" in capsys.readouterr().err

    def test_1l_trains_at_its_own_depth(self, synth_file, tmp_path):
        out = tmp_path / "run"
        assert run(["train", "--data", str(synth_file), "--variant", "1l",
                    "--depth", "1", "--epochs", "1", "--batch", "6",
                    "--out", str(out)]) == 0
        header = read_records(out / "checkpoint.hrgm.manifest.txt")[0]
        assert (header["variant"], header["depth"]) == ("1l", 1)

    def test_negative_infinite_lr_is_usage_error(self, synth_file, tmp_path,
                                                 capsys):
        out = tmp_path / "run"
        assert run(["train", "--data", str(synth_file), "--epochs", "1",
                    "--lr", "-inf", "--out", str(out)]) == 2
        assert "learning rate must be finite and >= 0, got -inf" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_eval_report_round_trips(self, synth_file, tmp_path, capsys):
        out = tmp_path / "run"
        run(["train", "--data", str(synth_file), "--epochs", "1",
             "--batch", "6", "--out", str(out)])
        report = tmp_path / "report.txt"
        code = run(["eval", "--data", str(synth_file),
                    "--checkpoint", str(out / "checkpoint.hrgm"),
                    "--out", str(report)])
        assert code == 0
        [record] = read_records(report)
        assert list(record) == ["per_instance_acc", "per_class_acc"]
        assert all(0.0 <= value <= 1.0 for value in record.values())
        # stdout prints the same values as the report
        assert capsys.readouterr().out.splitlines()[-2:] == [
            f"{key}={value:.10g}" for key, value in record.items()]

    def test_non_finite_dataset_is_data_error(self, synth_file, tmp_path,
                                              capsys):
        blob = bytearray(synth_file.read_bytes())
        record = 2 + len("order-0-0") + 8 + 12 * 6 * 8
        at = 28 + 3 * record + 2 + len("order-1-0") + 8
        struct.pack_into("<d", blob, at, np.nan)  # record 3, views[0, 0]
        bad = tmp_path / "nan.hrgf"
        bad.write_bytes(blob)
        out = tmp_path / "run"
        assert run(["train", "--data", str(bad), "--epochs", "1",
                    "--batch", "6", "--out", str(out)]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "checkpoint.hrgm").exists()

    @pytest.mark.parametrize("stride", [1, 0])
    def test_stride_below_two_is_usage_error(self, synth_file, tmp_path,
                                             stride):
        assert run_in_child(["train", "--data", synth_file, "--epochs", "1",
                             "--stride", stride,
                             "--out", tmp_path / "run"]) == 2

    def test_stride_one_checkpoint_is_data_error(self, synth_file, tmp_path):
        ckpt = write_checkpoint(tmp_path / "m.hrgm", 12, 6, 3)
        blob = bytearray(ckpt.read_bytes())
        struct.pack_into("<II", blob, 12, 1, 0)  # stride, depth
        ckpt.write_bytes(blob)
        assert run_in_child(["eval", "--data", synth_file,
                             "--checkpoint", ckpt]) == 3

    def test_header_depth_that_does_not_fit_is_data_error(
            self, synth_file, tmp_path, capsys):
        ckpt = write_checkpoint(tmp_path / "m.hrgm", 12, 6, 3)
        blob = bytearray(ckpt.read_bytes())
        struct.pack_into("<I", blob, 16, 0)  # depth
        ckpt.write_bytes(blob)
        assert run(["eval", "--data", str(synth_file),
                    "--checkpoint", str(ckpt)]) == 3
        assert "at byte 16" in capsys.readouterr().err

    @pytest.mark.parametrize("views,width,classes", [
        (12, 6, 2), (6, 6, 3), (12, 4, 3)])
    def test_checkpoint_that_does_not_fit_is_data_error(
            self, synth_file, tmp_path, capsys, views, width, classes):
        ckpt = write_checkpoint(tmp_path / "m.hrgm", views, width, classes)
        assert run(["eval", "--data", str(synth_file),
                    "--checkpoint", str(ckpt)]) == 3
        assert "dataset" in capsys.readouterr().err

    @pytest.mark.parametrize("count,views,width,at", [
        (0, 12, 6, 8), (2, 0, 6, 12), (2, 12, 0, 16)])
    def test_empty_geometry_is_data_error(self, tmp_path, capsys, count,
                                          views, width, at):
        path = tmp_path / "empty.hrgf"
        blob = b"HRGF" + struct.pack("<IIIIII", 1, count, views, width, 3, 0)
        for k in range(count):
            blob += struct.pack("<H", 2) + f"s{k}".encode()
            blob += struct.pack("<II", 0, 0xFFFFFFFF)
            blob += bytes(8 * views * width)
        path.write_bytes(blob)
        assert run(["train", "--data", str(path), "--epochs", "1",
                    "--out", str(tmp_path / "run")]) == 3
        err = capsys.readouterr().err
        assert f"{path}: zero " in err and f"at byte {at}" in err

    def test_missing_data_file_is_data_error(self, tmp_path):
        assert run(["train", "--data", str(tmp_path / "nope.hrgf"),
                    "--out", str(tmp_path / "run")]) == 3

    def test_config_file_defaults_with_flag_precedence(self, synth_file,
                                                       tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=1\nbatch=6\nlr=0.001\n")
        out = tmp_path / "run"
        code = run(["--config", str(cfg), "train",
                    "--data", str(synth_file), "--epochs", "2",
                    "--out", str(out)])
        assert code == 0
        [record] = read_records(out / "manifest.txt")
        assert record["epochs"] == 2  # flag wins
        assert record["batch"] == 6   # config file beats default 72
        assert record["lr"] == 0.001
        assert record["command"] == "train" and "config" not in record
        assert record["numpy"] == np.__version__
        assert record["OPENBLAS_NUM_THREADS"] == "1"
        assert record["OMP_NUM_THREADS"] is None
        assert record["MKL_NUM_THREADS"] is None
        assert record["pair_workers"] == ag._pair_workers()

    @pytest.mark.parametrize("spelling", [
        ["--config", "{}"], ["--config={}"], ["--conf", "{}"]])
    def test_config_path_in_any_spelling(self, synth_file, tmp_path, capsys,
                                         spelling):
        cfg = tmp_path / "run.cfg"
        argv = [arg.format(cfg) for arg in spelling] + [
            "train", "--data", str(synth_file), "--batch", "6",
            "--out", str(tmp_path / "run")]
        cfg.write_text("epochs=abc\n")
        assert run(argv) == 2
        assert f"{cfg}: epochs " in capsys.readouterr().err
        cfg.write_text("epochs=1\n")
        assert run(argv) == 0
        [record] = read_records(tmp_path / "run" / "manifest.txt")
        assert record["epochs"] == 1

    @pytest.mark.parametrize("line,key", [
        ("epochs=abc", "epochs"),
        ("use_fine_labels=0", "use_fine_labels"),
        ("use_fine_labels=yes", "use_fine_labels"),
        ("epoch=5", "epoch"),
        ("variant=bogus", "variant"),
        ("data=x.hrgf", "data"),
    ])
    def test_bad_config_value_is_usage_error(self, synth_file, tmp_path,
                                             capsys, line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        out = tmp_path / "run"
        assert run(["--config", str(cfg), "train", "--data", str(synth_file),
                    "--epochs", "1", "--out", str(out)]) == 2
        assert f"{cfg}: {key} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_config_switch_takes_true_or_false(self, tmp_path, value):
        data = tmp_path / "fine.hrgf"
        assert run(["synth", "--classes", "2", "--per-class", "4",
                    "--views", "6", "--dim", "4", "--fine-per-class", "2",
                    "--out", str(data)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"use_fine_labels={value}\n")
        out = tmp_path / "run"
        assert run(["--config", str(cfg), "train", "--data", str(data),
                    "--epochs", "1", "--batch", "4", "--out", str(out)]) == 0
        [record] = read_records(out / "manifest.txt")
        assert record["use_fine_labels"] is (value == "true")

    def test_checkpoint_bits_do_not_depend_on_pair_workers(
            self, synth_file, tmp_path, monkeypatch):
        monkeypatch.setattr(ag, "PAIR_GROUP_BYTES", 1)  # a group per shape
        saved = []
        for workers in (1, 2):
            monkeypatch.setattr(ag, "_pair_workers", lambda: workers)
            out = tmp_path / f"run{workers}"
            assert run(["train", "--data", str(synth_file), "--epochs", "2",
                        "--batch", "5", "--lr", "1e-3",
                        "--out", str(out)]) == 0
            saved.append((out / "checkpoint.hrgm").read_bytes())
        assert saved[0] == saved[1]

    def test_one_group_per_pair_pass_starts_no_pool(self, synth_file,
                                                    tmp_path):
        """Every pair pass of a 12-shape n=12 batch is one group, so the
        thread pool's module is never even imported."""
        probe = ("import sys\n"
                 "from hrgenet.cli import main\n"
                 "assert main(sys.argv[1:]) == 0\n"
                 "print('concurrent.futures' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(hrgenet.__file__))
        done = subprocess.run(
            [sys.executable, "-c", probe, "train", "--data", str(synth_file),
             "--epochs", "1", "--batch", "12",
             "--out", str(tmp_path / "run")],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.split()[-1] == "False"

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts page faults under glibc's allocator")
    def test_repeated_train_calls_reuse_freed_memory(self, tmp_path):
        """Each step frees and allocates its arrays again (2.3 MB each at
        n=24, batch 16); once one call has grown the heap, later calls in
        the same process must not fault those pages back in."""
        data = tmp_path / "n24.hrgf"
        assert run(["synth", "--mode", "relational-order", "--classes", "4",
                    "--per-class", "4", "--views", "24", "--dim", "32",
                    "--seed", "1", "--out", str(data)]) == 0
        probe = (
            "import resource, sys\n"
            "from hrgenet.cli import main\n"
            "for _ in range(3):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    assert main(sys.argv[1:]) == 0\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = os.path.dirname(os.path.dirname(hrgenet.__file__))
        done = subprocess.run(
            [sys.executable, "-c", probe, "train", "--data", str(data),
             "--epochs", "1", "--batch", "16", "--out", str(tmp_path / "run")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120, check=True)
        assert int(done.stdout.split()[-1]) < 500


class TestPathErrors:
    """A path that cannot be read or written as asked is a data error
    (exit 3) naming the path, not a traceback."""

    @pytest.mark.parametrize("case", [
        "data-is-dir", "checkpoint-is-dir", "synth-out-is-dir",
        "eval-out-is-dir", "config-is-dir", "config-missing",
        "retrieve-out-is-file", "train-out-under-file"])
    def test_path_error_is_data_error(self, case, synth_file, tmp_path,
                                      capsys):
        ckpt = str(write_checkpoint(tmp_path / "m.hrgm", 12, 6, 3))
        data, folder = str(synth_file), str(tmp_path)
        under_file = str(synth_file / "x")
        argv, path = {
            "data-is-dir": (["train", "--data", folder, "--out",
                             str(tmp_path / "run")], folder),
            "checkpoint-is-dir": (["eval", "--data", data,
                                   "--checkpoint", folder], folder),
            "synth-out-is-dir": (["synth", "--per-class", "2", "--dim", "4",
                                  "--out", folder], folder),
            "eval-out-is-dir": (["eval", "--data", data, "--checkpoint",
                                 ckpt, "--out", folder], folder),
            "config-is-dir": (["--config", folder, "synth", "--out",
                               str(tmp_path / "s.hrgf")], folder),
            "config-missing": (["--config", str(tmp_path / "no.cfg"),
                                "synth", "--out", str(tmp_path / "s.hrgf")],
                               str(tmp_path / "no.cfg")),
            "retrieve-out-is-file": (["retrieve", "--data", data,
                                      "--checkpoint", ckpt, "--out", data],
                                     data),
            "train-out-under-file": (["train", "--data", data, "--epochs",
                                      "1", "--out", under_file], under_file),
        }[case]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and path in err

    def test_retrieve_checks_out_before_any_work(self, synth_file, tmp_path,
                                                 monkeypatch):
        ckpt = str(write_checkpoint(tmp_path / "m.hrgm", 12, 6, 3))

        def too_early(*args, **kwargs):
            raise AssertionError("retrieve worked before checking --out")

        monkeypatch.setattr(cli, "_load_fitting", too_early)
        monkeypatch.setattr(cli, "build_index", too_early)
        assert run(["retrieve", "--data", str(synth_file), "--checkpoint",
                    ckpt, "--out", str(synth_file)]) == 3


class TestRetrieve:
    def test_metrics_and_rankings_written(self, synth_file, tmp_path):
        train_dir = tmp_path / "train"
        run(["train", "--data", str(synth_file), "--epochs", "1",
             "--batch", "6", "--out", str(train_dir)])
        out = tmp_path / "retr"
        code = run(["retrieve", "--data", str(synth_file),
                    "--checkpoint", str(train_dir / "checkpoint.hrgm"),
                    "--out", str(out)])
        assert code == 0
        [record] = read_records(out / "metrics.txt")
        assert set(record) == {f"{block}.{key}" for block in ("micro", "macro")
                               for key in METRIC_KEYS} | {"skipped"}
        assert record["skipped"] == []
        assert (out / "ranked.txt").exists()
        [manifest] = read_records(out / "manifest.txt")
        assert manifest["tau"] == math.inf

    def test_infinite_tau_equals_default(self, synth_file, tmp_path):
        train_dir = tmp_path / "train"
        run(["train", "--data", str(synth_file), "--epochs", "1",
             "--batch", "6", "--out", str(train_dir)])
        outs = []
        for name, extra in (("a", []), ("b", ["--tau", "inf"])):
            out = tmp_path / name
            run(["retrieve", "--data", str(synth_file),
                 "--checkpoint", str(train_dir / "checkpoint.hrgm"),
                 "--out", str(out)] + extra)
            outs.append((out / "metrics.txt").read_text())
        assert outs[0] == outs[1]

    def test_negative_infinite_tau_is_usage_error(self, synth_file, tmp_path,
                                                  capsys):
        ckpt = write_checkpoint(tmp_path / "c.hrgm", 12, 6, 3)
        assert run(["retrieve", "--data", str(synth_file), "--checkpoint",
                    str(ckpt), "--tau", "-inf",
                    "--out", str(tmp_path / "r")]) == 2
        assert "distance threshold must be > 0, got -inf" in \
            capsys.readouterr().err

    def test_nan_tau_is_usage_error(self, synth_file, tmp_path):
        train_dir = tmp_path / "train"
        run(["train", "--data", str(synth_file), "--epochs", "1",
             "--batch", "6", "--out", str(train_dir)])
        assert run(["retrieve", "--data", str(synth_file),
                    "--checkpoint", str(train_dir / "checkpoint.hrgm"),
                    "--tau", "nan", "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("tau", ["0", "-1", "nan"])
    def test_bad_tau_fails_before_any_work(self, synth_file, tmp_path,
                                           monkeypatch, tau):
        def too_early(*args, **kwargs):
            raise AssertionError("retrieve worked before checking --tau")

        monkeypatch.setattr(cli, "_load_fitting", too_early)
        out = tmp_path / "r"
        assert run(["retrieve", "--data", str(synth_file), "--checkpoint",
                    str(tmp_path / "none.hrgm"), "--tau", tau,
                    "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("tag", [b"fuzz", b"\xff\xfe\xfd\xfc"])
    def test_corrupt_variant_tag_is_data_error(self, synth_file, tmp_path,
                                               capsys, tag):
        train_dir = tmp_path / "train"
        run(["train", "--data", str(synth_file), "--epochs", "1",
             "--batch", "6", "--out", str(train_dir)])
        ckpt = train_dir / "checkpoint.hrgm"
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:26] + tag + blob[30:])
        assert run(["retrieve", "--data", str(synth_file),
                    "--checkpoint", str(ckpt),
                    "--out", str(tmp_path / "r")]) == 3
        assert "at byte 26" in capsys.readouterr().err

    def test_rerank_with_fine_checkpoint(self, tmp_path):
        data = tmp_path / "fine.hrgf"
        run(["synth", "--mode", "prototype", "--classes", "2",
             "--per-class", "6", "--views", "6", "--dim", "4",
             "--fine-per-class", "2", "--seed", "3", "--out", str(data)])
        coarse_dir, fine_dir = tmp_path / "c", tmp_path / "f"
        run(["train", "--data", str(data), "--epochs", "1", "--batch", "6",
             "--out", str(coarse_dir)])
        run(["train", "--data", str(data), "--epochs", "1", "--batch", "6",
             "--use-fine-labels", "--out", str(fine_dir)])
        out = tmp_path / "retr"
        code = run(["retrieve", "--data", str(data),
                    "--checkpoint", str(coarse_dir / "checkpoint.hrgm"),
                    "--fine-checkpoint", str(fine_dir / "checkpoint.hrgm"),
                    "--out", str(out)])
        assert code == 0

    def test_fine_head_that_does_not_fit_is_data_error(self, tmp_path,
                                                       capsys):
        data = tmp_path / "fine.hrgf"
        run(["synth", "--classes", "2", "--per-class", "4", "--views", "6",
             "--dim", "4", "--fine-per-class", "2", "--out", str(data)])
        coarse = write_checkpoint(tmp_path / "c.hrgm", 6, 4, 2)
        fine = write_checkpoint(tmp_path / "f.hrgm", 6, 4, 3)
        assert run(["retrieve", "--data", str(data), "--checkpoint",
                    str(coarse), "--fine-checkpoint", str(fine),
                    "--out", str(tmp_path / "r")]) == 3
        assert "dataset declares 4" in capsys.readouterr().err

    def test_fine_checkpoint_without_fine_classes_is_data_error(
            self, synth_file, tmp_path, capsys):
        coarse = write_checkpoint(tmp_path / "c.hrgm", 12, 6, 3)
        fine = write_checkpoint(tmp_path / "f.hrgm", 12, 6, 4)
        assert run(["retrieve", "--data", str(synth_file), "--checkpoint",
                    str(coarse), "--fine-checkpoint", str(fine),
                    "--out", str(tmp_path / "r")]) == 3
        assert "dataset declares 0" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["1e-300", "inf"])
    def test_ranked_rows_are_the_per_entry_format(self, tmp_path,
                                                  monkeypatch, tau):
        """ranked.txt holds, per query, its id, a tab and the
        ``f"{id}:{distance:.8g}"`` entries joined by spaces.  Exact copies
        of shapes give rows of 0, 1 and 2 entries under a tiny tau, all
        at distance 0, and exact ties under an infinite one."""
        base = tmp_path / "base.hrgf"
        run(["synth", "--classes", "3", "--per-class", "4", "--views", "6",
             "--dim", "4", "--seed", "5", "--out", str(base)])
        dataset = load_dataset(base)
        copies = [(0, "copy0a"), (0, "copy0b"), (5, "copy5")]
        dataset.records += [ShapeRecord(new_id, dataset.records[k].views,
                                        dataset.records[k].coarse_label)
                            for k, new_id in copies]
        data = tmp_path / "data.hrgf"
        save_dataset(dataset, data)
        ckpt = write_checkpoint(tmp_path / "c.hrgm", 6, 4, 3)
        blocks, evaluate = [], cli.evaluate_retrieval

        def keep(*args, **kwargs):
            report, ranked = evaluate(*args, **kwargs)
            blocks.extend(ranked)
            return report, ranked

        monkeypatch.setattr(cli, "evaluate_retrieval", keep)
        out = tmp_path / "r"
        assert run(["retrieve", "--data", str(data), "--checkpoint",
                    str(ckpt), "--tau", tau, "--out", str(out)]) == 0
        ids = [r.id for r in dataset.records]
        rows = [(ids[q], [ids[j] for j in row[:n]], dist[:n].tolist())
                for queries, order, dists, kept in blocks
                for q, row, dist, n in zip(queries, order, dists, kept)]
        expected = "".join(
            f"{query_id}\t"
            + " ".join(f"{i}:{d:.8g}" for i, d in zip(row_ids, distances))
            + "\n" for query_id, row_ids, distances in rows)
        assert (out / "ranked.txt").read_bytes() == expected.encode()
        lengths = {len(row_ids) for _, row_ids, _ in rows}
        if tau == "inf":
            assert lengths == {len(dataset) - 1}
            distances = [d for _, _, row in rows for d in row]
            assert len(set(distances)) < len(distances)
        else:
            assert lengths == {0, 1, 2}
            assert {d for _, _, row in rows for d in row} == {0.0}


class TestGradcheck:
    def test_fresh_model_passes(self, capsys):
        assert run(["gradcheck", "--views", "4", "--dim", "3",
                    "--classes", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "passed" in out
        assert "max_rel_err" in out

    def test_corrupted_gradient_fails(self, capsys):
        assert run(["gradcheck", "--views", "4", "--dim", "3",
                    "--classes", "3", "--seed", "1",
                    "--perturb", "0.5"]) == 4
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("amount", ["inf", "-inf"])
    def test_infinite_perturbation_fails(self, capsys, amount):
        # The corrupted block's error is NaN, which must not pass.
        with np.errstate(invalid="ignore"):
            assert run(["gradcheck", "--views", "4", "--dim", "3",
                        "--seed", "1", "--perturb", amount]) == 4
        assert "FAIL level0.pairwise.0.weight" in capsys.readouterr().out

    def test_infinite_perturbation_leaves_stderr_clean(self):
        done = child(["gradcheck", "--views", "4", "--dim", "3", "--seed",
                      "1", "--perturb", "inf"])
        assert done.returncode == 4
        assert done.stderr == ""

    @pytest.mark.parametrize("seed", [2, 3, 4, 5])
    def test_fresh_six_view_model_passes(self, seed):
        # Zero biases would put dead pair rows exactly on a rectifier's kink.
        assert run(["gradcheck", "--views", "6", "--dim", "3",
                    "--seed", str(seed)]) == 0

    @pytest.mark.parametrize("variant,depth", [("1l", "2"), ("pr", "5")])
    def test_depth_the_variant_does_not_run_is_usage_error(self, capsys,
                                                           variant, depth):
        assert run(["gradcheck", "--views", "6", "--dim", "3", "--variant",
                    variant, "--depth", depth]) == 2
        captured = capsys.readouterr()
        assert f"cannot run depth {depth}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_is_usage_error(self, tol):
        assert run(["gradcheck", "--views", "4", "--dim", "3",
                    f"--tol={tol}"]) == 2

    def test_reports_per_block_errors(self, capsys):
        run(["gradcheck", "--views", "4", "--dim", "3", "--seed", "1"])
        out = capsys.readouterr().out
        assert "level0.pairwise.0.weight" in out
        assert "classifier.head.weight" in out


def test_usage_error_on_unknown_command():
    assert run(["launder"]) == 2
