"""Command-line surface: synth, train, eval, retrieve, gradcheck.

Exit codes: 0 success, 2 usage/configuration error, 3 data error (a
corrupt or non-finite container, a checkpoint that does not fit its
dataset, an unusable path, or a config file that is not UTF-8), 4
numeric failure.  A negative number, ``-inf`` or ``-nan`` may follow its
flag as a separate argument (``--tau -inf``).  Seeds must be >= 0.
Flags override config-file values, which override defaults; the config
file is flat ``key=value`` lines keyed by flag destination names (e.g.
``epochs=5``, ``use_fine_labels=true``).  Each value goes through its
flag's own check; an error reads ``<file>: <key> <argparse message>``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import math
import os
import re
import sys

import numpy as np

from . import autograd as ag
from . import checkpoint, data
from .errors import (
    ConfigError,
    DataFormatError,
    EmptyInputError,
    HrgeError,
    LabelError,
    NumericError,
)
from .gradcheck import check_gradients
from .graph import VARIANT_NAMES, HrgeModel, hrge_forward
from .retrieval import build_index, check_threshold, evaluate_retrieval
from .training import Classifier, TrainConfig, evaluate_accuracy, predict_batch, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4
_M_ARENA_MAX = -8


def _retain_freed_memory():
    """Keep the memory numpy frees inside the process for reuse, in one
    heap that every thread shares.

    A batched training step allocates and frees the same activation and
    gradient arrays every step (26 MB each at n=80 with batch 16).  With
    glibc's defaults they go back to the kernel when freed and are
    faulted in again page by page on the next step: 12-14 thousand page
    faults per 32-shape call, a tenth to a fifth of its wall time spent
    in the kernel, varying from call to call with the host's memory
    pressure.  Without per-array mmap and heap trimming the freed blocks
    are reused instead.  With one arena the pair-group pool threads
    allocate from the main heap too, so a pair array that one thread
    frees is reused by the other rather than kept in a thread's own
    arena: 8 `stress-n80` training calls in one process on two threads
    (2 CPUs) peaked at 55.8-56.1 MB, against 59.8-60.0 MB with the pool
    thread's own arena.  The arena limit holds only for arenas made
    after it, so `main` calls this before any pool thread exists.  The
    settings last for the rest of the process; where the C library has
    no mallopt nothing changes.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_MAX, 0)
    mallopt(_M_TRIM_THRESHOLD, 2**31 - 1)
    mallopt(_M_ARENA_MAX, 1)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # An argument that starts like a negative number, -inf or -nan is
        # a value, so that --tau -inf reaches --tau's own check.
        self._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.I)

    def error(self, message):
        raise ConfigError(message)


def _seed(text):
    """The type of every --seed: numpy's generators take integers >= 0."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")


def _read_config_file(path):
    values = {}
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(
                f"{path}:{lineno}: expected key=value, got {line!r}")
        values[key.strip()] = value.strip()
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="hrgenet", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="flat key=value config file; "
                        "flags take precedence over its entries")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic HRGF dataset")
    p.add_argument("--mode", default="prototype",
                   choices=list(data.GENERATOR_KINDS))
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--per-class", type=int, default=50)
    p.add_argument("--views", type=int, default=12)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--fine-per-class", type=int, default=0)
    p.add_argument("--stride", type=int, default=2,
                   help="target model stride, for geometry validation")
    p.add_argument("--depth", type=int, default=None,
                   help="target hierarchy depth, for geometry validation")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model on an HRGF dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", default="full", choices=list(VARIANT_NAMES))
    p.add_argument("--stride", type=int, default=2)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--weight-decay", type=float,
                   default=TrainConfig.weight_decay)
    p.add_argument("--batch", type=int, default=TrainConfig.batch_size)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr-decay-factor", type=float,
                   default=TrainConfig.lr_decay_factor)
    p.add_argument("--lr-decay-period", type=int,
                   default=TrainConfig.lr_decay_period)
    p.add_argument("--use-fine-labels", action="store_true",
                   help="train against fine (sub-category) labels")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="run directory")

    p = sub.add_parser("eval", help="evaluate classification accuracy")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", default=None, help="optional report path")

    p = sub.add_parser("retrieve", help="descriptor retrieval + metric suite")
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", required=True,
                   help="coarse-category model checkpoint")
    p.add_argument("--fine-checkpoint", default=None,
                   help="optional sub-category model for re-ranking")
    p.add_argument("--tau", type=float, default=math.inf,
                   help="distance threshold; results farther away are dropped")
    p.add_argument("--out", required=True, help="run directory")

    p = sub.add_parser("gradcheck",
                       help="verify analytic gradients by finite differences")
    p.add_argument("--views", type=int, default=4)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--stride", type=int, default=2)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--variant", default="full", choices=list(VARIANT_NAMES))
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--perturb", type=float, default=0.0,
                   help="corrupt one analytic gradient by this amount "
                   "(negative control)")
    p.add_argument("--seed", type=_seed, default=0)
    return parser


def _apply_config_file(parser, path):
    """Make the values of the config file at `path` the defaults of the
    subcommands that define their keys; required flags are not keys."""
    values = _read_config_file(path)
    commands = parser._subparsers._group_actions[0].choices.values()
    known = {a.dest for command in commands for a in command._actions}
    required = {a.dest for c in commands for a in c._actions if a.required}
    for key in values:
        if key not in known or key in required or key == "help":
            raise ConfigError(f"{path}: {key} is not a config key")
    for command in commands:
        command.set_defaults(**{
            a.dest: _config_value(path, command, a, values[a.dest])
            for a in command._actions if a.dest in values})


def _config_value(path, command, action, value):
    """A config-file value parsed and checked by its flag's own action, as
    argparse does the flag's value on the command line; a switch takes
    ``true`` or ``false``."""
    if action.nargs == 0:
        if value not in ("true", "false"):
            raise ConfigError(f"{path}: {action.dest} must be true or false, "
                              f"got {value!r}")
        return value == "true"
    try:
        return command._get_values(action, [value])
    except argparse.ArgumentError as exc:
        raise ConfigError(f"{path}: {action.dest} {exc.message}") from None


def _write_manifest(run_dir, args):
    os.makedirs(run_dir, exist_ok=True)
    record = {key: value for key, value in sorted(vars(args).items())
              if key != "config"}
    # What ran besides the flags: the numpy build, the declared BLAS
    # threads and the threads on the pair groups.
    record["numpy"] = np.__version__
    record.update((var, os.environ.get(var)) for var in ag._BLAS_THREAD_VARS)
    record["pair_workers"] = ag._pair_workers()
    data.write_records(os.path.join(run_dir, "manifest.txt"), [record])


def _cmd_synth(args):
    HrgeModel(args.views, 1, "full" if args.depth is not None else "pr",
              args.stride, args.depth)  # refuses a geometry no model runs
    spec = data.SyntheticSpec(
        num_classes=args.classes, shapes_per_class=args.per_class,
        num_views=args.views, dim=args.dim, noise=args.noise,
        kind=args.mode, seed=args.seed, fine_per_class=args.fine_per_class)
    dataset = data.generate_synthetic(spec)
    data.save_dataset(dataset, args.out)
    trainable = []
    for name in VARIANT_NAMES:
        try:
            HrgeModel(args.views, 1, name, args.stride, args.depth)
            trainable.append(name)
        except ConfigError:
            pass
    depth = "" if args.depth is None else f" and depth {args.depth}"
    print(f"wrote {len(dataset)} records to {args.out}; variants that can "
          f"train it at stride {args.stride}{depth}: {', '.join(trainable)}")
    return EXIT_OK


def _relabel_fine(dataset):
    if dataset.num_fine_classes == 0:
        raise ConfigError("--use-fine-labels needs a dataset with fine labels")
    for r in dataset.records:
        if r.fine_label is None:
            raise LabelError(f"--use-fine-labels: record {r.id!r} has no "
                             "fine label")
    records = [data.ShapeRecord(id=r.id, views=r.views,
                                coarse_label=r.fine_label)
               for r in dataset.records]
    return data.FeatureDataset(records=records,
                               num_classes=dataset.num_fine_classes)


def _cmd_train(args):
    dataset = data.load_dataset(args.data)
    if args.use_fine_labels:
        dataset = _relabel_fine(dataset)
    model = HrgeModel(num_views=dataset.num_views, width=dataset.dim,
                      variant=args.variant, stride=args.stride,
                      depth=args.depth, seed=args.seed)
    classifier = Classifier(model.descriptor_length, dataset.num_classes,
                            seed=args.seed + 1)
    cfg = TrainConfig(batch_size=args.batch, epochs=args.epochs,
                      learning_rate=args.lr, weight_decay=args.weight_decay,
                      lr_decay_factor=args.lr_decay_factor,
                      lr_decay_period=args.lr_decay_period, seed=args.seed)
    ckpt = os.path.join(args.out, "checkpoint.hrgm")
    checkpoint.check_header_fits(model, ckpt)
    _write_manifest(args.out, args)
    log = train(model, classifier, dataset, cfg)
    data.write_records(os.path.join(args.out, "train.log"), log.records)
    checkpoint.save_model(model, ckpt, classifier)
    final = log.epoch_records()[-1]
    print(f"trained {args.variant} for {args.epochs} epochs: "
          f"loss={final['loss']:.6f} acc={final['acc']:.4f}")
    print(f"checkpoint: {ckpt}")
    return EXIT_OK


def _load_fitting(path, dataset, head_size=None):
    """Load a checkpoint and check that it fits ``dataset``: the same view
    count and width; and, unless ``head_size`` is None, a classifier head
    of ``head_size`` classes (a dataset declaring 0 fits no head)."""
    model, classifier = checkpoint.load_model(path)
    if (model.num_views, model.width) != (dataset.num_views, dataset.dim):
        raise DataFormatError(
            f"{path}: model takes {model.num_views} views of width "
            f"{model.width}, dataset has {dataset.num_views} of width "
            f"{dataset.dim}")
    if head_size is not None and classifier is None:
        raise ConfigError(f"{path} holds no classifier head")
    if head_size is not None and classifier.num_classes != head_size:
        raise DataFormatError(
            f"{path}: classifier head has {classifier.num_classes} classes, "
            f"dataset declares {head_size}")
    return model, classifier


def _cmd_eval(args):
    dataset = data.load_dataset(args.data)
    model, classifier = _load_fitting(args.checkpoint, dataset,
                                      dataset.num_classes)
    per_instance, per_class = evaluate_accuracy(model, classifier, dataset)
    report = {"per_instance_acc": per_instance, "per_class_acc": per_class}
    for key, value in report.items():
        print(f"{key}={value:.10g}")
    if args.out:
        data.write_records(args.out, [report])
    return EXIT_OK


def _ranked_writer(f, ids):
    """An `evaluate_retrieval` emit that writes each query's row of
    ranked.txt to ``f``: its id, a tab, then ``f"{id}:{distance:.8g}"``
    per kept candidate, joined by spaces."""
    ids = np.array(ids, dtype=object)

    def emit(queries, order, dists, kept):
        for q, row, dist, n in zip(queries, order, dists, kept):
            # One %-format per row.
            entries = [None] * (2 * n)
            entries[::2], entries[1::2] = ids[row[:n]], dist[:n].tolist()
            text = " ".join(["%s:%.8g"] * n) % tuple(entries)
            f.write(f"{ids[q]}\t{text}\n")
    return emit


def _cmd_retrieve(args):
    check_threshold(args.tau)
    dataset = data.load_dataset(args.data)
    _write_manifest(args.out, args)
    model, _ = _load_fitting(args.checkpoint, dataset)
    index = build_index(model, dataset)
    predict_fine = None
    if args.fine_checkpoint:
        fine_model, fine_clf = _load_fitting(
            args.fine_checkpoint, dataset, dataset.num_fine_classes)
        _, fine_preds = predict_batch(fine_model, fine_clf,
                                      [r.views for r in dataset.records])
        predict_fine = dict(zip(index.ids, fine_preds)).__getitem__
    ranked = os.path.join(args.out, "ranked.txt")
    partial = ranked + ".partial"
    try:
        with open(partial, "w") as f:
            report = evaluate_retrieval(
                index, threshold=args.tau, predict_fine=predict_fine,
                emit=_ranked_writer(f, index.ids))
        data.write_records(os.path.join(args.out, "metrics.txt"),
                           [report.record()])
        os.replace(partial, ranked)
    finally:
        # A run that fails leaves no ranked.txt, not even a partial one.
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
    print(report.render_table())
    return EXIT_OK


def _with_wrong_gradient(loss, param, amount):
    """`loss` as one more node whose backward also adds ``amount`` to the
    first entry of ``param``'s gradient: the --perturb negative control."""
    bump = np.zeros_like(param.data)
    bump.ravel()[0] = amount

    def _backward(g):
        loss._accumulate(g)
        param._accumulate(g * bump)

    return ag.Tensor(loss.data, _parents=(loss, param), _grad_fn=_backward)


def _cmd_gradcheck(args):
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ConfigError(f"--tol must be finite and > 0, got {args.tol}")
    rng = np.random.default_rng(args.seed)
    model = HrgeModel(num_views=args.views, width=args.dim,
                      variant=args.variant, stride=args.stride,
                      depth=args.depth, seed=args.seed)
    classifier = Classifier(model.descriptor_length, args.classes,
                            seed=args.seed + 1)
    views = rng.normal(size=(args.views, args.dim))
    label = np.array([int(rng.integers(args.classes))])
    named = model.named_parameters() + classifier.named_parameters()
    # Fresh layers have zero biases, which put dead pair rows exactly on a
    # rectifier's kink, where central differences average the two
    # one-sided slopes; seeded noise moves the check off the kink.
    for _, p in named:
        p.data += rng.normal(scale=0.1, size=p.data.shape)

    def loss_fn():
        desc = hrge_forward(model, views[None]).concat
        logits = ag.affine(desc, *classifier.head)
        loss = ag.softmax_cross_entropy(logits, label)
        if args.perturb:
            loss = _with_wrong_gradient(loss, named[0][1], args.perturb)
        return loss

    report = check_gradients(loss_fn, named)
    failed = False
    for name, err in report.items():
        status = "ok" if err < args.tol else "FAIL"
        print(f"{status:4} {name:32} max_rel_err={err:.3e}")
        failed = failed or not err < args.tol  # a NaN error fails too
    if failed:
        print(f"gradient check FAILED at tolerance {args.tol:g}")
        return EXIT_NUMERIC
    print(f"gradient check passed at tolerance {args.tol:g}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "retrieve": _cmd_retrieve,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _retain_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            _apply_config_file(parser, args.config)
            args = parser.parse_args(argv)
        # The program's own finite checks report non-finite values (the
        # loss, Adam's step, the inference outputs), not numpy warnings.
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, EmptyInputError, LabelError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError,) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except HrgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
