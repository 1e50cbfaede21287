"""Command-line surface: synth, train, eval, retrieve, gradcheck.

Exit codes: 0 success, 2 usage/configuration error, 3 data error (a
corrupt or non-finite container, a checkpoint that does not fit its
dataset, or an unusable path), 4 numeric failure.  Flags override
config-file values, which override defaults; the config file is flat
``key=value`` lines keyed by flag destination names (e.g. ``epochs=5``,
``use_fine_labels=true``), checked as the flags are.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
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
from .layers import linear_forward
from .retrieval import build_index, check_threshold, evaluate_retrieval
from .training import Classifier, TrainConfig, evaluate_accuracy, predict_batch, train

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# glibc mallopt parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4


def _retain_freed_memory():
    """Keep the memory numpy frees inside the process for reuse.

    A batched training step allocates and frees the same activation and
    gradient arrays every step (26 MB each at n=80 with batch 16).  With
    glibc's defaults they go back to the kernel when freed and are
    faulted in again page by page on the next step: 12-14 thousand page
    faults per 32-shape call, a tenth to a fifth of its wall time spent
    in the kernel, varying from call to call with the host's memory
    pressure.  Without per-array mmap and heap trimming the freed blocks
    are reused instead.  The setting lasts for the rest of the process;
    where the C library has no mallopt nothing changes.
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _read_config_file(path):
    values = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model on an HRGF dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--variant", default="full", choices=list(VARIANT_NAMES))
    p.add_argument("--stride", type=int, default=2)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--lr", type=float, default=1e-5)
    p.add_argument("--weight-decay", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=72)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--lr-decay-factor", type=float, default=0.5)
    p.add_argument("--lr-decay-period", type=int, default=20)
    p.add_argument("--use-fine-labels", action="store_true",
                   help="train against fine (sub-category) labels")
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
    return parser


def _apply_config_file(parser, path):
    """Make the values of the config file at `path` the defaults of the
    subcommands that define their keys; required flags are not keys."""
    values = _read_config_file(path)
    commands = _commands(parser)
    known = {a.dest for command in commands for a in command._actions}
    required = {a.dest for c in commands for a in c._actions if a.required}
    for key in values:
        if key not in known or key in required or key == "help":
            raise ConfigError(f"{path}: {key} is not a config key")
    for command in commands:
        command.set_defaults(**{a.dest: _config_value(path, a, values[a.dest])
                                for a in command._actions
                                if a.dest in values})


def _commands(parser):
    """The subcommand parsers of `parser`."""
    return parser._subparsers._group_actions[0].choices.values()


def _attach_float_values(parser, argv):
    """Join a float flag, or an abbreviation of one, and a value that
    starts with ``-`` into one ``--flag=value`` argument.  argparse reads
    only plain negative numbers as values, so ``--tau -inf`` would fail
    as a flag missing its value, with a message that names no value;
    joined, the value reaches the flag's own check."""
    flags = {option for command in _commands(parser)
             for action in command._actions if action.type is float
             for option in action.option_strings}
    joined = []
    for arg in argv:
        prev = joined[-1] if joined else ""
        if (len(prev) > 2 and "=" not in prev and arg.startswith("-")
                and any(flag.startswith(prev) for flag in flags)
                and _is_float(arg)):
            joined[-1] = f"{prev}={arg}"
        else:
            joined.append(arg)
    return joined


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _config_value(path, action, value):
    """A config-file value parsed and checked as its flag would be: a
    switch takes ``true`` or ``false``, any other key its flag's type and
    choices."""
    key = action.dest
    if action.nargs == 0:
        if value not in ("true", "false"):
            raise ConfigError(
                f"{path}: {key} must be true or false, got {value!r}")
        return value == "true"
    try:
        parsed = value if action.type is None else action.type(value)
    except ValueError:
        raise ConfigError(f"{path}: {key} must be of type "
                          f"{action.type.__name__}, got {value!r}") from None
    if action.choices is not None and parsed not in action.choices:
        raise ConfigError(f"{path}: {key} must be one of "
                          f"{list(action.choices)}, got {value!r}")
    return parsed


def _write_manifest(run_dir, args):
    os.makedirs(run_dir, exist_ok=True)
    record = {key: value for key, value in sorted(vars(args).items())
              if key != "config"}
    # What ran besides the flags: the numpy build, the declared BLAS
    # threads (a checkpoint's last bits depend on the BLAS thread count)
    # and the threads on the pair groups.
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
    print(f"wrote {len(dataset)} records to {args.out}")
    return EXIT_OK


def _relabel_fine(dataset):
    if dataset.num_fine_classes == 0:
        raise ConfigError("--use-fine-labels needs a dataset with fine labels")
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
    _write_manifest(args.out, args)
    log = train(model, classifier, dataset, cfg)
    data.write_records(os.path.join(args.out, "train.log"), log.records)
    ckpt = os.path.join(args.out, "checkpoint.hrgm")
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
    report, blocks = evaluate_retrieval(index, threshold=args.tau,
                                        predict_fine=predict_fine)
    data.write_records(os.path.join(args.out, "metrics.txt"),
                       [report.record()])
    ids = np.array(index.ids, dtype=object)
    with open(os.path.join(args.out, "ranked.txt"), "w") as f:
        for queries, order, dists, kept in blocks:
            for q, row, dist, n in zip(queries, order, dists, kept):
                # One %-format per row, the bytes of f"{id}:{distance:.8g}"
                # per entry joined by spaces.
                entries = [None] * (2 * n)
                entries[::2], entries[1::2] = ids[row[:n]], dist[:n].tolist()
                text = " ".join(["%s:%.8g"] * n) % tuple(entries)
                f.write(f"{ids[q]}\t{text}\n")
    print(report.render_table())
    return EXIT_OK


def _wrong_gradient(param, amount):
    """A zero-valued loss term whose backward adds ``amount`` to the first
    entry of ``param``'s gradient: the --perturb negative control."""
    bump = np.zeros_like(param.data)
    bump.ravel()[0] = amount
    return ag.Tensor(0.0, _parents=(param,),
                     _grad_fn=lambda g: param._accumulate(g * bump))


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
        logits = linear_forward(classifier.head, desc)
        loss = ag.softmax_cross_entropy(logits, label)
        if args.perturb:
            loss = ag.add(loss, _wrong_gradient(named[0][1], args.perturb))
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
        argv = _attach_float_values(parser, argv)
        args = parser.parse_args(argv)
        if args.config is not None:
            _apply_config_file(parser, args.config)
            args = parser.parse_args(argv)
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
