"""Classifier head, mini-batch training loop, and accuracy evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .errors import ConfigError, EmptyInputError, NumericError
from .graph import HrgeModel, hrge_forward
from .layers import build_affines
from .optim import Adam


class Classifier:
    """Single fully connected head from global descriptor to class logits."""

    def __init__(self, descriptor_length: int, num_classes: int, seed: int = 0):
        self.num_classes = num_classes
        affines, self._named = build_affines(
            self.rows(descriptor_length, num_classes),
            np.random.default_rng(seed))
        self.head = affines["classifier.head"]

    @staticmethod
    def rows(descriptor_length: int, num_classes: int):
        """The head's one ``(name, out_dim, in_dim)`` affine row, named
        ``classifier.head`` so that its blocks can follow the embedding
        model's in one list."""
        if num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {num_classes}")
        return [("classifier.head", num_classes, descriptor_length)]

    def named_parameters(self):
        return list(self._named)

    def parameters(self):
        return [p for _, p in self._named]


@dataclass(frozen=True)
class TrainConfig:
    """The training recipe; defaults are the second stage's (batch 72,
    60 epochs, lr 1e-5 halved every 20 epochs, wd 1e-3)."""

    batch_size: int = 72
    epochs: int = 60
    learning_rate: float = 1e-5
    weight_decay: float = 1e-3
    lr_decay_factor: float = 0.5
    lr_decay_period: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        for what, value in (("weight decay", self.weight_decay),
                            ("learning rate", self.learning_rate),
                            ("lr decay factor", self.lr_decay_factor)):
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{what} must be finite and >= 0, got {value}")
        if not self.lr_decay_period >= 1:
            raise ConfigError(
                f"lr decay period must be >= 1, got {self.lr_decay_period}")

    def lr_at_epoch(self, epoch: int) -> float:
        """Piecewise-constant decay: lr * factor ** (epoch // period)."""
        if epoch < 0:
            raise ConfigError(f"epoch must be non-negative, got {epoch}")
        return (self.learning_rate
                * self.lr_decay_factor ** (epoch // self.lr_decay_period))


@dataclass
class TrainLog:
    """Per-step and per-epoch records of a training run."""

    records: list = field(default_factory=list)

    def add(self, **fields):
        self.records.append(dict(fields))

    def epoch_records(self):
        return [r for r in self.records if "acc" in r]


def predict_batch(model, classifier, views_list):
    """Logits and argmax labels (first-wins tie-break), one row per shape.

    Runs one grad-free forward per shape and the head's kernel, with no
    graph node.  Raises `NumericError` naming the first shape whose
    logits are not finite."""
    descs = np.stack([hrge_forward(model, v, grad=False).concat.data
                      for v in views_list])
    head = classifier.head
    logits = ag.affine_kernel(descs, head.weight.data, head.bias.data)
    bad = ~np.isfinite(logits).all(axis=1)
    if bad.any():
        raise NumericError(f"non-finite logits for shape {int(bad.argmax())}")
    return logits, logits.argmax(axis=1)


def train(model: HrgeModel, classifier: Classifier, dataset,
          cfg: TrainConfig) -> TrainLog:
    """Shuffled mini-batch cross-entropy training with Adam.

    Each step runs one batched forward and backward over its mini-batch.
    The last partial batch is used, not dropped.  Raises NumericError
    with epoch/batch diagnostics if the loss goes non-finite, and Adam
    raises it if a gradient or parameter does.  No loss checks the last
    update, so the trained model then runs, as `predict_batch` runs it,
    on the first record in file order, and raises NumericError if its
    logits are not finite, as from finite weights so large that a
    forward overflows.
    """
    records = list(dataset.records)
    if not records:
        raise EmptyInputError("cannot train on an empty dataset")
    for rec in records:
        if not 0 <= rec.coarse_label < classifier.num_classes:
            raise ConfigError(
                f"record {rec.id!r} has label {rec.coarse_label} outside "
                f"[0, {classifier.num_classes})"
            )
    views = np.stack([rec.views for rec in records])
    all_labels = np.array([rec.coarse_label for rec in records])
    params = model.named_parameters() + classifier.named_parameters()
    opt = Adam(params, lr=cfg.learning_rate, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    log = TrainLog()
    n = len(records)
    for epoch in range(cfg.epochs):
        opt.lr = cfg.lr_at_epoch(epoch)
        order = rng.permutation(n)
        losses, correct = [], 0
        step = 0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            labels = all_labels[batch]
            opt.zero_grad()
            logits = ag.affine(hrge_forward(model, views[batch]).concat,
                               *classifier.head)
            loss = ag.softmax_cross_entropy(logits, labels)
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                raise NumericError(
                    f"non-finite loss {loss_val} at epoch {epoch} "
                    f"batch {step}"
                )
            loss.backward()
            opt.step()
            correct += int((logits.data.argmax(axis=1) == labels).sum())
            # Free this step's graph before the next forward builds one.
            del logits, loss
            losses.append(loss_val)
            log.add(epoch=epoch, step=step, loss=loss_val, lr=opt.lr)
            step += 1
        log.add(epoch=epoch, step=step, loss=float(np.mean(losses)),
                lr=opt.lr, acc=correct / n)
    try:
        predict_batch(model, classifier, views[:1])
    except NumericError:
        raise NumericError(f"the trained model gives non-finite logits for "
                           f"record {records[0].id!r}") from None
    return log


def evaluate_accuracy(model: HrgeModel, classifier: Classifier, dataset):
    """(per_instance, per_class) accuracy; empty classes are excluded
    from the per-class mean."""
    records = list(dataset.records)
    if not records:
        raise EmptyInputError("cannot evaluate an empty dataset")
    labels = np.array([r.coarse_label for r in records])
    _, preds = predict_batch(model, classifier, [r.views for r in records])
    hits = preds == labels
    per_instance = float(hits.mean())
    class_accs = [float(hits[labels == c].mean())
                  for c in np.unique(labels)]
    return per_instance, float(np.mean(class_accs))
