"""Feature datasets: the HRGF container format, synthetic generators,
stratified splitting, and the JSON Lines writer of run files.

HRGF v1 layout (little-endian throughout):
  magic ``HRGF`` | u32 version=1 | u32 record count | u32 N | u32 D |
  u32 num_classes | u32 num_fine_classes (0 = none)
followed by one block per record:
  u16 id length | UTF-8 id (printable, no space) | u32 coarse label |
  u32 fine label (0xFFFFFFFF = absent) | N*D f64 row-major payload
"""

from __future__ import annotations

import json
import math
import struct
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataFormatError, EmptyInputError, LabelError

MAGIC = b"HRGF"
VERSION = 1
NO_FINE_LABEL = 0xFFFFFFFF  # an HRGF record's fine label when it has none
NO_FINE = -1  # a FeatureDataset's fine label of a shape that has none


class ShapeRecord(NamedTuple):
    """One shape of a `FeatureDataset`, ``fine_label`` None if it has none.
    Immutable: build a new dataset from edited `_replace` copies."""

    id: str
    views: np.ndarray
    coarse_label: int
    fine_label: int | None = None


class FeatureDataset:
    """Shapes as columns: ``ids`` (a list of str), ``views`` (one float64
    ``(N, n, w)`` array, ``(0, 0, 0)`` when empty), and int64 ``coarse``
    and ``fine`` labels (`NO_FINE` where absent).  Built from `ShapeRecord`
    rows, whose views are copied once into ``views``; `records` reads the
    rows back."""

    def __init__(self, records, num_classes: int, num_fine_classes: int = 0):
        self.num_classes, self.num_fine_classes = num_classes, num_fine_classes
        shape = np.shape(records[0].views) if records else (0, 0)
        if len(shape) != 2:
            raise DataFormatError(
                f"record {records[0].id!r}: views must be 2-D, got {shape}")
        self.ids = [rec.id for rec in records]
        self.views = np.empty((len(records), *shape))
        for k, rec in enumerate(records):
            if np.shape(rec.views) != shape:
                raise DataFormatError(
                    f"record {rec.id!r}: views shape {np.shape(rec.views)} "
                    f"does not match dataset {shape}")
            if rec.fine_label == NO_FINE:  # the column's "none", not a label
                raise LabelError(f"record {rec.id!r}: fine label {NO_FINE} "
                                 f"outside [0, {num_fine_classes})")
            self.views[k] = rec.views
        self.coarse = np.array([rec.coarse_label for rec in records], np.int64)
        self.fine = np.array([NO_FINE if rec.fine_label is None else
                              rec.fine_label for rec in records], np.int64)
        self.validate()

    @property
    def records(self) -> list:
        """A new list of `ShapeRecord` rows on every call, their views rows
        of ``views``: for building other datasets, not for hot loops."""
        return [ShapeRecord(*row, None if fine == NO_FINE else fine)
                for *row, fine in zip(self.ids, self.views,
                                      self.coarse.tolist(),
                                      self.fine.tolist())]

    @property
    def num_views(self) -> int:
        return self.views.shape[1]

    @property
    def dim(self) -> int:
        return self.views.shape[2]

    def __len__(self):
        return len(self.ids)

    def validate(self):
        """Refuse a duplicate id, one holding whitespace or a
        non-printable character, and a label outside its range."""
        seen = set()
        for k, rec_id in enumerate(self.ids):
            if rec_id in seen:
                raise DataFormatError(
                    f"duplicate record id {rec_id!r} at index {k}")
            seen.add(rec_id)
            if not rec_id.isprintable() or " " in rec_id:
                # ranked.txt rows are split on whitespace.
                raise DataFormatError(
                    f"record id {rec_id!r} at index {k} holds whitespace "
                    "or a non-printable character")
        has_fine = self.fine != NO_FINE
        if self.num_fine_classes == 0 and has_fine.any():
            raise LabelError(
                f"record {self.ids[int(has_fine.argmax())]!r} carries a fine "
                "label but the dataset declares none")
        for what, labels, count, given in (
                ("coarse", self.coarse, self.num_classes, True),
                ("fine", self.fine, self.num_fine_classes, has_fine)):
            bad = given & ((labels < 0) | (labels >= count))
            if bad.any():
                k = int(bad.argmax())
                raise LabelError(f"record {self.ids[k]!r}: {what} label "
                                 f"{labels[k]} outside [0, {count})")


def save_dataset(dataset: FeatureDataset, path) -> None:
    """Write the canonical HRGF encoding (byte-deterministic).

    Refuses, before it creates the file, what `load_dataset` would
    refuse: what `FeatureDataset.validate` refuses, no records, zero
    views or zero width, an over-long id, or a non-finite view value.
    """
    dataset.validate()
    n, d = dataset.num_views, dataset.dim
    if not len(dataset) or n == 0 or d == 0:
        raise DataFormatError(
            f"{path}: refusing to write an empty dataset "
            f"({len(dataset)} records of {n} x {d} views)")
    finite = np.isfinite(dataset.views).all(axis=(1, 2))
    if not finite.all():
        rec_id = dataset.ids[finite.argmin()]
        raise DataFormatError(
            f"{path}: record {rec_id!r} has a non-finite view value")
    parts = [MAGIC, struct.pack("<IIIIII", VERSION, len(dataset), n, d,
                                dataset.num_classes, dataset.num_fine_classes)]
    for rec_id, views, coarse, fine in zip(
            dataset.ids, dataset.views, dataset.coarse.tolist(),
            dataset.fine.tolist()):
        encoded = rec_id.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise DataFormatError(f"record id too long: {rec_id[:32]!r}...")
        parts += [struct.pack("<H", len(encoded)), encoded,
                  struct.pack("<II", coarse,
                              NO_FINE_LABEL if fine == NO_FINE else fine),
                  views.astype("<f8").tobytes()]
    with open(path, "wb") as f:
        f.write(b"".join(parts))


def load_dataset(path) -> FeatureDataset:
    with open(path, "rb") as f:
        blob = f.read()
    return _decode(blob, str(path))


def write_records(path, records) -> None:
    """Write a run file as JSON Lines: one ``json.dumps(record)`` per
    line.  Floats keep their shortest round-trip form, and a non-finite
    one is written as ``NaN`` or ``Infinity``, which ``json.loads``
    reads back."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(json.dumps(record) + "\n" for record in records)


class ByteReader:
    """Little-endian cursor over one container's bytes.

    The only code that knows the container rules: the leading magic,
    reads bounded by the bytes that remain, UTF-8 text, finite float
    payloads and no trailing bytes.  Every failure is a DataFormatError
    naming the source and the byte offset.
    """

    def __init__(self, blob: bytes, source: str, magic: bytes):
        self.blob, self.source, self.offset = blob, source, 0
        if blob[:len(magic)] != magic:
            raise self.error(f"bad magic {blob[:len(magic)]!r}")
        self.offset = len(magic)

    def error(self, message: str, at: int | None = None) -> DataFormatError:
        at = self.offset if at is None else at
        return DataFormatError(f"{self.source}: {message} at byte {at}")

    def take(self, size: int, what: str) -> int:
        """Pass over the next `size` bytes; returns their offset."""
        start, remain = self.offset, len(self.blob) - self.offset
        if size > remain:
            raise self.error(
                f"truncated {what} ({size} bytes needed, {remain} remain)")
        self.offset += size
        return start

    def unpack(self, fmt: str, what: str = "header") -> tuple:
        fmt = "<" + fmt
        return struct.unpack_from(
            fmt, self.blob, self.take(struct.calcsize(fmt), what))

    def text(self, n: int, what: str) -> str:
        start = self.take(n, what)
        try:
            return self.blob[start:self.offset].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{what} is not UTF-8",
                             at=start + exc.start) from None

    def floats(self, shape: tuple, what: str) -> np.ndarray:
        count = math.prod(shape)
        start = self.take(8 * count, what)
        values = np.frombuffer(self.blob, dtype="<f8", count=count,
                               offset=start)
        self.check_finite(values, start, what)
        return values.reshape(shape).copy()

    def check_finite(self, values: np.ndarray, start: int, what: str):
        """Refuse the first non-finite entry of `values`, f64s read in
        order from byte `start`."""
        finite = np.isfinite(values)
        if not finite.all():
            raise self.error(f"non-finite value in {what}",
                             at=start + 8 * int(np.argmin(finite)))

    def end(self) -> None:
        if self.offset != len(self.blob):
            raise self.error(
                f"{len(self.blob) - self.offset} trailing bytes")


def _decode(blob: bytes, source: str) -> FeatureDataset:
    r = ByteReader(blob, source, MAGIC)
    version, count, n, d, num_classes, num_fine = r.unpack("IIIIII")
    if version != VERSION:
        raise r.error(f"unsupported version {version}", at=4)
    for value, what, at in ((count, "records", 8), (n, "views per record", 12),
                            (d, "view width", 16)):
        if value == 0:
            raise r.error(f"zero {what}", at=at)
    records, starts = [], []
    for k in range(count):
        (id_len,) = r.unpack("H", f"record {k}")
        rec_id = r.text(id_len, f"record {k} id")
        coarse, fine = r.unpack("II", f"record {k}")
        starts.append(r.take(8 * n * d, f"record {k} views"))
        views = np.frombuffer(blob, "<f8", n * d, starts[-1]).reshape(n, d)
        records.append(ShapeRecord(rec_id, views, coarse,
                                   None if fine == NO_FINE_LABEL else fine))
    r.end()
    # The structure holds, so the dataset's one copy of the views is
    # checked once, after its ids and labels.
    dataset = FeatureDataset(records, num_classes, num_fine)
    finite = np.isfinite(dataset.views).all(axis=(1, 2))
    if not finite.all():
        k = int(np.argmin(finite))
        r.check_finite(dataset.views[k], starts[k], f"record {k} views")
    return dataset


GENERATOR_KINDS = ("prototype", "relational-order")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic multi-view feature dataset."""

    num_classes: int
    shapes_per_class: int
    num_views: int
    dim: int
    noise: float = 0.1
    kind: str = "prototype"
    seed: int = 0
    fine_per_class: int = 0

    def __post_init__(self):
        if self.num_classes < 1 or self.shapes_per_class < 1:
            raise ConfigError("num_classes and shapes_per_class must be >= 1")
        if self.num_views < 1 or self.dim < 1:
            raise ConfigError("num_views and dim must be >= 1")
        count = self.num_classes * self.shapes_per_class
        if max(count, self.num_views, self.dim) > 0xFFFFFFFF:
            raise ConfigError(  # HRGF stores them in u32 header fields
                f"record count {count}, num_views {self.num_views} and dim "
                f"{self.dim} must each be <= {0xFFFFFFFF}")
        payload = count * self.num_views * self.dim * 8
        if payload > sys.maxsize:
            raise ConfigError(  # no array of the views could be allocated
                f"{count} records of {self.num_views} views of dim "
                f"{self.dim} need {payload} bytes, more than {sys.maxsize}")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ConfigError(
                f"noise must be finite and >= 0, got {self.noise}")
        if self.fine_per_class < 0:
            raise ConfigError(
                f"fine_per_class must be >= 0, got {self.fine_per_class}")
        if self.fine_per_class > self.shapes_per_class:
            # Each sub-category needs a shape.
            raise ConfigError(
                f"fine_per_class {self.fine_per_class} exceeds "
                f"shapes_per_class {self.shapes_per_class}")
        if self.kind not in GENERATOR_KINDS:
            raise ConfigError(
                f"unknown generator kind {self.kind!r}; "
                f"expected one of {GENERATOR_KINDS}")
        if self.kind == "relational-order":
            # Each class is a ring order of the n views that is distinct up
            # to rotation, and there are (n - 1)! of those; 20! exceeds
            # any class count a dataset can hold.
            orders = math.factorial(min(self.num_views - 1, 20))
            if self.num_classes > orders:
                raise ConfigError(
                    f"{self.num_views} views have only {orders} ring orders "
                    f"distinct up to rotation, fewer than "
                    f"{self.num_classes} classes")


def generate_synthetic(spec: SyntheticSpec) -> FeatureDataset:
    """Build a synthetic dataset.

    prototype mode: each class has its own per-view prototype matrix and
    samples are noisy copies.  relational-order mode: all classes share
    one multiset of view vectors and differ only in the cyclic order the
    views appear in (each sample additionally gets a random ring
    rotation), so permutation-invariant aggregators are at chance by
    construction.
    """
    rng = np.random.default_rng(spec.seed)
    n, d, per = spec.num_views, spec.dim, spec.fine_per_class
    prototype = spec.kind == "prototype"
    if prototype:
        protos = rng.normal(size=(spec.num_classes, n, d))
        if per:
            fine_offsets = 0.5 * rng.normal(size=(spec.num_classes, per, n, d))
    else:
        base = rng.normal(size=(n, d))
        perms = _distinct_permutations(rng, n, spec.num_classes)
    records = []
    for c in range(spec.num_classes):
        for k in range(spec.shapes_per_class):
            if prototype:
                views = protos[c]
                if per:
                    views = views + fine_offsets[c, k % per]
            else:
                views = np.roll(base[perms[c]], int(rng.integers(n)), axis=0)
            views = views + spec.noise * rng.normal(size=(n, d))
            records.append(ShapeRecord(
                f"{'proto' if prototype else 'order'}-{c}-{k}", views, c,
                c * per + k % per if per else None))
    return FeatureDataset(records, spec.num_classes, spec.num_classes * per)


def _distinct_permutations(rng, n, count):
    """Ring orderings pairwise distinct up to cyclic rotation."""
    perms, seen = [], set()
    while len(perms) < count:
        perm = rng.permutation(n)
        canon = min(tuple(np.roll(perm, k)) for k in range(n))
        if canon in seen:
            continue
        seen.add(canon)
        perms.append(perm)
    return perms


def split(dataset: FeatureDataset, train_fraction: float, seed: int = 0):
    """Stratified deterministic split into (train, test) by coarse label.

    Classes with a single sample trigger a warning and go to train.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(
            f"train_fraction must be in (0, 1), got {train_fraction}")
    if not len(dataset):
        raise EmptyInputError("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    parts = ([], [])
    for c in np.unique(dataset.coarse):
        members = np.flatnonzero(dataset.coarse == c)
        if len(members) < 2:
            warnings.warn(
                f"class {c} has fewer than 2 samples; keeping it in train")
            parts[0].extend(members)
            continue
        order = rng.permutation(len(members))
        cut = int(round(train_fraction * len(members)))
        cut = min(max(cut, 1), len(members) - 1)
        parts[0].extend(members[order[:cut]])
        parts[1].extend(members[order[cut:]])
    records = dataset.records
    return tuple(FeatureDataset([records[k] for k in part],
                                dataset.num_classes, dataset.num_fine_classes)
                 for part in parts)
