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

import numpy as np

from .errors import ConfigError, DataFormatError, EmptyInputError, LabelError

MAGIC = b"HRGF"
VERSION = 1
NO_FINE_LABEL = 0xFFFFFFFF


@dataclass
class ShapeRecord:
    """One shape: N view-feature rows of width D plus labels."""

    id: str
    views: np.ndarray
    coarse_label: int
    fine_label: int | None = None

    def __post_init__(self):
        self.views = np.ascontiguousarray(self.views, dtype=np.float64)
        if self.views.ndim != 2:
            raise DataFormatError(
                f"record {self.id!r}: views must be 2-D, got {self.views.shape}"
            )


@dataclass
class FeatureDataset:
    records: list
    num_classes: int
    num_fine_classes: int = 0

    def __post_init__(self):
        self.validate()

    @property
    def num_views(self) -> int:
        return self.records[0].views.shape[0] if self.records else 0

    @property
    def dim(self) -> int:
        return self.records[0].views.shape[1] if self.records else 0

    def __len__(self):
        return len(self.records)

    def validate(self):
        seen = set()
        for k, rec in enumerate(self.records):
            if rec.id in seen:
                raise DataFormatError(f"duplicate record id {rec.id!r} at index {k}")
            seen.add(rec.id)
            if not rec.id.isprintable() or " " in rec.id:
                # ranked.txt rows are split on whitespace.
                raise DataFormatError(
                    f"record id {rec.id!r} at index {k} holds whitespace "
                    "or a non-printable character")
            if rec.views.shape != (self.num_views, self.dim):
                raise DataFormatError(
                    f"record {rec.id!r}: views shape {rec.views.shape} does "
                    f"not match dataset ({self.num_views}, {self.dim})"
                )
            if not 0 <= rec.coarse_label < self.num_classes:
                raise LabelError(
                    f"record {rec.id!r}: coarse label {rec.coarse_label} "
                    f"outside [0, {self.num_classes})"
                )
            if rec.fine_label is not None:
                if self.num_fine_classes == 0:
                    raise LabelError(
                        f"record {rec.id!r} carries a fine label but the "
                        "dataset declares none"
                    )
                if not 0 <= rec.fine_label < self.num_fine_classes:
                    raise LabelError(
                        f"record {rec.id!r}: fine label {rec.fine_label} "
                        f"outside [0, {self.num_fine_classes})"
                    )


def save_dataset(dataset: FeatureDataset, path) -> None:
    """Write the canonical HRGF encoding (byte-deterministic).

    Refuses, before it creates the file, what `load_dataset` would
    refuse: no records, zero views or zero width, an over-long id, or a
    non-finite view value.
    """
    n, d = dataset.num_views, dataset.dim
    if not dataset.records or n == 0 or d == 0:
        raise DataFormatError(
            f"{path}: refusing to write an empty dataset "
            f"({len(dataset.records)} records of {n} x {d} views)")
    parts = [MAGIC, struct.pack("<IIIIII", VERSION, len(dataset.records), n,
                                d, dataset.num_classes,
                                dataset.num_fine_classes)]
    for rec in dataset.records:
        encoded = rec.id.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise DataFormatError(f"record id too long: {rec.id[:32]!r}...")
        if not np.isfinite(rec.views).all():
            raise DataFormatError(
                f"{path}: record {rec.id!r} has a non-finite view value")
        fine = NO_FINE_LABEL if rec.fine_label is None else rec.fine_label
        parts += [struct.pack("<H", len(encoded)), encoded,
                  struct.pack("<II", rec.coarse_label, fine),
                  rec.views.astype("<f8").tobytes()]
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
    with open(path, "w") as f:
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
    heads, starts = [], []
    for k in range(count):
        (id_len,) = r.unpack("H", f"record {k}")
        rec_id = r.text(id_len, f"record {k} id")
        coarse, fine = r.unpack("II", f"record {k}")
        heads.append((rec_id, coarse,
                      None if fine == NO_FINE_LABEL else fine))
        starts.append(r.take(8 * n * d, f"record {k} views"))
    r.end()
    # The structure holds, so the blob bounds the one array of every
    # record's views, which is checked once; each record's are a row.
    views = np.empty((count, n, d))
    flat = views.reshape(count, n * d)
    for k, start in enumerate(starts):
        flat[k] = np.frombuffer(blob, "<f8", n * d, start)
    finite = np.isfinite(views).all(axis=(1, 2))
    if not finite.all():
        k = int(np.argmin(finite))
        r.check_finite(views[k], starts[k], f"record {k} views")
    records = [ShapeRecord(id=rec_id, views=row, coarse_label=coarse,
                           fine_label=fine)
               for (rec_id, coarse, fine), row in zip(heads, views)]
    return FeatureDataset(records=records, num_classes=num_classes,
                          num_fine_classes=num_fine)


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
    n, d = spec.num_views, spec.dim
    records = []
    if spec.kind == "prototype":
        protos = rng.normal(size=(spec.num_classes, n, d))
        fine_offsets = None
        if spec.fine_per_class:
            fine_offsets = 0.5 * rng.normal(
                size=(spec.num_classes, spec.fine_per_class, n, d))
        for c in range(spec.num_classes):
            for k in range(spec.shapes_per_class):
                views = protos[c].copy()
                fine = None
                if spec.fine_per_class:
                    sub = k % spec.fine_per_class
                    views = views + fine_offsets[c, sub]
                    fine = c * spec.fine_per_class + sub
                views = views + spec.noise * rng.normal(size=(n, d))
                records.append(ShapeRecord(
                    id=f"proto-{c}-{k}", views=views,
                    coarse_label=c, fine_label=fine))
    else:
        base = rng.normal(size=(n, d))
        perms = _distinct_permutations(rng, n, spec.num_classes)
        for c in range(spec.num_classes):
            ordered = base[perms[c]]
            for k in range(spec.shapes_per_class):
                shift = int(rng.integers(n))
                views = np.roll(ordered, shift, axis=0)
                views = views + spec.noise * rng.normal(size=(n, d))
                fine = None
                if spec.fine_per_class:
                    fine = c * spec.fine_per_class + k % spec.fine_per_class
                records.append(ShapeRecord(
                    id=f"order-{c}-{k}", views=views,
                    coarse_label=c, fine_label=fine))
    return FeatureDataset(
        records=records, num_classes=spec.num_classes,
        num_fine_classes=spec.num_classes * spec.fine_per_class)


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
    if not dataset.records:
        raise EmptyInputError("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    train_recs, test_recs = [], []
    labels = np.array([r.coarse_label for r in dataset.records])
    for c in np.unique(labels):
        members = [dataset.records[k] for k in np.nonzero(labels == c)[0]]
        if len(members) < 2:
            warnings.warn(
                f"class {c} has fewer than 2 samples; keeping it in train")
            train_recs.extend(members)
            continue
        order = rng.permutation(len(members))
        cut = int(round(train_fraction * len(members)))
        cut = min(max(cut, 1), len(members) - 1)
        train_recs.extend(members[k] for k in order[:cut])
        test_recs.extend(members[k] for k in order[cut:])
    make = lambda recs: FeatureDataset(
        records=recs, num_classes=dataset.num_classes,
        num_fine_classes=dataset.num_fine_classes)
    return make(train_recs), make(test_recs)
