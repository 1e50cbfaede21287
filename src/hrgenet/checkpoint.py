"""Versioned binary model checkpoints with a JSON Lines manifest alongside.

Layout (little-endian):
  magic ``HRGM`` | u32 version=1 | u32 num_views | u32 stride |
  u32 depth | u32 width | u16 variant tag length | UTF-8 variant tag |
  u32 num_classes (0 = no classifier head) | u32 block count
then per parameter block, in declaration order:
  u32 ndim | u32 dims... | f64 row-major payload
"""

from __future__ import annotations

import struct

import numpy as np

from . import autograd as ag
from .data import ByteReader, write_records
from .errors import ConfigError, DataFormatError, HrgeError
from .graph import VARIANTS, HrgeModel
from .training import Classifier

MAGIC = b"HRGM"
VERSION = 1


def _blocks(model: HrgeModel, classifier: Classifier | None):
    if classifier is None:
        return model.named_parameters()
    return model.named_parameters() + classifier.named_parameters()


def check_header_fits(model: HrgeModel, path):
    """Raise `ConfigError` unless the model's views, stride, depth and
    width each fit the checkpoint header's u32 fields."""
    geometry = (model.num_views, model.stride, model.depth, model.width)
    if max(geometry) > 0xFFFFFFFF:
        raise ConfigError(f"{path}: views, stride, depth and width {geometry} "
                          f"must each be <= {0xFFFFFFFF}")


def save_model(model: HrgeModel, path, classifier: Classifier | None = None):
    """Write the checkpoint and its manifest.

    A non-finite parameter block, which `load_model` would refuse, is
    refused here by name before any file is created, and so is a
    geometry that does not fit the header's u32 fields.
    """
    check_header_fits(model, path)
    named = _blocks(model, classifier)
    for name, tensor in named:
        if not np.isfinite(tensor.data).all():
            raise DataFormatError(
                f"{path}: refusing to write non-finite parameter block {name}")
    tag = model.variant.name.encode("utf-8")
    num_classes = classifier.num_classes if classifier is not None else 0
    parts = [MAGIC, struct.pack("<IIIII", VERSION, model.num_views,
                                model.stride, model.depth, model.width),
             struct.pack("<H", len(tag)), tag,
             struct.pack("<II", num_classes, len(named))]
    for _, tensor in named:
        arr = tensor.data
        parts += [struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape),
                  arr.astype("<f8").tobytes()]
    with open(path, "wb") as f:
        f.write(b"".join(parts))
    header = {"format": MAGIC.decode(), "version": VERSION,
              "num_views": model.num_views, "stride": model.stride,
              "depth": model.depth, "width": model.width,
              "variant": model.variant.name, "num_classes": num_classes}
    write_records(f"{path}.manifest.txt", [header] + [
        {"block": name, "shape": list(tensor.data.shape),
         "l2": ag.l2_norm(tensor.data)} for name, tensor in named])


def load_model(path):
    """Returns (model, classifier_or_None).

    The whole block table is read and checked against the header before
    the model is built, so no array is sized by a header field that the
    bytes do not back.  A header depth of 0 asks for none, and the built
    model's depth must equal the header's.
    """
    with open(path, "rb") as f:
        r = ByteReader(f.read(), str(path), MAGIC)
    version, num_views, stride, depth, width = r.unpack("IIIII")
    if version != VERSION:
        raise r.error(f"unsupported version {version}", at=4)
    (tag_len,) = r.unpack("H")
    tag = r.text(tag_len, "variant tag")
    if tag not in VARIANTS:
        raise r.error(f"unknown variant tag {tag!r}", at=26)
    table_at = r.offset + 4
    num_classes, block_count = r.unpack("II")
    blocks = []
    for k in range(block_count):
        at = r.offset
        (ndim,) = r.unpack("I", f"block {k}")
        if ndim not in (1, 2):
            raise r.error(f"block {k} declares {ndim} dims", at=at)
        shape = r.unpack(f"{ndim}I", f"block {k}")
        blocks.append((at, r.floats(shape, f"block {k}")))
    r.end()

    def valid(make, *args, **kwargs):
        """``make(*args, **kwargs)``, or the located error of a header that
        describes no valid model."""
        try:
            return make(*args, **kwargs)
        except HrgeError as exc:
            raise r.error(f"header describes no valid model ({exc})",
                          at=8) from None

    # A variant of fixed depth is built at it, and its depth is checked
    # against the header below like any other's.
    wanted = None if VARIANTS[tag].fixed_depth is not None else depth or None
    geometry = dict(num_views=num_views, variant=VARIANTS[tag], stride=stride,
                    depth=wanted)
    # Every embedding dim is a multiple of the width, so a width-1 model
    # gives the shapes of the embedding blocks without allocating them;
    # the head's row gives the head's.
    unit = valid(HrgeModel, width=1, **geometry)
    if unit.depth != depth:
        raise r.error(f"header depth {depth} does not fit a {tag} model of "
                      f"this geometry, which has {unit.depth} levels", at=16)
    implied = [tuple(width * s for s in p.data.shape)
               for _, p in unit.named_parameters()]
    if num_classes:
        rows = valid(Classifier.rows, width * unit.num_blocks, num_classes)
        implied += [shape for _, out_dim, in_dim in rows
                    for shape in ((out_dim, in_dim), (out_dim,))]
    if len(blocks) != len(implied):
        raise r.error(f"header implies {len(implied)} parameter blocks, "
                      f"table declares {len(blocks)}", at=table_at)
    for k, ((at, block), shape) in enumerate(zip(blocks, implied)):
        if block.shape != shape:
            raise r.error(f"block {k} has shape {block.shape}, header "
                          f"implies {shape}", at=at)
    model = valid(HrgeModel, width=width, **geometry)
    classifier = None
    if num_classes:
        classifier = valid(Classifier, model.descriptor_length, num_classes)
    for (_, tensor), (_, block) in zip(_blocks(model, classifier), blocks):
        tensor.data[...] = block
    return model, classifier
