"""Versioned binary model checkpoints with a text manifest alongside.

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

from .errors import DataFormatError
from .graph import VARIANTS, HrgeModel
from .training import Classifier

MAGIC = b"HRGM"
VERSION = 1


def _blocks(model: HrgeModel, classifier: Classifier | None):
    if classifier is None:
        return model.named_parameters()
    return model.named_parameters() + classifier.named_parameters()


def save_model(model: HrgeModel, path, classifier: Classifier | None = None):
    named = _blocks(model, classifier)
    tag = model.variant.name.encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<IIIII", VERSION, model.num_views, model.stride,
                            model.depth, model.width))
        f.write(struct.pack("<H", len(tag)))
        f.write(tag)
        num_classes = classifier.num_classes if classifier is not None else 0
        f.write(struct.pack("<II", num_classes, len(named)))
        for _, tensor in named:
            arr = tensor.data
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.astype("<f8").tobytes())
    _write_manifest(model, path, named, num_classes)


def _write_manifest(model, path, named, num_classes):
    lines = [
        f"format=HRGM version={VERSION}",
        f"num_views={model.num_views} stride={model.stride} "
        f"depth={model.depth} width={model.width}",
        f"variant={model.variant.name} num_classes={num_classes}",
    ]
    for name, tensor in named:
        shape = "x".join(str(s) for s in tensor.data.shape)
        lines.append(f"block {name} shape={shape} "
                     f"l2={float(np.linalg.norm(tensor.data)):.12g}")
    with open(f"{path}.manifest.txt", "w") as f:
        f.write("\n".join(lines) + "\n")


def load_model(path):
    """Returns (model, classifier_or_None)."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise DataFormatError(f"{path}: bad magic {blob[:4]!r} at offset 0")
    try:
        version, num_views, stride, depth, width = struct.unpack_from(
            "<IIIII", blob, 4)
        offset = 24
        (tag_len,) = struct.unpack_from("<H", blob, offset)
        offset += 2
        tag = blob[offset:offset + tag_len].decode("utf-8", "replace")
        variant = VARIANTS.get(tag)
        if variant is None:
            raise DataFormatError(
                f"{path}: unknown variant tag {tag!r} at byte {offset}")
        offset += tag_len
        num_classes, block_count = struct.unpack_from("<II", blob, offset)
        offset += 8
    except struct.error as exc:
        raise DataFormatError(f"{path}: truncated header") from exc
    if version != VERSION:
        raise DataFormatError(f"{path}: unsupported version {version}")
    model = HrgeModel(num_views=num_views, width=width, variant=variant,
                      stride=stride,
                      depth=depth if depth > 0 else None)
    classifier = None
    if num_classes:
        classifier = Classifier(model.descriptor_length, num_classes)
    named = _blocks(model, classifier)
    if len(named) != block_count:
        raise DataFormatError(
            f"{path}: expected {len(named)} parameter blocks, header "
            f"declares {block_count}")
    for name, tensor in named:
        if offset + 4 > len(blob):
            raise DataFormatError(f"{path}: truncated at byte {offset} ({name})")
        (ndim,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if ndim != tensor.data.ndim or offset + 4 * ndim > len(blob):
            raise DataFormatError(
                f"{path}: bad block header for {name} at byte {offset}")
        shape = struct.unpack_from(f"<{ndim}I", blob, offset)
        offset += 4 * ndim
        if shape != tensor.data.shape:
            raise DataFormatError(
                f"{path}: block {name} has shape {shape}, expected "
                f"{tensor.data.shape}")
        count = int(np.prod(shape))
        if offset + 8 * count > len(blob):
            raise DataFormatError(f"{path}: truncated payload for {name}")
        tensor.data[...] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=offset).reshape(shape)
        offset += 8 * count
    if offset != len(blob):
        raise DataFormatError(
            f"{path}: {len(blob) - offset} trailing bytes at offset {offset}")
    return model, classifier
