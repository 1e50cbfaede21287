import json
import struct
import tracemalloc

import numpy as np
import pytest

from hrgenet import graph
from hrgenet.checkpoint import load_model, save_model
from hrgenet.cli import main
from hrgenet.errors import DataFormatError
from hrgenet.graph import HrgeModel, LevelParams, hrge_forward
from hrgenet.training import Classifier


@pytest.mark.parametrize("variant,num_views", [
    ("full", 12), ("baseline", 6), ("pr", 6), ("id", 12), ("won", 12),
    ("nr", 6), ("1l", 12), ("mp", 12), ("ap", 12),
])
def test_round_trip_preserves_outputs(rng, tmp_path, variant, num_views):
    model = HrgeModel(num_views=num_views, width=4, variant=variant, seed=3)
    classifier = Classifier(model.descriptor_length, 5, seed=4)
    for p in model.parameters() + classifier.parameters():
        p.data += rng.normal(scale=0.01, size=p.data.shape)
    path = tmp_path / "model.hrgm"
    save_model(model, path, classifier)
    loaded_model, loaded_clf = load_model(path)
    assert loaded_model.variant.name == model.variant.name
    assert loaded_clf.num_classes == 5
    views = rng.normal(size=(num_views, 4))
    np.testing.assert_array_equal(
        hrge_forward(loaded_model, views).concat.data,
        hrge_forward(model, views).concat.data)


# Per variant at 12 views and stride 2: whether a level runs the pairwise
# module, whether it runs the learned neighboring map, the level count,
# and the descriptor's block count.
LAYOUT = {
    "baseline": (False, False, 1, 1),
    "pr": (True, False, 1, 1),
    "nr": (False, True, 1, 1),
    "1l": (True, True, 1, 2),
    "full": (True, True, 2, 3),
    "won": (True, True, 2, 3),
    "mp": (True, False, 2, 3),
    "ap": (True, False, 2, 3),
    "id": (True, False, 2, 3),
}


def declared_blocks(variant, width, num_classes, seed, head_seed):
    """The named initial blocks of a fresh 12-view model and its head, as
    the paper lays them out: per level the pairwise MLP on node pairs
    (2w -> w -> w -> w), the fusion of a node with its summed relations
    (2w -> w) and the neighboring map of ring triplets (3w -> w), then the
    head on the descriptor.  Each weight is a He-uniform draw over
    +-sqrt(6 / in) in that order, and each bias is zero."""
    pairwise, learned, levels, blocks = LAYOUT[variant]

    def affine(name, out_dim, in_dim, rng):
        limit = np.sqrt(6.0 / in_dim)
        return [(f"{name}.weight",
                 rng.uniform(-limit, limit, size=(out_dim, in_dim))),
                (f"{name}.bias", np.zeros(out_dim))]

    rng, w = np.random.default_rng(seed), width
    named = []
    for level in range(levels):
        rows = []
        if pairwise:
            rows += [("pairwise.0", w, 2 * w), ("pairwise.1", w, w),
                     ("pairwise.2", w, w), ("fusion", w, 2 * w)]
        if learned:
            rows.append(("neighboring", w, 3 * w))
        for name, out_dim, in_dim in rows:
            named += affine(f"level{level}.{name}", out_dim, in_dim, rng)
    return named + affine("classifier.head", num_classes, blocks * w,
                          np.random.default_rng(head_seed))


@pytest.mark.parametrize("variant", list(LAYOUT))
def test_parameter_table_is_the_declared_layout(tmp_path, variant):
    """The names, shapes and initial values of every block, which are the
    checkpoint manifest's block names."""
    model = HrgeModel(num_views=12, width=4, variant=variant, seed=3)
    classifier = Classifier(model.descriptor_length, 5, seed=4)
    expected = declared_blocks(variant, 4, 5, seed=3, head_seed=4)
    named = model.named_parameters() + classifier.named_parameters()
    assert [name for name, _ in named] == [name for name, _ in expected]
    for (name, p), (_, values) in zip(named, expected):
        assert p.data.shape == values.shape, name
        np.testing.assert_array_equal(p.data, values, err_msg=name)
    path = tmp_path / "model.hrgm"
    save_model(model, path, classifier)
    lines = (tmp_path / "model.hrgm.manifest.txt").read_text().splitlines()
    assert [(b["block"], tuple(b["shape"])) for b in map(json.loads,
                                                         lines[1:])] == [
        (name, values.shape) for name, values in expected]
    if variant == "full":
        assert [name for name, _ in expected] == [
            f"level{level}.{name}.{kind}" for level in (0, 1)
            for name in ("pairwise.0", "pairwise.1", "pairwise.2", "fusion",
                         "neighboring")
            for kind in ("weight", "bias")] + [
            "classifier.head.weight", "classifier.head.bias"]


def test_resave_is_byte_identical(rng, tmp_path):
    model = HrgeModel(num_views=12, width=3, variant="full", seed=1)
    p1, p2 = tmp_path / "a.hrgm", tmp_path / "b.hrgm"
    save_model(model, p1)
    loaded, _ = load_model(p1)
    save_model(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_manifest_written_alongside(tmp_path):
    model = HrgeModel(num_views=6, width=3, variant="full", seed=0)
    classifier = Classifier(model.descriptor_length, 4, seed=1)
    path = tmp_path / "model.hrgm"
    save_model(model, path, classifier)
    lines = (tmp_path / "model.hrgm.manifest.txt").read_text().splitlines()
    header, *blocks = map(json.loads, lines)
    assert header == {"format": "HRGM", "version": 1, "num_views": 6,
                      "stride": 2, "depth": model.depth, "width": 3,
                      "variant": "full", "num_classes": 4}
    named = model.named_parameters() + classifier.named_parameters()
    assert blocks == [{"block": name, "shape": list(p.data.shape),
                       "l2": float(np.linalg.norm(p.data))}
                      for name, p in named]


def test_model_without_classifier(tmp_path):
    model = HrgeModel(num_views=6, width=3, variant="full", seed=0)
    path = tmp_path / "model.hrgm"
    save_model(model, path)
    _, classifier = load_model(path)
    assert classifier is None


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.hrgm"
    path.write_bytes(b"XXXX" + b"\x00" * 64)
    with pytest.raises(DataFormatError, match="magic"):
        load_model(path)


def test_truncation_located(tmp_path):
    model = HrgeModel(num_views=6, width=3, variant="full", seed=0)
    path = tmp_path / "model.hrgm"
    save_model(model, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 40])
    with pytest.raises(DataFormatError, match="truncated"):
        load_model(path)


def test_trailing_bytes_rejected(tmp_path):
    model = HrgeModel(num_views=6, width=3, variant="full", seed=0)
    path = tmp_path / "model.hrgm"
    save_model(model, path)
    path.write_bytes(path.read_bytes() + b"\x01\x02")
    with pytest.raises(DataFormatError, match="trailing"):
        load_model(path)


@pytest.mark.parametrize("tag", [b"fuzz", b"\xff\xfe\xfd\xfc"])
def test_corrupt_variant_tag_located(tmp_path, tag):
    model = HrgeModel(num_views=6, width=3, variant="full", seed=0)
    path = tmp_path / "model.hrgm"
    save_model(model, path)
    blob = path.read_bytes()
    assert blob[26:30] == b"full"
    path.write_bytes(blob[:26] + tag + blob[30:])
    with pytest.raises(DataFormatError, match="variant tag .* at byte 26"):
        load_model(path)


def saved_blob(tmp_path):
    """A valid 6-view, width-3 full-variant checkpoint: header fields
    num_views/stride/depth/width at bytes 8/12/16/20, num_classes at 30."""
    model = HrgeModel(num_views=6, width=3, variant="full", seed=0)
    path = tmp_path / "model.hrgm"
    save_model(model, path, Classifier(model.descriptor_length, 2))
    return path, bytearray(path.read_bytes())


@pytest.mark.parametrize("stride,depth", [(0, 1), (0, 0), (3, 2), (2, 5)])
def test_bad_header_geometry_is_data_error(tmp_path, stride, depth):
    path, blob = saved_blob(tmp_path)
    struct.pack_into("<II", blob, 12, stride, depth)
    path.write_bytes(blob)
    with pytest.raises(DataFormatError, match="at byte 8"):
        load_model(path)


def test_one_class_head_is_data_error(tmp_path):
    """A header and block table that agree on a 1-class head describe no
    valid model, since a head needs two classes: a data error (exit 3)
    located at the header."""
    model = HrgeModel(num_views=6, width=3, variant="full", seed=0)
    path = tmp_path / "model.hrgm"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<II", blob, 30, 1, len(model.named_parameters()) + 2)
    length = model.descriptor_length
    blob += struct.pack("<III", 2, 1, length) + bytes(8 * length)
    blob += struct.pack("<II", 1, 1) + bytes(8)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError,
                       match="header describes no valid model .*need at "
                             "least 2 classes.* at byte 8"):
        load_model(path)
    data = tmp_path / "data.hrgf"
    assert main(["synth", "--classes", "2", "--per-class", "1", "--views",
                 "6", "--dim", "3", "--out", str(data)]) == 0
    assert main(["eval", "--data", str(data), "--checkpoint", str(path),
                 "--out", str(tmp_path / "report.txt")]) == 3


def test_header_ring_too_small_for_the_neighbor_module_is_rejected(tmp_path):
    """An `nr` model, whose neighboring relation needs a ring of >= 3
    views, is not built from a header that declares 2."""
    model = HrgeModel(num_views=6, width=3, variant="nr", seed=0)
    path = tmp_path / "model.hrgm"
    save_model(model, path, Classifier(model.descriptor_length, 2))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 8, 2)
    path.write_bytes(blob)
    with pytest.raises(DataFormatError,
                       match="header describes no valid model.*at byte 8"):
        load_model(path)


def test_header_width_zero_is_rejected(tmp_path):
    """A headless `baseline` checkpoint has no block whose shape would
    refuse a header width of 0, so the model's own geometry check does:
    a data error (exit 3) located at the header."""
    model = HrgeModel(num_views=6, width=3, variant="baseline", seed=0)
    path = tmp_path / "model.hrgm"
    save_model(model, path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 20, 0)
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError,
                       match="header describes no valid model .*width.* at "
                             "byte 8"):
        load_model(path)
    data = tmp_path / "data.hrgf"
    assert main(["synth", "--classes", "2", "--per-class", "2", "--views",
                 "6", "--dim", "3", "--out", str(data)]) == 0
    assert main(["retrieve", "--data", str(data), "--checkpoint", str(path),
                 "--out", str(tmp_path / "retr")]) == 3


@pytest.mark.parametrize("variant,depth", [
    ("full", 0), ("pr", 2), ("1l", 2), ("baseline", 1)])
def test_header_depth_that_does_not_fit_is_rejected(tmp_path, variant, depth):
    # 12 views at stride 2: full has depth 2, 1l depth 1, pr and baseline 0.
    model = HrgeModel(num_views=12, width=3, variant=variant, seed=0)
    path = tmp_path / "model.hrgm"
    save_model(model, path, Classifier(model.descriptor_length, 2))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 16, depth)
    path.write_bytes(blob)
    with pytest.raises(DataFormatError, match="at byte 16"):
        load_model(path)


def test_stride_one_fails_before_any_level_is_built(tmp_path, monkeypatch):
    built = []

    def counting_level(*args, **kwargs):
        built.append(1)
        return LevelParams(*args, **kwargs)

    path, blob = saved_blob(tmp_path)
    struct.pack_into("<II", blob, 12, 1, 2000)
    path.write_bytes(blob)
    monkeypatch.setattr(graph, "LevelParams", counting_level)
    with pytest.raises(DataFormatError, match="stride"):
        load_model(path)
    assert built == []


@pytest.mark.parametrize("offset,value", [(20, 1024), (30, 2 ** 20)])
def test_unbacked_header_size_allocates_nothing(tmp_path, offset, value):
    path, blob = saved_blob(tmp_path)
    struct.pack_into("<I", blob, offset, value)
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(DataFormatError, match="header implies"):
            load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_non_finite_payload_located(tmp_path):
    path, blob = saved_blob(tmp_path)
    at = len(blob) - 8  # last value of the classifier bias
    struct.pack_into("<d", blob, at, float("nan"))
    path.write_bytes(blob)
    with pytest.raises(DataFormatError, match=f"non-finite .* at byte {at}"):
        load_model(path)


def test_writer_refuses_non_finite_block(tmp_path):
    model = HrgeModel(num_views=6, width=3, variant="full", seed=0)
    model.levels[0].fusion.weight.data[1, 2] = np.inf
    path = tmp_path / "model.hrgm"
    with pytest.raises(DataFormatError, match="level0.fusion.weight"):
        save_model(model, path, Classifier(model.descriptor_length, 2))
    assert not path.exists()
    assert not (tmp_path / "model.hrgm.manifest.txt").exists()


def test_manifest_l2_of_a_block_whose_squares_overflow(tmp_path):
    """A finite block whose sum of squares overflows gets the scaled norm
    ``max|x| * ||x / max|x|||`` in the manifest, not Infinity; every other
    block keeps `np.linalg.norm`'s value."""
    model = HrgeModel(num_views=6, width=2, variant="baseline", seed=0)
    classifier = Classifier(model.descriptor_length, 2, seed=1)
    weight, bias = classifier.head
    weight.data[...] = [[3e200, -4e200], [1.0, 2.0]]
    bias.data[...] = [0.5, -2.0]
    save_model(model, tmp_path / "model.hrgm", classifier)
    lines = (tmp_path / "model.hrgm.manifest.txt").read_text().splitlines()
    l2 = {r["block"]: r["l2"] for r in map(json.loads, lines[1:])}
    top = 4e200
    assert l2["classifier.head.weight"] == top * np.linalg.norm(
        weight.data / top)
    assert l2["classifier.head.weight"] == pytest.approx(5e200, rel=1e-15)
    assert l2["classifier.head.bias"] == np.linalg.norm(bias.data)
