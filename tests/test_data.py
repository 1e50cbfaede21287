import struct

import numpy as np
import pytest

from hrgenet.data import (
    NO_FINE,
    FeatureDataset,
    ShapeRecord,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split,
)
from hrgenet.errors import ConfigError, DataFormatError, LabelError


def sample_dataset(rng, with_fine=False):
    records = []
    for c in range(3):
        for k in range(4):
            records.append(ShapeRecord(
                id=f"shape-{c}-{k}",
                views=rng.normal(size=(6, 5)),
                coarse_label=c,
                fine_label=(c * 2 + k % 2) if with_fine else None))
    return FeatureDataset(records=records, num_classes=3,
                          num_fine_classes=6 if with_fine else 0)


class TestContainerFormat:
    def test_save_load_round_trip(self, rng, tmp_path):
        ds = sample_dataset(rng, with_fine=True)
        path = tmp_path / "ds.hrgf"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(ds)
        assert loaded.num_classes == ds.num_classes
        assert loaded.num_fine_classes == ds.num_fine_classes
        for a, b in zip(loaded.records, ds.records):
            assert a.id == b.id
            assert a.coarse_label == b.coarse_label
            assert a.fine_label == b.fine_label
            np.testing.assert_array_equal(a.views, b.views)

    def test_resave_is_byte_identical(self, rng, tmp_path):
        ds = sample_dataset(rng)
        p1, p2 = tmp_path / "a.hrgf", tmp_path / "b.hrgf"
        save_dataset(ds, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_absent_fine_label_encodes_as_flag(self, rng, tmp_path):
        ds = sample_dataset(rng, with_fine=False)
        path = tmp_path / "ds.hrgf"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert all(r.fine_label is None for r in loaded.records)

    def test_truncated_payload_names_byte_offset(self, rng, tmp_path):
        ds = sample_dataset(rng)
        path = tmp_path / "ds.hrgf"
        save_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 17])
        with pytest.raises(DataFormatError, match=r"byte \d+"):
            load_dataset(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.hrgf"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DataFormatError, match="magic"):
            load_dataset(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        ds = sample_dataset(rng)
        path = tmp_path / "ds.hrgf"
        save_dataset(ds, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataFormatError, match="trailing"):
            load_dataset(path)

    def test_non_finite_payload_located(self, rng, tmp_path):
        path = tmp_path / "ds.hrgf"
        save_dataset(sample_dataset(rng), path)
        record = 2 + len("shape-0-0") + 8 + 6 * 5 * 8
        at = 28 + record + 2 + len("shape-0-1") + 8 + (2 * 5 + 3) * 8
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, at, np.nan)  # record 1, views[2, 3]
        path.write_bytes(blob)
        with pytest.raises(DataFormatError,
                           match=f"non-finite value in record 1 .* byte {at}"):
            load_dataset(path)

    def test_structural_fault_is_reported_before_a_non_finite_value(
            self, rng, tmp_path):
        """The payload's finite check runs once the structure holds."""
        path = tmp_path / "ds.hrgf"
        save_dataset(sample_dataset(rng), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<d", blob, 28 + 2 + len("shape-0-0") + 8, np.nan)
        path.write_bytes(blob[:-1])
        with pytest.raises(DataFormatError, match="truncated record 11 views"):
            load_dataset(path)

    def test_views_are_rows_of_one_array(self, rng, tmp_path):
        path = tmp_path / "ds.hrgf"
        ds = sample_dataset(rng)
        save_dataset(ds, path)
        loaded = load_dataset(path)
        base = loaded.records[0].views.base
        assert base.shape == (len(ds), 6, 5)
        for rec, row, want in zip(loaded.records, base, ds.records):
            assert rec.views.base is base
            np.testing.assert_array_equal(rec.views, want.views)
            np.testing.assert_array_equal(row, want.views)

    def test_writer_refuses_non_finite_views(self, rng, tmp_path):
        ds = sample_dataset(rng)
        ds.records[5].views[1, 2] = np.inf
        path = tmp_path / "ds.hrgf"
        with pytest.raises(DataFormatError, match="'shape-1-1'"):
            save_dataset(ds, path)
        assert not path.exists()

    def test_writer_refuses_a_label_the_reader_refuses(self, rng, tmp_path):
        ds = sample_dataset(rng)
        ds.coarse[3] = 7
        path = tmp_path / "ds.hrgf"
        with pytest.raises(LabelError, match=r"'shape-0-3': coarse label 7 "
                                             r"outside \[0, 3\)"):
            save_dataset(ds, path)
        assert not path.exists()

    def test_writer_refuses_a_duplicate_id(self, rng, tmp_path):
        ds = sample_dataset(rng)
        ds.ids[4] = ds.ids[0]
        path = tmp_path / "ds.hrgf"
        with pytest.raises(DataFormatError, match="duplicate record id"):
            save_dataset(ds, path)
        assert not path.exists()

    def test_writer_refuses_empty_dataset(self, tmp_path):
        path = tmp_path / "ds.hrgf"
        with pytest.raises(DataFormatError, match="empty dataset"):
            save_dataset(FeatureDataset(records=[], num_classes=2), path)
        assert not path.exists()

    def test_non_utf8_id_located(self, rng, tmp_path):
        path = tmp_path / "ds.hrgf"
        save_dataset(sample_dataset(rng), path)
        blob = bytearray(path.read_bytes())
        assert blob[30:39] == b"shape-0-0"
        blob[33] = 0xFF
        path.write_bytes(blob)
        with pytest.raises(DataFormatError,
                           match="record 0 id is not UTF-8 at byte 33"):
            load_dataset(path)

    def test_row_count_mismatch_cites_record(self, rng):
        records = [ShapeRecord(id="good", views=rng.normal(size=(6, 5)),
                               coarse_label=0),
                   ShapeRecord(id="bad", views=rng.normal(size=(5, 5)),
                               coarse_label=0)]
        with pytest.raises(DataFormatError, match="'bad'"):
            FeatureDataset(records=records, num_classes=1)

    def test_duplicate_ids_rejected(self, rng):
        records = [ShapeRecord(id="dup", views=rng.normal(size=(2, 2)),
                               coarse_label=0) for _ in range(2)]
        with pytest.raises(DataFormatError, match="dup"):
            FeatureDataset(records=records, num_classes=1)

    @pytest.mark.parametrize("bad_id", ["a b", "a\tb", "a\nb", "a\x00b",
                                        "a\u00a0b", "a\u3000b"])
    def test_id_that_whitespace_splits_rejected(self, rng, bad_id):
        records = [ShapeRecord(id=bad_id, views=rng.normal(size=(2, 2)),
                               coarse_label=0)]
        with pytest.raises(DataFormatError, match="record id"):
            FeatureDataset(records=records, num_classes=1)

    @pytest.mark.parametrize("coarse,fine,num_fine,message", [
        (3, None, 0, r"'shape-1-1': coarse label 3 outside \[0, 3\)"),
        (-1, None, 0, r"'shape-1-1': coarse label -1 outside \[0, 3\)"),
        (1, 6, 6, r"'shape-1-1': fine label 6 outside \[0, 6\)"),
        (1, -1, 6, r"'shape-1-1': fine label -1 outside \[0, 6\)"),
        (1, -2, 6, r"'shape-1-1': fine label -2 outside \[0, 6\)"),
        (1, 0, 0, "'shape-1-1' carries a fine label but the dataset "
                  "declares none"),
    ])
    def test_label_out_of_range_names_the_first_record(
            self, rng, coarse, fine, num_fine, message):
        records = sample_dataset(rng, with_fine=num_fine > 0).records
        for k in (5, 9):
            records[k] = records[k]._replace(coarse_label=coarse,
                                             fine_label=fine)
        with pytest.raises(LabelError, match=message):
            FeatureDataset(records, num_classes=3, num_fine_classes=num_fine)


class TestRecords:
    """`FeatureDataset` holds columns; `records` reads them back as rows."""

    def test_rows_rebuild_the_same_columns(self, rng):
        ds = sample_dataset(rng, with_fine=True)
        ds.fine[2] = NO_FINE
        again = FeatureDataset(ds.records, ds.num_classes,
                               ds.num_fine_classes)
        assert again.ids == ds.ids
        assert ds.records[2].fine_label is None
        for column in ("views", "coarse", "fine"):
            want, got = getattr(ds, column), getattr(again, column)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_columns_are_one_array_each(self, rng):
        ds = sample_dataset(rng, with_fine=True)
        assert ds.views.shape == (12, 6, 5) and ds.views.dtype == np.float64
        assert ds.coarse.dtype == ds.fine.dtype == np.int64
        np.testing.assert_array_equal(ds.coarse, np.repeat([0, 1, 2], 4))

    def test_a_row_is_read_only(self, rng):
        record = sample_dataset(rng).records[0]
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_row_views_are_rows_of_the_views_array(self, rng):
        ds = sample_dataset(rng)
        for k, record in enumerate(ds.records):
            assert np.shares_memory(record.views, ds.views)
            np.testing.assert_array_equal(record.views, ds.views[k])

    def test_each_read_is_a_new_list(self, rng):
        ds = sample_dataset(rng)
        records = ds.records
        records.append(records[0]._replace(id="extra"))
        assert len(ds) == len(ds.records) == 12
        assert ds.records is not ds.records

    def test_empty_dataset_has_empty_columns(self):
        ds = FeatureDataset([], num_classes=2)
        assert ds.views.shape == (0, 0, 0)
        assert (len(ds), ds.num_views, ds.dim, ds.records) == (0, 0, 0, [])
        assert ds.coarse.shape == ds.fine.shape == (0,)


class TestSyntheticGenerators:
    def test_prototype_sigma_zero_collapses_classes(self):
        spec = SyntheticSpec(num_classes=2, shapes_per_class=3, num_views=4,
                             dim=3, noise=0.0, kind="prototype", seed=0)
        ds = generate_synthetic(spec)
        by_class = {}
        for rec in ds.records:
            by_class.setdefault(rec.coarse_label, []).append(rec.views)
        for views in by_class.values():
            for v in views[1:]:
                np.testing.assert_array_equal(v, views[0])

    def test_relational_order_shares_view_multiset(self):
        spec = SyntheticSpec(num_classes=3, shapes_per_class=2, num_views=6,
                             dim=4, noise=0.0, kind="relational-order", seed=1)
        ds = generate_synthetic(spec)
        sorted_rows = None
        for rec in ds.records:
            rows = rec.views[np.lexsort(rec.views.T[::-1])]
            if sorted_rows is None:
                sorted_rows = rows
            else:
                np.testing.assert_array_equal(rows, sorted_rows)

    def test_deterministic_under_seed(self):
        spec = SyntheticSpec(num_classes=2, shapes_per_class=2, num_views=4,
                             dim=3, kind="relational-order", seed=7)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_array_equal(ra.views, rb.views)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(num_classes=0, shapes_per_class=1, num_views=4,
                          dim=3)
        with pytest.raises(ConfigError):
            SyntheticSpec(num_classes=1, shapes_per_class=1, num_views=4,
                          dim=3, noise=-0.5)
        with pytest.raises(ConfigError):
            SyntheticSpec(num_classes=1, shapes_per_class=1, num_views=4,
                          dim=3, kind="fractal")

    def test_more_sub_categories_than_shapes_rejected(self):
        with pytest.raises(ConfigError, match="fine_per_class 3 exceeds"):
            SyntheticSpec(num_classes=2, shapes_per_class=2, num_views=4,
                          dim=3, fine_per_class=3)

    def test_fine_labels_generated_on_request(self):
        spec = SyntheticSpec(num_classes=2, shapes_per_class=4, num_views=4,
                             dim=3, kind="prototype", fine_per_class=2, seed=0)
        ds = generate_synthetic(spec)
        assert ds.num_fine_classes == 4
        for rec in ds.records:
            assert rec.fine_label is not None
            assert rec.fine_label // 2 == rec.coarse_label


class TestSplit:
    def test_half_split_on_balanced_set(self, rng):
        ds = sample_dataset(rng)  # 3 classes x 4
        train, test = split(ds, 0.5, seed=0)
        for subset in (train, test):
            labels = [r.coarse_label for r in subset.records]
            assert all(labels.count(c) == 2 for c in range(3))

    def test_same_seed_identical(self, rng):
        ds = sample_dataset(rng)
        a = split(ds, 0.7, seed=4)
        b = split(ds, 0.7, seed=4)
        assert [r.id for r in a[0].records] == [r.id for r in b[0].records]
        assert [r.id for r in a[1].records] == [r.id for r in b[1].records]

    def test_partition_property(self, rng):
        ds = sample_dataset(rng)
        train, test = split(ds, 0.6, seed=2)
        train_ids = {r.id for r in train.records}
        test_ids = {r.id for r in test.records}
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == {r.id for r in ds.records}

    def test_singleton_class_goes_to_train_with_warning(self, rng):
        records = [ShapeRecord(id="solo", views=rng.normal(size=(2, 2)),
                               coarse_label=0)]
        records += [ShapeRecord(id=f"b{k}", views=rng.normal(size=(2, 2)),
                                coarse_label=1) for k in range(4)]
        ds = FeatureDataset(records=records, num_classes=2)
        with pytest.warns(UserWarning, match="fewer than 2"):
            train, test = split(ds, 0.5, seed=0)
        assert "solo" in {r.id for r in train.records}

    def test_bad_fraction_rejected(self, rng):
        ds = sample_dataset(rng)
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                split(ds, frac)
