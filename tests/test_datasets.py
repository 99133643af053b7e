import warnings

import numpy as np
import pytest

from relscore.datasets import (
    BlobSpec,
    Dataset,
    DatasetError,
    LabelAssignment,
    generate_blobs,
    load_dataset,
    load_labels,
    preset,
    relabel,
    save_dataset,
    save_labels,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_well_formed_csv(self, tmp_path):
        rows = ["x,y,label"]
        for i in range(150):
            rows.append(f"{i * 0.25},{i * -0.5},{('a', 'b', 'c')[i % 3]}")
        path = write(tmp_path / "d.csv", "\n".join(rows) + "\n")
        data, labels = load_dataset(path)
        assert data.n == 150 and data.dim == 2
        assert labels.vocabulary == ("a", "b", "c")
        assert data.values[3, 0] == 0.75
        assert labels.name_of(4) == "b"

    def test_single_label_vocabulary(self, tmp_path):
        path = write(tmp_path / "d.csv", "x,label\n1,z\n2,z\n3,z\n")
        _, labels = load_dataset(path)
        assert labels.vocabulary == ("z",)

    def test_nan_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "x,y,label\n1,2,a\n1,NaN,b\n")
        with pytest.raises(DatasetError, match=r"row 2, column 'y'"):
            load_dataset(path)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "x,y,label\n1,2,a\nfoo,3,b\n")
        with pytest.raises(DatasetError, match=r"row 2, column 'x'"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="no such file"):
            load_dataset(tmp_path / "missing.csv")

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "x,y\n1,2\n3,4\n")
        with pytest.raises(DatasetError, match="no column named 'label'"):
            load_dataset(path)

    def test_duplicate_label_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "label,label\n1,a\n2,b\n")
        with pytest.raises(DatasetError, match="duplicate label column"):
            load_dataset(path)

    def test_too_few_rows(self, tmp_path):
        path = write(tmp_path / "d.csv", "x,label\n1,a\n")
        with pytest.raises(DatasetError, match="at least 2"):
            load_dataset(path)

    def test_custom_label_column(self, tmp_path):
        path = write(tmp_path / "d.csv", "v,cls\n1,p\n2,q\n")
        data, labels = load_dataset(path, label_column="cls")
        assert data.dim == 1
        assert labels.vocabulary == ("p", "q")


class TestSaveRoundTrip:
    def test_values_roundtrip_exactly(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(11))
        data = Dataset(rng.random((20, 3)) * 1e6 - 5e5)
        labels = LabelAssignment(rng.integers(0, 2, 20), ("u", "v"))
        path = tmp_path / "round.csv"
        save_dataset(data, labels, path)
        back, back_labels = load_dataset(path)
        assert np.array_equal(back.values, data.values)
        assert np.array_equal(back_labels.labels, labels.labels)
        assert back_labels.vocabulary == labels.vocabulary

    def test_label_count_mismatch(self, tmp_path):
        data = Dataset(np.array([[1.0], [2.0], [3.0]]))
        labels = LabelAssignment(np.zeros(2, dtype=np.int64), ("a",))
        with pytest.raises(DatasetError):
            save_dataset(data, labels, tmp_path / "x.csv")


class TestLabelFile:
    def test_roundtrip(self, tmp_path):
        labels = LabelAssignment(np.array([0, 1, 1, 0]), ("p", "q"))
        path = tmp_path / "labels.csv"
        save_labels(labels, path)
        back = load_labels(path, 4)
        assert np.array_equal(back.labels, labels.labels)
        assert back.vocabulary == labels.vocabulary

    def test_incomplete_ids_rejected(self, tmp_path):
        path = write(tmp_path / "l.csv", "id,label\n0,a\n1,b\n")
        with pytest.raises(DatasetError, match="3 vertices"):
            load_labels(path, 3)

    def test_duplicate_id_rejected(self, tmp_path):
        path = write(tmp_path / "l.csv", "id,label\n0,a\n0,b\n")
        with pytest.raises(DatasetError, match="duplicate id"):
            load_labels(path, 2)


class TestGenerateBlobs:
    def test_three_cluster_construction(self):
        spec = BlobSpec(
            clusters=(((0.0, 0.0), 1.0, 50), ((20.0, 0.0), 1.0, 50),
                      ((0.0, 20.0), 1.0, 50)),
            seed=7,
        )
        data, labels = generate_blobs(spec)
        assert data.values.shape == (150, 2)
        counts = labels.counts()
        assert counts.tolist() == [50, 50, 50]
        # samples stay near their centers at stddev 1
        assert np.linalg.norm(data.values[:50].mean(axis=0)) < 1.0
        assert abs(data.values[50:100, 0].mean() - 20.0) < 1.0

    def test_two_point_single_cluster(self):
        spec = BlobSpec(clusters=(((1.0,), 0.5, 2),), seed=0)
        data, labels = generate_blobs(spec)
        assert data.n == 2
        assert labels.vocabulary == ("0",)

    def test_deterministic_bitwise(self):
        spec = BlobSpec(
            clusters=(((0.0, 0.0), 2.0, 30), ((5.0, 5.0), 0.3, 21)), seed=123
        )
        a, la = generate_blobs(spec)
        b, lb = generate_blobs(spec)
        assert a.values.tobytes() == b.values.tobytes()
        assert np.array_equal(la.labels, lb.labels)

    def test_seed_changes_bytes(self):
        base = (((0.0, 0.0), 1.0, 10),)
        a, _ = generate_blobs(BlobSpec(clusters=base, seed=1))
        b, _ = generate_blobs(BlobSpec(clusters=base, seed=2))
        assert a.values.tobytes() != b.values.tobytes()

    @pytest.mark.parametrize("bad", [
        {"clusters": (), "seed": 0},
        {"clusters": (((0.0,), -1.0, 5),), "seed": 0},
        {"clusters": (((0.0,), 1.0, 0),), "seed": 0},
        {"clusters": (((0.0,), 1.0, 1),), "seed": 0},
        {"clusters": (((0.0,), 1.0, 3), ((0.0, 1.0), 1.0, 3)), "seed": 0},
    ])
    def test_invalid_specs(self, bad):
        with pytest.raises(DatasetError):
            BlobSpec(**bad)


class TestRelabel:
    def test_identity(self):
        labels = LabelAssignment(np.array([0, 1, 2, 1]), ("a", "b", "c"))
        out = relabel(labels, {0: 0, 1: 1, 2: 2})
        assert np.array_equal(out.labels, labels.labels)
        assert out.vocabulary == labels.vocabulary

    def test_swap_twice_is_identity(self):
        labels = LabelAssignment(np.array([0, 1, 0, 1, 1]), ("a", "b"))
        swap = {0: 1, 1: 0}
        out = relabel(relabel(labels, swap), swap)
        assert np.array_equal(out.labels, labels.labels)
        assert out.vocabulary == labels.vocabulary

    def test_names_follow_vertices(self):
        labels = LabelAssignment(np.array([0, 1, 0]), ("a", "b"))
        out = relabel(labels, {0: 1, 1: 0})
        assert [out.name_of(v) for v in range(3)] == ["a", "b", "a"]

    def test_non_bijective_rejected(self):
        labels = LabelAssignment(np.array([0, 1, 1]), ("a", "b"))
        with pytest.raises(DatasetError, match="bijection"):
            relabel(labels, {0: 0, 1: 0})

    def test_group_sizes_invariant(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for seed in range(20):
            ids = rng.integers(0, 4, 30)
            ids[:4] = [0, 1, 2, 3]  # every label used
            labels = LabelAssignment(ids, ("a", "b", "c", "d"))
            order = rng.permutation(4)
            mapping = {old: int(new) for old, new in enumerate(order)}
            out = relabel(labels, mapping)
            assert sorted(labels.counts().tolist()) == sorted(out.counts().tolist())
            for old, new in mapping.items():
                assert labels.counts()[old] == out.counts()[new]


class TestPresets:
    def test_three_blobs_shape(self):
        data, labels = preset("three-blobs", seed=7)
        assert data.n == 150 and data.dim == 2
        assert labels.counts().tolist() == [50, 50, 50]

    def test_split_labels_same_geometry(self):
        a, _ = preset("three-blobs", seed=7)
        b, labels = preset("split-labels", seed=7)
        assert a.values.tobytes() == b.values.tobytes()
        assert labels.vocabulary == ("0a", "0b", "1a", "1b", "2a", "2b")
        assert labels.counts().tolist() == [25, 25, 25, 25, 25, 25]

    def test_unknown_preset(self):
        with pytest.raises(DatasetError, match="unknown preset"):
            preset("nope")


class TestDatasetInvariants:
    def test_rejects_nan(self):
        with pytest.raises(DatasetError, match="non-finite"):
            Dataset(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_single_row(self):
        with pytest.raises(DatasetError):
            Dataset(np.array([[1.0, 2.0]]))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(DatasetError, match="unique"):
            Dataset(np.array([[0.0], [1.0]]), ids=(1, 1))

    def test_values_read_only(self):
        data = Dataset(np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            data.values[0, 0] = 5.0

    def test_vocabulary_not_larger_than_n(self):
        with pytest.raises(DatasetError):
            LabelAssignment(np.array([0, 1]), ("a", "b", "c"))

    def test_rejects_coordinates_whose_distances_overflow(self):
        data, _ = preset("three-blobs", seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError, match="out of range"):
                Dataset(data.values * 1e200)

    def test_rejects_range_that_overflows_itself(self):
        with pytest.raises(DatasetError, match="out of range"):
            Dataset(np.array([[-1e308], [1e308]]))

    def test_large_but_representable_coordinates_kept(self):
        values = np.array([[0.0, 0.0], [5e153, 5e153]])
        assert Dataset(values).values.tobytes() == values.tobytes()
        with pytest.raises(DatasetError, match="out of range"):
            Dataset(np.array([[0.0, 0.0], [1e154, 1e155]]))
