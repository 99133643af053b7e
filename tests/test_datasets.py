import inspect
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from relscore import datasets as datasets_module
from relscore import graphs, metrics
from relscore.datasets import (
    BlobSpec,
    Dataset,
    DatasetError,
    LabelAssignment,
    generate_blobs,
    load_blob_spec,
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

    def test_label_column_named_like_a_feature_is_refused(self, tmp_path):
        # no loader reads a header with two columns of one name
        data = Dataset(np.zeros((2, 3)))
        labels = LabelAssignment([0, 0], ("a",))
        path = tmp_path / "d.csv"
        for name in ("x0", "x2"):
            with pytest.raises(DatasetError) as exc:
                save_dataset(data, labels, path, label_column=name)
            assert str(exc.value) == f"label column {name!r} names a feature column (x0..x2)"
        assert not path.exists()
        save_dataset(data, labels, path, label_column="x3")
        assert load_dataset(path, label_column="x3")[0].dim == 3


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

    def test_coordinate_total_past_the_index_range(self, monkeypatch):
        monkeypatch.setattr(datasets_module, "_box_muller", None)  # nothing is drawn
        top = np.iinfo(np.intp).max
        spec = BlobSpec(clusters=(((0.0,), 1.0, top),))  # exactly indexable: kept
        assert spec.clusters[0][2] == top
        total = 2 * (top // 2 + 1)
        with pytest.raises(DatasetError) as exc:
            BlobSpec(clusters=(((0.0, 0.0), 1.0, top // 2), ((1.0, 1.0), 1.0, 1)))
        assert str(exc.value) == (f"clusters hold {total} coordinates in all, more than "
                                  f"an array can index ({top})")


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

    def test_values_read_only(self):
        data = Dataset(np.array([[0.0], [1.0]]))
        with pytest.raises(ValueError):
            data.values[0, 0] = 5.0

    def test_vocabulary_not_larger_than_n(self):
        with pytest.raises(DatasetError):
            LabelAssignment(np.array([0, 1]), ("a", "b", "c"))

    @pytest.mark.parametrize("ids, shown", [
        ([0.7, 1.9, 0.2], "0.7"),
        ([0, float("nan"), 1], "nan"),
        ([0, 1, float("inf")], "inf"),
    ], ids=["fractional", "nan", "inf"])
    def test_label_ids_must_be_integers(self, ids, shown):
        with pytest.raises(DatasetError, match=f"label id {shown} is not an integer"):
            LabelAssignment(ids, ("a", "b"))

    @pytest.mark.parametrize("ids, shown", [
        (np.array([False, True, False]), "False"),
        (np.array([0, True, 0], dtype=object), "True"),
        ([0, True, 0], "True"),
    ], ids=["boolean", "boolean-object", "boolean-in-list"])
    def test_boolean_label_ids_rejected(self, ids, shown):
        with pytest.raises(DatasetError) as exc:
            LabelAssignment(ids, ("a", "b"))
        assert str(exc.value) == f"label id {shown} is not an integer"

    def test_integral_label_ids_kept(self):
        labels = LabelAssignment([0.0, 1.0, 0.0], ("a", "b"))
        assert labels.labels.dtype == np.int64
        assert labels.labels.tolist() == [0, 1, 0]
        with pytest.raises(DatasetError, match="index the vocabulary"):
            LabelAssignment([0, 10 ** 30, 1], ("a", "b"))

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

    def test_rejects_coordinates_whose_distances_underflow(self):
        data, _ = preset("three-blobs", seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError, match="underflow"):
                Dataset(data.values * 1e-300)
        with pytest.raises(DatasetError, match="underflow"):
            Dataset(np.array([[0.0], [1e-160]]))

    def test_small_but_representable_coordinates_kept(self):
        data, _ = preset("three-blobs", seed=7)
        Dataset(data.values * 1e-150)
        values = np.array([[0.0], [2e-154]])
        assert Dataset(values).values.tobytes() == values.tobytes()

    def test_identical_rows_kept_at_any_scale(self):
        for value in (0.0, 1e-300, 5e-324, 1e300):
            Dataset(np.full((4, 3), value))


BOM = b"\xef\xbb\xbf"

# each CSV loader, with the text of a valid file up to its second data row
# and that row's text
CSV_LOADERS = {
    "dataset": (lambda path: load_dataset(path)[1], "label,x\na,1\n", "b,2"),
    "labels": (lambda path: load_labels(path, 2), "id,label\n0,a\n", "1,b"),
}


@pytest.mark.parametrize("loader", list(CSV_LOADERS))
class TestCsvInputFaults:
    """Both CSV loaders share one reader, so each fault reads the same in both."""

    def load(self, loader, path, second_row: bytes | None = None, prefix=b""):
        load, head, row = CSV_LOADERS[loader]
        body = row.encode() if second_row is None else second_row
        path.write_bytes(prefix + head.encode() + body + b"\n")
        return load(path)

    def test_bom_is_skipped(self, tmp_path, loader):
        labels = self.load(loader, tmp_path / "bom.csv", prefix=BOM)
        assert labels.vocabulary == ("a", "b")

    def test_empty_file(self, tmp_path, loader):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        with pytest.raises(DatasetError) as exc:
            CSV_LOADERS[loader][0](path)
        assert str(exc.value) == f"{path}: empty file"

    def test_wrong_cell_count(self, tmp_path, loader):
        path = tmp_path / "short.csv"
        with pytest.raises(DatasetError) as exc:
            self.load(loader, path, b"1")
        assert str(exc.value) == f"{path}: row 2 has 1 cells, expected 2"

    def test_bad_utf8_byte(self, tmp_path, loader):
        path = tmp_path / "bad.csv"
        with pytest.raises(DatasetError) as exc:
            self.load(loader, path, b"1,\xff")
        assert str(exc.value).startswith(
            f"{path}: invalid CSV: 'utf-8' codec can't decode byte 0xff in position ")

    def test_oversized_field(self, tmp_path, loader):
        path = tmp_path / "big.csv"
        with pytest.raises(DatasetError) as exc:
            self.load(loader, path, b'1,"' + b"z" * 200_000 + b'"')
        assert str(exc.value) == (
            f"{path}: invalid CSV: field larger than field limit (131072)")

    def test_unclosed_quote(self, tmp_path, loader):
        # a lenient parser reads the rest of the file into the open cell
        path = tmp_path / "open.csv"
        row = CSV_LOADERS[loader][2].encode()
        with pytest.raises(DatasetError) as exc:
            self.load(loader, path, b'"' + row + b"\n" + row)
        assert str(exc.value) == f"{path}: invalid CSV: unexpected end of data"

    def test_text_after_closing_quote(self, tmp_path, loader):
        # a lenient parser joins "a"b into ab
        path = tmp_path / "after.csv"
        row = CSV_LOADERS[loader][2].encode()
        with pytest.raises(DatasetError) as exc:
            self.load(loader, path, b'"' + row.replace(b",", b'"x,', 1))
        assert str(exc.value) == f"{path}: invalid CSV: ',' expected after '\"'"


def test_quoted_cells_load(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_bytes(b'label,x\n"a,b",1\n"c""d",2\n')
    assert load_dataset(path)[1].vocabulary == ("a,b", 'c"d')
    path.write_bytes(b'id,label\n0,"a,b"\n1,"c""d"\n')
    assert load_labels(path, 2).vocabulary == ("a,b", 'c"d')


class TestJsonInputs:
    def test_bom_is_skipped(self, tmp_path):
        spec = {"clusters": [{"center": [0], "stddev": 1.0, "count": 2}], "seed": 3}
        path = tmp_path / "spec.json"
        path.write_bytes(BOM + json.dumps(spec).encode())
        assert load_blob_spec(path) == BlobSpec(clusters=(((0.0,), 1.0, 2),), seed=3)
        path.write_bytes(BOM + b'{"n": 2, "method": "external", "edges": [[0, 1, 0.5]]}')
        assert graphs.load_graph(path).weights.tolist() == [0.5]

    def test_spec_must_be_an_object(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("[1]")
        with pytest.raises(DatasetError) as exc:
            load_blob_spec(path)
        assert str(exc.value) == f"{path}: top-level value must be an object"


class TestWrittenBytes:
    """Every CSV writer's output, byte for byte, failed sweep rows included."""

    LABELS = LabelAssignment([0, 1, 0], ("a,b", 'say "hi"'))

    def test_save_dataset(self, tmp_path):
        data = Dataset(np.array([[0.1, -2.0], [1e-300, 3.0], [2.5e16, -0.0]]))
        save_dataset(data, self.LABELS, tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == (
            b'x0,x1,label\n0.1,-2.0,"a,b"\n1e-300,3.0,"say ""hi"""\n'
            b'2.5e+16,-0.0,"a,b"\n')

    def test_save_labels(self, tmp_path):
        save_labels(self.LABELS, tmp_path / "l.csv")
        assert (tmp_path / "l.csv").read_bytes() == (
            b'id,label\n0,"a,b"\n1,"say ""hi"""\n2,"a,b"\n')

    def test_write_vertex_csv(self, tmp_path):
        graph = graphs.RelationshipGraph(
            4, np.array([0, 1, 2]), np.array([1, 2, 3]), np.array([1.0, 0.5, 1.0]),
            graphs.GraphProvenance("external"))
        rep = metrics.report(graph, LabelAssignment([0, 0, 1, 1], ("a,b", "c")))
        metrics.write_vertex_csv(rep, tmp_path / "v.csv")
        assert (tmp_path / "v.csv").read_bytes() == (
            b'id,label,precision,recall,fscore\n0,"a,b",1.0,1.0,1.0\n'
            b'1,"a,b",0.6666666666666666,1.0,0.8\n2,c,0.6666666666666666,1.0,0.8\n'
            b'3,c,1.0,1.0,1.0\n')

    def test_write_sweep_csv(self, tmp_path):
        result = metrics.SweepResult("tsne", metrics.MetricConfig(), (
            metrics.SweepRow(2.5, 0.1, 1 / 3, 2 / 3, 0.7),
            metrics.SweepRow(5, 1.0, 0.0, 1e-17, 0.5),
            metrics.SweepRow(99999, None, None, None, None, "perplexity must be in [1, 49]"),
        ))
        metrics.write_sweep_csv(result, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == (
            b"k,precision,recall_a0,recall_a1,fscore\n"
            b"2.5,0.1,0.3333333333333333,0.6666666666666666,0.7\n"
            b"5,1.0,0.0,1e-17,0.5\n99999,,,,\n")


class TestOneReaderPerFormat:
    def test_each_format_is_parsed_and_written_in_one_place(self):
        sources = {path.name: path.read_text(encoding="utf-8")
                   for path in Path(datasets_module.__file__).parent.glob("*.py")}
        for call in ("csv.reader(", "csv.writer(", "json.load("):
            assert {name: text.count(call) for name, text in sources.items()
                    if call in text} == {"datasets.py": 1}, call

    @pytest.mark.parametrize("function", [
        load_dataset, load_labels, load_blob_spec, graphs._read_graph,
        save_dataset, save_labels, metrics.write_vertex_csv, metrics.write_sweep_csv,
    ], ids=lambda f: f.__name__)
    def test_loaders_and_writers_open_no_file(self, function):
        assert "open(" not in inspect.getsource(function)
