import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relscore import cli, datasets, graphs, knn
from relscore.cli import build_parser, main
from relscore.graphs import build_graph, load_graph, save_graph
from relscore.knn import usable_cores
from relscore.metrics import MetricConfig, sweep, write_sweep_csv
from relscore.optimizer import OptimizerConfig, estimate


def run(*argv):
    return main(list(argv))


@pytest.fixture
def blobs_csv(tmp_path):
    path = tmp_path / "blobs.csv"
    assert run("synth", "--preset", "three-blobs", "--seed", "7",
               "--out", str(path)) == 0
    return path


class TestSynth:
    def test_preset_writes_csv_and_manifest(self, blobs_csv):
        lines = blobs_csv.read_text().strip().split("\n")
        assert lines[0] == "x0,x1,label"
        assert len(lines) == 151
        manifest = json.loads((blobs_csv.parent / "blobs.csv.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["flags"]["preset"] == "three-blobs"
        assert "tool_version" in manifest

    def test_explicit_clusters(self, tmp_path):
        out = tmp_path / "two.csv"
        assert run("synth", "--centers", "0,0;5,5", "--stddev", "0.5",
                   "--count", "10,20", "--seed", "3", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 31

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "clusters": [
                {"center": [0, 0], "stddev": 1.0, "count": 5},
                {"center": [9, 9], "stddev": 1.0, "count": 5},
            ],
            "seed": 12,
        }))
        out = tmp_path / "d.csv"
        assert run("synth", "--spec", str(spec), "--out", str(out)) == 0
        assert len(out.read_text().strip().split("\n")) == 11

    @pytest.mark.parametrize("cluster, seed, message", [
        ({"count": 2.5}, 0, "cluster count must be a positive integer, got 2.5"),
        ({"count": True}, 0, "cluster count must be a positive integer, got True"),
        ({}, 1.9, "seed must be a nonnegative integer, got 1.9"),
        ({"stddev": "wide"}, 0,
         "cluster center (0, 0) and stddev 'wide' must be finite numbers"),
        ({"center": ["a", 0]}, 0,
         "cluster center ('a', 0) and stddev 1.0 must be finite numbers"),
    ], ids=["fractional-count", "boolean-count", "fractional-seed", "text-stddev",
            "text-center"])
    def test_bad_spec_value_is_an_input_error(self, tmp_path, capsys, cluster, seed,
                                              message):
        first = {"center": [0, 0], "stddev": 1.0, "count": 5, **cluster}
        second = {"center": [9, 9], "stddev": 1.0, "count": 5}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"clusters": [first, second], "seed": seed}))
        assert run("synth", "--spec", str(spec), "--out", str(tmp_path / "d.csv")) == 1
        assert capsys.readouterr().err == f"error: {spec}: {message}\n"

    def test_label_column_named_like_a_feature_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run("synth", "--preset", "three-blobs", "--label-col", "x1",
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: label column 'x1' names a feature column (x0..x1)\n")
        assert list(tmp_path.iterdir()) == []  # no data file, no sidecar

    def test_unindexable_count_is_an_input_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(datasets, "_box_muller", None)  # nothing is drawn
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"clusters": [
            {"center": [0, 0], "stddev": 1.0, "count": 10 ** 30}]}))
        assert run("synth", "--spec", str(spec), "--out", str(tmp_path / "d.csv")) == 1
        top = np.iinfo(np.intp).max
        assert capsys.readouterr().err == (
            f"error: {spec}: clusters hold {2 * 10 ** 30} coordinates in all, more "
            f"than an array can index ({top})\n")
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("raw", [
        b'{"clusters": [{"center": [0, 0], "stddev": 1.0, "count": ' + b"1" * 5000 + b"}]}",
        b'{"clusters": [{"center": [0, 0], "stddev": 1.0, "count": 5}], "x": "\xff"}',
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["integer-past-digit-limit", "not-utf8", "nested-past-recursion-limit"])
    def test_unreadable_spec_is_an_input_error(self, tmp_path, capsys, raw):
        spec = tmp_path / "spec.json"
        spec.write_bytes(raw)
        assert run("synth", "--spec", str(spec), "--out", str(tmp_path / "d.csv")) == 1
        assert capsys.readouterr().err.startswith(f"error: {spec}: invalid JSON: ")

    def test_requires_a_source(self, tmp_path):
        assert run("synth", "--out", str(tmp_path / "x.csv")) == 1

    def test_preset_excludes_centers(self, tmp_path):
        assert run("synth", "--preset", "three-blobs", "--centers", "0,0",
                   "--out", str(tmp_path / "x.csv")) == 1


class TestGraphScore:
    def test_tsne_pipeline(self, blobs_csv, tmp_path):
        gpath = tmp_path / "g.json"
        assert run("graph", "--data", str(blobs_csv), "--method", "tsne",
                   "--perplexity", "5", "--out", str(gpath)) == 0
        doc = json.loads(gpath.read_text())
        assert doc["method"] == "tsne" and doc["n"] == 150
        rpath = tmp_path / "report.json"
        pvpath = tmp_path / "pv.csv"
        assert run("score", "--graph", str(gpath), "--data", str(blobs_csv),
                   "--alpha", "1", "--beta", "1", "--out", str(rpath),
                   "--per-vertex", str(pvpath)) == 0
        rep = json.loads(rpath.read_text())
        assert rep["global"]["precision"] == 1.0
        assert set(rep["labels"]) == {"0", "1", "2"}
        header = pvpath.read_text().split("\n", 1)[0]
        assert header == "id,label,precision,recall,fscore"

    def test_per_vertex_hashes_each_input_once(self, blobs_csv, tmp_path, monkeypatch):
        gpath = tmp_path / "g.json"
        assert run("graph", "--data", str(blobs_csv), "--method", "tsne",
                   "--perplexity", "5", "--out", str(gpath)) == 0
        hashed, sha256 = [], cli._sha256
        monkeypatch.setattr(cli, "_sha256", lambda path: hashed.append(path) or sha256(path))
        outputs = tmp_path / "report.json", tmp_path / "pv.csv"
        assert run("score", "--graph", str(gpath), "--data", str(blobs_csv),
                   "--out", str(outputs[0]), "--per-vertex", str(outputs[1])) == 0
        assert sorted(map(str, hashed)) == sorted([str(gpath), str(blobs_csv)])
        for out in outputs:
            manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
            assert set(manifest) == {"command", "flags", "inputs", "tool_version",
                                     "duration_s"}
            assert manifest["command"] == "score"
            assert manifest["inputs"] == {str(p): sha256(p) for p in (gpath, blobs_csv)}

    def test_infinite_beta_rejected(self, blobs_csv, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        assert run("graph", "--data", str(blobs_csv), "--method", "tsne",
                   "--perplexity", "5", "--out", str(gpath)) == 0
        capsys.readouterr()
        rpath = tmp_path / "report.json"
        assert run("score", "--graph", str(gpath), "--data", str(blobs_csv),
                   "--beta", "inf", "--out", str(rpath)) == 1
        assert capsys.readouterr().err == "error: beta must be positive and finite, got inf\n"
        assert not rpath.exists()

    def test_beta_with_overflowing_square_rejected(self, blobs_csv, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        assert run("graph", "--data", str(blobs_csv), "--method", "umap",
                   "--n-neighbors", "5", "--out", str(gpath)) == 0
        capsys.readouterr()
        rpath = tmp_path / "report.json"
        assert run("score", "--graph", str(gpath), "--data", str(blobs_csv),
                   "--beta", "1e200", "--out", str(rpath)) == 1
        assert capsys.readouterr().err == (
            "error: beta must be small enough that beta^2 is finite (about 1.34e154 for a "
            "double), got 1e+200\n")
        assert not rpath.exists()

    def test_non_finite_graph_provenance_rejected(self, blobs_csv, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        gpath.write_text('{"n": 150, "method": "external", "param": NaN, '
                         '"options": {"note": Infinity}, "edges": [[0, 1, 0.5]]}')
        rpath = tmp_path / "report.json"
        assert run("score", "--graph", str(gpath), "--data", str(blobs_csv),
                   "--out", str(rpath)) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {gpath}: param and options must be JSON (no NaN or Infinity): ")
        assert not rpath.exists()

    def test_umap_pipeline(self, blobs_csv, tmp_path):
        gpath = tmp_path / "g.json"
        assert run("graph", "--data", str(blobs_csv), "--method", "umap",
                   "--n-neighbors", "15", "--out", str(gpath)) == 0
        doc = json.loads(gpath.read_text())
        assert doc["method"] == "umap" and doc["param"] == 15

    def test_method_flag_pairing(self, blobs_csv, tmp_path):
        out = str(tmp_path / "g.json")
        assert run("graph", "--data", str(blobs_csv), "--method", "tsne",
                   "--out", out) == 1
        assert run("graph", "--data", str(blobs_csv), "--method", "umap",
                   "--perplexity", "5", "--n-neighbors", "5", "--out", out) == 1
        assert run("graph", "--data", str(blobs_csv), "--method", "umap",
                   "--n-neighbors", "5", "--prune-eps", "0.1", "--out", out) == 1

    @pytest.mark.parametrize("command, out", [
        ("score", "r.json"), ("export", "pv.csv"), ("verify", None),
    ], ids=["score", "export", "verify"])
    def test_vertex_count_mismatch_names_both(self, blobs_csv, tmp_path, capsys,
                                              command, out):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({
            "n": 3, "method": "external", "edges": [[0, 1, 1.0]],
        }))
        extra = ["--out", str(tmp_path / out)] if out else []
        code = run(command, "--graph", str(gpath), "--data", str(blobs_csv), *extra)
        assert code == 1
        err = capsys.readouterr().err
        assert "3" in err and "150" in err

    def test_vertex_count_far_above_the_endpoints_is_named(self, blobs_csv, tmp_path,
                                                           capsys):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({
            "n": 2 ** 63 - 1, "method": "external", "edges": [[0, 1, 0.5], [2, 5, 1.0]],
        }))
        code = run("score", "--graph", str(gpath), "--data", str(blobs_csv),
                   "--out", str(tmp_path / "r.json"))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: graph has {2 ** 63 - 1} vertices but dataset has 150 rows\n")

    def test_endpoint_ids_near_two_to_the_62_are_read(self, tmp_path, capsys):
        n = 2 ** 62
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({
            "n": n, "method": "external", "edges": [[n - 2, n - 1, 1.0]],
        }))
        data = tmp_path / "three.csv"
        data.write_text("x0,label\n0.0,a\n1.0,b\n2.0,a\n")
        code = run("score", "--graph", str(gpath), "--data", str(data),
                   "--out", str(tmp_path / "r.json"))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: graph has {n} vertices but dataset has 3 rows\n")

    def test_vertex_count_past_int64_is_an_input_error(self, blobs_csv, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        gpath.write_text(json.dumps({
            "n": 10 ** 30, "method": "external", "edges": [[0, 1, 0.5], [2, 5, 1.0]],
        }))
        code = run("score", "--graph", str(gpath), "--data", str(blobs_csv),
                   "--out", str(tmp_path / "r.json"))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {gpath}: n_vertices must be at most {2 ** 63 - 1}, got {10 ** 30}\n")

    def test_integer_weight_past_double_range_is_an_input_error(self, blobs_csv, tmp_path,
                                                                 capsys):
        gpath = tmp_path / "g.json"
        gpath.write_text('{"n": 150, "method": "external", "edges": [[0, 1, '
                         + "1" * 400 + "]]}")
        code = run("score", "--graph", str(gpath), "--data", str(blobs_csv),
                   "--out", str(tmp_path / "r.json"))
        assert code == 1
        assert "edges[0]: weight must be positive and finite, got inf" in capsys.readouterr().err

    def test_external_labels_override(self, blobs_csv, tmp_path):
        gpath = tmp_path / "g.json"
        assert run("graph", "--data", str(blobs_csv), "--method", "umap",
                   "--n-neighbors", "5", "--out", str(gpath)) == 0
        lpath = tmp_path / "labels.csv"
        rows = ["id,label"] + [f"{i},all" for i in range(150)]
        lpath.write_text("\n".join(rows) + "\n")
        rpath = tmp_path / "r.json"
        assert run("score", "--graph", str(gpath), "--data", str(blobs_csv),
                   "--labels", str(lpath), "--out", str(rpath)) == 0
        rep = json.loads(rpath.read_text())
        assert list(rep["labels"]) == ["all"]
        assert rep["global"]["precision"] == 1.0

    @pytest.mark.parametrize("method, flag, k", [("tsne", "--perplexity", "5"),
                                                 ("umap", "--n-neighbors", "5")])
    def test_non_converged_vertices_warned_on_stderr(self, tmp_path, capsys, method,
                                                     flag, k):
        small = tmp_path / "small.csv"
        assert run("synth", "--centers", "0,0;4,0;0,4", "--count", "20", "--seed", "3",
                   "--out", str(small)) == 0
        data, labels = datasets.load_dataset(small)
        assert data.n == 60
        # each point stacked 20 times: every candidate of every row sits at distance 0
        copies = tmp_path / "copies.csv"
        datasets.save_dataset(datasets.Dataset(np.repeat(data.values[::20], 20, axis=0)),
                              labels, copies)
        for path, stuck in ((small, 0), (copies, 60)):
            gpath = tmp_path / f"{path.stem}.json"
            capsys.readouterr()
            assert run("graph", "--data", str(path), "--method", method, flag, k,
                       "--out", str(gpath)) == 0
            assert capsys.readouterr().err == (
                f"graph: bandwidth calibration did not converge for {stuck} of 60 "
                "vertices\n" if stuck else "")
            graph = build_graph(method, datasets.load_dataset(path)[0], float(k)
                                if method == "tsne" else int(k))
            assert graph.provenance.options["non_converged"] == stuck
            save_graph(graph, tmp_path / "library.json")
            assert gpath.read_bytes() == (tmp_path / "library.json").read_bytes()


class TestSweep:
    def test_k_list_csv(self, blobs_csv, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--data", str(blobs_csv), "--method", "tsne",
                   "--k-list", "2,5,37,68,80,149", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "k,precision,recall_a0,recall_a1,fscore"
        assert len(lines) == 7

    def test_range_json(self, blobs_csv, tmp_path):
        out = tmp_path / "sweep.json"
        assert run("sweep", "--data", str(blobs_csv), "--method", "umap",
                   "--k-min", "5", "--k-max", "15", "--k-step", "5",
                   "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert [row["k"] for row in doc["rows"]] == [5, 10, 15]

    def test_k_list_excludes_range(self, blobs_csv, tmp_path):
        assert run("sweep", "--data", str(blobs_csv), "--method", "tsne",
                   "--k-list", "2", "--k-min", "2", "--k-max", "9",
                   "--out", str(tmp_path / "s.csv")) == 1

    @pytest.mark.parametrize("flags, message", [
        (("--k-list", ""), "--k-list is empty"),
        (("--k-list", ","), "--k-list is empty"),
        (("--k-min", "10", "--k-max", "5"), "--k-min 10 to --k-max 5 is empty"),
    ], ids=["empty-list", "only-commas", "min-above-max"])
    def test_no_k_to_try_rejected_before_loading(self, tmp_path, capsys, flags, message):
        out = tmp_path / "s.csv"
        assert run("sweep", "--data", str(tmp_path / "absent.csv"), "--method", "umap",
                   *flags, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_every_k_failing_is_an_error(self, blobs_csv, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("sweep", "--data", str(blobs_csv), "--method", "umap",
                   "--k-list", "1,500", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "sweep: k=1: n_neighbors must be in [2, 149], got 1\n"
            "sweep: k=500: n_neighbors must be in [2, 149], got 500\n"
            "error: no k in the sweep could be scored\n")
        assert sorted(tmp_path.iterdir()) == [blobs_csv, tmp_path / "blobs.csv.manifest.json"]

    def test_k_step_excludes_k_list(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("sweep", "--data", str(tmp_path / "absent.csv"), "--method", "umap",
                   "--k-list", "5", "--k-step", "0", "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: --k-list excludes --k-step\n"
        assert list(tmp_path.iterdir()) == []

    def test_k_step_defaults_to_one(self, blobs_csv, tmp_path):
        out = tmp_path / "s.csv"
        assert run("sweep", "--data", str(blobs_csv), "--method", "umap",
                   "--k-min", "5", "--k-max", "7", "--out", str(out)) == 0
        assert [line.split(",")[0] for line in out.read_text().split()[1:]] == [
            "5", "6", "7"]
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["flags"]["k_step"] is None

    def test_prune_eps_rejected_for_umap(self, blobs_csv, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("sweep", "--data", str(blobs_csv), "--method", "umap",
                   "--k-list", "5", "--prune-eps", "0.1", "--out", str(out)) == 1
        assert "--prune-eps applies to --method tsne only" in capsys.readouterr().err
        assert not out.exists()


class TestEstimate:
    def test_writes_trace_and_summary(self, blobs_csv, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = run("estimate", "--data", str(blobs_csv), "--method", "tsne",
                   "--k-min", "2", "--k-max", "40", "--budget", "8",
                   "--n-init", "4", "--seed", "3", "--trace", str(trace))
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["trials"] == 8
        doc = json.loads(trace.read_text())
        assert len(doc["trials"]) == 8
        assert doc["best"]["k"] == summary["k"]

    def test_prune_eps_rejected_for_umap(self, blobs_csv, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert run("estimate", "--data", str(blobs_csv), "--method", "umap",
                   "--k-min", "2", "--k-max", "10", "--budget", "3",
                   "--n-init", "2", "--prune-eps", "0.1",
                   "--trace", str(trace)) == 1
        assert "--prune-eps applies to --method tsne only" in capsys.readouterr().err
        assert not trace.exists()


class TestNonConvergenceWarnings:
    """sweep and estimate name each k whose calibration left vertices
    unconverged, and the count stays out of their data files."""

    @pytest.fixture
    def stuck_csv(self, tmp_path):
        # the first point of each blob stacked 50 times: no bandwidth reaches
        # the target, for every k these tests use
        data, labels = datasets.preset("three-blobs", seed=7)
        path = tmp_path / "stuck.csv"
        datasets.save_dataset(datasets.Dataset(np.repeat(data.values[::50], 50, axis=0)),
                              labels, path)
        return path

    def stuck(self, path, method, k):
        return build_graph(method, datasets.load_dataset(path)[0], k).provenance.options[
            "non_converged"]

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_sweep(self, stuck_csv, tmp_path, capsys, suffix):
        out = tmp_path / f"sweep{suffix}"
        capsys.readouterr()
        assert run("sweep", "--data", str(stuck_csv), "--method", "umap",
                   "--k-list", "5,15", "--out", str(out)) == 0
        stuck = {k: self.stuck(stuck_csv, "umap", k) for k in (5, 15)}
        assert all(stuck.values())
        assert capsys.readouterr().err == "".join(
            f"sweep: k={k}: bandwidth calibration did not converge for {c} of 150 "
            "vertices\n" for k, c in stuck.items())
        data, labels = datasets.load_dataset(stuck_csv)
        result = sweep(data, labels, "umap", [5, 15], MetricConfig())
        assert [row.non_converged for row in result.rows] == list(stuck.values())
        if suffix == ".csv":
            write_sweep_csv(result, tmp_path / "library.csv")
            assert out.read_bytes() == (tmp_path / "library.csv").read_bytes()
        else:
            assert json.loads(out.read_text()) == json.loads(json.dumps(result.to_dict()))

    def test_estimate(self, stuck_csv, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        capsys.readouterr()
        assert run("estimate", "--data", str(stuck_csv), "--method", "tsne",
                   "--k-min", "5", "--k-max", "20", "--budget", "3", "--n-init", "2",
                   "--seed", "0", "--trace", str(trace)) == 0
        data, labels = datasets.load_dataset(stuck_csv)
        _, library = estimate(data, labels, "tsne", OptimizerConfig(
            k_min=5, k_max=20, n_init=2, budget=3, seed=0))
        assert len(library.trials) == 3
        assert capsys.readouterr().err == "".join(
            f"estimate: k={t.k}: bandwidth calibration did not converge for "
            f"{self.stuck(stuck_csv, 'tsne', t.k)} of 150 vertices\n"
            for t in library.trials)
        assert json.loads(trace.read_text()) == json.loads(json.dumps(library.to_dict()))


class TestVerifyExport:
    def test_verify_ok(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        assert run("synth", "--centers", "0,0;8,8", "--count", "10",
                   "--seed", "1", "--out", str(data)) == 0
        gpath = tmp_path / "g.json"
        assert run("graph", "--data", str(data), "--method", "umap",
                   "--n-neighbors", "4", "--out", str(gpath)) == 0
        assert run("verify", "--graph", str(gpath), "--data", str(data),
                   "--alpha", "0.5", "--beta", "2") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        assert out["max_abs_deviation"] <= 1e-12
        assert sorted(out["deviations"]) == sorted(
            f"{scope}_{score}" for scope in ("vertex", "global")
            for score in ("precision", "recall", "fscore"))
        assert {type(value) for value in out["deviations"].values()} == {float}

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
    def test_bad_tolerance_rejected_before_reading(self, tmp_path, capsys, tolerance):
        # neither file exists: a read would report it instead
        assert run("verify", "--graph", str(tmp_path / "g.json"),
                   "--data", str(tmp_path / "d.csv"), "--tolerance", tolerance) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --tolerance must be nonnegative and finite, got {float(tolerance)}\n")

    def test_export_csv(self, blobs_csv, tmp_path):
        gpath = tmp_path / "g.json"
        assert run("graph", "--data", str(blobs_csv), "--method", "umap",
                   "--n-neighbors", "10", "--out", str(gpath)) == 0
        out = tmp_path / "pv.csv"
        assert run("export", "--graph", str(gpath), "--data", str(blobs_csv),
                   "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 151


class TestErrorSurface:
    def test_unknown_flag_rejected(self, tmp_path):
        assert run("synth", "--preset", "three-blobs",
                   "--out", str(tmp_path / "x.csv"), "--bogus") == 1

    def test_unknown_subcommand(self):
        assert run("transmogrify") == 1

    def test_missing_file(self, tmp_path):
        assert run("graph", "--data", str(tmp_path / "nope.csv"),
                   "--method", "umap", "--n-neighbors", "3",
                   "--out", str(tmp_path / "g.json")) == 1

    @pytest.mark.parametrize("flag", ["--data", "--labels"])
    @pytest.mark.parametrize("row, message", [
        (None, "empty file"),
        (b"1", "row 2 has 1 cells, expected 2"),
        (b"1,\xff", "invalid CSV: 'utf-8' codec can't decode byte 0xff in position "),
        (b'1,"' + b"z" * 200_000 + b'"',
         "invalid CSV: field larger than field limit (131072)"),
        (b'1,"b\n3,c', "invalid CSV: unexpected end of data"),
        (b'1,"b"c', "invalid CSV: ',' expected after '\"'"),
    ], ids=["empty", "short-row", "not-utf8", "oversized-field", "unclosed-quote",
            "text-after-quote"])
    def test_unreadable_csv_is_an_input_error(self, blobs_csv, tmp_path, capsys, flag,
                                              row, message):
        bad = tmp_path / "bad.csv"
        head = b"x,label\n2,a\n" if flag == "--data" else b"id,label\n0,a\n"
        bad.write_bytes(b"" if row is None else head + row + b"\n")
        data = bad if flag == "--data" else blobs_csv
        argv = ["sweep", "--data", str(data), "--method", "umap", "--k-list", "5",
                "--out", str(tmp_path / "s.csv")]
        if flag == "--labels":
            argv += ["--labels", str(bad)]
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["score", "verify"])
    @pytest.mark.parametrize("raw", [
        b"[" * 100_000 + b"]" * 100_000,
        b'{"n": 3, "method": "tsne", "param": ' + b"[" * 100_000 + b"]" * 100_000
        + b', "edges": [[0, 1, 0.5]]}',
        b'{"n": 3, "method": "tsne", "param": 30, "edges": [[0, 1, 0.5], [0, 2, '
        + b"[" * 100_000 + b"]" * 100_000 + b"]]}",
    ], ids=["document", "head", "edge"])
    def test_graph_nested_past_recursion_limit_is_an_input_error(self, blobs_csv, tmp_path,
                                                                 capsys, command, raw):
        graph = tmp_path / "g.json"
        graph.write_bytes(raw)
        out = ("--out", str(tmp_path / "r.json")) if command == "score" else ()
        assert run(command, "--graph", str(graph), "--data", str(blobs_csv), *out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {graph}: invalid JSON: maximum recursion depth")
        assert err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "synth" in capsys.readouterr().out
        for sub in ("synth", "graph", "score", "sweep", "estimate",
                    "verify", "export"):
            assert run(sub, "--help") == 0
            text = capsys.readouterr().out
            assert "default" in text or "--help" in text

    def test_version(self, capsys):
        assert run("--version") == 0
        assert capsys.readouterr().out.strip()

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RELSCORE_OUT_DIR", str(tmp_path))
        assert run("synth", "--preset", "three-blobs", "--out", "env.csv") == 0
        assert (tmp_path / "env.csv").is_file()

    @pytest.mark.parametrize("command", ["graph", "sweep", "estimate"])
    @pytest.mark.parametrize("prune_eps", ["nan", "inf", "-1"])
    def test_bad_prune_eps_rejected_before_knn(self, blobs_csv, tmp_path, capsys,
                                               monkeypatch, command, prune_eps):
        passes = []
        monkeypatch.setattr(graphs, "exact_knn", lambda *args, **kwargs: passes.append(args))
        out = tmp_path / ("trace.json" if command == "estimate" else "out.json")
        flags = {
            "graph": ("--perplexity", "5", "--out"),
            "sweep": ("--k-list", "5,10", "--out"),
            "estimate": ("--k-min", "2", "--k-max", "10", "--budget", "3",
                         "--n-init", "2", "--trace"),
        }[command]
        assert run(command, "--data", str(blobs_csv), "--method", "tsne",
                   "--prune-eps", prune_eps, *flags, str(out)) == 1
        value = float(prune_eps)
        assert capsys.readouterr().err == (
            f"error: prune_eps must be nonnegative and finite, got {value}\n")
        assert passes == [] and not out.exists()


class TestFileCollisions:
    """An output naming an input or another output is refused before any file is touched."""

    @pytest.fixture
    def files(self, blobs_csv, tmp_path):
        graph = tmp_path / "g.json"
        assert run("graph", "--data", str(blobs_csv), "--method", "umap",
                   "--n-neighbors", "5", "--out", str(graph)) == 0
        return {"data": blobs_csv, "graph": graph,
                "report": tmp_path / "r.out", "export": tmp_path / "e.csv"}

    @pytest.mark.parametrize("argv, flags", [
        (["graph", "--data", "{data}", "--method", "umap", "--n-neighbors", "5",
          "--out", "{data}"], ("--out", "--data")),
        (["score", "--graph", "{graph}", "--data", "{data}", "--out", "{report}",
          "--per-vertex", "{report}"], ("--per-vertex", "--out")),
        (["export", "--graph", "{graph}", "--data", "{data}", "--out", "{graph}"],
         ("--out", "--graph")),
        (["score", "--graph", "{graph}", "--data", "{data}", "--out", "{report}",
          "--per-vertex", "{report}.manifest.json"], ("--per-vertex", "the manifest of --out")),
    ], ids=["graph-over-data", "score-over-own-report", "export-over-graph", "over-manifest"])
    def test_refused(self, files, tmp_path, capsys, argv, flags):
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        assert run(*(arg.format(**files) for arg in argv)) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {flags[0]} names the same file as {flags[1]}: ")
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_other_spellings_of_one_file_refused(self, files, tmp_path, monkeypatch):
        (tmp_path / "link.csv").symlink_to(files["data"])
        monkeypatch.chdir(tmp_path)
        for out in ("link.csv", f"./{files['data'].name}", str(files["data"])):
            assert run("graph", "--data", files["data"].name, "--method", "umap",
                       "--n-neighbors", "5", "--out", out) == 1
        assert run("graph", "--data", files["data"].name, "--method", "umap",
                   "--n-neighbors", "5", "--out", "new.json") == 0

    def test_out_dir_applies_before_the_comparison(self, files, tmp_path, monkeypatch):
        # with RELSCORE_OUT_DIR set, a relative --out lands elsewhere and names no input
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "outputs"))
        (tmp_path / "outputs").mkdir()
        assert run("export", "--graph", "g.json", "--data", files["data"].name,
                   "--out", "g.json") == 0
        assert (tmp_path / "outputs" / "g.json").exists()
        assert load_graph(tmp_path / "g.json").n_vertices == 150

    def test_inputs_hashed_before_any_output(self, files, tmp_path, monkeypatch):
        digest = cli._sha256(files["data"])

        def save_and_touch_input(graph, path):  # an output step that changes an input
            save_graph(graph, path)
            with open(files["data"], "a") as fh:
                fh.write("\n")

        monkeypatch.setattr(cli, "save_graph", save_and_touch_input)
        out = tmp_path / "g2.json"
        assert run("graph", "--data", str(files["data"]), "--method", "umap",
                   "--n-neighbors", "5", "--out", str(out)) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["inputs"] == {str(files["data"]): digest}


# per command: flags naming every file of its `_FILE_FLAGS` entry; {out} is a fresh directory
SIDECAR_ARGV = {
    "synth": ["--spec", "{spec}", "--out", "{out}/d.csv"],
    "graph": ["--data", "{data}", "--labels", "{labels}", "--method", "umap",
              "--n-neighbors", "5", "--out", "{out}/g.json"],
    "score": ["--graph", "{graph}", "--data", "{data}", "--labels", "{labels}",
              "--out", "{out}/r.json", "--per-vertex", "{out}/pv.csv"],
    "sweep": ["--data", "{data}", "--labels", "{labels}", "--method", "umap",
              "--k-list", "4,6", "--out", "{out}/s.csv"],
    "estimate": ["--data", "{data}", "--labels", "{labels}", "--method", "umap",
                 "--k-min", "3", "--k-max", "9", "--budget", "3", "--n-init", "2",
                 "--trace", "{out}/t.json"],
    "verify": ["--graph", "{graph}", "--data", "{data}", "--labels", "{labels}"],
    "export": ["--graph", "{graph}", "--data", "{data}", "--labels", "{labels}",
               "--out", "{out}/e.csv"],
}


class TestSidecars:
    """`main` hashes the read flags of `_FILE_FLAGS` and writes one sidecar per
    write flag, after the command succeeds."""

    @pytest.fixture
    def files(self, tmp_path):
        inputs = tmp_path / "in"
        inputs.mkdir()
        (tmp_path / "out").mkdir()
        spec = inputs / "spec.json"
        spec.write_text(json.dumps({"clusters": [
            {"center": [0, 0], "stddev": 1.0, "count": 12},
            {"center": [8, 8], "stddev": 1.0, "count": 12}], "seed": 1}))
        data, graph, labels = inputs / "d.csv", inputs / "g.json", inputs / "labels.csv"
        assert run("synth", "--spec", str(spec), "--out", str(data)) == 0
        assert run("graph", "--data", str(data), "--method", "umap", "--n-neighbors", "5",
                   "--out", str(graph)) == 0
        labels.write_text("id,label\n" + "".join(f"{i},{'ab'[i % 2]}\n" for i in range(24)))
        return {"spec": spec, "data": data, "graph": graph, "labels": labels,
                "out": tmp_path / "out"}

    @pytest.fixture
    def hashed(self, monkeypatch):
        paths, sha256 = [], cli._sha256
        monkeypatch.setattr(cli, "_sha256", lambda path: paths.append(path) or sha256(path))
        return paths

    @staticmethod
    def argv(command, files, drop=()):
        argv = [arg.format(**files) for arg in SIDECAR_ARGV[command]]
        for flag in drop:
            at = argv.index(flag)
            del argv[at:at + 2]
        return [command, *argv]

    @staticmethod
    def sidecars(files):
        return sorted(files["out"].glob("*.manifest.json"))

    @pytest.mark.parametrize("command", sorted(cli._FILE_FLAGS))
    def test_every_output_gets_the_digests_of_every_input(self, files, hashed, command):
        argv = self.argv(command, files)
        args = build_parser().parse_args(argv)
        reads, writes = cli._FILE_FLAGS[command]
        assert all(getattr(args, flag) for flag in reads + writes)
        assert run(*argv) == 0
        inputs = [Path(getattr(args, flag)) for flag in reads]
        assert hashed == (inputs if writes else [])  # once each, in table order
        assert self.sidecars(files) == sorted(
            Path(f"{getattr(args, flag)}.manifest.json") for flag in writes)
        for sidecar in self.sidecars(files):
            manifest = json.loads(sidecar.read_text())
            assert manifest["command"] == command
            assert manifest["inputs"] == {str(p): cli._sha256(p) for p in inputs}

    @pytest.mark.parametrize("command, drop", [("estimate", ("--trace",)), ("verify", ())])
    def test_no_output_hashes_nothing(self, files, hashed, command, drop):
        assert run(*self.argv(command, files, drop)) == 0
        assert hashed == [] and self.sidecars(files) == []

    @pytest.mark.parametrize("command, extra", [
        ("graph", ("--perplexity", "5")),
        ("score", ("--beta", "inf")),
        ("estimate", ("--target", "label:none")),
    ], ids=["graph-flag-pairing", "score-beta", "estimate-target"])
    def test_failed_command_leaves_no_sidecar(self, files, command, extra):
        assert run(*self.argv(command, files), *extra) == 1
        assert list(files["out"].iterdir()) == []

    def test_output_of_a_failed_command_gets_no_sidecar(self, files, monkeypatch):
        def fail(rep, path):
            raise OSError(f"cannot write {path}")

        monkeypatch.setattr(cli, "write_vertex_csv", fail)
        assert run(*self.argv("score", files)) == 1
        assert [p.name for p in files["out"].iterdir()] == ["r.json"]

    @pytest.mark.parametrize("command, missing", [
        ("synth", "spec"), ("graph", "data"), ("score", "graph"), ("export", "labels"),
    ])
    def test_missing_input_named_by_its_loader(self, files, hashed, capsys, command,
                                               missing):
        files[missing] = files["spec"].parent / "absent"
        assert run(*self.argv(command, files)) == 1
        assert capsys.readouterr().err == f"error: no such file: {files[missing]}\n"
        assert files[missing] not in hashed
        assert list(files["out"].iterdir()) == []

    def test_table_names_every_command_and_only_its_flags(self):
        commands = next(action.choices for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        assert set(cli._FILE_FLAGS) == set(commands)
        for command, (reads, writes) in cli._FILE_FLAGS.items():
            dests = {action.dest for action in commands[command]._actions}
            assert set(reads + writes) <= dests, command


class TestThreads:
    def test_threads_flag_accepted_and_inert(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run("synth", "--preset", "three-blobs", "--threads", "1",
                   "--out", str(a)) == 0
        assert run("synth", "--preset", "three-blobs", "--threads", "8",
                   "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_must_be_positive(self, tmp_path):
        assert run("synth", "--preset", "three-blobs", "--threads", "0",
                   "--out", str(tmp_path / "x.csv")) == 1

    @pytest.mark.parametrize("raw, message", [
        ("2.5", "must be an integer, got '2.5'"),
        ("x", "must be an integer, got 'x'"),
        ("0", "must be positive, got 0"),
    ])
    def test_bad_count_named_in_check_threads_words(self, tmp_path, capsys, raw, message):
        out = tmp_path / "x.csv"
        assert run("synth", "--preset", "three-blobs", "--threads", raw, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: argument --threads: {message}\n"
        assert not out.exists()

    def test_default_is_usable_cores(self):
        args = build_parser().parse_args(["synth", "--preset", "three-blobs",
                                          "--out", "x.csv"])
        assert args.threads == usable_cores()

    def test_thread_count_never_changes_a_byte(self, tmp_path, monkeypatch):
        # N=400 gives three kNN row blocks and three usable cores are
        # reported, so two threads run two workers on any machine
        monkeypatch.setattr(knn, "usable_cores", lambda: 3)
        data = tmp_path / "blobs.csv"
        assert run("synth", "--centers", "0,0;4,0;0,4;4,4", "--count", "100",
                   "--seed", "11", "--out", str(data)) == 0
        commands = {
            "tsne.json": ("graph", "--method", "tsne", "--perplexity", "30"),
            "umap.json": ("graph", "--method", "umap", "--n-neighbors", "15"),
            "sweep.csv": ("sweep", "--method", "umap", "--k-list", "5,10,20"),
        }
        for name, argv in commands.items():
            outputs = []
            for threads in ("1", "2"):
                out = tmp_path / threads / name
                out.parent.mkdir(exist_ok=True)
                assert run(*argv, "--data", str(data), "--threads", threads,
                           "--out", str(out)) == 0
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], name


# Runs in a fresh interpreter: after `import relscore.cli`, then after each
# command run through cli.main, prints the scipy modules then loaded.
SCIPY_PROBE = """
import json, sys
import relscore.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    if relscore.cli.main(argv) != 0:
        raise SystemExit(f"{argv[0]} failed")
    loaded.append(scipy_modules())
print(json.dumps(loaded))
"""


def test_commands_load_no_scipy(tmp_path):
    """Only `estimate` needs scipy; no other command loads it."""
    data = str(tmp_path / "data.csv")
    tsne, umap = str(tmp_path / "tsne.json"), str(tmp_path / "umap.json")
    commands = [
        ["synth", "--preset", "three-blobs", "--out", data],
        ["graph", "--data", data, "--method", "tsne", "--perplexity", "10", "--out", tsne],
        ["graph", "--data", data, "--method", "umap", "--n-neighbors", "10", "--out", umap],
        ["sweep", "--data", data, "--method", "tsne", "--k-list", "5,10",
         "--out", str(tmp_path / "sweep-tsne.csv")],
        ["sweep", "--data", data, "--method", "umap", "--k-list", "5,10",
         "--out", str(tmp_path / "sweep.csv")],
        ["score", "--graph", tsne, "--data", data, "--out", str(tmp_path / "r.json"),
         "--per-vertex", str(tmp_path / "v.csv")],
        ["export", "--graph", umap, "--data", data, "--out", str(tmp_path / "e.csv")],
        ["verify", "--graph", tsne, "--data", data],
        ["estimate", "--data", data, "--method", "tsne", "--k-min", "2", "--k-max", "10",
         "--budget", "3", "--n-init", "2", "--trace", str(tmp_path / "trace.json")],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(commands)],
                          capture_output=True, text=True, timeout=300,
                          env={"PYTHONPATH": src}, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    *scipy_free, estimated = json.loads(proc.stdout.splitlines()[-1])
    assert len(scipy_free) == len(commands)
    for step, modules in zip(["import", *commands[:-1]], scipy_free):
        assert modules == [], step
    assert "scipy.linalg" in estimated  # the surrogate's Cholesky solves
