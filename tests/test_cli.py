import json

import pytest

from relscore import knn
from relscore.cli import build_parser, main
from relscore.knn import usable_cores


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
