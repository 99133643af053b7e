"""Self-test of the benchmark: exact counts repeat, and tracing changes no output."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

# the same workloads at N = 300..600, small enough for the test suite
SCALE = 0.1
SEED = 5
EXACT = ("knn.exact_knn.calls", "knn.pairs", "graphs.edges", "graphs.non_converged",
         "optimizer.trials")


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_counts_repeat_and_tracing_changes_no_output(cli, workload, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    plain = run.run_benchmark(cli, workload, SEED, 0, False, SCALE)
    first = run.run_benchmark(cli, workload, SEED, 0, True, SCALE)
    second = run.run_benchmark(cli, workload, SEED, 0, True, SCALE)
    for record in (plain, first, second):
        assert record["failed"] == 0, record["failures"]
    assert first["dropped"] == {}
    assert ({m: first["per_layer"][m] for m in EXACT}
            == {m: second["per_layer"][m] for m in EXACT})
    # traced cycles must have written the very bytes the untraced ones did
    assert first["digests"] == plain["digests"] == second["digests"]


def test_tracer_wraps_every_binding_and_restores_them(cli):
    import relscore
    from relscore import cli as cli_module, graphs, metrics, optimizer

    original = graphs.build_tsne_graph
    tracer = Tracer()
    tracer.install()
    try:
        bound = {graphs.build_tsne_graph, metrics.build_tsne_graph,
                 optimizer.build_tsne_graph, cli_module.build_tsne_graph,
                 relscore.build_tsne_graph}
        assert len(bound) == 1 and original not in bound
    finally:
        tracer.uninstall()
    assert graphs.build_tsne_graph is original
    assert metrics.build_tsne_graph is original


def test_missing_function_is_dropped_not_fatal(cli):
    tracer = Tracer((Target("knn", "no_such_function", "knn.gone",
                            metrics=("knn.gone.s",)),))
    tracer.install()
    tracer.uninstall()
    assert list(tracer.dropped) == ["knn.gone.s"]
