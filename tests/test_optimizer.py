import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from relscore import graphs
from relscore.datasets import LabelAssignment, preset
from relscore.metrics import MetricConfig
from relscore.optimizer import (
    OptimizerConfig,
    OptimizerError,
    estimate,
    expected_improvement,
    fit_surrogate,
    surrogate_posterior,
)


class TestExpectedImprovement:
    def test_zero_when_flat_at_incumbent(self):
        assert expected_improvement(0.4, 0.0, 0.4) == 0.0

    def test_deterministic_gain_when_flat(self):
        assert expected_improvement(0.7, 0.0, 0.4) == pytest.approx(0.3, abs=1e-15)
        assert expected_improvement(0.1, 0.0, 0.4) == 0.0

    def test_symmetric_case_is_normal_density_at_zero(self):
        assert expected_improvement(1.0, 1.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), abs=1e-12
        )
        assert expected_improvement(1.0, 1.0, 1.0) == pytest.approx(0.39894, abs=1e-5)

    def test_matches_quadrature(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(20):
            mu = float(rng.random() * 4 - 2)
            sd = float(rng.random() * 2 + 0.05)
            best = float(rng.random() * 4 - 2)
            closed = expected_improvement(mu, sd, best)
            numeric, _ = integrate.quad(
                lambda x: (x - best) * norm.pdf(x, mu, sd), best, np.inf
            )
            assert closed == pytest.approx(numeric, abs=1e-6)

    def test_vectorized(self):
        ei = expected_improvement(np.array([0.0, 1.0]), np.array([1.0, 0.0]), 0.5)
        assert ei.shape == (2,)
        assert ei[1] == 0.5

    def test_negative_stddev_rejected(self):
        with pytest.raises(OptimizerError):
            expected_improvement(0.0, -1.0, 0.0)


class TestSurrogate:
    def test_posterior_interpolates_observations(self):
        x = np.array([0.0, 0.3, 0.6, 1.0])
        y = np.array([0.2, 0.8, 0.5, 0.9])
        fit = fit_surrogate(x, y)
        mean, stddev = surrogate_posterior(fit, x)
        assert np.abs(mean - y).max() <= 1e-3  # jitter-scale pull only
        assert np.all(stddev >= 0)

    def test_uncertainty_grows_away_from_data(self):
        x = np.array([0.0, 1.0])
        y = np.array([0.0, 1.0])
        fit = fit_surrogate(x, y)
        _, sd_at = surrogate_posterior(fit, [0.0])
        _, sd_far = surrogate_posterior(fit, [0.5])
        assert sd_far[0] > sd_at[0]

    def test_constant_targets_handled(self):
        fit = fit_surrogate(np.array([0.0, 0.5, 1.0]), np.array([0.7, 0.7, 0.7]))
        mean, _ = surrogate_posterior(fit, [0.25])
        assert mean[0] == pytest.approx(0.7, abs=1e-6)


@pytest.fixture(scope="module")
def blobs():
    return preset("three-blobs", seed=7)


class TestEstimate:
    def test_constant_objective_returns_k_min(self, blobs):
        # one label on a line dataset: the graph stays connected at every
        # k, so precision and component recall are both exactly 1
        import numpy as np

        from conftest import make_labels
        from relscore.datasets import Dataset

        line = Dataset(np.arange(12, dtype=float)[:, None])
        ones = make_labels([0] * 12, ("only",))
        config = OptimizerConfig(
            k_min=2, k_max=10, n_init=4, budget=8, seed=1,
            metric=MetricConfig(alpha=0.0),
        )
        k_star, trace = estimate(line, ones, "umap", config)
        assert k_star == 2
        scores = {t.fscore for t in trace.trials if t.error is None}
        assert scores == {1.0}

    def test_budget_and_distinct_ks(self, blobs):
        data, labels = blobs
        config = OptimizerConfig(k_min=2, k_max=60, n_init=5, budget=12, seed=4)
        _, trace = estimate(data, labels, "tsne", config)
        ks = [t.k for t in trace.trials]
        assert len(ks) == 12
        assert len(set(ks)) == len(ks)
        assert {2, 60} <= set(ks)  # bounds always in the initial design

    def test_budget_equals_n_init_is_pure_random_search(self, blobs):
        data, labels = blobs
        config = OptimizerConfig(k_min=2, k_max=40, n_init=6, budget=6, seed=2)
        k_star, trace = estimate(data, labels, "tsne", config)
        assert len(trace.trials) == 6
        assert trace.surrogate_steps == ()
        best = max(t.fscore for t in trace.trials)
        assert trace.best_fscore == best
        assert k_star == min(t.k for t in trace.trials if t.fscore == best)

    def test_deterministic_trace(self, blobs):
        data, labels = blobs
        config = OptimizerConfig(k_min=2, k_max=80, n_init=5, budget=10, seed=3)
        a = estimate(data, labels, "tsne", config)
        b = estimate(data, labels, "tsne", config)
        assert a[0] == b[0]
        assert a[1].to_dict() == b[1].to_dict()

    def test_small_range_exhausts_candidates(self, blobs):
        data, labels = blobs
        config = OptimizerConfig(k_min=2, k_max=6, n_init=2, budget=20, seed=0)
        _, trace = estimate(data, labels, "umap", config)
        assert sorted(t.k for t in trace.trials) == [2, 3, 4, 5, 6]

    def test_label_target(self, blobs):
        data, labels = blobs
        config = OptimizerConfig(
            k_min=2, k_max=30, n_init=4, budget=6, seed=1, target="label:1",
            metric=MetricConfig(alpha=1.0, beta=1.0),
        )
        _, trace = estimate(data, labels, "tsne", config)
        for t in trace.trials:
            assert t.error is None
            assert t.fscore == t.per_label["1"]

    def test_unknown_label_target(self, blobs):
        data, labels = blobs
        config = OptimizerConfig(k_min=2, k_max=30, target="label:zzz")
        with pytest.raises(OptimizerError, match="zzz"):
            estimate(data, labels, "tsne", config)

    def test_label_target_with_no_members_builds_nothing(self, blobs, monkeypatch):
        data, labels = blobs
        labels = LabelAssignment(labels.labels, labels.vocabulary + ("empty",))
        builds, real_build = [], graphs.build_umap_graph

        def counting_build(*args, **kwargs):
            builds.append(args[1])
            return real_build(*args, **kwargs)

        monkeypatch.setattr(graphs, "build_umap_graph", counting_build)
        config = OptimizerConfig(k_min=5, k_max=60, budget=12, target="label:empty")
        with pytest.raises(OptimizerError) as exc:
            estimate(data, labels, "umap", config)
        assert str(exc.value) == "target label 'empty' has no members"
        assert builds == []

    def test_bounds_checked_against_dataset(self, blobs):
        data, labels = blobs
        config = OptimizerConfig(k_min=2, k_max=500)
        with pytest.raises(OptimizerError, match="exceeds dataset bound"):
            estimate(data, labels, "tsne", config)

    def test_per_label_breakdown_present(self, blobs):
        data, labels = blobs
        config = OptimizerConfig(k_min=2, k_max=30, n_init=3, budget=4, seed=5)
        _, trace = estimate(data, labels, "tsne", config)
        for t in trace.trials:
            assert set(t.per_label) == {"0", "1", "2"}

    def test_failed_evaluations_recorded_and_excluded(self, blobs, monkeypatch):
        from relscore import graphs
        from relscore.graphs import GraphError

        real_build = graphs.build_umap_graph
        poisoned = {4, 7}

        def flaky(dataset, k, **kwargs):
            if k in poisoned:
                raise GraphError(f"synthetic failure at k={k}")
            return real_build(dataset, k, **kwargs)

        monkeypatch.setattr(graphs, "build_umap_graph", flaky)
        data, labels = blobs
        config = OptimizerConfig(k_min=2, k_max=10, n_init=2, budget=9, seed=0)
        k_star, trace = estimate(data, labels, "umap", config)
        failed = {t.k for t in trace.trials if t.error is not None}
        assert failed == poisoned
        for t in trace.trials:
            if t.error is not None:
                assert t.fscore is None and "synthetic failure" in t.error
        assert k_star not in poisoned
        # budget consumed by failures too, never re-tried
        ks = [t.k for t in trace.trials]
        assert len(ks) == len(set(ks)) == 9

    @pytest.mark.parametrize("bad", [
        {"k_min": 5, "k_max": 5},
        {"k_min": 1, "k_max": 10},
        {"k_min": 2, "k_max": 10, "n_init": 0},
        {"k_min": 2, "k_max": 10, "n_init": 9, "budget": 5},
        {"k_min": 2, "k_max": 10, "target": "best"},
        {"k_min": math.nan, "k_max": 10},
        {"k_min": 2, "k_max": math.inf},
        {"k_min": 2, "k_max": 10, "budget": -math.inf},
        {"k_min": 2, "k_max": 10, "target": 5},
        {"k_min": 2, "k_max": 10, "target": None},
    ])
    def test_invalid_config(self, bad):
        with pytest.raises(OptimizerError):
            OptimizerConfig(**bad)

    def test_boolean_count_rejected(self):
        with pytest.raises(OptimizerError) as exc:
            OptimizerConfig(k_min=2, k_max=10, n_init=True)
        assert str(exc.value) == "n_init must be an integer, got True"
