"""Bayesian search for the neighborhood size maximizing the f-score.

The objective (build the graph at integer k, score it) is expensive and
neither convex nor concave in k, so a Gaussian-process surrogate over
normalized log(k) drives expected-improvement acquisition across the
whole integer candidate range.  Everything is seeded and tie-broken
toward smaller k, so repeated runs are identical.

scipy is imported inside the functions that need it, so that importing
relscore loads none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset, LabelAssignment, integer_values
from .graphs import GraphError, _check_method, build_graph, shared_neighbors
from .graphs import build_tsne_graph  # not called: the benchmark's tracer test reads it
from .metrics import MetricConfig, MetricsError, _balanced_mean, _label_fscores

__all__ = [
    "OptimizerError",
    "OptimizerConfig",
    "Trial",
    "OptimizationTrace",
    "expected_improvement",
    "fit_surrogate",
    "surrogate_posterior",
    "estimate",
    "LENGTHSCALE_GRID",
    "OBSERVATION_JITTER",
]


class OptimizerError(ValueError):
    """Invalid optimizer configuration or unusable objective."""


LENGTHSCALE_GRID = (0.05, 0.1, 0.2, 0.5, 1.0)
OBSERVATION_JITTER = 1e-6


@dataclass(frozen=True)
class OptimizerConfig:
    """Integer search bounds, evaluation budget, and objective target.

    target is "global" or "label:NAME" to maximize one label's f-score.
    """

    k_min: int
    k_max: int
    n_init: int = 5
    budget: int = 25
    seed: int = 0
    target: str = "global"
    metric: MetricConfig = field(default_factory=MetricConfig)

    def __post_init__(self):
        for name in ("k_min", "k_max", "n_init", "budget", "seed"):
            value = getattr(self, name)
            if integer_values(value)[1].any():
                raise OptimizerError(f"{name} must be an integer, got {value}")
            object.__setattr__(self, name, int(value))
        if not 2 <= self.k_min < self.k_max:
            raise OptimizerError(
                f"need 2 <= k_min < k_max, got [{self.k_min}, {self.k_max}]"
            )
        if self.n_init < 1:
            raise OptimizerError(f"n_init must be positive, got {self.n_init}")
        if self.budget < self.n_init:
            raise OptimizerError(
                f"budget {self.budget} smaller than n_init {self.n_init}"
            )
        if self.seed < 0:
            raise OptimizerError(f"seed must be nonnegative, got {self.seed}")
        if not isinstance(self.target, str) or (
                self.target != "global" and not self.target.startswith("label:")):
            raise OptimizerError(
                f"target must be 'global' or 'label:NAME', got {self.target!r}"
            )


@dataclass(frozen=True)
class Trial:
    """One objective evaluation.  non_converged counts the vertices whose
    bandwidth calibration did not converge; it is reported, never traced."""

    k: int
    fscore: float | None
    per_label: dict[str, float] | None
    error: str | None = None
    non_converged: int = 0


@dataclass(frozen=True)
class OptimizationTrace:
    """Trials in evaluation order plus the surrogate decisions behind them."""

    trials: tuple[Trial, ...]
    surrogate_steps: tuple[dict, ...]
    best_k: int
    best_fscore: float

    def to_dict(self) -> dict:
        return {
            "trials": [
                {
                    "k": t.k,
                    "fscore": t.fscore,
                    "per_label": t.per_label,
                    "error": t.error,
                }
                for t in self.trials
            ],
            "surrogate_steps": list(self.surrogate_steps),
            "best": {"k": self.best_k, "fscore": self.best_fscore},
        }


def expected_improvement(mean, stddev, best_so_far):
    """Closed-form expected improvement of a normal belief over an incumbent.

    Elementwise on arrays; the stddev = 0 limit is max(0, mean - best).
    """
    from scipy.special import ndtr
    mu = np.asarray(mean, dtype=float)
    sd = np.asarray(stddev, dtype=float)
    if np.any(sd < 0):
        raise OptimizerError("stddev must be nonnegative")
    gain = mu - best_so_far
    out = np.maximum(gain, 0.0)
    positive = sd > 0
    safe_sd = np.where(positive, sd, 1.0)
    z = gain / safe_sd
    density = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    ei = gain * ndtr(z) + sd * density
    out = np.where(positive, np.maximum(ei, 0.0), out)
    if np.isscalar(mean) and np.isscalar(stddev):
        return float(out)
    return out


@dataclass(frozen=True)
class SurrogateFit:
    """Standardized-target GP with a squared-exponential kernel."""

    x: np.ndarray
    coef: np.ndarray
    cho: tuple
    lengthscale: float
    y_mean: float
    y_scale: float
    log_marginal: float


def _kernel(xa: np.ndarray, xb: np.ndarray, lengthscale: float) -> np.ndarray:
    d = (xa[:, None] - xb[None, :]) / lengthscale
    return np.exp(-0.5 * d * d)


def fit_surrogate(x, y) -> SurrogateFit:
    """Fit the GP at each grid lengthscale, keep the best marginal likelihood."""
    from scipy.linalg import LinAlgError, cho_factor, cho_solve
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size == 0:
        raise OptimizerError("x and y must be equal-length 1-D arrays")
    y_mean = float(y.mean())
    y_scale = float(y.std())
    if y_scale == 0.0:
        y_scale = 1.0
    yn = (y - y_mean) / y_scale
    best = None
    for lengthscale in LENGTHSCALE_GRID:
        gram = _kernel(x, x, lengthscale)
        gram[np.diag_indices_from(gram)] += OBSERVATION_JITTER
        try:
            cho = cho_factor(gram, lower=True)
        except LinAlgError:
            continue
        coef = cho_solve(cho, yn)
        log_det = 2.0 * float(np.log(np.diag(cho[0])).sum())
        lml = (
            -0.5 * float(yn @ coef)
            - 0.5 * log_det
            - 0.5 * x.size * math.log(2.0 * math.pi)
        )
        if best is None or lml > best.log_marginal:
            best = SurrogateFit(
                x=x,
                coef=coef,
                cho=cho,
                lengthscale=lengthscale,
                y_mean=y_mean,
                y_scale=y_scale,
                log_marginal=lml,
            )
    if best is None:
        raise OptimizerError("surrogate fit failed at every lengthscale")
    return best


def surrogate_posterior(fit: SurrogateFit, xq) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and stddev at query points, in objective units."""
    from scipy.linalg import solve_triangular
    xq = np.atleast_1d(np.asarray(xq, dtype=float))
    cross = _kernel(xq, fit.x, fit.lengthscale)
    mu_n = cross @ fit.coef
    v = solve_triangular(fit.cho[0], cross.T, lower=True)
    var = np.maximum(1.0 - np.einsum("ij,ij->j", v, v), 0.0)
    mean = fit.y_mean + fit.y_scale * mu_n
    stddev = fit.y_scale * np.sqrt(var)
    return mean, stddev


def _normalize_log(k_values: np.ndarray, k_min: int, k_max: int) -> np.ndarray:
    lo = math.log(k_min)
    hi = math.log(k_max)
    return (np.log(k_values) - lo) / (hi - lo)


def estimate(dataset: Dataset, labels: LabelAssignment, method: str,
             config: OptimizerConfig,
             prune_eps: float | None = None, *,
             threads: int | None = None) -> tuple[int, OptimizationTrace]:
    """Maximize the (global or per-label) f-score over integer k.

    Initial design: both bounds plus seeded uniform draws without
    replacement; afterwards each round fits the surrogate on all
    successful trials and evaluates the unevaluated integer with the
    highest expected improvement (ties to smaller k).  Hard build errors
    are recorded as failed trials and kept out of the surrogate.  One kNN
    pass, at k_max, serves every trial as exact prefixes.  `threads`
    caps the worker threads of that pass and of every trial's
    calibration (see `run_blocks`); it never changes a byte.
    """
    _check_method(method, prune_eps, OptimizerError)
    n = dataset.n
    if labels.n != n:
        raise OptimizerError(f"label count {labels.n} != dataset row count {n}")
    if config.k_max > n - 1:
        raise OptimizerError(
            f"k_max {config.k_max} exceeds dataset bound {n - 1}"
        )
    label_target = None
    if config.target.startswith("label:"):
        label_target = config.target.split(":", 1)[1]
        if label_target not in labels.vocabulary:
            raise OptimizerError(f"unknown target label {label_target!r}")
        if not labels.counts()[labels.vocabulary.index(label_target)]:
            raise OptimizerError(f"target label {label_target!r} has no members")

    # the neighbor count grows with k, so k_max's lists cover every trial
    neighbors = shared_neighbors(method, dataset, [config.k_max], threads=threads)

    def objective(k: int) -> tuple[float, dict[str, float], int]:
        graph = build_graph(method, dataset, k, prune_eps, neighbors=neighbors,
                            threads=threads)
        per_label = _label_fscores(graph, labels, config.metric)
        stuck = graph.provenance.options["non_converged"]
        if label_target is not None:
            return per_label[label_target], per_label, stuck
        return _balanced_mean(list(per_label.values())), per_label, stuck

    candidates = np.arange(config.k_min, config.k_max + 1)
    xs = _normalize_log(candidates, config.k_min, config.k_max)
    x_of = {int(k): float(x) for k, x in zip(candidates, xs)}

    trials: list[Trial] = []
    surrogate_steps: list[dict] = []
    observed: dict[int, float] = {}
    failed: set[int] = set()

    def run_trial(k: int) -> None:
        k = int(k)
        try:
            value, per_label, stuck = objective(k)
        except (GraphError, MetricsError) as exc:
            trials.append(Trial(k=k, fscore=None, per_label=None, error=str(exc)))
            failed.add(k)
            return
        trials.append(Trial(k=k, fscore=float(value), per_label=per_label,
                            non_converged=stuck))
        observed[k] = float(value)

    rng = np.random.Generator(np.random.PCG64(config.seed))
    design = [config.k_min, config.k_max][: config.n_init]
    interior = candidates[1:-1]
    n_draw = min(max(config.n_init - 2, 0), interior.size)
    if n_draw > 0:
        design += [int(k) for k in rng.choice(interior, size=n_draw, replace=False)]
    for k in design:
        run_trial(k)

    while len(trials) < config.budget:
        remaining = np.array(
            [k for k in candidates.tolist() if k not in observed and k not in failed],
            dtype=np.int64,
        )
        if remaining.size == 0:
            break
        if not observed:
            surrogate_steps.append(
                {"trial": len(trials), "note": "no successes yet", "chosen_k": int(remaining[0])}
            )
            run_trial(int(remaining[0]))
            continue
        ks_obs = sorted(observed)
        fit = fit_surrogate(
            np.array([x_of[k] for k in ks_obs]),
            np.array([observed[k] for k in ks_obs]),
        )
        mean, stddev = surrogate_posterior(fit, [x_of[int(k)] for k in remaining])
        best_so_far = max(observed.values())
        ei = expected_improvement(mean, stddev, best_so_far)
        pick = int(np.argmax(ei))  # remaining is ascending: first max = smallest k
        chosen = int(remaining[pick])
        surrogate_steps.append(
            {
                "trial": len(trials),
                "lengthscale": fit.lengthscale,
                "y_mean": fit.y_mean,
                "y_scale": fit.y_scale,
                "log_marginal": fit.log_marginal,
                "chosen_k": chosen,
                "ei": float(ei[pick]),
            }
        )
        run_trial(chosen)

    if not observed:
        raise OptimizerError("every objective evaluation failed")
    best_fscore = max(observed.values())
    best_k = min(k for k, v in observed.items() if v == best_fscore)
    trace = OptimizationTrace(
        trials=tuple(trials),
        surrogate_steps=tuple(surrogate_steps),
        best_k=best_k,
        best_fscore=best_fscore,
    )
    return best_k, trace
