"""Seeded inputs and command cycles of the three benchmark workloads.

Every dataset is 10 isotropic Gaussian blobs in 20-D whose centres are
drawn uniformly in a cube 3 wide, with stddev 1.  The labels therefore
overlap partly: UMAP precision is about 0.85 and the graphs carry both
intra- and inter-label edges, so every metric branch does real work.

A workload's set-up function (`WORKLOADS`) writes its inputs into a
work directory, running CLI commands where an input is itself a
relscore product, and returns its cycle: the list of CLI commands that
one timed repetition issues.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

N_BLOBS = 10
DIM = 20
CUBE_WIDTH = 3.0
STDDEV = 1.0

TUNE_N = 3000
SCORE_N = 4000
BUILD_N = 6000
VERIFY_N = 1000

SWEEP_K = "5,10,15,20,30,40,50,65,80,100"
ESTIMATE_ARGS = ("--k-min", "5", "--k-max", "60", "--budget", "10", "--seed", "0")
# (alpha, beta) pairs the score workload cycles through
SCORE_CONFIGS = ((1.0, 1.0), (0.5, 2.0), (0.0, 1.0), (0.25, 0.5))

# Commands whose work starts from the dataset's neighbour lists.
NEEDS_NEIGHBOURS = ("graph", "sweep", "estimate")


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its subcommand, argv, and the data files it writes."""

    kind: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


# Runs a command and reports whether it passed the correctness gate.
RunCommand = Callable[[Command], bool]


def blob_data(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n points in N_BLOBS near-equal clusters; label = cluster index.

    Normals come from PCG64 uniform doubles through a fixed Box-Muller
    transform, so one seed gives the same bytes on any numpy version.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    centers = rng.random((N_BLOBS, DIM)) * CUBE_WIDTH
    blocks, labels = [], []
    for index in range(N_BLOBS):
        count = n // N_BLOBS + (1 if index < n % N_BLOBS else 0)
        pairs = (count * DIM + 1) // 2
        u = rng.random((pairs, 2))
        radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        theta = 2.0 * np.pi * u[:, 1]
        z = np.empty(2 * pairs)
        z[0::2] = radius * np.cos(theta)
        z[1::2] = radius * np.sin(theta)
        blocks.append(centers[index] + STDDEV * z[: count * DIM].reshape(count, DIM))
        labels.append(np.full(count, index))
    return np.vstack(blocks), np.concatenate(labels)


def write_dataset(path: Path, seed: int, n: int) -> None:
    values, labels = blob_data(seed, n)
    lines = [",".join(f"x{j}" for j in range(DIM)) + ",label"]
    for row, label in zip(values.tolist(), labels.tolist()):
        lines.append(",".join(repr(v) for v in row) + f",{label}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _size(n: int, scale: float) -> int:
    return max(int(round(n * scale)), 100)


def graph_command(data: str, method: str, out: str) -> Command:
    param = ("--perplexity", "30") if method == "tsne" else ("--n-neighbors", "15")
    return Command("graph", ("graph", "--data", data, "--method", method, *param,
                             "--out", out), (out,))


def _tune(work: Path, seed: int, scale: float, run: RunCommand) -> list[Command]:
    write_dataset(work / "data.csv", seed, _size(TUNE_N, scale))
    return [
        Command("sweep", ("sweep", "--data", "data.csv", "--method", "umap",
                          "--k-list", SWEEP_K, "--out", "sweep.csv"),
                ("sweep.csv",)),
        Command("estimate", ("estimate", "--data", "data.csv", "--method", "tsne",
                             *ESTIMATE_ARGS, "--trace", "estimate.json"),
                ("estimate.json",)),
    ]


def _score(work: Path, seed: int, scale: float, run: RunCommand) -> list[Command]:
    write_dataset(work / "data.csv", seed, _size(SCORE_N, scale))
    for method in ("tsne", "umap"):
        if not run(graph_command("data.csv", method, f"{method}.json")):
            raise RuntimeError(f"set-up could not build the {method} graph")
    cycle = []
    for index, (alpha, beta) in enumerate(SCORE_CONFIGS):
        flags = ("--data", "data.csv", "--alpha", repr(alpha), "--beta", repr(beta))
        tag = f"a{alpha}_b{beta}"
        # two t-SNE commands per UMAP one: the heavy graph dominates the mix,
        # so the median command is a t-SNE one on every seed
        for method, kind in (("tsne", "score"), ("tsne", "export"),
                             ("umap", ("score", "export")[index % 2])):
            graph = ("--graph", f"{method}.json")
            if kind == "score":
                report, vertices = f"report_{method}_{tag}.json", f"vertices_{method}_{tag}.csv"
                cycle.append(Command("score", ("score", *graph, *flags, "--out", report,
                                               "--per-vertex", vertices),
                                     (report, vertices)))
            else:
                out = f"export_{method}_{tag}.csv"
                cycle.append(Command("export", ("export", *graph, *flags, "--out", out),
                                     (out,)))
    return cycle


def _build(work: Path, seed: int, scale: float, run: RunCommand) -> list[Command]:
    write_dataset(work / "data.csv", seed, _size(BUILD_N, scale))
    return [graph_command("data.csv", "tsne", "tsne.json"),
            graph_command("data.csv", "umap", "umap.json")]


def verify_commands(work: Path, seed: int, scale: float) -> list[Command]:
    """Oracle cross-checks on a small dataset of the same shape (N <= 1000)."""
    write_dataset(work / "verify.csv", seed, _size(VERIFY_N, scale))
    commands = []
    for method in ("tsne", "umap"):
        commands.append(graph_command("verify.csv", method, f"verify_{method}.json"))
        commands.append(Command("verify", ("verify", "--graph", f"verify_{method}.json",
                                           "--data", "verify.csv", "--alpha", "0.5",
                                           "--beta", "2"), ()))
    return commands


# name -> set-up; BENCHMARK.json and METRICS.md say why each workload is there
WORKLOADS: dict[str, Callable[[Path, int, float, RunCommand], list[Command]]] = {
    "tune": _tune,
    "score": _score,
    "build": _build,
}
