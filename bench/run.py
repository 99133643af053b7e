#!/usr/bin/env python3
"""relscore benchmark: seeded workloads driven through `relscore.cli.main`.

    python3 bench/run.py --workload {tune,score,build} --seed N --seconds S --trace {0,1}

Run from the repository root; relscore is imported from ./src.  One
process sets the workload up three times (fresh-process import of
relscore.cli plus input generation; the median is `setup_s`), then
repeats the workload's command cycle in-process, one command at a time
with --threads set to the usable core count, until another cycle would
overrun --seconds.  Every data file a command writes must match its
first write in the run byte for byte, and for the default seed the
digests in bench/digests.json; a failed or mismatching command counts
as a failed operation.  After the timed part, `relscore verify` checks
the metrics against the brute-force oracle on a small graph.

With --trace 1 the cycles alternate between traced (bench/tracer.py
wrappers installed) and untraced; per-layer metrics come from the
traced cycles, and the difference of their median wall times is the
tracing overhead.

Standard output ends with one JSON line {correct, attempted, failed,
metrics}; the metrics are BENCHMARK.json's end-to-end ones (--trace 0)
or per-layer ones (--trace 1).  The full record (machine, every metric,
samples, spans, digests) is written under .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402
from workloads import NEEDS_NEIGHBOURS, WORKLOADS, Command, verify_commands  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPS = 3
DIGESTS = BENCH / "digests.json"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"

# units that the name does not give: a name ending in _s or .s is in
# seconds, and any other name not listed here is a count
UNITS = {"evals_per_s": "1/s", "peak_rss_mb": "MB", "fail_frac": "ratio",
         "knn.useful_ratio": "ratio", "graphs.save_graph.bytes": "B"}
KIND_METRIC = {"graph": "graph_s", "score": "score_s", "export": "score_s",
               "sweep": "sweep_s", "estimate": "estimate_s"}
IMPORT_CODE = ("import time; t = time.perf_counter(); import relscore.cli; "
               "print(time.perf_counter() - t)")


def import_cli():
    """relscore.cli from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import relscore.cli as cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import relscore from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"bench: relscore was imported from {cli.__file__}, not {SRC}")
    return cli


def machine() -> dict:
    import numpy
    import scipy
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def fresh_import_seconds() -> float:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Gate:
    """Byte-level correctness: repeats must match, and recorded digests where given."""

    def __init__(self, recorded: dict[str, str]):
        self.recorded = recorded
        self.seen: dict[str, str] = {}

    def problem(self, name: str) -> str | None:
        path = Path(name)
        if not path.is_file():
            return f"{name}: not written"
        digest = sha256(path)
        if self.seen.setdefault(name, digest) != digest:
            return f"{name}: differs from its first write in this run"
        expected = self.recorded.get(name)
        if expected is not None and digest != expected:
            return f"{name}: sha256 {digest} differs from the recorded {expected}"
        return None


@dataclass
class Sample:
    kind: str
    seconds: float
    evals: int
    traced: bool
    ok: bool


def evaluations(command: Command) -> int:
    """Neighbourhood sizes evaluated: sweep rows, estimate trials, else one graph."""
    if command.kind == "sweep":
        rows = Path(command.outputs[0]).read_text(encoding="utf-8").splitlines()[1:]
        return sum(1 for row in rows if not row.endswith(",,,,"))
    if command.kind == "estimate":
        return len(json.loads(Path(command.outputs[0]).read_text(encoding="utf-8"))["trials"])
    return 1


class Runner:
    """Runs CLI commands in the current directory and tallies failed operations."""

    def __init__(self, cli, gate: Gate, threads: int):
        self.cli = cli
        self.gate = gate
        self.threads = threads
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, command: Command) -> tuple[bool, float]:
        for name in command.outputs:
            # fresh files: re-truncating a just-written file stalls on some
            # file systems, which would add noise unrelated to relscore
            for path in (Path(name), Path(name + ".manifest.json")):
                path.unlink(missing_ok=True)
        argv = [*command.argv, "--threads", str(self.threads)]
        if self.tracer is not None:
            self.tracer.request = self.attempted
        self.attempted += 1
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.cli.main(argv)
            seconds = time.perf_counter() - start
        problems = [] if code == 0 else [f"exit code {code}: {err.getvalue().strip()}"]
        if not problems:
            problems = [p for p in map(self.gate.problem, command.outputs) if p]
        if problems:
            self.failures.append(f"{' '.join(command.argv)}: {'; '.join(problems)}")
        return not problems, seconds

    def check(self, command: Command) -> bool:
        return self.run(command)[0]


def measure(runner: Runner, cycle: list[Command], seconds: float,
            tracer: Tracer | None) -> tuple[list[Sample], list[tuple[bool, float]]]:
    """Repeat the cycle until another one would overrun `seconds`.

    With a tracer, cycles alternate traced / untraced, starting traced,
    and at least one of each runs.
    """
    samples: list[Sample] = []
    walls: list[tuple[bool, float]] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(walls) % 2 == 0
        if traced:
            tracer.install()
            runner.tracer = tracer
        try:
            cycle_start = time.perf_counter()
            for command in cycle:
                ok, secs = runner.run(command)
                samples.append(Sample(command.kind, secs,
                                      evaluations(command) if ok else 0, traced, ok))
            walls.append((traced, time.perf_counter() - cycle_start))
        finally:
            if traced:
                tracer.uninstall()
                runner.tracer = None
        elapsed = time.perf_counter() - start
        enough = len(walls) >= (2 if tracer is not None else 1)
        if enough and elapsed + elapsed / len(walls) > seconds:
            return samples, walls


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with >= 10 samples above it."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(samples: list[Sample], setup_s: float) -> tuple[dict, dict]:
    # failed commands keep their wall time here; the failure itself counts
    # in `failed` and makes the run incorrect
    timed = [s for s in samples if not s.traced]
    metrics = {"setup_s": setup_s}
    notes = {"setup_s": f"median of {SETUP_REPS} set-ups"}
    by_metric: dict[str, list[float]] = defaultdict(list)
    for s in timed:
        by_metric[KIND_METRIC[s.kind]].append(s.seconds)
    for name, values in by_metric.items():
        metrics[name] = statistics.median(values)
        notes[name] = f"median of {len(values)}"
    if "score_s" in by_metric and (t := tail(by_metric["score_s"])):
        metrics["score_tail_s"] = t[1]
        notes["score_tail_s"] = f"p{t[0]:.1f} of {len(by_metric['score_s'])} samples"
    seconds = [s.seconds for s in timed]
    evals = sum(s.evals for s in timed)
    metrics["cmd_s"] = statistics.median(seconds)
    notes["cmd_s"] = f"median of {len(seconds)} commands"
    metrics["evals_per_s"] = evals / sum(seconds)
    notes["evals_per_s"] = f"{evals} evaluations in {sum(seconds):.3f} s"
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, notes


def per_layer(tracer: Tracer, samples: list[Sample], cycles: int,
              import_s: float) -> dict[str, float]:
    """Per traced cycle: busy seconds, self seconds and counts at each layer."""
    inclusive, own = tracer.busy()
    counts = tracer.counts
    traced = [s for s in samples if s.traced]
    metrics = {
        "datasets.load_dataset.s": inclusive["datasets.load_dataset"],
        "knn.exact_knn.s": inclusive["knn.exact_knn"],
        "knn.exact_knn.calls": counts["knn.exact_knn.calls"],
        "knn.pairs": counts["knn.pairs"],
        "graphs.build.s": inclusive["graphs.build"],
        "graphs.build.self_s": own["graphs.build"],
        "graphs.edges": counts["graphs.edges"],
        "graphs.non_converged": counts["graphs.non_converged"],
        "graphs.save_graph.s": inclusive["graphs.save_graph"],
        "graphs.save_graph.bytes": counts["graphs.save_graph.bytes"],
        "graphs.load_graph.s": inclusive["graphs.load_graph"],
        "metrics.report.s": inclusive["metrics.report"],
        "metrics.report.self_s": own["metrics.report"],
        "metrics.intra_label_components.s": inclusive["metrics.intra_label_components"],
        "metrics.write_vertex_csv.s": inclusive["metrics.write_vertex_csv"],
        "metrics.sweep.self_s": own["metrics.sweep"],
        "optimizer.estimate.self_s": own["optimizer.estimate"],
        "optimizer.fit_surrogate.s": inclusive["optimizer.fit_surrogate"],
        "optimizer.trials": counts["optimizer.trials"],
        "optimizer.failed_trials": counts["optimizer.failed_trials"],
    }
    for kind in sorted({s.kind for s in traced}):
        metrics[f"cli.{kind}.self_s"] = own[f"cli.{kind}"]
    metrics = {name: value / cycles for name, value in metrics.items()}
    calls = counts["knn.exact_knn.calls"]
    needing = sum(s.kind in NEEDS_NEIGHBOURS for s in traced)
    # no call at all wastes nothing
    metrics["knn.useful_ratio"] = needing / calls if calls else 1.0
    metrics["cli.import_s"] = import_s
    for name in tracer.dropped:
        metrics.pop(name, None)
    return metrics


def run_benchmark(cli, workload: str, seed: int, seconds: float, trace: bool,
                  scale: float = 1.0) -> dict:
    """Set up, measure and check one workload; return the full record."""
    recorded = {}
    if seed == DEFAULT_SEED and scale == 1.0 and DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))["workloads"].get(workload, {})
    gate = Gate(recorded)
    runner = Runner(cli, gate, len(os.sched_getaffinity(0)))
    work_root = WORK_ROOT / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    home = Path.cwd()
    setups = []
    try:
        for rep in range(SETUP_REPS):
            work = work_root / f"setup{rep}"
            work.mkdir(parents=True)
            os.chdir(work)
            import_s = fresh_import_seconds()
            start = time.perf_counter()
            cycle = WORKLOADS[workload](work, seed, scale, runner.check)
            setups.append({"import_s": import_s, "inputs_s": time.perf_counter() - start})
            if rep < SETUP_REPS - 1:
                os.chdir(home)
                shutil.rmtree(work)
        tracer = Tracer() if trace else None
        samples, walls = measure(runner, cycle, seconds, tracer)
        for command in verify_commands(work, seed, scale):
            runner.check(command)
    finally:
        os.chdir(home)
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it

    setup_s = statistics.median(s["import_s"] + s["inputs_s"] for s in setups)
    e2e, notes = end_to_end(samples, setup_s)
    failed = len(runner.failures)
    e2e["fail_frac"] = failed / runner.attempted
    notes["fail_frac"] = f"{failed} failed / {runner.attempted} attempted"
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "machine": machine(),
        "attempted": runner.attempted, "failed": failed, "failures": runner.failures,
        "end_to_end": e2e, "notes": notes, "setups": setups,
        "units": {name: unit(name) for name in e2e},
        "samples": [asdict(s) for s in samples],
        "cycle_walls": [{"traced": t, "seconds": w} for t, w in walls],
        "digests": gate.seen,
    }
    if tracer is not None:
        import_s = statistics.median(s["import_s"] for s in setups)
        cycles = sum(t for t, _ in walls)
        record["per_layer"] = per_layer(tracer, samples, cycles, import_s)
        record["units"].update({name: unit(name) for name in record["per_layer"]})
        record["tracing_overhead_s"] = (statistics.median(w for t, w in walls if t)
                                        - statistics.median(w for t, w in walls if not t))
        record["dropped"] = tracer.dropped
        record["spans"] = [asdict(s) for s in tracer.spans]
    return record


def unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") or name.endswith(".s") else "count")


def report_lines(record: dict) -> list[str]:
    m = record["machine"]
    lines = [f"relscore benchmark: workload {record['workload']}, seed {record['seed']}, "
             f"trace {record['trace']}; {m['usable_cores']} usable cores, python "
             f"{m['python']}, numpy {m['numpy']}, scipy {m['scipy']}"]
    for name, value in record["end_to_end"].items():
        note = record["notes"].get(name, "")
        lines.append(f"  {name:<34} {value:>14.6g} {unit(name):<6} {note}")
    if record["trace"]:
        for name, value in record["per_layer"].items():
            lines.append(f"  {name:<34} {value:>14.6g} {unit(name)}")
        lines.append(f"  {'tracing_overhead_s':<34} {record['tracing_overhead_s']:>14.6g} s"
                     "      median traced cycle minus median untraced cycle")
        for name, why in record["dropped"].items():
            lines.append(f"  dropped {name}: {why}")
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    return lines


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = run_benchmark(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_ROOT.mkdir(exist_ok=True)
    out = OUT_ROOT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(report_lines(record)))
    print(f"  record: {out.relative_to(ROOT)}")
    measured = record["per_layer"] if args.trace else record["end_to_end"]
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    dropped = record.get("dropped", {})
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] not in dropped}
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
