"""Benchmark of the dcqe pipeline, end to end and layer by layer.

One run measures one workload for a fixed time and prints, as its last line,
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

    python3 bench/run.py --workload psm_whole_16k --seed 0 --seconds 50 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
main calls alternate between untraced and traced, and the metrics are the
per-layer self times and counts of the traced calls. Other modes:

    python3 bench/run.py --all              # every workload, both modes, as a table
    python3 bench/run.py --write-manifest   # rewrite BENCHMARK.json
    python3 bench/run.py --write-reference  # rewrite bench/reference.json (seed 0)

Work files go to ``.bench_work/`` at the repository root.
"""

import os

# The BLAS thread count changes run-to-run spread, so every run fixes it
# before numpy is loaded.
BLAS_THREADS = 1
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = workloads.ROOT / ".bench_work"
MANIFEST_PATH = workloads.ROOT / "BENCHMARK.json"
RUN_SECONDS = 50

# The traced wall time of a main call, measured outside the tracer, may
# exceed the sum of its self times by this much: the tracer's own entry and
# exit around the root span.
TRACE_SLACK_S = 1e-3

# The host's speed drifts by up to a factor of 1.8 over seconds to minutes,
# as other tenants share its cores. The median wall time of the CLI workload
# moved by 11 to 19% (quartile distance) across ten 50 s runs; tighter
# bounds would flag that drift.
END_TO_END = (
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "replicates_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
)


# Metrics of a traced run, as (name, unit), all per main call.
PER_LAYER = (
    [(f"{name}.{kind}", unit) for name in spans.TRACED
     for kind, unit in (("self_ms", "ms"), ("calls", "count"))]
    + [(f"{spans.ROOT}.self_ms", "ms"),
       (f"{spans.IRLS}.iters", "count"),
       (f"{spans.IRLS}.nonconverged", "count"),
       (f"{spans.COUNTED[0]}.calls", "count"),
       ("trace.overhead_share", "ratio")]
)


def manifest() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()],
        "end_to_end": list(END_TO_END),
        "per_layer": [{"name": name, "unit": unit, "better": "lower"}
                      for name, unit in PER_LAYER],
    }


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, or None for another BLAS."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            if hasattr(library, symbol):
                function = getattr(library, symbol)
                function.restype = ctypes.c_int
                return int(function())
    return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
    }


def _time_import() -> float:
    """Seconds a fresh interpreter takes to ``import dcqe`` from the checkout."""
    code = ("import time; t = time.perf_counter(); import dcqe; "
            "print(time.perf_counter() - t); print(dcqe.__file__)")
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=workloads.ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    seconds, location = done.stdout.split("\n")[:2]
    if Path(location).resolve().parent != workloads.SRC / "dcqe":
        raise RuntimeError(f"import timing loaded dcqe from {location}")
    return float(seconds)


class Run:
    """Inputs, set-up times and failure counts of one run of one workload."""

    def __init__(self, workload: workloads.Workload, seed: int, workdir: Path):
        self.workload = workload
        self.inputs = workload.prepare(seed, workdir)
        self.reference = (workloads.load_reference(workload.name)
                          if seed == workloads.REFERENCE_SEED else None)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.import_times: list[float] = []
        self.prepare_times: list[float] = []
        self.state = None

    def set_up(self) -> None:
        """One set-up trial: import in a fresh interpreter, then input preparation."""
        self.import_times.append(_time_import())
        start = perf_counter()
        self.state = self.workload.setup(self.inputs)
        self.prepare_times.append(perf_counter() - start)

    def setup_seconds(self) -> float:
        """Median import time plus median preparation time over the trials."""
        return statistics.median(self.import_times) + statistics.median(self.prepare_times)

    def call(self, tracer: spans.Tracer | None = None) -> float:
        """One checked main call; returns its wall time in seconds.

        A traced call's wall time is measured outside the root span, with
        the wrappers installed, so that it can be compared with the sum of
        the self times.
        """
        workload = self.workload
        self.attempted += workload.scenarios
        start = perf_counter()
        try:
            if tracer is None:
                raw = workload.call(self.inputs, self.state)
                elapsed = perf_counter() - start
            else:
                with tracer.installed():
                    start = perf_counter()
                    raw = tracer.call(spans.ROOT, workload.call, self.inputs, self.state)
                    elapsed = perf_counter() - start
            problems = workloads.check_rows(workload.rows(self.inputs, raw),
                                            workload.scenarios, self.reference)
        except Exception as exc:  # a failing call is counted, and the run goes on
            elapsed = perf_counter() - start
            problems = [f"call raised {exc!r}"] * workload.scenarios
        self.failed += min(len(problems), workload.scenarios)
        self.problems += problems
        return elapsed


def measure(workload: workloads.Workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> tuple[dict, spans.Tracer | None]:
    """Run one workload for ``seconds``; return the result object and the tracer, if any.

    An untraced run makes one set-up trial after every main call, so that
    set-up and main calls are sampled over the same stretch of time.
    """
    run = Run(workload, seed, workdir)
    run.set_up()
    run.call()  # warm-up: lets caches fill and lazy set-up finish
    tracer = spans.Tracer() if trace else None
    walls, traced = [], []
    deadline = perf_counter() + seconds
    while not walls or perf_counter() < deadline:
        walls.append(run.call())
        if tracer is None:
            run.set_up()
        else:
            traced.append(run.call(tracer))
    correct = run.failed == 0
    if tracer is None:
        wall = statistics.median(walls)
        metrics = {
            "wall_s": (wall, "s"),
            "replicates_per_s": (workload.runs_per_call / wall, "1/s"),
            "setup_s": (run.setup_seconds(), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics, problems = layer_metrics(tracer, walls, traced)
        if problems:
            correct = False
            run.problems += problems
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, tracer


def layer_metrics(tracer: spans.Tracer, walls: list[float],
                  traced: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics per main call, and the problems found in the spans.

    ``walls`` and ``traced`` are the wall times of the untraced and traced
    main calls. The spans must nest, and their self times must add up to
    the traced wall times, short of at most TRACE_SLACK_S a call.
    """
    calls = len(traced)
    selfs = spans.self_times(tracer.spans)
    totals = Counter({f"{name}.self_ms": 1000 * seconds for name, seconds in selfs.items()})
    totals.update({f"{name}.calls": count
                   for name, count in spans.span_counts(tracer.spans).items()})
    totals.update(tracer.counts)
    metrics = {name: (totals[name] / calls, unit) for name, unit in PER_LAYER}
    metrics["trace.overhead_share"] = (
        statistics.median(traced) / statistics.median(walls) - 1.0, "ratio")

    problems = spans.nesting_problems(tracer.spans)
    total_self, total_wall = sum(selfs.values()), sum(traced)
    if not total_wall - calls * TRACE_SLACK_S <= total_self <= total_wall:
        problems.append(f"self times add up to {total_self!r} s, the traced wall time "
                        f"measured outside the tracer is {total_wall!r} s")
    return metrics, problems


def write_spans(tracer: spans.Tracer, workload: str, seed: int) -> Path:
    """Write the recorded spans as JSON lines: name, start, end, parent, scenario id."""
    path = WORK_DIR / "traces" / f"{workload}-seed{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    return path


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK_DIR / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, tracer = measure(workloads.WORKLOADS[name], seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        write_spans(tracer, name, seed)
    return result


def run_all(seed: int, seconds: float) -> int:
    """Run every workload untraced and traced, each in its own process, and print a table."""
    failures = 0
    machine_shown = False
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit code {done.returncode}")
                failures += 1
                continue
            if not machine_shown:
                print(lines[0])
                machine_shown = True
            result = json.loads(lines[-1])
            failures += not result["correct"]
            print(f"{name} trace={trace} correct={result['correct']}")
            rows = [(metric, m["value"], m["unit"]) for metric, m in result["metrics"].items()]
            if not trace:
                rows.append(("failed_share", result["failed"] / result["attempted"], "ratio"))
            for metric, value, unit in rows:
                print(f"  {metric:48s} {value:14.6g} {unit}")
    return 1 if failures else 0


def write_reference() -> None:
    """Store every workload's rows at the reference seed in reference.json."""
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        workdir = WORK_DIR / f"reference-{name}-{os.getpid()}"
        try:
            inputs = workload.prepare(workloads.REFERENCE_SEED, workdir)
            raw = workload.call(inputs, workload.setup(inputs))
            reference[name] = workload.rows(inputs, raw)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.write_manifest:
        MANIFEST_PATH.write_text(json.dumps(manifest(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.write_reference:
        write_reference()
        return 0
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required unless --all or a --write option is given")
    print(json.dumps({"machine": machine_facts(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace}))
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
