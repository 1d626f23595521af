"""Seeded benchmark of gradpce's public drivers, end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``. One
operation is one driver call with ``trials=1`` on the seed
``split_stream(seed, i)``, issued in a closed loop by a single caller in one
process, with BLAS pinned to one thread.

``--trace 0`` times fresh-interpreter set-up, then runs operations until
``--seconds`` have passed and at least the workload's ``quality_ops`` are
done, and reports the end-to-end metrics. Operation timings are reported in
units of the mean time of a fixed reference computation (``calibrate.py``)
timed between the operations of the same run, which cancels much of the
drift of a shared host's speed; the wall seconds go to the run's record. ``--trace 1`` runs each of the
first ``trace_ops`` operations untraced and then with every layer wrapped,
and reports the per-layer metrics of the traced calls. Either mode checks every
result table, checks that repeating an operation's seed gives a
byte-identical CSV, prints each metric with its unit and, as the last line,
one JSON object. The environment, the seeds and, for traced runs, all spans
are written under ``perfbench/out/``. The exit code is non-zero when a check
fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
BLAS_THREADS = "1"
SETUP_REPEATS = 5

# Seconds of operations between two timings of the reference computation.
REFERENCE_EVERY_S = 1.0

# End-to-end metric -> unit; BENCHMARK.json lists the same names and units.
# "ref" is the mean time of the reference computation in the same run.
END_TO_END = {
    "setup_s": "s",
    "trial_ref_p50": "ref",
    "trials_per_ref": "1/ref",
    "quality.standard": "score",
    "quality.gradient-enhanced": "score",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(setup: str) -> list[float]:
    """Time ``import gradpce`` plus the workload's set-up in fresh interpreters."""
    code = ("import time\nt0 = time.perf_counter()\nimport gradpce\n"
            f"{setup}\nprint(time.perf_counter() - t0)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _openblas_threads(numpy),
        "blas_threads_env": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _openblas_threads(numpy):
    """Thread count reported by numpy's bundled OpenBLAS, or None if not found."""
    import ctypes

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def attempt(workload, seed: int):
    """One operation; an exception is reported and returns None."""
    try:
        return workload.operation(seed)
    except Exception:
        traceback.print_exc()
        return None


def table_problems(workload, index: int, table) -> list[str]:
    if table is None:
        return [f"operation {index} raised"]
    return [f"operation {index}: {p}" for p in workload.check_table(table)]


def timed_run(workload, seeds, seconds: float) -> dict:
    """End-to-end metrics from a closed loop of operations."""
    from calibrate import reference_seconds

    setup = setup_seconds(workload.setup)
    reference_seconds()  # warm-up
    warm = attempt(workload, seeds(0))  # warm-up; reference for the determinism check
    tables, durations, references = [], [], []
    since_reference = REFERENCE_EVERY_S
    start = time.perf_counter()
    while len(tables) < workload.quality_ops or time.perf_counter() - start < seconds:
        if since_reference >= REFERENCE_EVERY_S:
            references.append(reference_seconds())
            since_reference = 0.0
        t0 = time.perf_counter()
        tables.append(attempt(workload, seeds(len(tables))))
        durations.append(time.perf_counter() - t0)
        since_reference += durations[-1]
    references.append(reference_seconds())
    elapsed = time.perf_counter() - start
    ref = statistics.fmean(references)

    per_op = [table_problems(workload, i, t) for i, t in enumerate(tables)]
    incorrect = []
    if warm is None or tables[0] is None or warm.to_csv() != tables[0].to_csv():
        incorrect.append("repeating operation 0 did not give a byte-identical CSV")
    scored = [t for t in tables[: workload.quality_ops] if t is not None]
    quality = {}
    if len(scored) == workload.quality_ops:
        incorrect += workload.check_run(scored)
        quality = workload.quality(scored)
    else:
        incorrect.append("an operation scored for quality failed")
    metrics = {
        "setup_s": statistics.median(setup),
        "trial_ref_p50": statistics.median(durations) / ref,
        "trials_per_ref": len(tables) * ref / math.fsum(durations),
        **{f"quality.{mode}": value for mode, value in quality.items()},
    }
    return {
        "ops": len(tables),
        "attempted": len(tables),
        "failed": sum(1 for p in per_op if p),
        "problems": [p for ps in per_op for p in ps] + incorrect,
        "incorrect": bool(incorrect),
        "metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()},
        "record": {"setup_s": setup, "durations_s": durations, "reference_s": references,
                   "elapsed_s": elapsed, "quality_ops": workload.quality_ops,
                   "reference_s_mean": ref, "trial_s_p50": statistics.median(durations),
                   "trials_per_s": len(tables) / math.fsum(durations)},
    }


def traced_run(workload, seeds, spans_path) -> dict:
    """Per-layer metrics: each operation run untraced, then traced."""
    import layers
    from tracing import Tracer

    count = workload.trace_ops
    attempt(workload, seeds(0))  # warm-up
    tracer = Tracer()
    plain, plain_s, traced, traced_s = [], [], [], []
    # Alternate untraced and traced calls of each operation so that drift in
    # the machine's speed falls on both passes alike.
    for i in range(count):
        t0 = time.perf_counter()
        plain.append(attempt(workload, seeds(i)))
        plain_s.append(time.perf_counter() - t0)
        tracer.op_id = i
        with layers.traced(tracer):
            t0 = time.perf_counter()
            traced.append(attempt(workload, seeds(i)))
            traced_s.append(time.perf_counter() - t0)
    overhead = sum(traced_s) / sum(plain_s) - 1.0
    per_layer, share = layers.summarize(tracer, overhead)
    tracer.write(spans_path)

    tables = plain + traced
    per_op = [table_problems(workload, i % count, t) for i, t in enumerate(tables)]
    incorrect = [f"operation {i}: traced CSV differs from untraced" for i in range(count)
                 if plain[i] is not None and traced[i] is not None
                 and plain[i].to_csv() != traced[i].to_csv()]
    if all(t is not None for t in plain):
        incorrect += workload.check_run(plain)
    print(json.dumps({"layer_share": share}), file=sys.stderr)
    return {
        "ops": count,
        "attempted": len(tables),
        "failed": sum(1 for p in per_op if p),
        "problems": [p for ps in per_op for p in ps] + incorrect,
        "incorrect": bool(incorrect),
        "metrics": {k: (v, layers.PER_LAYER[k]) for k, v in per_layer.items()},
        "record": {"untraced_s": plain_s, "traced_s": traced_s, "spans": len(tracer),
                   "layer_share": share, "spans_file": str(spans_path.relative_to(ROOT))},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (ROOT / "src" / "gradpce").is_dir():
        print(f"no gradpce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Imported only now: numpy must see the pinned thread count, and the
    # package comes from this checkout's sources.
    from gradpce.sampling import split_stream
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    print(json.dumps({"environment": env}), file=sys.stderr)

    def seeds(i: int) -> int:
        return split_stream(args.seed, i)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        outcome = traced_run(workload, seeds, stem.with_suffix(".spans.npz"))
    else:
        outcome = timed_run(workload, seeds, args.seconds)

    correct = not outcome["incorrect"]
    result = {
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome["metrics"].items()},
    }
    record = {
        "args": vars(args),
        "environment": env,
        "op_seeds": [seeds(i) for i in range(outcome["ops"])],
        "problems": outcome["problems"],
        **outcome["record"],
        "result": result,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, entry in result["metrics"].items():
        print(f"{args.workload}  {name}  {entry['value']:.6g} {entry['unit']}")
    for name in ("reference_s_mean", "trial_s_p50", "trials_per_s"):
        if name in outcome["record"]:
            print(f"{args.workload}  ({name}  {outcome['record'][name]:.6g}, wall clock)")
    print(json.dumps(result))
    return 0 if correct and outcome["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
