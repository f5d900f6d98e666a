"""maskdiff benchmark.

    python3 perfbench/run.py --workload sample_stream --seed 1 --seconds 30 --trace 0

Runs one workload against the package in ./src of the checkout it sits in,
checks the outputs, prints each measured metric on its own line and, as
the last line, one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones. With
--trace 1 the workload runs twice, interleaved, once with spans around the
package's public functions, and the metrics are the per-layer ones.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One core, no BLAS thread pools: pinned before numpy is first imported, and
# inherited by the set-up child processes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path[:0] = [str(SRC), str(HERE)]

WORKLOADS = {"sample_stream": "stream", "exact_sweep": "sweep", "projection": "projection"}
SETUP_REPEATS = 15
# Per-layer metrics besides <layer>.calls and <layer>.self_ms; a workload
# that does not produce one reports 0.
LAYER_EXTRAS = {
    "models.reuse_ratio": "ratio",
    "sampler.copula_queries": "count",
    "iproj.iproject_exact.sweeps": "count",
    "iproj.ipf_computed_mb": "MB",
    "iproj.iproject_descent.iterations": "count",
    "trace.overhead_frac": "ratio",
}
# Functions traced while the correctness gates run: the cross-check oracle
# that only the gates call.
GATE_TRACED = {"projection": {"iproj.iproject_descent"}}


class BenchError(Exception):
    """The benchmark cannot run here: the package is missing or foreign."""


def load(workload: str):
    """Import the workload module, and with it the package from ./src."""
    try:
        import maskdiff
    except ImportError as exc:
        raise BenchError(f"cannot import maskdiff from {SRC}: {exc}") from exc
    if Path(maskdiff.__file__).resolve().parent != SRC / "maskdiff":
        raise BenchError(f"maskdiff imported from {maskdiff.__file__}, not from {SRC}")
    return importlib.import_module(WORKLOADS[workload])


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh processes, each timed from before its
    first import of numpy and the package."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    times.sort()
    return times[len(times) // 2]


def environment() -> dict:
    import numpy

    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        sha = ref
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def op_seconds(run) -> float:
    return sum(r.seconds for lane in vars(run).values() for r in lane)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="maskdiff benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="a workload, or all: each in turn, in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload == "all":
        for workload in WORKLOADS:
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], cwd=ROOT)
            if proc.returncode != 0:
                return proc.returncode
        return 0
    try:
        if args.setup_only:
            start = time.perf_counter()
            mod = load(args.workload)
            mod.setup(args.seed, mod.Params())
            print(repr(time.perf_counter() - start))
            return 0
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def measure(mod, inputs, p, counts: dict[str, int], outcome):
    from common import run_lanes

    return mod.Run(**run_lanes(mod.lanes(inputs, p, counts), outcome))


def collect(workload: str, seed: int, seconds: float, trace: bool, params=None):
    """Run a workload and its gates; returns (outcome, operation counts,
    metrics, named metrics). metrics maps name -> (value, unit).

    The traced run makes the workload twice, interleaved operation by
    operation: once plain and once, on fresh inputs from the same seed,
    with spans recorded. Both see the same drift in machine speed, so the
    two times give the tracing overhead.
    """
    mod = load(workload)
    from common import Outcome, run_lanes
    from tracing import Tracer

    p = params or mod.Params()
    counts = mod.counts(p, seconds)
    outcome = Outcome()
    inputs = mod.setup(seed, p)

    if not trace:
        measured = measure(mod, inputs, p, counts, outcome)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        mod.check(inputs, measured, outcome, p)
        slots, named = mod.end_to_end(measured)
        setup = {"setup_s": (setup_seconds(workload, seed), "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
        named.update(setup)
        return outcome, counts, {**slots, **setup}, named

    tracer = Tracer()
    tracer.install()
    try:
        plain = mod.lanes(inputs, p, counts)
        traced = mod.lanes(mod.setup(seed, p), p, counts)
        for lane in traced.values():
            lane.op = tracer.recorded(lane.op)
        records = run_lanes({**plain, **{"traced " + name: lane for name, lane in traced.items()}}, outcome)
        measured = mod.Run(**{name: records[name] for name in plain})
        replayed = mod.Run(**{name: records["traced " + name] for name in traced})
        outcome.record(mod.fingerprint(replayed) == mod.fingerprint(measured),
                       "traced run produced different outputs")
        with tracer.recording(GATE_TRACED.get(workload, set())):
            extras = mod.check(inputs, measured, outcome, p)
    finally:
        tracer.uninstall()
    _, named = mod.end_to_end(measured)
    metrics = tracer.layer_metrics()
    metrics.update({name: (0, unit) for name, unit in LAYER_EXTRAS.items()})
    metrics.update(mod.layer_counts(replayed))
    metrics.update(extras)
    metrics["trace.overhead_frac"] = (op_seconds(replayed) / op_seconds(measured) - 1.0, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    return outcome, counts, metrics, named


def run(args: argparse.Namespace) -> int:
    outcome, counts, metrics, named = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    print("counts " + " ".join(f"{k}={v}" for k, v in counts.items()))
    for name, (value, unit) in named.items():
        print(f"named {name} {value:.6g} {unit}")
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
