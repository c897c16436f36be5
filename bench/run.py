"""Benchmark of cvsquash: one workload, one seed, one result line.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout that holds ``src/cvsquash``; the package
is imported from that ``src`` and nowhere else.  Every workload process is a
fresh interpreter started here (see ``worker.py``), with one BLAS thread and
``GAUSSQ_JOBS`` unset.

``--trace 0`` measures the end-to-end metrics.  ``setup_s`` is the median of
SETUP_SAMPLES fresh interpreters, each timed from its start to the end of the
workload's set-up; then one more goes on to measure.  All times are given at
the reference speed of ``calibration.py``: this process samples the kernel
just before and after each set-up, the worker between its operations.
``--trace 1`` runs the workload untraced and then traced, each for half the
seconds, and reports the traced run's per-layer table and the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the worst deviation of every check.  Run and trace output goes to
``.bench_out/`` at the root of the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: one BLAS thread, here as in the workers: two threads make the small
#: eigensolves of the calibration kernel thirty times slower
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))

from calibration import Speedometer  # noqa: E402  (imports numpy)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
#: the names of workloads.WORKLOADS, which this process does not import: it
#: imports cvsquash, and the package is only ever loaded in the workers
WORKLOADS = ("extension-grid", "classical-sweep", "oracle-cmi", "channel-entropy")
SETUP_SAMPLES = 5
#: kernel samples taken before and after each timed set-up
SETUP_BURST = 5
#: the parts of the kernel that time a set-up: importing is Python-bound work
SETUP_CALIBRATION = ("python", "numpy")
#: seconds a worker may take beyond its measuring time before it is stopped
GRACE = 60


def worker_env():
    env = dict(os.environ)  # with BLAS_THREADS set above
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    env.pop("GAUSSQ_JOBS", None)
    return env


def spawn(args, seconds, *extra):
    """Run one worker to its end; return its result and its set-up time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--out-dir", str(OUT), *extra]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=seconds + GRACE)
    if proc.returncode != 0:
        sys.exit(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - started


def print_checks(label, result):
    for name, c in result["checks"].items():
        print(f"check {label}.{name}: worst {c['worst']:.3e} (tolerance {c['tolerance']:.0e},"
              f" {c['runs']} runs, {c['failed']} failed)")
    for name, count in sorted(result["errors"].items()):
        print(f"error {label}: {count} x {name}")


def timed_setup(args):
    """Seconds from a fresh interpreter to the end of set-up, at reference speed."""
    speed = Speedometer(SETUP_CALIBRATION)
    for _ in range(SETUP_BURST):
        speed.sample()
    setup = spawn(args, 0, "--setup-only")[1]
    for _ in range(SETUP_BURST):
        speed.sample()
    return setup, setup * speed.scale()


def measure(args):
    raw, setups = zip(*(timed_setup(args) for _ in range(SETUP_SAMPLES)))
    result, _ = spawn(args, args.seconds)
    print_checks(args.workload, result)
    print(f"measured at host speed: setup_s {statistics.median(raw):.4g},"
          f" ops_per_s {result['raw_ops_per_s']:.6g}, op_p50_ms {result['raw_op_p50_ms']:.6g};"
          f" reference over kernel time {result['scale']:.4g} ({result['kernel_samples']} samples)")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (result["ops_per_s"], "ops/s"),
        "op_p50_ms": (result["op_p50_ms"], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return [result], metrics


def trace(args):
    plain, _ = spawn(args, args.seconds / 2)
    traced, _ = spawn(args, args.seconds / 2, "--trace", "1")
    print_checks(args.workload, traced)
    metrics = dict((name, tuple(v)) for name, v in traced["layers"].items())
    metrics["trace.overhead"] = (traced["ops_per_s"] / plain["ops_per_s"], "ratio")
    table = OUT / f"layers-{args.workload}-{args.seed}.json"
    table.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "spans": traced["spans"], "metrics": metrics}, indent=1))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"layer {name}: {value:.6g} {unit}")
    return [plain, traced], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="cvsquash benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cvsquash" / "__init__.py").is_file():
        sys.exit(f"no cvsquash source under {ROOT / 'src'}; run inside a checkout")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    OUT.mkdir(exist_ok=True)
    results, metrics = (trace if args.trace else measure)(args)
    summary = {
        "correct": all(r["wrong"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
