"""One workload in one fresh interpreter; started by ``run.py``.

The process imports ``cvsquash``, sets the workload up, notes the monotonic
clock (``CLOCK_MONOTONIC``, shared by all processes of the machine), and then
runs whole rounds of operations until ``--seconds`` have passed.  Its last
line of output is one JSON object with the counts, the operation latencies'
summary, its peak resident memory and the worst deviation of every check;
with ``--trace 1`` also the per-layer table.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from calibration import INTERVAL, Speedometer
from tracing import SETUP_ONLY, Tracer, traced_names
from workloads import WORKLOADS, Checks


def span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)


def run_rounds(workload, seconds, tracer=None):
    """Whole rounds until ``seconds`` of wall time have passed, at least one.

    Each call is timed alone; verification runs outside the timed call, so
    the rate is operations passed per second spent in calls.  The kernel of
    ``calibration`` is sampled between calls, at least every INTERVAL and
    after every call longer than that, and each call's time is scaled to the
    reference speed by the samples nearest it (``Speedometer.scale``)."""
    speed = Speedometer(workload.CALIBRATION)
    attempted = failed = wrong = 0
    errors = {}
    timed = []  # (start, seconds, passed) of every call that returned or raised
    start = time.perf_counter()
    while True:
        for call, verify in workload.round():
            attempted += 1
            if speed.since_last() >= INTERVAL:
                speed.sample()
            t0 = time.perf_counter()
            try:
                with span(tracer, "op"):
                    result = call()
            except Exception as exc:  # a raising operation is a failed one
                timed.append((t0, time.perf_counter() - t0, False))
                failed += 1
                errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
                continue
            elapsed = time.perf_counter() - t0
            if elapsed >= INTERVAL:
                speed.sample()
            try:
                ok = verify(result)
            except Exception as exc:  # output the checks cannot read
                ok = False
                key = f"verify:{type(exc).__name__}"
                errors[key] = errors.get(key, 0) + 1
            timed.append((t0, elapsed, ok))
            if not ok:
                failed += 1
                wrong += 1
        if time.perf_counter() - start >= seconds:
            break
    speed.sample()
    scaled = [(elapsed * speed.scale(t0, t0 + elapsed), ok) for t0, elapsed, ok in timed]
    passed = [t for t, ok in scaled if ok]
    return {"attempted": attempted, "failed": failed, "wrong": wrong, "errors": errors,
            "ops_per_s": len(passed) / sum(t for t, _ in scaled),
            "op_p50_ms": 1e3 * statistics.median(passed) if passed else None,
            "raw_ops_per_s": sum(ok for _, _, ok in timed) / sum(t for _, t, _ in timed),
            "raw_op_p50_ms": 1e3 * statistics.median(t for _, t, ok in timed if ok) if passed
            else None,
            "scale": speed.scale(), "kernel_samples": len(speed.took)}


def layer_table(tracer, workload, ops, caches_at):
    """Per-layer metrics, the same names on every workload (zero where a
    layer is not reached): calls and self seconds per operation of the timed
    phase, the set-up figures of tracing.SETUP_ONLY, the workload counters per
    operation and the Fock block-cache counts."""
    per_op = 1.0 / max(ops, 1)
    timed, setup = tracer.summary("op"), tracer.summary("setup")
    table = {}
    for name in traced_names():
        if name in SETUP_ONLY:
            table[f"{name}.self_s"] = (setup.get(name, (0, 0.0))[1], "s")
        else:
            calls, self_s = timed.get(name, (0, 0.0))
            table[f"{name}.calls"] = (calls * per_op, "count/op")
            table[f"{name}.self_s"] = (self_s * per_op, "s/op")
    for name, value in workload.counters.items():
        table[name] = (value * per_op, "B/op" if name.endswith("bytes") else "count/op")
    (_, m0), (l1, m1), (l2, m2) = caches_at
    table["fock.blocks.setup_misses"] = (m1 - m0, "count")
    table["fock.blocks.lookups"] = ((l2 - l1) * per_op, "count/op")
    table["fock.blocks.misses"] = ((m2 - m1) * per_op, "count/op")
    return table


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    checks = Checks()
    workload = WORKLOADS[args.workload](args.seed, checks, args.out_dir)
    caches = workload.caches
    setup_start = caches.counts()
    with span(tracer, "setup"):
        workload.setup()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    setup_end = caches.counts()
    result = run_rounds(workload, args.seconds, tracer)
    result.update(
        ready=ready,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        checks=checks.report(),
    )
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_table(
            tracer, workload, result["attempted"], (setup_start, setup_end, caches.counts()))
        spans = Path(args.out_dir) / f"spans-{args.workload}-{args.seed}.csv"
        tracer.write(spans)
        result["spans"] = str(spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
