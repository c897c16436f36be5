#!/usr/bin/env python3
"""Wall time of every verification suite, with one BLAS thread.

Runs each suite of ``cvsquash.verify.SUITES`` at its default tolerance and
seed, REPEATS times in this one process, and prints one line per suite: its
check count, its worst violation and the median of its wall times.  The first
run of a suite is timed like the others, so the median is of warm runs.

    PYTHONPATH=src python3 scripts/suite_timings.py
"""

import os

#: one BLAS thread, set before numpy loads: suite times then compare across
#: machines with different core counts and across loads of a shared host
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from cvsquash.verify import SUITES, run_suite  # noqa: E402  (imports numpy)

REPEATS = 5


def time_suite(name):
    """The report of one suite and its REPEATS wall times; every run must give
    the same check count and worst violation."""
    times, reports = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        reports.append(run_suite(name))
        times.append(time.perf_counter() - start)
    if len({(r.checks_run, r.max_violation) for r in reports}) != 1:
        raise RuntimeError(f"suite {name} gave different results on repeated runs")
    return reports[-1], times


def main():
    print(f"{'suite':<14} {'checks_run':>10} {'max_violation':>22} {'median_s':>9}")
    for name in sorted(SUITES):
        report, times = time_suite(name)
        print(f"{name:<14} {report.checks_run:>10} {report.max_violation!r:>22}"
              f" {statistics.median(times):>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
