#!/usr/bin/env python3
"""Wall time of every verification suite, of two commands, of the Fock oracle
at three cutoffs, of one figure1 sweep operation, of one Fock channel operation
and of one Gaussian CMI, with one BLAS thread.

Runs each suite of ``cvsquash.verify.SUITES`` at its default tolerance and
seed, REPEATS times in this one process, and prints one line per suite: its
check count, its worst violation and the median of its wall times.  The first
run of a suite is timed like the others, so the median is of warm runs.  Then
it prints the median of REPEATS wall times of each command in COMMANDS, run
through ``cvsquash.cli.main`` with its output sent to the null device, and the
median of REPEATS calls of ``fock.oracle_cmi`` at ORACLE_POINT for each cutoff
in ORACLE_CUTOFFS.  Then the median of SWEEP_REPEATS runs of the benchmark's
``classical-sweep`` operation, ``figure1`` at one kappa over SWEEP_STEPS energies
in [0, SWEEP_E_MAX] sent to the null device, and of its two stages on the same
arguments: ``cli._sweep``, the numbers, and ``cli._figure1_text``, the text.
Then the median of CHANNEL_REPEATS runs of the benchmark's
``channel-entropy`` operation, ``fock.apply_channel_fock`` on one seeded state
at cutoff CHANNEL_CUTOFF through the amplifier of gain CHANNEL_GAIN or its
complement, and ``fock.spectral_entropy`` of the output: once with the
amplitude table taken from its cache, and once with the cache cleared before
each run, as in a one-off call such as ``cvsquash oracle channel``.  Then the
median of REPEATS runs of ``fock.thermal_fock`` at mean energy THERMAL_ENERGY and
cutoff THERMAL_CUTOFF, ``fock.apply_channel_fock`` through the same amplifier and
``fock.spectral_entropy`` of the output: the work of ``cvsquash oracle channel``
on an input that occupies one diagonal.  Then the covariance route: the median
of CMI_REPEATS runs of the benchmark's ``extension-grid`` operation, three
scalar ``gaussian_cmi(extension_family(kappa, E, x))`` calls at x = eta,
1 - eta and 1/2 of CMI_POINT, and the median per point of REPEATS calls of one
stacked CMI over STACKED_POINTS seeded points.  Last comes the line count of the
imported package's modules, as ``wc -l`` gives it and split by ``line_split``
into code, docstring, comment-only and blank lines: run on two trees, it gives
their line counts at their test results, and shows where a change of size lies.

    PYTHONPATH=src python3 scripts/suite_timings.py
"""

import os

#: one BLAS thread, set before numpy loads: suite times then compare across
#: machines with different core counts and across loads of a shared host
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))

import ast  # noqa: E402
import io  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tokenize  # noqa: E402

import numpy as np  # noqa: E402

import cvsquash  # noqa: E402
from cvsquash import cli, fock  # noqa: E402
from cvsquash.entropics import ChannelParam  # noqa: E402
from cvsquash.states import extension_family, gaussian_cmi  # noqa: E402
from cvsquash.verify import SUITES, run_suite  # noqa: E402

REPEATS = 5
#: the end-to-end commands timed after the suites: figure1 at its defaults and
#: one bound query
COMMANDS = (["figure1"], ["bounds", "tms", "--kappa", "2", "--energy", "1"])
#: (kappa, E, eta) of the timed oracle calls, whose rule-selected cutoff is 34,
#: and the cutoffs: one of the benchmark's range and two far above it
ORACLE_POINT = (1.5, 0.5, 0.5)
ORACLE_CUTOFFS = (40, 1000, 10**5)
#: the classical-sweep operation: its kappa, drawn from (1, 10] by the benchmark,
#: its energy grid, and how many times it and each of its stages are timed; a
#: run takes under a millisecond
SWEEP_KAPPA = 2.0
SWEEP_E_MAX = 5.0
SWEEP_STEPS = 400
SWEEP_REPEATS = 1000
#: the channel operation: its cutoff and gain, as in the benchmark, and how many
#: times each of its two channels is timed; a run takes well under a millisecond
CHANNEL_CUTOFF = 40
CHANNEL_GAIN = 2.0
CHANNEL_REPEATS = 100
#: the thermal input of the last timed line, at a cutoff far above the rule's 80
THERMAL_ENERGY = 1.0
THERMAL_CUTOFF = 400
#: the covariance route: the (kappa, E, eta) of the timed extension-grid
#: operation, which takes well under a millisecond, how many times it is timed,
#: and the size of the stacked CMI, whose points are drawn from the box
#: kappa in [1, 10], E in [0, 50], eta in [0, 1]
CMI_POINT = (2.0, 1.0, 0.3)
CMI_REPEATS = 1000
STACKED_POINTS = 3000


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


def time_command(argv):
    """REPEATS wall times of one command line; each run must exit 0."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        code = cli.main([*argv, "--output", os.devnull])
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"cvsquash {' '.join(argv)} exited with code {code}")
    return times


def time_oracle(N):
    """REPEATS wall times of one ``fock.oracle_cmi`` call at ORACLE_POINT and cutoff N."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fock.oracle_cmi(*ORACLE_POINT, N)
        times.append(time.perf_counter() - start)
    return times


def time_sweep_op(repeats):
    """``repeats`` wall times each of the classical-sweep operation, which must
    exit 0, and of its two stages, by name: ``cli._sweep`` and
    ``cli._figure1_text`` at CSV and the default precision."""
    argv = ["figure1", "--kappas", repr(SWEEP_KAPPA), "--e-min", "0", "--e-max",
            repr(SWEEP_E_MAX), "--steps", str(SWEEP_STEPS), "--output", os.devnull]
    stages = {
        "operation": lambda: cli.main(argv),
        "_sweep": lambda: cli._sweep([SWEEP_KAPPA], 0.0, SWEEP_E_MAX, SWEEP_STEPS),
        "_figure1_text": lambda: cli._figure1_text(blocks, "csv", cli.DEFAULT_PRECISION),
    }
    if cli.main(argv) != 0:
        raise RuntimeError(f"cvsquash {' '.join(argv)} failed")
    blocks = stages["_sweep"]()
    times = {}
    for name, run in stages.items():
        times[name] = []
        for _ in range(repeats):
            start = time.perf_counter()
            run()
            times[name].append(time.perf_counter() - start)
    return times


def time_channel(N, cold):
    """2 CHANNEL_REPEATS wall times of one channel-entropy operation at cutoff N,
    alternating the amplifier and its complement; ``cold`` clears the amplitude
    table cache before each."""
    state = fock.random_one_mode_state(np.random.default_rng(N), N)
    channel = ChannelParam.amplifier(CHANNEL_GAIN)
    times = []
    for _ in range(CHANNEL_REPEATS):
        for complement in (False, True):
            if cold:
                fock._vacuum_ancilla_amplitudes.cache_clear()
            start = time.perf_counter()
            out = fock.apply_channel_fock(state, channel, complement=complement,
                                          enforce_cutoff=False)
            fock.spectral_entropy(out)
            times.append(time.perf_counter() - start)
    return times


def time_thermal_channel(N):
    """REPEATS wall times of a thermal state at THERMAL_ENERGY and cutoff N sent
    through the amplifier of gain CHANNEL_GAIN, with the entropy of the output."""
    channel = ChannelParam.amplifier(CHANNEL_GAIN)
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = fock.apply_channel_fock(fock.thermal_fock(THERMAL_ENERGY, N), channel,
                                      enforce_cutoff=False)
        fock.spectral_entropy(out)
        times.append(time.perf_counter() - start)
    return times


def time_extension_op(repeats):
    """``repeats`` wall times of the CMI of the extension family at CMI_POINT's
    eta, 1 - eta and 1/2: three scalar calls, as in one extension-grid operation."""
    kappa, E, eta = CMI_POINT
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for x in (eta, 1.0 - eta, 0.5):
            gaussian_cmi(extension_family(kappa, E, x), "A", "B", "R")
        times.append(time.perf_counter() - start)
    return times


def time_stacked_cmi(points):
    """REPEATS wall times per point of one stacked CMI of the extension family
    over ``points`` seeded points of the box."""
    rng = np.random.default_rng(points)
    kappa, E, eta = rng.uniform((1.0, 0.0, 0.0), (10.0, 50.0, 1.0), (points, 3)).T
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        gaussian_cmi(extension_family(kappa, E, eta), "A", "B", "R")
        times.append((time.perf_counter() - start) / points)
    return times


def line_split(paths):
    """Lines of the Python files ``paths`` by kind, as a dict of counts that sum to
    their line count: code, docstring (every line of one, blank ones too),
    comment-only and blank.  A line with code and a comment is code, and so is a
    blank line inside a string that is no docstring."""
    counts = dict.fromkeys(("code", "docstring", "comment", "blank"), 0)
    scoped = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER}
    for path in paths:
        text = pathlib.Path(path).read_text(encoding="utf-8")
        docstrings, code = set(), set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, scoped) and ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type not in skipped:
                code.update(range(token.start[0], token.end[0] + 1))
        for number, line in enumerate(text.splitlines(), 1):
            kind = ("docstring" if number in docstrings else "code" if number in code
                    else "blank" if not line.strip() else "comment")
            counts[kind] += 1
    return counts


def main():
    print(f"{'suite':<14} {'checks_run':>10} {'max_violation':>22} {'median_s':>9}")
    for name in sorted(SUITES):
        report, times = time_suite(name)
        print(f"{name:<14} {report.checks_run:>10} {report.max_violation!r:>22}"
              f" {statistics.median(times):>9.3f}")
    print(f"\n{'command':<48} {'median_ms':>9}")
    for argv in COMMANDS:
        print(f"{' '.join(argv):<48} {statistics.median(time_command(argv)) * 1e3:>9.3f}")
    print(f"\n{f'oracle_cmi{ORACLE_POINT} at cutoff':<48} {'median_ms':>9}")
    for N in ORACLE_CUTOFFS:
        print(f"{N:<48} {statistics.median(time_oracle(N)) * 1e3:>9.3f}")
    print(f"\n{f'classical-sweep: kappa {SWEEP_KAPPA:g}, {SWEEP_STEPS} energies':<48}"
          f" {'median_us':>9}")
    for name, times in time_sweep_op(SWEEP_REPEATS).items():
        print(f"{name:<48} {statistics.median(times) * 1e6:>9.2f}")
    print(f"\n{f'channel-entropy at cutoff {CHANNEL_CUTOFF}, amplitude table':<48}"
          f" {'median_ms':>9}")
    for label, cold in (("cached", False), ("cache cleared", True)):
        median = statistics.median(time_channel(CHANNEL_CUTOFF, cold))
        print(f"{label:<48} {median * 1e3:>9.3f}")
    print(f"\n{f'thermal E = {THERMAL_ENERGY:g} through the amplifier at cutoff':<48}"
          f" {'median_ms':>9}")
    median = statistics.median(time_thermal_channel(THERMAL_CUTOFF))
    print(f"{THERMAL_CUTOFF:<48} {median * 1e3:>9.3f}")
    print(f"\n{f'one Gaussian CMI at {CMI_POINT}':<48} {'median_us':>9}")
    median = statistics.median(time_extension_op(CMI_REPEATS))
    print(f"{'extension-grid operation: 3 scalar CMIs':<48} {median * 1e6:>9.2f}")
    median = statistics.median(time_stacked_cmi(STACKED_POINTS))
    print(f"{f'stacked CMI, per point of {STACKED_POINTS}':<48} {median * 1e6:>9.2f}")
    package = pathlib.Path(cvsquash.__file__).parent
    paths = sorted(package.glob("*.py"))
    lines = sum(len(path.read_text().splitlines()) for path in paths)
    split = " + ".join(f"{count} {kind}" for kind, count in line_split(paths).items())
    print(f"\n{package}/*.py: {lines} lines = {split}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
