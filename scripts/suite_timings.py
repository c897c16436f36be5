#!/usr/bin/env python3
"""Wall time of every verification suite and of each layer of ``layers()``, with
one BLAS thread.

Runs each suite of ``cvsquash.verify.SUITES`` at its default tolerance and
seed, REPEATS times in this one process, and prints one line per suite: its
check count, its worst violation and the median of its wall times.  The first
run of a suite is timed like the others, so the median is of warm runs.  Then
it times each row of ``layers()`` through ``timed`` and prints its median,
section by section: two commands through ``cvsquash.cli.main``, with their
output sent to the null device; ``fock.oracle_cmi`` at three cutoffs; the
benchmark's ``classical-sweep`` operation and its two stages, ``cli._sweep``
(the numbers) and ``cli._figure1_text`` (the text); its ``channel-entropy``
operation with the amplitude table cached, and with the cache cleared as in a
one-off ``cvsquash oracle channel``; a thermal input through the amplifier,
the work of ``cvsquash oracle channel`` on an input that occupies one
diagonal; its ``extension-grid`` operation and one stacked CMI, per point;
scalar and array ``g`` and the symplectic spectrum of one and of a stack of
extension-family covariances; and the amplitude table alone.  Last comes the
line count of the imported package's modules, as ``wc -l`` gives it and split
by ``line_split`` into code, docstring, comment-only and blank lines, per
module and in all: run on two trees, it gives their line counts at their test
results, and shows in which module and in which kind of line a change of size
lies.

    PYTHONPATH=src python3 scripts/suite_timings.py
"""

import os

#: one BLAS thread, set before numpy loads: suite times then compare across
#: machines with different core counts and across loads of a shared host
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREADS, "1"))

import ast  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tokenize  # noqa: E402

import numpy as np  # noqa: E402

import cvsquash  # noqa: E402
from cvsquash import cli, fock  # noqa: E402
from cvsquash.entropics import ChannelParam, g  # noqa: E402
from cvsquash.states import extension_family, gaussian_cmi  # noqa: E402
from cvsquash.symplectic import symplectic_eigenvalues  # noqa: E402
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
#: times each of its two channels, and the amplitude table alone, is timed; a
#: run takes well under a millisecond
CHANNEL_CUTOFF = 40
CHANNEL_GAIN = 2.0
CHANNEL_REPEATS = 100
#: the thermal input of the thermal line, at a cutoff far above the rule's 80
THERMAL_ENERGY = 1.0
THERMAL_CUTOFF = 400
#: the covariance route: the (kappa, E, eta) of the timed extension-grid
#: operation, which takes well under a millisecond, of the scalar g and of the
#: one-matrix spectrum; how many times each is timed; and the size of the
#: stacked CMI, the g array and the spectrum stack, whose points are drawn from
#: the box kappa in [1, 10], E in [0, 50], eta in [0, 1]
CMI_POINT = (2.0, 1.0, 0.3)
CMI_REPEATS = 1000
STACKED_POINTS = 3000
#: the kinds of line that line_split counts, in the order they are printed
LINE_KINDS = ("code", "docstring", "comment", "blank")


def timed(run, repeats, per=1, before=None):
    """``repeats`` wall times of ``run()``, each divided by ``per``; ``before``, when
    given, is called untimed ahead of each run."""
    times = []
    for _ in range(repeats):
        if before is not None:
            before()
        start = time.perf_counter()
        run()
        times.append((time.perf_counter() - start) / per)
    return times


def layers():
    """The timed layers as sections (title, unit, rows), with unit "ms" or "us" and
    each row (label, run, repeats[, per, before]) as ``timed`` takes it.  Reads the
    module constants when it is called."""
    channel = ChannelParam.amplifier(CHANNEL_GAIN)
    state = fock.random_one_mode_state(np.random.default_rng(CHANNEL_CUTOFF), CHANNEL_CUTOFF)
    kappa, E, eta = CMI_POINT
    box = np.random.default_rng(STACKED_POINTS).uniform(
        (1.0, 0.0, 0.0), (10.0, 50.0, 1.0), (STACKED_POINTS, 3)).T
    point, stack = extension_family(*CMI_POINT).cov, extension_family(*box).cov
    sweep = ["figure1", "--kappas", repr(SWEEP_KAPPA), "--e-min", "0", "--e-max",
             repr(SWEEP_E_MAX), "--steps", str(SWEEP_STEPS)]
    blocks = cli._sweep([SWEEP_KAPPA], 0.0, SWEEP_E_MAX, SWEEP_STEPS)

    def command(argv):
        """One run of ``cvsquash argv`` with its output sent to the null device;
        it must exit 0."""
        def run():
            code = cli.main([*argv, "--output", os.devnull])
            if code != 0:
                raise RuntimeError(f"cvsquash {' '.join(argv)} exited with code {code}")
        return run

    def channel_op():
        """The channel-entropy operation, through the amplifier and its complement
        in turn, call by call."""
        complements = itertools.cycle((False, True))
        return lambda: fock.spectral_entropy(fock.apply_channel_fock(
            state, channel, complement=next(complements), enforce_cutoff=False))

    def extension_op():
        for x in (eta, 1.0 - eta, 0.5):
            gaussian_cmi(extension_family(kappa, E, x), "A", "B", "R")

    clear = fock._vacuum_ancilla_amplitudes.cache_clear
    return [
        ("command", "ms", [(" ".join(argv), command(argv), REPEATS) for argv in COMMANDS]),
        (f"oracle_cmi{ORACLE_POINT} at cutoff", "ms",
         [(str(N), lambda N=N: fock.oracle_cmi(*ORACLE_POINT, N), REPEATS)
          for N in ORACLE_CUTOFFS]),
        (f"classical-sweep: kappa {SWEEP_KAPPA:g}, {SWEEP_STEPS} energies", "us", [
            ("operation", command(sweep), SWEEP_REPEATS),
            ("_sweep", lambda: cli._sweep([SWEEP_KAPPA], 0.0, SWEEP_E_MAX, SWEEP_STEPS),
             SWEEP_REPEATS),
            ("_figure1_text", lambda: cli._figure1_text(blocks, "csv", cli.DEFAULT_PRECISION),
             SWEEP_REPEATS)]),
        (f"channel-entropy at cutoff {CHANNEL_CUTOFF}, amplitude table", "ms", [
            ("cached", channel_op(), 2 * CHANNEL_REPEATS),
            ("cache cleared", channel_op(), 2 * CHANNEL_REPEATS, 1, clear)]),
        (f"thermal E = {THERMAL_ENERGY:g} through the amplifier at cutoff", "ms", [
            (str(THERMAL_CUTOFF), lambda: fock.spectral_entropy(fock.apply_channel_fock(
                fock.thermal_fock(THERMAL_ENERGY, THERMAL_CUTOFF), channel,
                enforce_cutoff=False)), REPEATS)]),
        (f"one Gaussian CMI at {CMI_POINT}", "us", [
            ("extension-grid operation: 3 scalar CMIs", extension_op, CMI_REPEATS),
            (f"stacked CMI, per point of {STACKED_POINTS}",
             lambda: gaussian_cmi(extension_family(*box), "A", "B", "R"), REPEATS,
             STACKED_POINTS)]),
        ("g and the symplectic spectrum", "us", [
            (f"g({E:g})", lambda: g(E), CMI_REPEATS),
            (f"g on {STACKED_POINTS} energies", lambda: g(box[1]), CMI_REPEATS),
            (f"symplectic_eigenvalues at {CMI_POINT}",
             lambda: symplectic_eigenvalues(point), CMI_REPEATS),
            (f"symplectic_eigenvalues of {STACKED_POINTS} points",
             lambda: symplectic_eigenvalues(stack), REPEATS)]),
        (f"amplitude table at cutoff {CHANNEL_CUTOFF}, cache cleared", "us", [
            (f"squeezer of gain {CHANNEL_GAIN:g}", lambda: fock._vacuum_ancilla_amplitudes(
                "squeezer", CHANNEL_GAIN, CHANNEL_CUTOFF), CHANNEL_REPEATS, 1, clear)]),
    ]


def line_split(paths):
    """Lines of the Python files ``paths`` by kind, as a dict of counts that sum to
    their line count: code, docstring (every line of one, blank ones too),
    comment-only and blank.  A line with code and a comment is code, and so is a
    blank line inside a string that is no docstring."""
    counts = dict.fromkeys(LINE_KINDS, 0)
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


def line_table(paths):
    """``line_split`` of each Python file of ``paths`` as rows of a table, one per
    file with its line count, after a header row."""
    rows = [f"{'module':<16} {'lines':>6}" + "".join(f" {kind:>9}" for kind in LINE_KINDS)]
    for path in paths:
        split = line_split([path])
        rows.append(f"{pathlib.Path(path).name:<16} {sum(split.values()):>6}"
                    + "".join(f" {split[kind]:>9}" for kind in LINE_KINDS))
    return rows


def main():
    print(f"{'suite':<14} {'checks_run':>10} {'max_violation':>22} {'median_s':>9}")
    for name in sorted(SUITES):
        reports = []
        times = timed(lambda name=name: reports.append(run_suite(name)), REPEATS)
        if len({(r.checks_run, r.max_violation) for r in reports}) != 1:
            raise RuntimeError(f"suite {name} gave different results on repeated runs")
        print(f"{name:<14} {reports[-1].checks_run:>10} {reports[-1].max_violation!r:>22}"
              f" {statistics.median(times):>9.3f}")
    for title, unit, rows in layers():
        scale, digits = {"ms": (1e3, 3), "us": (1e6, 2)}[unit]
        print(f"\n{title:<48} {'median_' + unit:>9}")
        for label, *row in rows:
            print(f"{label:<48} {statistics.median(timed(*row)) * scale:>9.{digits}f}")
    package = pathlib.Path(cvsquash.__file__).parent
    paths = sorted(package.glob("*.py"))
    lines = sum(len(path.read_text().splitlines()) for path in paths)
    split = " + ".join(f"{count} {kind}" for kind, count in line_split(paths).items())
    print()
    print(*line_table(paths), sep="\n")
    print(f"{package}/*.py: {lines} lines = {split}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
