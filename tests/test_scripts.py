"""Smoke test of the scripts: each runs to exit 0 on a small input."""

import importlib.util
import os
import pathlib
import re
import subprocess
import sys
import textwrap
import types

import pytest

from cvsquash.verify import SUITES, run_suite

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: every script except suite_timings.py, which runs each verify suite 5 times
COMMANDS = {
    "bench_trajectory": ["bench_trajectory.py"],
    "cutoff_convergence": ["cutoff_convergence.py", "--max-cutoff", "32"],
    "validation_scan": ["validation_scan.py", "--draws", "200"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_script_runs(name, tmp_path):
    script, *args = COMMANDS[name]
    args = [arg.format(tmp=tmp_path) for arg in args]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_bench_trajectory_reads_every_file():
    # both run layouts: nested result.metrics in the early files, flat runs later
    script = load_script("bench_trajectory")
    files = script.bench_files(ROOT)
    assert len(files) >= 20
    for _, path in files:
        table = script.medians(path)
        assert any(len(by_side) == 2 and all(len(m) == 4 for m in by_side.values())
                   for by_side in table.values()), path.name


@pytest.fixture
def suite_timings(monkeypatch):
    # the parts of suite_timings.py fast enough to run here; importing the script
    # sets the BLAS thread variables, which monkeypatch restores after
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    script = load_script("suite_timings")
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    return script


#: the labels of suite_timings.layers() at the constants of the shrunk fixture, in
#: the order they print: the end-to-end sections, then g, the spectrum and the table
ROWS = ["figure1", "bounds tms --kappa 2 --energy 1", "40", "operation", "_sweep",
        "_figure1_text", "cached", "cache cleared", "12",
        "extension-grid operation: 3 scalar CMIs", "stacked CMI, per point of 30",
        "g(1)", "g on 30 energies", "symplectic_eigenvalues at (2.0, 1.0, 0.3)",
        "symplectic_eigenvalues of 30 points", "squeezer of gain 2"]


@pytest.fixture
def shrunk(suite_timings, monkeypatch):
    # small cutoffs, stacks and repeats, read by layers() when it is called
    for name, value in {"CHANNEL_CUTOFF": 12, "THERMAL_CUTOFF": 12, "STACKED_POINTS": 30,
                        "ORACLE_CUTOFFS": (40,), "REPEATS": 3, "SWEEP_REPEATS": 3,
                        "CHANNEL_REPEATS": 3, "CMI_REPEATS": 3}.items():
        monkeypatch.setattr(suite_timings, name, value)
    return suite_timings


@pytest.mark.parametrize("index", range(len(ROWS)),
                         ids=[re.sub(r"\W+", "-", label).strip("-") for label in ROWS])
def test_layer_row(shrunk, index):
    rows = [row for _, _, section in shrunk.layers() for row in section]
    assert [label for label, *_ in rows] == ROWS
    label, run, repeats, *rest = rows[index]
    # per point of the stack; the amplitude table's cache cleared before each run
    clear = shrunk.fock._vacuum_ancilla_amplitudes.cache_clear
    assert rest == {"stacked CMI, per point of 30": [30], "cache cleared": [1, clear],
                    "squeezer of gain 2": [1, clear]}.get(label, [])
    times = shrunk.timed(run, repeats, *rest)
    # 3 runs, or 3 per channel on the two rows that alternate them
    assert len(times) == repeats == (6 if label.startswith("cache") else 3)
    assert all(t > 0.0 for t in times)


def test_timed_divides_by_per_and_calls_before_untimed(suite_timings, monkeypatch):
    now, calls = [0.0], []
    monkeypatch.setattr(suite_timings, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))

    def run():
        now[0] += 6.0
        calls.append("run")

    def before():
        now[0] += 100.0
        calls.append("before")

    assert suite_timings.timed(run, 4, 3, before) == [2.0] * 4
    assert calls == ["before", "run"] * 4
    calls.clear()
    assert suite_timings.timed(run, 2) == [6.0] * 2
    assert calls == ["run"] * 2


def test_main_prints_suites_and_sections(shrunk, monkeypatch, capsys):
    # one run of each suite, whose report the spy keeps for the check of its line
    reports = {}
    monkeypatch.setattr(shrunk, "REPEATS", 1)
    monkeypatch.setattr(shrunk, "run_suite", lambda name: reports.setdefault(name, run_suite(name)))
    assert shrunk.main() == 0
    suites, *sections, lines = capsys.readouterr().out.split("\n\n")
    header, *rows = suites.splitlines()
    assert header.split() == ["suite", "checks_run", "max_violation", "median_s"]
    assert list(reports) == sorted(SUITES)
    for (name, report), row in zip(reports.items(), rows, strict=True):
        assert row.split()[:3] == [name, str(report.checks_run), repr(report.max_violation)]
    titles = [section.splitlines()[0].rsplit(maxsplit=1) for section in sections]
    assert titles == [
        ["command", "median_ms"], ["oracle_cmi(1.5, 0.5, 0.5) at cutoff", "median_ms"],
        ["classical-sweep: kappa 2, 400 energies", "median_us"],
        ["channel-entropy at cutoff 12, amplitude table", "median_ms"],
        ["thermal E = 1 through the amplifier at cutoff", "median_ms"],
        ["one Gaussian CMI at (2.0, 1.0, 0.3)", "median_us"],
        ["g and the symplectic spectrum", "median_us"],
        ["amplitude table at cutoff 12, cache cleared", "median_us"]]
    rows = [row for section in sections for row in section.splitlines()[1:]]
    assert [row[:48].rstrip() for row in rows] == ROWS
    # medians in ms to 3 decimals, in us to 2, right-aligned in 9 columns
    for section, (_, unit) in zip(sections, titles):
        for row in section.splitlines()[1:]:
            assert re.fullmatch(r" {0,8}\d+\.\d{%d}" % (3 if unit == "median_ms" else 2), row[49:])
    assert lines.splitlines()[0].split()[:2] == ["module", "lines"]


def test_line_split(suite_timings, tmp_path):
    source = textwrap.dedent('''\
        """A module docstring

        over three lines."""

        import os  # a comment after code is code

        # a comment-only line
        TEXT = """a string that is no docstring

        keeps its blank line as code"""


        class Kind:
            """One line."""

            def sep(self):
                """Two
                lines."""
                return os.sep
        ''')
    path = tmp_path / "module.py"
    path.write_text(source, encoding="utf-8")
    split = suite_timings.line_split([path, path])
    assert split == {"code": 14, "docstring": 12, "comment": 2, "blank": 10}
    assert sum(split.values()) == 2 * len(source.splitlines())
    # per module: a header, then one row per file with its line count and split
    header, *rows = suite_timings.line_table([path, path])
    assert header.split() == ["module", "lines", "code", "docstring", "comment", "blank"]
    assert [row.split() for row in rows] == [["module.py", "19", "7", "6", "1", "5"]] * 2
