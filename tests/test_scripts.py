"""Smoke test of the scripts: each runs to exit 0 on a small input."""

import importlib.util
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

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


def test_oracle_timing(suite_timings):
    times = suite_timings.time_oracle(min(suite_timings.ORACLE_CUTOFFS))
    assert len(times) == suite_timings.REPEATS
    assert all(t > 0.0 for t in times)


@pytest.mark.parametrize("cold", [False, True], ids=["cached", "cleared"])
def test_channel_timing(suite_timings, monkeypatch, cold):
    # the channel-entropy operation at a small cutoff, a few times per channel
    monkeypatch.setattr(suite_timings, "CHANNEL_REPEATS", 3)
    times = suite_timings.time_channel(12, cold)
    assert len(times) == 6
    assert all(t > 0.0 for t in times)


def test_thermal_channel_timing(suite_timings):
    times = suite_timings.time_thermal_channel(12)
    assert len(times) == suite_timings.REPEATS
    assert all(t > 0.0 for t in times)


def test_sweep_op_timing(suite_timings):
    times = suite_timings.time_sweep_op(3)
    assert list(times) == ["operation", "_sweep", "_figure1_text"]
    assert all(len(ts) == 3 and all(t > 0.0 for t in ts) for ts in times.values())


def test_extension_op_timing(suite_timings):
    times = suite_timings.time_extension_op(3)
    assert len(times) == 3
    assert all(t > 0.0 for t in times)


def test_stacked_cmi_timing(suite_timings):
    times = suite_timings.time_stacked_cmi(30)
    assert len(times) == suite_timings.REPEATS
    assert all(t > 0.0 for t in times)


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
