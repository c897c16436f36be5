"""Smoke test of the scripts: each runs to exit 0 on a small input."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: every script except suite_timings.py, which runs each verify suite 5 times
COMMANDS = {
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


@pytest.fixture
def suite_timings(monkeypatch):
    # the parts of suite_timings.py fast enough to run here; importing the script
    # sets the BLAS thread variables, which monkeypatch restores after
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    spec = importlib.util.spec_from_file_location(
        "suite_timings", ROOT / "scripts" / "suite_timings.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
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
