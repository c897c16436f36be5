"""Smoke test of the scripts: each runs to exit 0 on a small input."""

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
