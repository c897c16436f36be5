"""Tests of the benchmark itself: every check rejects a wrong value, the
reference formulas hold, and a short run of each workload ends clean.

    python3 -m pytest bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibration  # noqa: E402
import reference as ref  # noqa: E402
from workloads import ChannelEntropy, Checks, ClassicalSweep, ExtensionGrid, OracleCmi  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def failed_checks(workload, verify, result):
    assert not verify(result)
    return set(workload.checks.failed)


def test_reference_entropies():
    assert ref.g(1.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
    for E in (1e-12, 1e-3, 0.7, 5.0, 300.0):
        # the inverse is conditioned like s / (E g'(E)), ~1e-13 relative at E = 300
        assert ref.g_inverse(ref.g(E)) == pytest.approx(E, rel=1e-12)
    # clipped (E below the minimiser) and unclipped cases of the classical value
    for kappa, E in ((2.0, 0.1), (2.0, 3.0), (7.0, 5.0)):
        x = np.linspace(0.0, E, 200001)
        assert ref.classical_by_scan(kappa, E) == pytest.approx(
            0.5 * ref.h_array(kappa, x).min(), abs=1e-10)


def test_scale_uses_the_kernel_samples_nearest_an_operation():
    speed = calibration.Speedometer(("python", "numpy"))
    reference = calibration.REFERENCE_S["python"] + calibration.REFERENCE_S["numpy"]
    # one sample a second; the kernel runs twice as slow from t = 10 on
    speed.at = [float(t) for t in range(20)]
    speed.took = [reference * (1.0 if t < 10 else 2.0) for t in range(20)]
    assert calibration.NEAREST == 3
    assert speed.scale(3.2, 3.4) == pytest.approx(1.0)
    assert speed.scale(14.0, 16.0) == pytest.approx(0.5)
    # nearest to 9.6 are the samples at 9, 10 and 11
    assert speed.scale(9.3, 9.9) == pytest.approx(0.5)
    assert speed.scale(8.8, 9.6) == pytest.approx(1.0)
    assert speed.scale() == pytest.approx(1.0 / 1.5)
    speed.sample()
    assert speed.scale(speed.at[-1], speed.at[-1]) > 0.0


@pytest.mark.parametrize("name, perturb", [
    ("half_closed_form", lambda a, b, c: (a, b, c + 1e-8)),
    ("min_at_half", lambda a, b, c: (c - 1e-6, b, c)),
    ("cosh_bound", lambda a, b, c: (0.0, 0.0, c)),
    ("eta_symmetry", lambda a, b, c: (a, a + 1e-7, c)),
])
def test_extension_grid_checks_reject(tmp_path, name, perturb):
    workload = ExtensionGrid(0, Checks(), tmp_path)
    call, verify = workload.op(2.0, 3.0, 0.3)
    result = call()
    assert verify(result)
    assert name in failed_checks(workload, verify, perturb(*result))


def _rewrite(path, row, column, change):
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = format(change(float(cells[column])), ".12g")
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name, edit", [
    ("row_parameters", lambda p: _rewrite(p, 7, 1, lambda v: v + 1e-6)),
    ("lower_closed_form", lambda p: _rewrite(p, 7, 2, lambda v: v + 1e-9)),
    ("upper_closed_form", lambda p: _rewrite(p, 7, 3, lambda v: v - 1e-9)),
    ("ordering", lambda p: _rewrite(p, 7, 3, lambda v: 10.0)),
    ("gap_limit", lambda p: _rewrite(p, 7, 2, lambda v: -1.0)),
    ("classical_above_upper", lambda p: _rewrite(p, 100, 4, lambda v: 0.0)),
    ("classical_scan", lambda p: _rewrite(p, 50, 4, lambda v: v + 1e-7)),
    ("row_count", lambda p: p.write_text("\n".join(p.read_text().splitlines()[:-1]) + "\n")),
    ("header", lambda p: p.write_text("k" + p.read_text())),
])
def test_classical_sweep_checks_reject(tmp_path, name, edit):
    workload = ClassicalSweep(0, Checks(), tmp_path)
    workload.setup()
    call, verify = workload.op(0, 2.5)
    code = call()
    assert verify(code)
    edit(tmp_path / "figure1-0.csv")
    assert name in failed_checks(workload, verify, code)


def test_classical_sweep_exit_code_rejected(tmp_path):
    workload = ClassicalSweep(0, Checks(), tmp_path)
    workload.setup()
    _, verify = workload.op(0, 2.5)
    assert "exit_code" in failed_checks(workload, verify, 3)


@pytest.mark.parametrize("eta, name", [(0.3, "covariance_route"), (0.5, "half_closed_form")])
def test_oracle_cmi_checks_reject(tmp_path, eta, name):
    workload = OracleCmi(0, Checks(), tmp_path)
    kappa, E = 1.3, 0.2
    N = ref.required_cutoff(kappa * (E + 1.0) - min(eta, 1.0 - eta) * E - 1.0)
    call, verify = workload.op(N, kappa, E, eta)
    value = call()
    assert verify(value)
    assert name in failed_checks(workload, verify, value + 1e-4)


def test_oracle_cmi_draws_hit_their_cutoff(tmp_path):
    workload = OracleCmi(3, Checks(), tmp_path)
    for N in workload.CUTOFFS:
        kappa, E, eta = workload.draw(N)
        e_max = max(kappa * (E + 1.0) - min(eta, 1.0 - eta) * E - 1.0, E)
        assert ref.required_cutoff(e_max) == N
        assert (eta == 0.5) == (N == workload.HALF_CUTOFF)


@pytest.mark.parametrize("complement", [False, True])
def test_channel_entropy_checks_reject(tmp_path, complement):
    workload = ChannelEntropy(0, Checks(), tmp_path)
    workload.setup()
    call, verify = workload.op(1, workload.channels[1], complement)
    out, entropy = call()
    assert verify((out, entropy))
    bound = workload.bound(1, workload.channels[1].value, complement)
    name = "moe_complement" if complement else "moe_amplifier"
    assert name in failed_checks(workload, verify, (out, bound - 1e-5))
    short = SimpleNamespace(matrix=out.matrix * (1.0 - 1e-9), tail_bound=0.0)
    assert "lost_trace" in failed_checks(workload, verify, (short, entropy))


def run_bench(*args, cwd=ROOT, bench=BENCH):
    return subprocess.run([sys.executable, str(bench / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_is_clean(workload):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    # extension-grid attempts ExtensionGrid.FAULT_POINT once per round, and
    # only that operation fails; every other workload fails nothing
    if workload == "extension-grid":
        rounds, rest = divmod(result["attempted"], ExtensionGrid.POOL + 1)
        assert rest == 0 and result["failed"] == rounds
    else:
        assert result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = run_bench("--workload", "channel-entropy", "--seed", "5", "--seconds", "2",
                     "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(units[name] == m["unit"] for name, m in result["metrics"].items())
    assert result["metrics"]["fock.apply_channel_fock.calls"]["value"] == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "oracle-cmi", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, bench=tmp_path / "bench")
    assert proc.returncode != 0
    assert not proc.stdout.strip()

