"""End-to-end tests of the command-line surface."""

import errno
import itertools
import json
import math
import os
import pathlib
import sys
import threading
import tracemalloc

import jsonschema
import numpy as np
import pytest

from cvsquash import bounds, entropics, errors, fock, verify
from cvsquash.bounds import classical_esq, esq_bounds_tms
from cvsquash.cli import FIGURE1_ROW_BYTES, _sweep, build_parser, main
from cvsquash.states import extension_family, gaussian_cmi

from .reference import figure1_text

SCHEMA_PATH = pathlib.Path(__file__).resolve().parents[1] / "docs" / "bound_report.schema.json"


@pytest.fixture(scope="module")
def schema():
    return json.loads(SCHEMA_PATH.read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_tms_trivial(self, capsys):
        code, out, _ = run(capsys, "bounds", "tms", "--kappa", "1", "--energy", "5")
        assert code == 0
        rows = dict(line.split(",") for line in out.splitlines()[1:])
        assert float(rows["esq_lower"]) == 0.0
        assert float(rows["esq_upper"]) == 0.0

    def test_tms_json_schema(self, capsys, schema):
        code, out, _ = run(
            capsys, "bounds", "tms", "--kappa", "2", "--energy", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["lower"] == pytest.approx(math.log(3.0))

    def test_attenuator(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "attenuator", "--eta", "0.5", "--energy", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lower"] == pytest.approx(math.log(5.0 / 3.0))

    def test_tms_pure_state_prints_exact(self, capsys, schema):
        argv = ("bounds", "tms", "--kappa", "2", "--energy", "0")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rows = dict(line.split(",") for line in out.splitlines()[1:])
        assert rows["esq_exact"] == rows["esq_upper"] == "1.38629436112"  # g(1) = 2 ln 2
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["exact"] == payload["upper"] == float(rows["esq_exact"])

    def test_domain_error_exit_3(self, capsys):
        code, _, err = run(capsys, "bounds", "tms", "--kappa", "0.5", "--energy", "1")
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("kappa, energy", [
        ("83.94300410074327", "7.689108921982416"),
        ("304.1639793970098", "0.0011909836624540257"),
    ])
    def test_tms_large_kappa_exit_0(self, capsys, kappa, energy):
        code, out, err = run(capsys, "bounds", "tms", "--kappa", kappa, "--energy", energy)
        assert code == 0, err
        rows = dict(line.split(",") for line in out.splitlines()[1:])
        assert float(rows["esq_lower"]) <= float(rows["esq_upper"])

    def test_tms_overflow_exit_3_names_cause(self, capsys):
        code, out, err = run(capsys, "bounds", "tms", "--kappa", "1e308", "--energy", "1")
        assert code == 3
        assert out == ""
        assert "(kappa - 1/2) E + kappa - 1 overflows at kappa = 1e+308, E = 1" in err

    @pytest.mark.parametrize("kappa, energy, named", [
        ("1e308", "1", "(kappa + 1) E + kappa overflows at kappa = 1e+308, E = 1"),
        ("2", "1e308", "(kappa + 1) E + kappa overflows at kappa = 2, E = 1e+308"),
    ])
    def test_amplifier_overflow_exit_3_names_cause(self, capsys, kappa, energy, named):
        code, out, err = run(capsys, "bounds", "amplifier", "--kappa", kappa, "--energy", energy)
        assert code == 3
        assert out == ""
        assert named in err

    @pytest.mark.parametrize("energy", ["inf", "nan"])
    def test_channel_state_non_finite_energy_exit_3(self, capsys, energy):
        code, out, err = run(capsys, "bounds", "attenuator", "--eta", "0.5", "--energy", energy)
        assert code == 3
        assert out == ""
        assert "mean energy must be finite" in err

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "tms", "--kappa", "2"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestChannel:
    def test_attenuator_exact(self, capsys):
        code, out, _ = run(capsys, "channel", "attenuator", "--eta", "0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == pytest.approx(math.log(3.0))
        assert payload["secret_key_capacity"] == pytest.approx(math.log(2.0))

    def test_divergent_serialized_as_inf(self, capsys, schema):
        code, out, _ = run(capsys, "channel", "attenuator", "--eta", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["exact"] == "inf"

    def test_divergent_csv(self, capsys):
        code, out, _ = run(capsys, "channel", "amplifier", "--kappa", "1")
        assert code == 0
        assert "esq_exact,inf" in out.splitlines()

    @pytest.mark.parametrize("kappa", ["inf", "nan"])
    def test_non_finite_gain_exit_3(self, capsys, kappa):
        code, out, err = run(capsys, "channel", "amplifier", "--kappa", kappa)
        assert code == 3
        assert out == ""
        assert "amplifier gain must be finite" in err


class TestFigure1:
    def test_header_and_ordering(self, capsys):
        code, out, _ = run(capsys, "figure1", "--steps", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "kappa,E,esq_lower,esq_upper,esq_classical"
        rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
        assert len(rows) == 9
        # kappa-major, E-ascending
        assert [r[0] for r in rows] == [1.5] * 3 + [2.0] * 3 + [3.0] * 3
        assert rows[0][1] == 0.0 and rows[2][1] == 1.0
        for _, _, lo, hi, classical in rows:
            assert lo <= hi <= classical + 1e-12

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "figure1", "--steps", "50")
        _, second, _ = run(capsys, "figure1", "--steps", "50")
        assert first == second

    @pytest.mark.parametrize("argv", [["figure1", "--jobs", "2"], ["verify", "gap", "--jobs", "2"]],
                             ids=["figure1", "verify"])
    def test_jobs_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --jobs 2" in err

    def test_file_output(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "figure1", "--steps", "3", "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("kappa,E,")

    def test_unwritable_path_exit_4(self, capsys):
        code, _, err = run(capsys, "figure1", "--steps", "3", "--output", "/nonexistent/x.csv")
        assert code == 4
        assert "error" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "figure1", "--steps", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 6
        assert set(payload[0]) == {"kappa", "E", "esq_lower", "esq_upper", "esq_classical"}

    def test_invalid_sweep_exit_3(self, capsys):
        code, _, _ = run(capsys, "figure1", "--steps", "1")
        assert code == 3

    def test_sweep_above_memory_limit_refused(self, capsys):
        code, out, err = run(capsys, "figure1", "--kappas", "2", "--steps", "100000000000")
        assert code == 3
        assert out == ""
        assert err.startswith("error: figure1 sweep of 100000000000 rows needs")

    def test_memory_charge_per_row_by_format(self, capsys, monkeypatch):
        # six rows fit at the CSV charge each and not at the larger JSON charge
        csv_limit = 6 * FIGURE1_ROW_BYTES["csv"]
        monkeypatch.setattr(errors, "MEMORY_LIMIT", csv_limit)
        argv = ("figure1", "--kappas", "1.5,2", "--steps", "3", "--format")
        assert run(capsys, *argv, "csv")[0] == 0
        code, _, err = run(capsys, *argv, "json")
        assert code == 3
        assert "of 6 rows" in err
        monkeypatch.setattr(errors, "MEMORY_LIMIT", csv_limit - 1)
        assert run(capsys, *argv, "csv")[0] == 3

    @pytest.mark.parametrize("fmt, kappa, e_min, e_max", [
        ("csv", "1.2345678901234567e300", "0", "1e-3"),
        ("json", "1.0000000000000002", "1.2345678901234567e-300", "3.1234567890123457e-300"),
    ])
    def test_memory_charge_holds_for_worst_sweep(self, fmt, kappa, e_min, e_max):
        # the sweeps with the largest measured peak per row, at the longest precision;
        # their peak per row is the same at 2e4 rows as at 1e5
        rows = 20_000
        tracemalloc.start()
        try:
            code = main(["figure1", "--kappas", kappa, "--e-min", e_min, "--e-max", e_max,
                         "--steps", str(rows), "--precision", "17", "--format", fmt,
                         "--output", os.devnull])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= rows * FIGURE1_ROW_BYTES[fmt]

    @pytest.mark.parametrize("flag, value", [
        ("--kappas", "nan"), ("--kappas", "inf"), ("--kappas", "0.3"), ("--e-max", "inf"),
    ])
    def test_bad_sweep_argument_named(self, capsys, flag, value):
        code, out, err = run(capsys, "figure1", "--steps", "3", flag, value)
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {flag}")

    def test_energy_grid_near_overflow_accepted(self, capsys):
        # (e_max - e_min) k overflows from k = 2 on, though every grid point is finite
        code, out, err = run(capsys, "figure1", "--kappas", "2", "--e-max", "1e308",
                             "--steps", "13")
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert len(rows) == 13
        assert [row.split(",")[1] for row in rows[::12]] == ["0", "1e+308"]
        [(_, _, table)] = _sweep([2.0], 0.0, 1e308, 13)
        assert np.all(np.diff(table[:, 0]) > 0.0)
        # kappa = 3 is the first of the default list whose (kappa - 1/2) E overflows
        code, out, err = run(capsys, "figure1", "--e-max", "1e308", "--steps", "13")
        assert (code, out) == (3, "")
        assert err.startswith("error: (kappa - 1/2) E + kappa - 1 overflows at kappa = 3, E = ")

    @pytest.mark.parametrize("e_min, steps", [(5.606773020660784e307, 55),
                                              (2.0387508761897163e295, 2)])
    def test_energy_grid_capped_at_e_max(self, e_min, steps):
        # rounding carries the last point of these grids past the largest double
        e_max = sys.float_info.max
        [(_, _, table)] = _sweep([1.0], e_min, e_max, steps)
        assert (table[0, 0], table[-1, 0]) == (e_min, e_max)
        assert np.all(np.diff(table[:, 0]) > 0.0)

    @staticmethod
    def assert_rows_match_scalar_api(kappas, e_min, e_max, steps):
        blocks = _sweep(kappas, e_min, e_max, steps)
        assert [k for k, _, _ in blocks] == kappas
        for kappa, lower, table in blocks:
            assert len(table) == steps
            for E, upper, classical in table.tolist():
                report = esq_bounds_tms(kappa, E)
                assert (lower, upper) == (report.lower, report.upper)
                assert classical == classical_esq(kappa, E)[0]

    @pytest.mark.parametrize("kappa", [1.0, 1.2, 2.0, 3.7, 9.9,
                                       1.0000000000000002, 1.2345678901234567e300])
    def test_rows_match_scalar_api(self, kappa):
        # the two extreme kappas are those of the memory-charge sweeps; (kappa - 1/2) E
        # overflows above E = 1e-3 at the larger one
        self.assert_rows_match_scalar_api([kappa], 0.0, 5.0 if kappa < 1e300 else 1e-3, 400)

    @pytest.mark.parametrize("kappa", [1.0000000000000002, 1.2, 2.0, 1e300])
    def test_rows_match_scalar_api_across_E_kappa(self, kappa):
        # a grid of a few doubles about E_kappa, where min(E, E_kappa) switches
        e_kappa = bounds.find_E_kappa(kappa)
        e_min, e_max = e_kappa, e_kappa
        for _ in range(3):
            e_min, e_max = math.nextafter(e_min, 0.0), math.nextafter(e_max, 1.0)
        self.assert_rows_match_scalar_api([kappa, 1.5], e_min, e_max, 7)
        [(_, _, table)] = _sweep([kappa], e_min, e_max, 7)
        assert table[0, 0] < e_kappa < table[-1, 0]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("precision", [0, 1, 3, 12, 17])
    def test_matches_row_by_row_rendering(self, capsys, fmt, precision):
        # [0, 1e-9] keeps g on its series branch; at kappa = 2, where E_kappa = 1/4,
        # the trailing run of equal classical values is empty, partial, whole, and
        # the whole of a one-energy sweep at E_kappa
        ranges = ((0.0, 1.0), (0.0, 5.0), (2.0, 2.0), (0.0, 1e-9),
                  (0.0, 0.2), (0.2, 0.3), (1.0, 5.0), (0.25, 0.25))
        for kappas, steps, (e_min, e_max) in itertools.product(
                ([1.0, 1.2, 9.9, 83.9], [2.0]), (2, 3, 400), ranges):
            code, out, _ = run(capsys, "figure1", "--kappas", ",".join(map(repr, kappas)),
                               "--e-min", repr(e_min), "--e-max", repr(e_max),
                               "--steps", str(steps), "--precision", str(precision),
                               "--format", fmt)
            assert code == 0
            rows = [(kappa, E, lower, upper, classical)
                    for kappa, lower, table in _sweep(kappas, e_min, e_max, steps)
                    for E, upper, classical in table.tolist()]
            assert out == figure1_text(rows, precision, fmt)

    def test_one_g_call_per_bound(self, monkeypatch):
        # each kappa block evaluates g's body once, on the five stacked arguments of
        # esq_upper and esq_classical, and calls no validating function of the scalar API
        calls, real_g, real_find = [], entropics._g, bounds.find_E_kappa

        def spy(E):
            calls.append(("_g", np.shape(E)))
            return real_g(E)

        def find_spy(kappa):
            calls.append(("find_E_kappa", kappa))
            return real_find(kappa)

        def refused(*args):
            raise AssertionError("the sweep validated its arguments again")

        monkeypatch.setattr(bounds, "_g", spy)
        monkeypatch.setattr(bounds, "find_E_kappa", find_spy)
        for name in ("g", "h", "esq_bounds_tms", "classical_esq"):
            monkeypatch.setattr(bounds, name, refused)
        for name in ("g", "h", "in_domain"):
            monkeypatch.setattr(entropics, name, refused)
        _sweep([2.0, 1.0, 3.0], 0.0, 5.0, 400)
        assert calls == [("find_E_kappa", 2.0), ("_g", (5, 400)), ("_g", (5, 400)),
                         ("find_E_kappa", 3.0), ("_g", (5, 400))]

    @pytest.mark.parametrize("existing", [None, "kept\n"])
    def test_overflow_writes_nothing(self, capsys, tmp_path, existing):
        # every row is computed before the output file is opened
        target = tmp_path / "p"
        if existing is not None:
            target.write_text(existing)
        code, out, err = run(capsys, "figure1", "--kappas", "2,1e308", "--e-max", "5",
                             "--steps", "3", "--output", str(target))
        assert (code, out) == (3, "")
        assert "(kappa - 1/2) E + kappa - 1" in err
        if existing is None:
            assert not target.exists()
        else:
            assert target.read_text() == existing

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("precision", ["-1", "nan", "1.5", "18"])
    def test_bad_precision_is_usage_error(self, capsys, precision):
        with pytest.raises(SystemExit) as exc:
            main(["figure1", "--steps", "3", "--precision", precision])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --precision" in err

    def test_precision_zero_accepted(self, capsys):
        code, out, _ = run(capsys, "figure1", "--kappas", "2", "--steps", "2", "--precision", "0")
        assert code == 0
        assert out.splitlines()[1:] == ["2,0,1,1,1", "2,1,1,1,1"]


class TestOutputFile:
    """--output rewrites an existing file in place: the same bytes as a write to
    a new path, on the same inode, links and mode, and no old bytes after it."""

    COMMANDS = {
        "bounds": ["bounds", "tms", "--kappa", "2", "--energy", "1"],
        "channel": ["channel", "attenuator", "--eta", "0.5"],
        "figure1-csv": ["figure1", "--steps", "40"],
        "figure1-json": ["figure1", "--steps", "40", "--format", "json"],
    }
    #: old contents against the new text's length n
    OLD = {"longer": lambda n: 3 * n + 7, "shorter": lambda n: n // 2, "same": lambda n: n}

    @staticmethod
    def fresh(capsys, tmp_path, argv):
        target = tmp_path / "fresh"
        code, out, _ = run(capsys, *argv, "--output", str(target))
        assert (code, out) == (0, "")
        data = target.read_bytes()
        assert data == run(capsys, *argv)[1].encode("utf-8")
        return data

    @pytest.mark.parametrize("old", OLD)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_rewrite_keeps_inode_and_mode(self, capsys, tmp_path, command, old):
        argv = self.COMMANDS[command]
        expected = self.fresh(capsys, tmp_path, argv)
        target = tmp_path / "existing"
        target.write_bytes(b"#" * self.OLD[old](len(expected)))
        target.chmod(0o640)
        before = target.stat()
        code, out, _ = run(capsys, *argv, "--output", str(target))
        assert (code, out) == (0, "")
        assert target.read_bytes() == expected
        after = target.stat()
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_links_are_kept(self, capsys, tmp_path, command):
        argv = self.COMMANDS[command]
        expected = self.fresh(capsys, tmp_path, argv)
        target = tmp_path / "target"
        target.write_bytes(b"#" * (2 * len(expected)))
        symlink, hardlink = tmp_path / "symlink", tmp_path / "hardlink"
        symlink.symlink_to(target)
        os.link(target, hardlink)
        assert run(capsys, *argv, "--output", str(symlink))[0] == 0
        assert symlink.is_symlink()
        assert target.read_bytes() == hardlink.read_bytes() == expected

    def test_dev_null(self, capsys):
        assert run(capsys, *self.COMMANDS["figure1-csv"], "--output", os.devnull) == (0, "", "")

    def test_fifo(self, capsys, tmp_path):
        # a FIFO cannot be cut to length, so only regular files are
        argv = self.COMMANDS["figure1-csv"]
        expected = self.fresh(capsys, tmp_path, argv)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        code = run(capsys, *argv, "--output", str(fifo))[0]
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert code == 0
        assert received == [expected]

    def test_directory_exit_4(self, capsys, tmp_path):
        code, out, err = run(capsys, *self.COMMANDS["bounds"], "--output", str(tmp_path))
        assert (code, out) == (4, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_never_opens_with_truncation(self, capsys, tmp_path, monkeypatch, command):
        target = tmp_path / "existing"
        target.write_text("old\n" * 1000)
        flags = []
        real_open = os.open

        def spy(path, flag, *args, **kwargs):
            if os.fspath(path) == str(target):
                flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        assert run(capsys, *self.COMMANDS[command], "--output", str(target))[0] == 0
        assert len(flags) == 1
        assert not flags[0] & os.O_TRUNC

    @pytest.mark.parametrize("counted", [True, False], ids=["short-write", "lost-count"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_failed_write_leaves_no_old_bytes(self, capsys, tmp_path, monkeypatch, command,
                                              counted):
        # the first write stores half the text; with counted, it reports that
        # and the next write fails, otherwise it fails itself, uncounted
        argv = self.COMMANDS[command]
        expected = self.fresh(capsys, tmp_path, argv)
        target = tmp_path / "existing"
        target.write_bytes(b"#" * (3 * len(expected)))
        real_write = os.write
        calls = []

        def full_disk(fd, data):
            calls.append(len(data))
            if len(calls) == 1:
                stored = real_write(fd, bytes(data[:len(data) // 2]))
                if counted:
                    return stored
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "write", full_disk)
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert (code, out) == (4, "")
        assert "No space left on device" in err
        data = target.read_bytes()
        assert len(data) == (len(expected) // 2 if counted else 0)
        assert data == expected[:len(data)]


class TestVerify:
    def test_gap_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "gap")
        assert code == 0
        assert "passed: true" in out

    def test_gap_worst_violation_is_zero(self, capsys):
        # psi vanishes exactly at kappa = 1, and the report prints +0, not -0
        _, out, _ = run(capsys, "verify", "gap")
        assert "max_violation: 0\n" in out

    def test_failure_exit_1(self, capsys):
        # an absurd tolerance turns the suite into a failure, not an error
        code, out, _ = run(capsys, "verify", "gap", "--tolerance", "-1")
        assert code == 1
        assert "passed: false" in out

    @pytest.mark.parametrize("tolerance", ["nan", "inf"])
    def test_non_finite_tolerance_is_usage_error(self, capsys, tolerance):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "gap", "--tolerance", tolerance])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --tolerance: must be finite" in err

    @pytest.mark.parametrize("suite", ["epi-spot", "gap"])  # seeded and unseeded
    @pytest.mark.parametrize("seed", ["-1", "1.5", "seven"])
    def test_bad_seed_is_usage_error(self, capsys, suite, seed):
        with pytest.raises(SystemExit) as exc:
            main(["verify", suite, "--seed", seed])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --seed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, rule", [
        (["verify", "gap", "--seed", "1.5"], "argument --seed: must be an integer >= 0, got 1.5"),
        (["figure1", "--precision", "nan"],
         "argument --precision: must be an integer in [0, 17], got nan"),
        (["verify", "gap", "--tolerance", "abc"], "argument --tolerance: must be finite, got abc"),
    ], ids=["seed", "precision", "tolerance"])
    def test_unparsable_value_states_the_rule(self, capsys, argv, rule):
        # the rule, as for a parsable value outside it, not argparse's "invalid
        # _seed value", which names a private function
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert rule in err
        assert "invalid" not in err and "_" + argv[-2].lstrip("-") not in err

    def test_large_seed_accepted(self, capsys):
        code, out, _ = run(capsys, "verify", "corollary-map", "--seed", "99999999999999999999999")
        assert code == 0
        assert "seed: 99999999999999999999999\n" in out

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_report_fields(self, capsys):
        _, out, _ = run(capsys, "verify", "separation")
        assert "suite: separation" in out
        assert "checks_run:" in out
        assert "max_violation:" in out

    def test_epi_spot(self, capsys):
        code, out, _ = run(capsys, "verify", "epi-spot")
        assert code == 0
        assert "suite: epi-spot" in out
        assert "checks_run: 100" in out

    def test_moe_spot_is_a_choice(self):
        # parsed, not run: acceptance criterion 10 runs it
        assert build_parser().parse_args(["verify", "moe-spot"]).suite == "moe-spot"

    def test_jensen_holds_eta_symmetry_to_1e_12(self, capsys, monkeypatch):
        # offset every CMI with eta > 1/2 by 5e-11, within the 1e-10 tolerance
        monkeypatch.setattr(verify, "extension_family",
                            lambda kappa, E, eta: (extension_family(kappa, E, eta), eta))
        monkeypatch.setattr(verify, "gaussian_cmi", lambda tagged, *modes: (
            gaussian_cmi(tagged[0], *modes) + np.where(np.asarray(tagged[1]) > 0.5, 5e-11, 0.0)))
        code, out, _ = run(capsys, "verify", "jensen")
        assert code == 1
        assert "passed: false" in out

    def test_convexity_holds_psi_second_derivative_to_1e_12(self, capsys, monkeypatch):
        # psi'' lowered by 1e-9 is negative at its zeros on the grid
        second = entropics.psi_second_derivative
        monkeypatch.setattr(entropics, "psi_second_derivative",
                            lambda kappa, E, eta: second(kappa, E, eta) - 1e-9)
        code, out, _ = run(capsys, "verify", "convexity")
        assert code == 1
        assert "passed: false" in out

    def test_epi_chain_holds_cosh_identity_to_1e_12(self, capsys, monkeypatch):
        rhs = entropics.cond_epi_rhs
        monkeypatch.setattr(entropics, "cond_epi_rhs",
                            lambda kappa, s: (rhs(kappa, s)[0] + 1e-11, rhs(kappa, s)[1]))
        code, out, _ = run(capsys, "verify", "epi-chain")
        assert code == 1
        assert "passed: false" in out

    def test_oracle_holds_channel_entropies_to_1e_6(self, capsys, monkeypatch):
        entropy = fock.spectral_entropy
        monkeypatch.setattr(fock, "spectral_entropy", lambda state: entropy(state) + 2e-6)
        code, out, _ = run(capsys, "verify", "oracle")
        assert code == 1
        assert "passed: false" in out


class TestOracle:
    def test_cmi_trivial(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "cmi", "--kappa", "1", "--energy", "1", "--eta", "0.5",
            "--cutoff", "30",
        )
        assert code == 0
        values = dict(line.split(": ") for line in out.splitlines())
        assert abs(float(values["fock"])) < 1e-10
        assert abs(float(values["covariance"])) < 1e-10

    def test_cmi_reports_cutoff_and_lost_norm(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "cmi", "--kappa", "1.5", "--energy", "0.5", "--eta", "0.5",
            "--cutoff", "34",
        )
        assert code == 0
        values = dict(line.split(": ") for line in out.splitlines())
        assert values["cutoff"] == "34"
        assert 1e-10 < float(values["lost_norm"]) < 1e-7
        assert abs(float(values["difference"])) < 1e-5

    def test_cmi_builds_the_distributions_once(self, capsys, monkeypatch):
        # the README's example: both Fock numbers come from one pass, and print as
        # the public calls give them at 17 digits
        calls = []
        build = fock._oracle_distributions

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(fock, "_oracle_distributions", counting)
        code, out, _ = run(
            capsys, "oracle", "cmi", "--kappa", "1.5", "--energy", "0.5", "--eta", "0.5",
            "--cutoff", "34", "--precision", "17",
        )
        assert code == 0
        assert len(calls) == 1
        values = dict(line.split(": ") for line in out.splitlines())
        assert float(values["fock"]) == fock.oracle_cmi(1.5, 0.5, 0.5, 34)
        assert float(values["lost_norm"]) == fock.oracle_lost_norm(1.5, 0.5, 0.5, 34)

    def test_cmi_memory_refusal_exit_5(self, capsys):
        tracemalloc.start()
        try:
            code, _, err = run(
                capsys, "oracle", "cmi", "--kappa", "1.5", "--energy", "0.5", "--eta", "0.5",
                "--cutoff", "10000000",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 5
        assert "limit of 1024 MiB" in err
        assert peak < 2**20  # refused before the state is built

    def test_channel_amp(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "channel", "--kind", "amp", "--param", "2", "--energy", "1",
            "--cutoff", "80",
        )
        assert code == 0
        values = dict(line.split(": ") for line in out.splitlines())
        assert abs(float(values["difference"])) < 1e-6
        assert values["cutoff"] == "80"
        # the output is thermal with E = 3, so the cutoff loses exactly (3/4)^80
        assert float(values["tail_bound"]) == pytest.approx(0.75**80, rel=1e-9)

    def test_channel_memory_refusal_exit_5(self, capsys):
        tracemalloc.start()
        try:
            code, _, err = run(
                capsys, "oracle", "channel", "--kind", "amp", "--param", "2", "--energy", "1",
                "--cutoff", "100000",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 5
        assert "limit of 1024 MiB" in err
        assert peak < 2**20  # refused before the input state is built

    def test_channel_refused_before_the_input_is_built(self, capsys, monkeypatch):
        # 2992 is the least cutoff whose channel charge for one thermal state (band
        # K = 1) is over the limit; thermal_fock alone would take cutoffs up to 5792
        built = []
        monkeypatch.setattr(fock, "thermal_fock", lambda *args: built.append(args))
        code, out, err = run(
            capsys, "oracle", "channel", "--kind", "amp", "--param", "2", "--energy", "1",
            "--cutoff", "2992",
        )
        assert code == 5
        assert out == ""
        assert "cutoff 2992 needs 1025 MiB of working memory" in err
        assert built == []

    def test_pure_output_entropy_is_positive_zero(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "channel", "--kind", "amp", "--param", "1", "--energy", "0",
            "--cutoff", "2",
        )
        assert code == 0
        values = dict(line.split(": ") for line in out.splitlines())
        assert values["fock"] == "0"
        assert values["difference"] == "0"

    def test_identity_attenuator(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "channel", "--kind", "att", "--param", "1", "--energy", "1",
            "--cutoff", "40",
        )
        assert code == 0
        values = dict(line.split(": ") for line in out.splitlines())
        assert abs(float(values["difference"])) < 1e-10

    def test_cutoff_refusal_exit_5(self, capsys):
        code, _, err = run(
            capsys, "oracle", "channel", "--kind", "amp", "--param", "2", "--energy", "1",
            "--cutoff", "40",
        )
        assert code == 5
        assert "N >= 81" in err

    @pytest.mark.parametrize("kind, param", [("amp", "2"), ("att", "0.5")])
    def test_channel_truncated_input_exit_5(self, capsys, kind, param):
        # the cutoff holds only 4e-5 of the input's trace
        code, out, err = run(
            capsys, "oracle", "channel", "--kind", kind, "--param", param, "--energy", "1e6",
            "--cutoff", "40",
        )
        assert code == 5
        assert out == ""
        assert "the selection rule asks for N >= 23025863" in err

    @pytest.mark.parametrize("kind, param, energy, named", [
        ("amp", "1e308", "1", "kappa E + kappa - 1 overflows at kappa = 1e+308, E = 1"),
        ("amp", "2", "1e308", "kappa E + kappa - 1 overflows at kappa = 2, E = 1e+308"),
        ("comp", "1e308", "1", "(kappa - 1) (E + 1) overflows at kappa = 1e+308, E = 1"),
    ])
    def test_channel_overflow_exit_3_names_cause(self, capsys, kind, param, energy, named):
        code, out, err = run(
            capsys, "oracle", "channel", "--kind", kind, "--param", param, "--energy", energy,
            "--cutoff", "40",
        )
        assert code == 3
        assert out == ""
        assert named in err

    def test_cmi_huge_energy_cutoff_refusal_exit_5(self, capsys):
        # E/(E+1) rounds to 1 at this energy; the rule's cutoff is still named
        code, out, err = run(
            capsys, "oracle", "cmi", "--kappa", "2", "--energy", "1e20", "--eta", "0.5",
            "--cutoff", "10",
        )
        assert code == 5
        assert out == ""
        assert "the selection rule asks for N >= 34538776394910" in err

    def test_cmi_overflow_exit_3_names_cause(self, capsys):
        code, out, err = run(
            capsys, "oracle", "cmi", "--kappa", "2", "--energy", "1e308", "--eta", "0.5",
            "--cutoff", "10",
        )
        assert code == 3
        assert out == ""
        assert ("kappa (E + 1) - min(eta, 1 - eta) E - 1 overflows at kappa = 2, E = 1e+308,"
                " eta = 0.5") in err
