import csv
import io
import json
import os
import subprocess
import sys
from collections import OrderedDict

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import CROSSING_ROWS

from bsz2d import moment_oracle, recurrence
from bsz2d.cli import main
from bsz2d.examples_suite import EXAMPLES
from bsz2d.weights import product_spec


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def product_weight(tmp_path):
    path = tmp_path / "weight.json"
    path.write_text(json.dumps({"product": [-0.6]}))
    return str(path)


@pytest.fixture()
def generic_weight(tmp_path):
    path = tmp_path / "generic.json"
    path.write_text(json.dumps({"generic_h": [[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]]}))
    return str(path)


class TestMoments:
    def test_csv_output(self, runner, product_weight):
        res = runner.invoke(main, ["moments", "--weight", product_weight, "--max-degree", "2"])
        assert res.exit_code == 0, res.output
        rows = list(csv.reader(io.StringIO(res.output)))
        assert rows[0] == ["i", "j", "moment"]
        table = {(int(r[0]), int(r[1])): float(r[2]) for r in rows[1:]}
        assert table[(0, 0)] == pytest.approx(1.0, abs=1e-9)
        assert len(table) == 9

    def test_deterministic(self, runner, product_weight):
        a = runner.invoke(main, ["moments", "--weight", product_weight, "--max-degree", "3"])
        b = runner.invoke(main, ["moments", "--weight", product_weight, "--max-degree", "3"])
        assert a.output == b.output

    def test_report_file(self, runner, product_weight, tmp_path):
        out = tmp_path / "moments.csv"
        res = runner.invoke(
            main, ["moments", "--weight", product_weight, "--max-degree", "1", "--report", str(out)]
        )
        assert res.exit_code == 0
        assert out.read_text().startswith("i,j,moment")


class TestSystems:
    def test_total_json(self, runner, product_weight):
        res = runner.invoke(main, ["total", "--weight", product_weight, "--n", "2"])
        assert res.exit_code == 0, res.output
        blob = json.loads(res.output)
        assert blob["ordering"] == "total"
        assert [e["index"] for e in blob["entries"]] == [[0, 2], [1, 1], [2, 0]]

    def test_lex_json(self, runner, generic_weight):
        res = runner.invoke(main, ["lex", "--weight", generic_weight, "--n", "2", "--m", "2"])
        assert res.exit_code == 0, res.output
        blob = json.loads(res.output)
        assert blob["ordering"] == "lex"
        assert len(blob["entries"]) == 9

    def test_revlex_flag(self, runner, product_weight):
        res = runner.invoke(main, ["lex", "--weight", product_weight, "--n", "2", "--m", "2", "--revlex"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["ordering"] == "revlex"


class TestRecurrence:
    def test_total_csv_and_verdict(self, runner, product_weight, tmp_path):
        verdict_path = tmp_path / "verdict.json"
        res = runner.invoke(
            main,
            ["recurrence", "--weight", product_weight, "--ordering", "total", "--n", "2",
             "--report", str(verdict_path)],
        )
        assert res.exit_code == 0, res.output
        assert res.output.startswith("A_x")
        verdict = json.loads(verdict_path.read_text())
        assert verdict["ok"] is True

    def test_lex_collapse_matrix(self, runner, product_weight):
        res = runner.invoke(
            main, ["recurrence", "--weight", product_weight, "--ordering", "lex", "--n", "3", "--m", "3"]
        )
        assert res.exit_code == 0, res.output
        rows = list(csv.reader(io.StringIO(res.output)))
        a_start = rows.index(["A"]) + 1
        A = np.array([[float(v) for v in rows[a_start + i]] for i in range(4)])
        assert np.max(np.abs(A - 0.5 * np.eye(4))) < 1e-8

    def test_lex_windows_built_once(self, runner, product_weight, monkeypatch):
        from bsz2d import recurrence

        windows = []
        real = recurrence.lex_system

        def counting(spec, n, m, *args, **kwargs):
            windows.append((n, m))
            return real(spec, n, m, *args, **kwargs)

        monkeypatch.setattr(recurrence, "lex_system", counting)
        res = runner.invoke(
            main, ["recurrence", "--weight", product_weight, "--ordering", "lex", "--n", "3", "--m", "3"]
        )
        assert res.exit_code == 0, res.output
        # one window: the (2, 3) one is its leading block, and the structure check's blocks are the ones printed
        assert windows == [(3, 3)]

    def test_lex_requires_m(self, runner, product_weight):
        res = runner.invoke(main, ["recurrence", "--weight", product_weight, "--ordering", "lex", "--n", "3"])
        assert res.exit_code == 2


class TestExampleAndVerify:
    def test_example_pass(self, runner):
        res = runner.invoke(main, ["example", "--id", "ex1", "--a", "0.3", "--depth", "3"])
        assert res.exit_code == 0, res.output
        blob = json.loads(res.output)
        assert blob["ok"] is True
        assert blob["params"] == {"a": 0.3}

    def test_example_depth_zero(self, runner):
        res = runner.invoke(main, ["example", "--id", "ex2", "--a", "0.3", "--b", "0.1", "--depth", "0"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["ok"] is True

    def test_example_missing_params(self, runner):
        res = runner.invoke(main, ["example", "--id", "ex2", "--a", "0.3"])
        assert res.exit_code == 2

    def test_verify(self, runner, product_weight, tmp_path):
        out = tmp_path / "verify.json"
        res = runner.invoke(
            main, ["verify", "--weight", product_weight, "--depth", "3", "--report", str(out)]
        )
        assert res.exit_code == 0, res.output
        blob = json.loads(out.read_text())
        assert blob["ok"] is True
        assert blob["checks"]

    def test_verify_reports_the_library_thresholds(self, runner, product_weight, monkeypatch):
        # the residual and structure gates are the recurrence module's constants, read at call time
        monkeypatch.setattr(recurrence, "RESIDUAL_TOL", 2e-7)
        monkeypatch.setattr(recurrence, "STRUCTURE_TOL", 3e-8)
        res = runner.invoke(main, ["verify", "--weight", product_weight, "--depth", "3"])
        assert res.exit_code == 0, res.output
        checks = json.loads(res.output)["checks"]
        tols = {c["name"].split(" n=")[0]: c["tol"] for c in checks}
        assert tols["three-term residual"] == 2e-7 and tols["total structure"] == 3e-8


class TestTolerance:
    @staticmethod
    def _assert_one_oracle_at(spec, tol):
        assert [o.tol for o in moment_oracle._ORACLES.values() if o.spec == spec] == [tol]

    @pytest.mark.parametrize(
        "args",
        [
            ["recurrence", "--ordering", "total", "--n", "2"],
            ["recurrence", "--ordering", "lex", "--n", "3", "--m", "3"],
            ["lex", "--n", "3", "--m", "3"],
            ["verify", "--depth", "3"],
            ["moments", "--max-degree", "3"],
        ],
        ids=["recurrence-total", "recurrence-lex", "lex", "verify", "moments"],
    )
    def test_tol_reaches_the_library(self, runner, product_weight, monkeypatch, args):
        monkeypatch.setattr(moment_oracle, "_ORACLES", OrderedDict())
        res = runner.invoke(main, ["--tol", "1e-6", args[0], "--weight", product_weight, *args[1:]])
        assert res.exit_code == 0, res.output
        self._assert_one_oracle_at(product_spec([-0.6]), 1e-6)

    def test_tol_reaches_example(self, runner, monkeypatch):
        monkeypatch.setattr(moment_oracle, "_ORACLES", OrderedDict())
        res = runner.invoke(main, ["--tol", "1e-6", "example", "--id", "ex1", "--a", "0.3", "--depth", "3"])
        assert res.exit_code == 0, res.output
        self._assert_one_oracle_at(EXAMPLES["ex1"](a=0.3), 1e-6)

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("command", [["moments", "--max-degree", "2"], ["verify", "--depth", "2"]], ids=["moments", "verify"])
    def test_tol_not_finite_and_positive_is_rejected(self, runner, product_weight, monkeypatch, tol, command):
        # inf would accept the first rung's table; nan, 0 and -1 would climb to the resolution cap
        monkeypatch.setattr(moment_oracle, "_ORACLES", OrderedDict())
        res = runner.invoke(main, ["--tol", tol, command[0], "--weight", product_weight, *command[1:]])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)  # a message, not a traceback
        assert res.output.startswith("Error: --tol must be finite and positive") and res.output.count("\n") == 1
        assert not moment_oracle._ORACLES


class TestErrors:
    def test_missing_weight_file(self, runner, tmp_path):
        res = runner.invoke(main, ["moments", "--weight", str(tmp_path / "absent.json")])
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "rows,command,y",
        [([[1.0], [-2.0]], ["moments"], "0"), (CROSSING_ROWS, ["verify", "--depth", "2"], "-0.3")],
        ids=["root-inside", "crossing-between-samples"],
    )
    def test_unstable_weight_rejected(self, runner, tmp_path, rows, command, y):
        # the second weight passes the sampled scan; its oracle would climb to MAX_RESOLUTION and exit 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"generic_h": rows}))
        res = runner.invoke(main, [command[0], "--weight", str(path), *command[1:]])
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)  # a usage message, not a traceback
        lines = [line for line in res.output.splitlines() if "not stable" in line]
        assert len(lines) == 1 and f"at y = {y}" in lines[0], res.output

    @pytest.mark.parametrize(
        "args",
        [
            ["total", "--weight", "{scalar}", "--n", "2"],
            ["total", "--weight", "{weight}", "--n", "-1"],
            ["recurrence", "--weight", "{weight}", "--n", "-1"],
            ["moments", "--weight", "{weight}", "--max-degree", "-1"],
            ["moments", "--weight", "{weight}", "--max-degree", "20000"],
            ["lex", "--weight", "{weight}", "--n", "-1", "--m", "2"],
            ["verify", "--weight", "{weight}", "--depth", "-1"],
            ["recurrence", "--weight", "{weight}", "--ordering", "lex", "--n", "0", "--m", "2"],
            ["example", "--id", "ex1", "--a", "0.3", "--depth", "9"],
            ["example", "--id", "ex1", "--a", "1.5"],
        ],
        ids=["scalar-product", "total-n", "recurrence-n", "moments-degree", "moments-degree-cap", "lex-n",
             "verify-depth", "lex-recurrence-n0", "example-depth", "example-a"],
    )
    def test_bad_input_is_a_usage_error(self, runner, product_weight, tmp_path, args):
        scalar = tmp_path / "scalar.json"
        scalar.write_text(json.dumps({"product": 0.5}))
        args = [a.format(weight=product_weight, scalar=scalar) for a in args]
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)  # a usage message, not a traceback
        assert "Error" in res.output


@pytest.mark.parametrize(
    "args",
    [
        ["lex", "--n", "150", "--m", "150"],
        ["lex", "--n", "150", "--m", "150", "--revlex"],
        ["recurrence", "--ordering", "lex", "--n", "150", "--m", "150"],
        ["total", "--n", "150"],
    ],
    ids=["lex", "revlex", "lex-recurrence", "total"],
)
def test_size_cap_is_a_usage_error(runner, product_weight, monkeypatch, args):
    # nothing may build a grid, a linearization table or a quadrature before the cap is checked
    from bsz2d import lex_order, total_order

    def fail(*a, **k):
        raise AssertionError("work started before the size cap")

    for mod, name in [(lex_order, "qk_grid"), (total_order, "qk_grid"), (moment_oracle, "_lin")]:
        monkeypatch.setattr(mod, name, fail)
    monkeypatch.setattr(moment_oracle.MomentOracle, "_table_at", fail)
    res = runner.invoke(main, [args[0], "--weight", product_weight, *args[1:]])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # a usage message, not a traceback
    assert "MAX_BLOCK_BYTES" in res.output


def _console(args: list[str], env: dict, limit: int | None = None) -> subprocess.CompletedProcess:
    """``bsz2d *args`` in a new process, under an address-space limit if one is given."""
    script = (
        "import resource, sys\n"
        "from bsz2d.cli import main\n"
        "if int(sys.argv[1]):\n"
        "    resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]),) * 2)\n"
        "main(sys.argv[2:], prog_name='bsz2d')\n"
    )
    src = os.path.dirname(os.path.dirname(moment_oracle.__file__))
    env = dict(os.environ, **env, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, "-c", script, str(limit or 0), *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize(
    "args",
    [
        ["lex", "--n", "20000", "--m", "20000"],
        ["lex", "--n", "20000", "--m", "20000", "--revlex"],
        ["recurrence", "--ordering", "lex", "--n", "20000", "--m", "20000"],
        ["total", "--n", "20000"],
    ],
    ids=["lex", "revlex", "lex-recurrence", "total"],
)
def test_huge_window_is_a_usage_error_under_a_memory_limit(product_weight, args):
    # 20001^2 slots take tens of GB as a list; the cap must come before it, not a MemoryError after
    res = _console([args[0], "--weight", product_weight, *args[1:]], {}, limit=2**30)
    assert res.returncode == 2, res.stderr
    assert "MAX_BLOCK_BYTES" in res.stderr and "Traceback" not in res.stderr


def test_second_process_prints_the_same_moments(tmp_path):
    # moment tables live in memory only: each process recomputes [0.975] (R = 2048) with the
    # same bits, and a BSZ2D_CACHE_DIR that older versions wrote tables to stays empty
    weight = tmp_path / "near.json"
    weight.write_text(json.dumps({"product": [0.975]}))
    cache = tmp_path / "cache"
    cache.mkdir()
    args = ["moments", "--weight", str(weight), "--max-degree", "4"]
    first = _console(args, {})
    again = _console(args, {"BSZ2D_CACHE_DIR": str(cache)})
    assert first.returncode == again.returncode == 0, first.stderr + again.stderr
    assert len(first.stdout.splitlines()) == 26
    assert again.stdout == first.stdout
    assert list(cache.iterdir()) == []


def test_stability_certificate_over_the_budget_is_a_usage_error(runner, tmp_path, monkeypatch):
    # N_h = 20 with h_1 of degree 1: a resultant of y-degree 40 needs 41 Sylvester matrices
    # of 40^2 doubles, 513 KiB
    from bsz2d import weights

    monkeypatch.setattr(weights, "MAX_BLOCK_BYTES", 2**18)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"generic_h": [[1.0], [0.0, 0.1]] + [[0.0]] * 18 + [[0.5]]}))
    res = runner.invoke(main, ["moments", "--weight", str(path), "--max-degree", "2"])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # a usage message, not a traceback
    assert "MAX_BLOCK_BYTES" in res.output


def test_stability_certified_once_per_command(runner, generic_weight, monkeypatch):
    # the loader and the oracle both read the spec's cached report, so the resultant
    # certificate runs once; the cleared oracle cache makes the command build its oracle
    from bsz2d import weights

    monkeypatch.setattr(moment_oracle, "_ORACLES", OrderedDict())
    calls = []
    real = weights._crossing_test

    def counting(H):
        calls.append(H.shape)
        return real(H)

    monkeypatch.setattr(weights, "_crossing_test", counting)
    res = runner.invoke(main, ["lex", "--weight", generic_weight, "--n", "2", "--m", "2"])
    assert res.exit_code == 0, res.output
    assert len(calls) == 1


@pytest.mark.parametrize(
    "args,error",
    [
        (["--tol", "1e-20", "moments", "--weight", "{weight}", "--max-degree", "2"], "AccuracyError"),
        (["total", "--weight", "{generic}", "--n", "3"], "OracleUnreliableError"),
    ],
    ids=["no-convergence", "ill-conditioned"],
)
def test_numerical_failure_exits_3(runner, product_weight, generic_weight, monkeypatch, args, error):
    # a tolerance below float64 rounding never converges; a condition cap of 1 rejects every Gram matrix
    monkeypatch.setattr(moment_oracle, "_ORACLES", OrderedDict())
    monkeypatch.setattr(moment_oracle, "COND_CAP", 1.0)
    res = runner.invoke(main, [a.format(weight=product_weight, generic=generic_weight) for a in args])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)  # a message, not a traceback
    assert res.output.startswith(f"Error: {error}: ") and res.output.count("\n") == 1, res.output


def test_loose_tol_residual_is_one_line_exit_1(tmp_path):
    # at --tol 1e-4 the [0.975, 0.5] blocks miss the three-term residual gate: a failed
    # check of the construction, reported as one line, not a traceback
    weight = tmp_path / "near.json"
    weight.write_text(json.dumps({"product": [0.975, 0.5]}))
    res = _console(["--tol", "1e-4", "verify", "--weight", str(weight), "--depth", "4"], {})
    assert res.returncode == 1, res.stderr
    assert res.stderr.startswith("Error: ConstructionInconsistencyError: three-term residual ")
    assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr


def test_anomalous_high_band_solution_exits_3(runner, product_weight, monkeypatch):
    # _closed_grid does not catch it, so it leaves lex_system; the window reaches the high band
    from bsz2d import lex_order

    def anomalous(grids, r, k, m):
        raise lex_order.AnomalousSolutionError(f"leading combination weight a_0 ~ 0 at ({r}, {k}, {m})")

    monkeypatch.setattr(moment_oracle, "_ORACLES", OrderedDict())
    monkeypatch.setattr(lex_order, "_null_vector", anomalous)
    res = runner.invoke(main, ["lex", "--weight", product_weight, "--n", "3", "--m", "3"])
    assert res.exit_code == 3, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("Error: AnomalousSolutionError: ") and res.output.count("\n") == 1, res.output
