import csv
import io
import json

import numpy as np
import pytest
from click.testing import CliRunner

from bsz2d.cli import main


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


class TestErrors:
    def test_missing_weight_file(self, runner, tmp_path):
        res = runner.invoke(main, ["moments", "--weight", str(tmp_path / "absent.json")])
        assert res.exit_code == 2

    def test_unstable_weight_rejected(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"generic_h": [[1.0], [-2.0]]}))
        res = runner.invoke(main, ["moments", "--weight", str(path)])
        assert res.exit_code == 2
