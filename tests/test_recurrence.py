import inspect
import json
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import chebu_mul_reference

from bsz2d import cli, examples_suite, moment_oracle, recurrence
from bsz2d.examples_suite import run_regression
from bsz2d import lex_order, szego_core
from bsz2d.lex_order import build_lex_high, build_lex_high_recursion, lex_system
from bsz2d.moment_oracle import oracle_for
from bsz2d.ortho import LEX, REVLEX, TOTAL
from bsz2d.poly_core import CHEB_U, BivariatePoly
from bsz2d.recurrence import (
    lex_blocks,
    mixed_action_deviation,
    total_blocks,
    verify_lex_structure,
    verify_total_structure,
)
from bsz2d.total_order import build_total_vector, gram_deviation
from bsz2d.weights import chebyshev_spec, generic_spec, product_spec

SPEC1 = product_spec([-0.6])       # N_f = 1, N_h = 2
SPEC2 = product_spec([0.5, -0.3])  # N_f = 2, N_h = 4
SPEC_CUBIC = generic_spec([[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]])


class TestTotalBlocks:
    def test_shapes_and_residual(self):
        for n in range(4):
            blk = total_blocks(SPEC1, n)
            assert blk.ordering == TOTAL
            assert blk.a_x.shape == (n + 1, n + 2)
            assert blk.b_x.shape == (n + 1, n + 1)
            assert blk.residual < 1e-7

    def test_b_blocks_symmetric(self):
        blk = total_blocks(SPEC_CUBIC, 3)
        assert np.max(np.abs(blk.b_x - blk.b_x.T)) < 1e-8
        assert np.max(np.abs(blk.b_y - blk.b_y.T)) < 1e-8

    def test_a_blocks_full_rank(self):
        for n in range(1, 4):
            blk = total_blocks(SPEC2, n)
            assert np.linalg.matrix_rank(blk.a_x, tol=1e-8) == n + 1
            assert np.linalg.matrix_rank(blk.a_y, tol=1e-8) == n + 1

    def test_chebyshev_blocks_are_half_shifts(self):
        blk = total_blocks(chebyshev_spec(), 2)
        want_x = 0.5 * np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]])
        want_y = 0.5 * np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0.0]])
        assert np.max(np.abs(blk.a_x - want_x)) < 1e-9
        assert np.max(np.abs(blk.a_y - want_y)) < 1e-9
        assert np.max(np.abs(blk.b_x)) < 1e-9
        assert np.max(np.abs(blk.b_y)) < 1e-9

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            total_blocks(SPEC1, -1)


class TestLexBlocks:
    def test_b_symmetric_and_shape(self):
        blk = lex_blocks(SPEC2, 3, 3)
        assert blk.a.shape == (4, 4)
        assert np.max(np.abs(blk.b - blk.b.T)) < 1e-7

    def test_product_collapse(self):
        blk = lex_blocks(SPEC1, 3, 3)
        assert np.max(np.abs(blk.a - 0.5 * np.eye(4))) < 1e-8
        assert np.max(np.abs(blk.b)) < 1e-8

    def test_revlex_mirror_collapse(self):
        blk = lex_blocks(SPEC1, 3, 3, ordering=REVLEX)
        assert np.max(np.abs(blk.a - 0.5 * np.eye(4))) < 1e-8
        assert np.max(np.abs(blk.b)) < 1e-8

    def test_a_lower_triangular(self):
        blk = lex_blocks(SPEC2, 4, 4)
        assert np.max(np.abs(np.triu(blk.a, 1))) < 1e-8

    def test_guards(self):
        with pytest.raises(ValueError):
            lex_blocks(SPEC1, 0, 3)
        with pytest.raises(ValueError):
            lex_blocks(SPEC1, 3, 0, ordering=REVLEX)
        with pytest.raises(ValueError):
            lex_blocks(SPEC1, 2, 2, ordering="total")


X = BivariatePoly(CHEB_U, [[0.0], [0.5]])  # x = U_1(x) / 2
Y = BivariatePoly(CHEB_U, [[0.0, 0.5]])
EX2 = generic_spec([[1.0], [-0.4, -0.8], [0.16, 0.32], [-0.064]])  # (1 - 2bz)(1 - 2ayz + a^2 z^2), a = 0.4, b = 0.2


def _pairwise(spec, t, rows, cols) -> np.ndarray:
    """[<t p, q>] pair by pair: t p by polynomial multiplication, each inner
    product as the Chebyshev-U coefficients of t p q against the moment table."""
    m1 = oracle_for(spec).chebu_table(40)
    out = np.zeros((len(rows.entries), len(cols.entries)))
    for i, (_, p) in enumerate(rows.entries):
        tp = chebu_mul_reference(p.coeffs, t.coeffs)
        for j, (_, q) in enumerate(cols.entries):
            c = BivariatePoly(CHEB_U, chebu_mul_reference(tp, q.coeffs)).coeffs
            out[i, j] = np.sum(c * m1[: c.shape[0], : c.shape[1]])
    return out


class TestMatrixFormBlocks:
    @pytest.mark.parametrize("spec", [product_spec([-0.45]), EX2, product_spec([0.5, -0.3])], ids=["ex1", "ex2", "ex4"])
    def test_total_blocks_match_pairwise_products(self, spec):
        for n in range(9):
            blk = total_blocks(spec, n)
            p_n, p_up = build_total_vector(spec, n), build_total_vector(spec, n + 1)
            for got, t, cols in ((blk.a_x, X, p_up), (blk.b_x, X, p_n), (blk.a_y, Y, p_up), (blk.b_y, Y, p_n)):
                assert np.max(np.abs(got - _pairwise(spec, t, p_n, cols))) < 1e-13

    @pytest.mark.parametrize(
        "spec", [product_spec([0.5, -0.3]), SPEC_CUBIC, product_spec([0.9])], ids=["product", "generic", "a=0.9"]
    )
    @pytest.mark.parametrize("n, m", [(3, 3), (4, 5), (5, 2)])
    def test_lex_blocks_match_pairwise_products(self, spec, n, m):
        blk = lex_blocks(spec, n, m)
        hi = lex_system(spec, n, m, LEX).slice_first(n)
        lo = lex_system(spec, n - 1, m, LEX).slice_first(n - 1)
        assert np.max(np.abs(blk.a - _pairwise(spec, X, lo, hi))) < 1e-13
        assert np.max(np.abs(blk.b - _pairwise(spec, X, hi, hi))) < 1e-13
        blk = lex_blocks(spec, n, m, ordering=REVLEX)
        hi = lex_system(spec, n, m, REVLEX).slice_first(m)
        lo = lex_system(spec, n, m - 1, REVLEX).slice_first(m - 1)
        assert np.max(np.abs(blk.a - _pairwise(spec, Y, lo, hi))) < 1e-13
        assert np.max(np.abs(blk.b - _pairwise(spec, Y, hi, hi))) < 1e-13


class TestStructureReports:
    @pytest.mark.parametrize("spec", [SPEC1, SPEC2, SPEC_CUBIC])
    def test_total_structure_holds(self, spec):
        n0 = spec.n_h // 2
        for n in range(max(1, n0), n0 + 3):
            rep = verify_total_structure(spec, n)
            assert rep.ok, rep.violations
            assert rep.sizes["C_y"] == spec.n_h // 2

    def test_total_structure_range_guard(self):
        with pytest.raises(ValueError):
            verify_total_structure(SPEC2, 1)

    def test_total_structure_rejects_blocks_of_another_level(self):
        for blocks in (total_blocks(SPEC2, 2), lex_blocks(SPEC2, 3, 3)):
            with pytest.raises(ValueError, match="blocks are"):
                verify_total_structure(SPEC2, 3, blocks=blocks)

    def test_total_structure_reads_given_blocks(self):
        want = verify_total_structure(SPEC2, 3)
        got = verify_total_structure(SPEC2, 3, blocks=want.blocks)
        assert got.blocks is want.blocks
        assert (got.ok, got.sizes, got.violations, got.seam) == (want.ok, want.sizes, want.violations, want.seam)

    def test_seam_reported(self):
        rep = verify_total_structure(SPEC2, 3)
        assert isinstance(rep.seam, dict)

    def test_lex_structure_holds(self):
        for n in range(3, 6):
            rep = verify_lex_structure(SPEC2, n, 5)
            assert rep.ok, rep.violations
        rep = verify_lex_structure(SPEC1, 3, 3)
        assert rep.ok, rep.violations

    def test_lex_structure_guards(self):
        with pytest.raises(ValueError):
            verify_lex_structure(SPEC2, 1, 5)
        with pytest.raises(ValueError):
            verify_lex_structure(SPEC2, 4, 1)


class TestViolationsReportTheirDeviation:
    """A perturbed cell is reported as its deviation from the asserted pattern;
    a sign check reports the entry itself.  Level 3 of SPEC2: C_y is 2 x 2,
    D_y 1 x 1, C_x 3 x 3 and D_x 2 x 2."""

    MISS = 2e-8

    @staticmethod
    def _total(field, i, j, change):
        blocks = total_blocks(SPEC2, 3)
        mat = getattr(blocks, field).copy()
        mat[i, j] = change(mat[i, j])
        return verify_total_structure(SPEC2, 3, blocks=replace(blocks, **{field: mat})).violations

    @pytest.mark.parametrize(
        "field,i,j,name",
        [
            ("a_y", 2, 2, "A_y diag"),
            ("a_y", 0, 2, "A_y"),
            ("a_x", 3, 4, "A_x shift"),
            ("a_x", 0, 3, "A_x"),
            ("b_y", 3, 3, "B_y"),
            ("b_x", 3, 3, "B_x"),
        ],
    )
    def test_total_cell(self, field, i, j, name):
        (got,) = self._total(field, i, j, lambda v: v + self.MISS)
        assert got[:3] == (name, i, j) and abs(got[3] - self.MISS) < 1e-12

    @pytest.mark.parametrize("field,i,j,name", [("a_y", 0, 0, "C_y diag"), ("a_x", 0, 1, "A_x superdiag")])
    def test_total_sign(self, field, i, j, name):
        want = -float(getattr(total_blocks(SPEC2, 3), field)[i, j])
        assert want < 0.0
        assert self._total(field, i, j, lambda v: -v) == [(name, i, j, want)]

    @pytest.mark.parametrize("which,i,j,name", [("a", 1, 1, "A"), ("a", 0, 1, "A"), ("a", 4, 5, "C"), ("b", 0, 0, "B")])
    def test_lex_cell(self, monkeypatch, which, i, j, name):
        # at window (3, 5) kappa = 2: the first 4 rows and columns hold the half-identity and zero B
        blocks = lex_blocks(SPEC2, 3, 5)
        mat = getattr(blocks, which).copy()
        mat[i, j] += self.MISS
        monkeypatch.setattr(recurrence, "lex_blocks", lambda *args, **kwargs: replace(blocks, **{which: mat}))
        (got,) = verify_lex_structure(SPEC2, 3, 5).violations
        assert got[:3] == (name, i, j) and abs(got[3] - self.MISS) < 1e-12


class TestOracleOfAnotherSpec:
    """Every function that takes an oracle refuses one built for another spec,
    and leaves that oracle's caches as they were."""

    OWN = product_spec([-0.7, 0.3])
    CALLS = {
        "build_total_vector": lambda orc: build_total_vector(SPEC2, 3, orc),
        "gram_deviation": lambda orc: gram_deviation(SPEC2, build_total_vector(SPEC2, 2), orc),
        "total_blocks": lambda orc: total_blocks(SPEC2, 3, oracle=orc),
        "lex_blocks": lambda orc: lex_blocks(SPEC2, 3, 3, oracle=orc),
        "lex_system": lambda orc: lex_system(SPEC2, 3, 3, oracle=orc),
        "build_lex_high": lambda orc: build_lex_high(SPEC2, 4, 4, 4, orc),
        "build_lex_high_recursion": lambda orc: build_lex_high_recursion(SPEC2, 4, 4, 4, orc),
        "mixed_action_deviation": lambda orc: mixed_action_deviation(SPEC2, 2, orc),
        "verify_total_structure": lambda orc: verify_total_structure(SPEC2, 3, oracle=orc),
        "verify_lex_structure": lambda orc: verify_lex_structure(SPEC2, 3, 5, oracle=orc),
    }

    def test_refused_and_caches_untouched(self, monkeypatch):
        monkeypatch.setattr(moment_oracle, "_ORACLES", OrderedDict())
        orc = oracle_for(self.OWN)
        own = build_total_vector(self.OWN, 3, orc)
        state = (dict(orc._systems), orc._gram, orc._chebu_table, dict(orc._slices))
        for name, call in self.CALLS.items():
            with pytest.raises(ValueError, match="oracle is built for"):
                call(orc)
            assert (dict(orc._systems), orc._gram, orc._chebu_table, dict(orc._slices)) == state, name
        assert build_total_vector(self.OWN, 3) is own
        assert gram_deviation(self.OWN, own, orc) <= 1e-12
        assert total_blocks(self.OWN, 3, oracle=orc).residual <= recurrence.RESIDUAL_TOL


def test_check_thresholds_are_constants():
    # a parameter named tol is the quadrature tolerance: the check thresholds are module constants
    for fn in (
        total_blocks,
        lex_blocks,
        verify_total_structure,
        verify_lex_structure,
        lex_order.connection_reshape,
        lex_order.eliminate,
        lex_order.EliminationState.check_invariants,
        szego_core.complete_1d,
    ):
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__
    assert (recurrence.RESIDUAL_TOL, recurrence.STRUCTURE_TOL) == (1e-7, 1e-8)


class TestMixedAction:
    def test_expansions_agree(self):
        assert mixed_action_deviation(SPEC1, 2) < 1e-7
        assert mixed_action_deviation(SPEC2, 3) < 1e-7

    def test_guard(self):
        with pytest.raises(ValueError):
            mixed_action_deviation(SPEC1, 0)

    def test_explicit_oracle(self, monkeypatch):
        monkeypatch.setattr(moment_oracle, "_ORACLES", OrderedDict())
        spec = product_spec([0.45, -0.35])
        orc = oracle_for(spec, 1e-6)
        assert mixed_action_deviation(spec, 3, oracle=orc) < 1e-7
        assert [o.tol for o in moment_oracle._ORACLES.values()] == [1e-6]


class TestLevelsComputedOnce:
    """``verify`` and ``run_regression`` compute each total-degree level once and
    report exactly what recomputing the blocks inside every structure check does."""

    @staticmethod
    def _run(monkeypatch, command, recompute: bool):
        """The (name, passed, margin) of every check of ``command()`` on fresh oracles,
        and the levels ``total_blocks`` computed.  With ``recompute`` the structure
        checks ignore the blocks they are handed and compute their own."""
        levels = []
        real_blocks, real_verify = recurrence.total_blocks, recurrence.verify_total_structure

        def counting(spec, n, *args, **kwargs):
            levels.append(n)
            return real_blocks(spec, n, *args, **kwargs)

        def ignoring(*args, blocks=None, **kwargs):
            return real_verify(*args, **kwargs)

        with monkeypatch.context() as mp:
            mp.setattr(moment_oracle, "_ORACLES", OrderedDict())
            for module in (recurrence, cli, examples_suite):
                mp.setattr(module, "total_blocks", counting)
            if recompute:
                for module in (cli, examples_suite):
                    mp.setattr(module, "verify_total_structure", ignoring)
            checks = command()
        return [(c["name"], c["passed"], c["margin"]) for c in checks], levels

    @staticmethod
    def _verify(path):
        def command():
            res = CliRunner().invoke(cli.main, ["verify", "--weight", path, "--depth", "5"])
            assert res.exit_code == 0, res.output
            return json.loads(res.output)["checks"]

        return command

    @staticmethod
    def _example():
        return run_regression("ex2", 5, a=0.6, b=0.3).to_dict()["entries"]

    def test_verify(self, monkeypatch, tmp_path):
        path = tmp_path / "weight.json"
        path.write_text(json.dumps({"product": [0.5, -0.3]}))
        checks, levels = self._run(monkeypatch, self._verify(str(path)), recompute=False)
        assert sorted(levels) == sorted(set(levels)) == [1, 2, 3, 4]
        assert any(name.startswith("total structure") for name, _, _ in checks)
        assert checks == self._run(monkeypatch, self._verify(str(path)), recompute=True)[0]

    def test_example(self, monkeypatch):
        checks, levels = self._run(monkeypatch, self._example, recompute=False)
        assert sorted(levels) == sorted(set(levels)) == [0, 1, 2, 3, 4]
        assert any(name.startswith("total structure") for name, _, _ in checks)
        assert checks == self._run(monkeypatch, self._example, recompute=True)[0]
