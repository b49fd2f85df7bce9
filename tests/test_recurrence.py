import inspect
import json
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import add_reference, chebu_mul_reference, scale_reference

from bsz2d import cli, examples_suite, moment_oracle, recurrence
from bsz2d.examples_suite import run_regression
from bsz2d import lex_order, szego_core
from bsz2d.lex_order import build_lex_high, build_lex_high_recursion, lex_system
from bsz2d.moment_oracle import MomentOracle, oracle_for
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

    @pytest.mark.parametrize("spec", [SPEC2, product_spec([0.4, 0.3, -0.5]), SPEC_CUBIC], ids=["ex4", "N_f=3", "generic"])
    def test_residual_unmoved_by_the_wrapped_sums(self, spec, monkeypatch):
        # the residual is the independent check of the blocks: with the sums and
        # scalings built through the constructor it reads the same value; one
        # oracle, so both runs read the same vectors
        orc = MomentOracle(spec)
        new = [total_blocks(spec, n, oracle=orc).residual for n in range(1, 11)]
        monkeypatch.setattr(BivariatePoly, "__add__", add_reference)
        monkeypatch.setattr(BivariatePoly, "scale", scale_reference)
        assert [total_blocks(spec, n, oracle=orc).residual for n in range(1, 11)] == new


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

    def test_worst_is_the_largest_recorded_value(self):
        rep = verify_total_structure(SPEC2, 3)
        assert rep.ok and rep.worst == 0.0
        bad = [("A_y", 0, 2, 2e-8), ("C_y diag", 0, 0, -3e-8), ("B_x sym", -1, -1, 1e-8)]
        rep = replace(rep, ok=False, violations=bad)
        assert rep.worst == 3e-8
        # a NaN is the worst value wherever it is listed
        for bad in ([("A_y", 0, 2, np.nan), ("B_x", 3, 0, 2e-8)], [("A_y", 0, 2, 2e-8), ("B_x", 3, 0, np.nan)]):
            assert np.isnan(replace(rep, violations=bad).worst)

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

    @staticmethod
    def _lex(monkeypatch, changes, n=3, m=5):
        """Violations of the lex window (n, m) of SPEC2 with each (block, i, j, change) applied."""
        blocks = lex_blocks(SPEC2, n, m)
        mats = {"a": blocks.a.copy(), "b": blocks.b.copy()}
        for which, i, j, change in changes:
            mats[which][i, j] = change(mats[which][i, j])
        monkeypatch.setattr(recurrence, "lex_blocks", lambda *args, **kwargs: replace(blocks, **mats))
        return verify_lex_structure(SPEC2, n, m).violations

    @pytest.mark.parametrize("which,i,j,name", [("a", 1, 1, "A"), ("a", 0, 1, "A"), ("a", 4, 5, "C"), ("b", 0, 0, "B")])
    def test_lex_cell(self, monkeypatch, which, i, j, name):
        # at window (3, 5) kappa = 2: the first 4 rows and columns hold the half-identity and zero B
        (got,) = self._lex(monkeypatch, [(which, i, j, lambda v: v + self.MISS)])
        assert got[:3] == (name, i, j) and abs(got[3] - self.MISS) < 1e-12

    @pytest.mark.parametrize(
        "field,i,j,name,at",
        [
            ("a_y", 0, 2, "A_y", (0, 2)),
            ("a_y", 2, 2, "A_y diag", (2, 2)),
            ("a_y", 0, 0, "C_y diag", (0, 0)),
            ("a_x", 0, 1, "A_x superdiag", (0, 1)),
            ("b_x", 0, 1, "B_x sym", (-1, -1)),  # inside D_x, so only the symmetry check sees it
            ("b_y", 0, 0, "B_y sym", (-1, -1)),
        ],
    )
    def test_total_nan_is_a_violation(self, field, i, j, name, at):
        got = self._total(field, i, j, lambda v: np.nan)
        assert [v[:3] for v in got if np.isnan(v[3])] == [(name, *at)]

    @pytest.mark.parametrize(
        "which,i,j,name,window",
        [
            ("a", 1, 1, "A", (3, 5)),
            ("a", 4, 5, "C", (3, 5)),
            ("b", 0, 0, "B", (3, 5)),
            ("a", 4, 4, "C diag", (3, 5)),
            # past 2 N_f = 4 the collapse checks run; these cells lie in C and D, which no cell check reads
            ("a", 5, 4, "A collapse", (5, 5)),
            ("b", 5, 5, "B collapse", (5, 5)),
        ],
    )
    def test_lex_nan_is_a_violation(self, monkeypatch, which, i, j, name, window):
        got = self._lex(monkeypatch, [(which, i, j, lambda v: np.nan)], *window)
        at = (-1, -1) if name.endswith("collapse") else (i, j)
        assert [v[:3] for v in got if np.isnan(v[3])] == [(name, *at)]

    def test_all_nan_blocks_fail(self):
        blocks = total_blocks(SPEC2, 3)
        nan = {f: np.full_like(getattr(blocks, f), np.nan) for f in ("a_x", "b_x", "a_y", "b_y")}
        rep = verify_total_structure(SPEC2, 3, blocks=replace(blocks, **nan))
        assert not rep.ok and all(np.isnan(v[3]) for v in rep.violations)

    def test_violations_are_listed_check_by_check_and_row_major(self, monkeypatch):
        blocks = total_blocks(SPEC2, 3)
        mats = {f: getattr(blocks, f).copy() for f in ("a_x", "b_x", "a_y", "b_y")}
        # applied in an order unlike the report's
        for field, i, j in [("b_x", 3, 0), ("a_x", 3, 4), ("a_y", 3, 1), ("a_x", 0, 3), ("a_y", 0, 2)]:
            mats[field][i, j] += self.MISS
        mats["a_y"][0, 0] *= -1.0
        got = verify_total_structure(SPEC2, 3, blocks=replace(blocks, **mats)).violations
        assert [v[:3] for v in got] == [
            ("A_y", 0, 2), ("A_y", 3, 1), ("A_x", 0, 3), ("A_x shift", 3, 4), ("B_x", 3, 0),
            ("C_y diag", 0, 0), ("B_x sym", -1, -1),
        ]
        got = self._lex(monkeypatch, [("b", 0, 0, lambda v: v + self.MISS), ("a", 4, 5, lambda v: v + self.MISS),
                                      ("a", 1, 1, lambda v: v + self.MISS), ("a", 0, 1, lambda v: v + self.MISS)],
                        5, 5)
        assert [v[:3] for v in got] == [
            ("A", 0, 1), ("A", 1, 1), ("C", 4, 5), ("B", 0, 0), ("A collapse", -1, -1), ("B collapse", -1, -1),
        ]


def _loop_total(a_x, b_x, a_y, b_y, c_y, c_x, d_y, d_x):
    """The total-degree pattern checks cell by cell: (violations, seam)."""
    tol, bad, seam = recurrence.STRUCTURE_TOL, [], {}
    rows, cols = a_x.shape
    for i in range(rows):
        for j in range(cols):
            zero_y = j > i or (i >= c_y and j < i)
            zero_x = j > i + 1 or (i >= c_x and j <= i)
            checks = [("A_y", a_y, 0.0, zero_y), ("A_y diag", a_y, 0.5, i >= c_y and j == i),
                      ("A_x", a_x, 0.0, zero_x), ("A_x shift", a_x, 0.5, i >= c_x and j == i + 1)]
            if j < rows:
                checks += [("B_y", b_y, 0.0, i >= d_y or j >= d_y), ("B_x", b_x, 0.0, i >= d_x or j >= d_x)]
            bad += [(name, i, j, float(m[i, j] - w)) for name, m, w, on in checks if on and abs(m[i, j] - w) > tol]
            if i < c_x and j <= i + 1 and (j == c_x or i == c_x - 1):
                seam[(i, j)] = float(a_x[i, j])
        bad += [("C_y diag", i, i, float(a_y[i, i]))] if i < c_y and a_y[i, i] <= 0.0 else []
        bad += [("A_x superdiag", i, i + 1, float(a_x[i, i + 1]))] if a_x[i, i + 1] <= 0.0 else []
    for name, m in (("B_x sym", b_x), ("B_y sym", b_y)):
        dev = max(abs(m[i, j] - m[j, i]) for i in range(rows) for j in range(rows))
        bad += [(name, -1, -1, float(dev))] if dev > tol else []
    return bad, seam


def _loop_lex(a, b, cut, collapse):
    """The lex pattern checks cell by cell."""
    tol, bad, size = recurrence.STRUCTURE_TOL, [], len(a)
    for i in range(size):
        for j in range(size):
            edge = i < cut or j < cut
            want = 0.5 if edge and i == j else 0.0
            checks = [("A", a, want, edge), ("C", a, 0.0, not edge and j > i), ("B", b, 0.0, edge)]
            bad += [(name, i, j, float(m[i, j] - w)) for name, m, w, on in checks if on and abs(m[i, j] - w) > tol]
        bad += [("C diag", i, i, float(a[i, i]))] if i >= cut and a[i, i] <= 0.0 else []
    if collapse:
        dev_a = max(abs(a[i, j] - (0.5 if i == j else 0.0)) for i in range(size) for j in range(size))
        dev_b = max(abs(v) for v in b.ravel())
        bad += [(name, -1, -1, float(d)) for name, d in (("A collapse", dev_a), ("B collapse", dev_b)) if d > tol]
    return bad


class TestMaskedChecksMatchTheLoops:
    """On finite perturbations the masked checks give the cell-by-cell verdict:
    the same violations, bit for bit, and the same seam."""

    @staticmethod
    def _perturbed(mats):
        """Each cell moved by 2e-8 and, apart, negated; then 20 seeded
        changes of up to four cells each."""
        for key, mat in mats.items():
            for (i, j), v in np.ndenumerate(mat):
                for new in (v + 2e-8, -v):
                    changed = mat.copy()
                    changed[i, j] = new
                    yield {**mats, key: changed}
        rng = np.random.default_rng(11)
        for _ in range(20):
            out = {k: v.copy() for k, v in mats.items()}
            for _ in range(rng.integers(1, 5)):
                m = out[list(out)[rng.integers(len(out))]]
                i, j = rng.integers(m.shape[0]), rng.integers(m.shape[1])
                m[i, j] = [m[i, j] + rng.choice([-2e-8, 2e-8]), m[i, j] + rng.normal(), 0.0, 0.5][rng.integers(4)]
            yield out

    @pytest.mark.parametrize("spec", [SPEC1, SPEC2, SPEC_CUBIC], ids=["f1", "f2", "generic"])
    def test_total(self, spec):
        c_y = spec.n_h // 2
        sizes = (c_y, c_y + 1, max(0, (spec.n_h - 1) // 2), (spec.n_h + 1) // 2)
        for n in (c_y, c_y + 1):
            blocks = total_blocks(spec, n)
            for mats in self._perturbed({f: getattr(blocks, f) for f in ("a_x", "b_x", "a_y", "b_y")}):
                rep = verify_total_structure(spec, n, blocks=replace(blocks, **mats))
                bad, seam = _loop_total(mats["a_x"], mats["b_x"], mats["a_y"], mats["b_y"], *sizes)
                assert sorted(rep.violations) == sorted(bad) and rep.ok == (not bad)
                assert list(rep.seam.items()) == list(seam.items())

    @pytest.mark.parametrize(
        "spec, window", [(SPEC1, (3, 3)), (SPEC2, (3, 5)), (SPEC2, (5, 5))], ids=["f1-3x3", "f2-3x5", "f2-5x5"]
    )
    def test_lex(self, monkeypatch, spec, window):
        n, m = window
        blocks = lex_blocks(spec, n, m)
        for mats in self._perturbed({"a": blocks.a, "b": blocks.b}):
            monkeypatch.setattr(recurrence, "lex_blocks", lambda *args, **kwargs: replace(blocks, **mats))
            rep = verify_lex_structure(spec, n, m)
            bad = _loop_lex(mats["a"], mats["b"], m - spec.kappa + 1, min(n, m) > 2 * spec.n_f)
            assert sorted(rep.violations) == sorted(bad) and rep.ok == (not bad)


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


class TestStructureErrorsPropagate:
    """A ValueError raised inside the structure check reaches the caller of
    ``verify`` and ``run_regression``; neither swallows it as "out of range"."""

    @staticmethod
    def _raising(*args, **kwargs):
        raise ValueError("injected structure failure")

    def test_verify(self, monkeypatch, tmp_path):
        path = tmp_path / "weight.json"
        path.write_text(json.dumps({"product": [0.5, -0.3]}))
        monkeypatch.setattr(cli, "verify_total_structure", self._raising)
        res = CliRunner().invoke(cli.main, ["verify", "--weight", str(path), "--depth", "5"])
        assert res.exit_code != 0 and isinstance(res.exception, ValueError), res.output
        assert str(res.exception) == "injected structure failure"

    def test_example(self, monkeypatch):
        monkeypatch.setattr(examples_suite, "verify_total_structure", self._raising)
        with pytest.raises(ValueError, match="injected structure failure"):
            run_regression("ex2", 5, a=0.6, b=0.3)


class TestStructureVerdictIsTheReports:
    """A structure row of ``verify`` and ``run_regression`` passes exactly when the
    structure report is ok, and its margin is the report's ``worst``.  A C_y diagonal
    entry of -1e-10 fails the sign check, though its magnitude is below STRUCTURE_TOL."""

    @staticmethod
    def _negative_c_y(monkeypatch):
        real = recurrence.total_blocks

        def patched(*args, **kwargs):
            blocks = real(*args, **kwargs)
            a_y = blocks.a_y.copy()
            a_y[0, 0] = -1e-10
            return replace(blocks, a_y=a_y)

        monkeypatch.setattr(moment_oracle, "_ORACLES", OrderedDict())
        for module in (cli, examples_suite):
            monkeypatch.setattr(module, "total_blocks", patched)

    def test_verify(self, monkeypatch, tmp_path):
        path = tmp_path / "weight.json"
        path.write_text(json.dumps({"product": [0.5, -0.3]}))
        self._negative_c_y(monkeypatch)
        res = CliRunner().invoke(cli.main, ["verify", "--weight", str(path), "--depth", "4"])
        assert res.exit_code == 1, res.output
        blob = json.loads(res.output)
        rows = [c for c in blob["checks"] if c["name"].startswith("total structure")]
        assert [c["name"] for c in rows] == ["total structure n=2", "total structure n=3"]
        assert all(c["passed"] is False and c["margin"] == 1e-10 for c in rows) and blob["ok"] is False

    def test_example(self, monkeypatch):
        self._negative_c_y(monkeypatch)
        rep = run_regression("ex4", 4, a1=0.5, a2=-0.3)
        rows = [e for e in rep.entries if e.name.startswith("total structure")]
        # depth 4 computes levels 0..3 up front; the level-4 check computes its own, unpatched blocks
        assert [e.passed for e in rows] == [False, False, True]
        assert rows[0].margin == 1e-10 and not rep.ok
