import math
import os
import random
import sys
import threading
import tracemalloc
from collections import OrderedDict
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from bsz2d import moment_oracle
from bsz2d.moment_oracle import (
    MAX_DEGREE,
    AccuracyError,
    MomentOracle,
    OracleUnreliableError,
    ResourceLimitError,
    oracle_for,
)
from bsz2d.ortho import LEX, REVLEX, TOTAL, index_sequence
from bsz2d.poly_core import CHEB_U, MONOMIAL, BivariatePoly, mul
from bsz2d.weights import PRODUCT_OMEGA, InvalidWeightError, chebyshev_spec, generic_spec, is_stable, product_spec


class TestChebyshevBaseline:
    """Product Chebyshev measure: everything is known exactly."""

    def test_chebu_table_is_kronecker(self):
        orc = oracle_for(chebyshev_spec())
        m1 = orc.chebu_table(5)
        want = np.zeros((6, 6))
        want[0, 0] = 1.0
        assert np.max(np.abs(m1 - want)) < 1e-10

    def test_monomial_moments(self):
        orc = oracle_for(chebyshev_spec())
        assert orc.moment(0, 0) == pytest.approx(1.0, abs=1e-10)
        assert orc.moment(1, 0) == pytest.approx(0.0, abs=1e-10)
        assert orc.moment(2, 0) == pytest.approx(0.25, abs=1e-10)
        assert orc.moment(2, 2) == pytest.approx(1 / 16, abs=1e-10)

    def test_univariate_slice(self):
        orc = oracle_for(chebyshev_spec())
        for y in (-0.5, 0.0, 0.7):
            assert orc.univariate_moment(0, y) == pytest.approx(math.pi / 2, rel=1e-10)
            assert orc.univariate_moment(2, y) == pytest.approx(math.pi / 8, rel=1e-10)
        assert orc.slice_inner([0.0, 1.0], [0.0, 1.0], 0.3) == pytest.approx(math.pi / 2, rel=1e-10)

    def test_slice_inner_matches_pointwise_product(self):
        # U_2 * (1 + U_1) = U_1 + U_2 + U_3, whose slice integral is the sum
        orc = oracle_for(product_spec([-0.6]))
        got = orc.slice_inner([0.0, 0.0, 1.0], [1.0, 1.0], 0.4)
        want = float(np.sum(orc.univariate_chebu_moments(3, 0.4)[1:]))
        assert got == pytest.approx(want, rel=1e-12)

    def test_gram_is_identity(self):
        orc = oracle_for(chebyshev_spec())
        idx = [(i, j) for i in range(3) for j in range(3)]
        assert np.max(np.abs(orc.gram(idx) - np.eye(9))) < 1e-10


class TestGeneralOracle:
    def test_moment_cross_checks_chebu_table(self):
        # x = U_1(x)/2, so the monomial and Chebyshev quadrature paths must agree
        orc = oracle_for(product_spec([-0.6]))
        m1 = orc.chebu_table(1)
        assert orc.moment(1, 1) == pytest.approx(m1[1, 1] / 4, abs=1e-9)
        assert orc.moment(1, 0) == pytest.approx(m1[1, 0] / 2, abs=1e-9)

    def test_inner_matches_moment(self):
        orc = oracle_for(product_spec([-0.6]))
        x = BivariatePoly(CHEB_U, [[0.0], [0.5]])
        y = BivariatePoly(CHEB_U, [[0.0, 0.5]])
        assert orc.inner(x, y) == pytest.approx(orc.moment(1, 1), abs=1e-10)
        one = BivariatePoly(CHEB_U, [[1.0]])
        assert orc.norm(one) == pytest.approx(1.0, abs=1e-10)

    def test_invalid_arguments(self):
        orc = oracle_for(product_spec([0.3]))
        with pytest.raises(ValueError):
            orc.moment(-1, 0)
        with pytest.raises(ValueError):
            orc.univariate_moment(0, 1.5)

    @pytest.mark.parametrize(
        "call",
        [
            lambda o: o.chebu_table(-1),
            lambda o: o.moment_table(-1),
            lambda o: o.univariate_chebu_moments(-1, 0.2),
            lambda o: o.univariate_moment(-1, 0.2),
            lambda o: o.univariate_chebu_moments(2, math.nan),
            lambda o: o.univariate_moment(0, math.nan),
        ],
        ids=["table", "moment-table", "slice-chebu", "slice-moment", "slice-chebu-nan-y", "slice-moment-nan-y"],
    )
    def test_negative_degree_or_nan_y_raises_value_error(self, call):
        # the cap keeps a NaN y from climbing a long ladder if it slipped past the guard;
        # the match rules out numpy's own ValueError for an empty reduction
        with pytest.raises(ValueError, match="nonnegative"):
            call(MomentOracle(product_spec([0.3]), max_resolution=256))

    def test_normalized_zero_polynomial_raises(self):
        # a fresh oracle has no Gram block yet; the zero grid still needs a 1 x 1 one
        with pytest.raises(ValueError, match="cannot normalize the zero polynomial"):
            MomentOracle(product_spec([0.3])).normalized(BivariatePoly.zero(CHEB_U), (0, 0))

    def test_normalized_leading_sign(self):
        orc = oracle_for(product_spec([0.3]))
        p = BivariatePoly(CHEB_U, [[0.0, 0.0], [0.1, -2.0]])
        unit, nrm = orc.normalized(p, (1, 1))
        assert nrm == pytest.approx(orc.norm(p))
        assert unit.coeffs[1, 1] > 0
        assert orc.norm(unit) == pytest.approx(1.0, abs=1e-9)


def test_gram_sums_the_moment_table():
    orc = oracle_for(product_spec([0.5, -0.3]))
    idx = [(0, 0), (2, 1), (0, 3), (1, 1), (3, 0)]
    m1 = orc.chebu_table(6)
    want = np.array(
        [
            [
                sum(m1[s, t] for s in range(abs(i1 - i2), i1 + i2 + 1, 2) for t in range(abs(j1 - j2), j1 + j2 + 1, 2))
                for i2, j2 in idx
            ]
            for i1, j1 in idx
        ]
    )
    G = orc.gram(idx)
    assert np.max(np.abs(G - want)) < 1e-14


class TestGramSchmidt:
    def test_orthonormality(self):
        orc = oracle_for(product_spec([0.5, -0.3]))
        system = orc.gram_schmidt(TOTAL, 4)
        polys = [p for _, p in system.entries]
        G = np.array([[orc.inner(p, q) for q in polys] for p in polys])
        assert np.max(np.abs(G - np.eye(len(polys)))) < 1e-8

    def test_ordering_and_leading(self):
        orc = oracle_for(product_spec([-0.4]))
        system = orc.gram_schmidt(LEX, 2, 2)
        assert system.indices() == [(i, j) for i in range(3) for j in range(3)]
        for (i, j), p in system.entries:
            assert p.coeffs[i, j] > 0

    def test_cached_and_deterministic(self):
        orc = oracle_for(product_spec([0.25]))
        s1 = orc.gram_schmidt(TOTAL, 3)
        s2 = orc.gram_schmidt(TOTAL, 3)
        assert s1 is s2
        fresh = MomentOracle(product_spec([0.25])).gram_schmidt(TOTAL, 3)
        for (k1, p1), (k2, p2) in zip(s1.entries, fresh.entries):
            assert k1 == k2 and np.max(np.abs((p1 - p2).coeffs), initial=0.0) <= 1e-9

    def test_norms_recorded(self):
        orc = oracle_for(product_spec([0.25]))
        system = orc.gram_schmidt(TOTAL, 2)
        assert len(system.norms) == len(system.entries)
        assert all(v > 0 for v in system.norms)

    @staticmethod
    def _exact_reference(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """What reorthogonalized modified Gram-Schmidt approximates in the G
        inner product, computed at 40 digits: G = L L^T, row k of C = L^{-1}
        is the k-th orthonormal vector and L[k, k] the norm divided out.
        Rounded to floats, the reference is exact, so the bound below
        measures the system's own round-off only."""
        n = len(G)
        with mpmath.workdps(40):
            L = [[mpmath.mpf(0)] * n for _ in range(n)]
            for j in range(n):
                L[j][j] = mpmath.sqrt(mpmath.mpf(float(G[j, j])) - mpmath.fdot(L[j][:j], L[j][:j]))
                for i in range(j + 1, n):
                    L[i][j] = (mpmath.mpf(float(G[i, j])) - mpmath.fdot(L[i][:j], L[j][:j])) / L[j][j]
            C = [[mpmath.mpf(0)] * n for _ in range(n)]
            for i in range(n):
                C[i][i] = 1 / L[i][i]
                for j in range(i):
                    C[i][j] = -mpmath.fdot(L[i][j:i], [C[k][j] for k in range(j, i)]) / L[i][i]
            return np.array([[float(v) for v in row] for row in C]), np.array([float(L[k][k]) for k in range(n)])

    @pytest.mark.parametrize("window", [(TOTAL, 12, None), (LEX, 8, 8), (REVLEX, 6, 8)], ids=str)
    @pytest.mark.parametrize(
        "spec",
        [product_spec([0.5, -0.3]), generic_spec([[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]]), product_spec([0.9])],
        ids=["product", "generic", "a=0.9"],
    )
    def test_matches_reorthogonalized_mgs(self, spec, window):
        orc = oracle_for(spec)
        system = orc.gram_schmidt(*window)
        idx = index_sequence(*window)
        C, norms = self._exact_reference(orc.gram(idx))
        ii, jj = np.array(idx).T
        assert system.indices() == idx
        for k, (_, p) in enumerate(system.entries):
            grid = np.zeros((ii.max() + 1, jj.max() + 1))
            grid[: p.coeffs.shape[0], : p.coeffs.shape[1]] = p.coeffs
            assert np.max(np.abs(grid[ii, jj] - C[k])) < 1e-13
            assert np.count_nonzero(grid) == np.count_nonzero(grid[ii, jj])  # nothing off the basis
        assert np.max(np.abs(np.array(system.norms) - norms)) < 1e-13

    def test_condition_cap_raises(self, monkeypatch):
        monkeypatch.setattr(moment_oracle, "COND_CAP", 1.0)
        with pytest.raises(OracleUnreliableError):
            MomentOracle(product_spec([0.5])).gram_schmidt(TOTAL, 3)

    def test_indefinite_gram_raises(self, monkeypatch):
        # well conditioned but not positive definite, so the Cholesky factorization fails
        orc = MomentOracle(product_spec([0.5]))
        monkeypatch.setattr(orc, "gram", lambda idx: np.diag([1.0, -1.0] + [1.0] * (len(idx) - 2)))
        assert np.linalg.cond(orc.gram(index_sequence(TOTAL, 3))) < moment_oracle.COND_CAP
        with pytest.raises(OracleUnreliableError, match="not positive definite"):
            orc.gram_schmidt(TOTAL, 3)

    def test_negative_bound_raises(self):
        with pytest.raises(ValueError, match="must be nonnegative"):
            oracle_for(product_spec([0.5])).gram_schmidt(TOTAL, -1)
        with pytest.raises(ValueError, match="must be nonnegative"):
            index_sequence(LEX, 2, -1)

    @pytest.mark.parametrize("window", [(TOTAL, 12), (LEX, 8, 8), (REVLEX, 6, 8)], ids=["total", "lex", "revlex"])
    def test_leading_coefficient_positive(self, window):
        # C[k, k] = 1 / norm > 0 by construction, so no sign fix is applied
        system = oracle_for(product_spec([0.5, -0.3])).gram_schmidt(*window)
        for (i, j), p in system.entries:
            assert p.coeffs[i, j] > 0.0


class TestDegreeCap:
    """A degree above MAX_DEGREE raises before any table or sine matrix exists."""

    def test_table_requests_over_the_cap(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a table was computed")

        monkeypatch.setattr(MomentOracle, "_table_at", fail)
        orc = MomentOracle(product_spec([0.3]))
        calls = [
            lambda: orc.chebu_table(MAX_DEGREE + 1),
            lambda: orc.moment_table(20000),
            lambda: orc.moment(0, MAX_DEGREE + 1),
            lambda: orc.gram_block(MAX_DEGREE // 2 + 2),  # needs degree 2 s - 2 = MAX_DEGREE + 1
        ]
        for call in calls:
            with pytest.raises(ResourceLimitError, match="MAX_DEGREE"):
                call()

    def test_slice_requests_over_the_cap(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a sine matrix was built")

        monkeypatch.setattr(moment_oracle, "_sine_rows", fail)
        orc = MomentOracle(product_spec([0.3]))
        calls = [lambda: orc.univariate_chebu_moments(MAX_DEGREE + 1, 0.2), lambda: orc.univariate_moment(20000, 0.2)]
        for call in calls:
            with pytest.raises(ResourceLimitError, match="MAX_DEGREE"):
                call()

    def test_is_a_value_error(self):
        assert issubclass(ResourceLimitError, ValueError)

    def test_cap_is_the_byte_budget(self):
        # each table row is a row of sine values and one of weighted sums, a double
        # of each per interior node at MAX_RESOLUTION
        row_bytes = 16 * (moment_oracle.MAX_RESOLUTION // 2)
        assert (MAX_DEGREE + 1) * row_bytes <= moment_oracle.MAX_BLOCK_BYTES
        assert (MAX_DEGREE + 2) * row_bytes > moment_oracle.MAX_BLOCK_BYTES
        assert MAX_DEGREE == 1023


def _fail(*args, **kwargs):
    raise AssertionError("a block was allocated")


class TestBlockCap:
    """A Gram block or coefficient stack above MAX_BLOCK_BYTES raises before it exists."""

    SPEC = product_spec([0.5, -0.3])

    def test_gram_block_over_the_cap(self, monkeypatch):
        s = 65  # 65^4 doubles are 143 MB; degree 2 s - 2 = 128 is under MAX_DEGREE
        assert 8 * s**4 > moment_oracle.MAX_BLOCK_BYTES >= 8 * (s - 1) ** 4
        monkeypatch.setattr(moment_oracle, "_lin", _fail)
        monkeypatch.setattr(MomentOracle, "_table_at", _fail)
        orc = MomentOracle(self.SPEC)
        calls = [
            lambda: orc.gram_block(s),
            lambda: orc.gram([(0, 0), (s - 1, 0)]),
            lambda: orc.coefficient_inner(np.ones((1, s, 1))),
        ]
        for call in calls:
            with pytest.raises(ResourceLimitError, match="MAX_BLOCK_BYTES"):
                call()

    def test_normalize_stack_over_the_cap(self, monkeypatch):
        grid = np.ones((60, 1))  # 5000 grids padded to 60 x 60 are 144 MB; the dict holds one array
        monkeypatch.setattr(moment_oracle, "_padded", _fail)
        monkeypatch.setattr(moment_oracle, "_lin", _fail)
        with pytest.raises(ResourceLimitError, match="5000 60 x 60 coefficient grids"):
            MomentOracle(self.SPEC).normalize({(i, 0): grid for i in range(5000)})

    def test_assemble_over_the_cap(self, monkeypatch):
        monkeypatch.setattr(moment_oracle, "_lin", _fail)
        monkeypatch.setattr(MomentOracle, "_table_at", _fail)
        slots = index_sequence(LEX, 150, 150)
        with pytest.raises(ResourceLimitError, match="MAX_BLOCK_BYTES"):
            MomentOracle(self.SPEC).assemble(LEX, slots, {}, 150, 150)

    def test_lex_window_over_the_cap(self, monkeypatch):
        from bsz2d import lex_order

        monkeypatch.setattr(lex_order, "qk_grid", _fail)
        monkeypatch.setattr(lex_order, "_closed_grid", _fail)
        for ordering in (LEX, REVLEX):
            with pytest.raises(ResourceLimitError, match="MAX_BLOCK_BYTES"):
                lex_order.lex_system(self.SPEC, 150, 150, ordering, MomentOracle(self.SPEC))

    @pytest.mark.parametrize("n", [28, 40])
    def test_large_windows_still_run(self, n):
        from bsz2d.lex_order import lex_system

        orc = MomentOracle(self.SPEC)
        system = lex_system(self.SPEC, n, n, oracle=orc)
        assert system.coeffs.shape == ((n + 1) ** 2, n + 3, n + 3)
        assert len(orc.gram_block(1)) == n + 3


def test_inner_matrix_matches_pairwise_inner():
    orc = oracle_for(product_spec([0.5, -0.3]))
    polys = [p for _, p in orc.gram_schmidt(LEX, 3, 4).entries]
    polys += [BivariatePoly(MONOMIAL, [[0.5, 1.0], [0.0, -2.0]]), BivariatePoly.zero(CHEB_U)]
    want = np.array([[orc.inner(p, q) for q in polys] for p in polys])
    assert np.max(np.abs(orc.inner_matrix(polys) - want)) < 1e-14


def _mul_inner(orc: MomentOracle, f: BivariatePoly, g: BivariatePoly) -> float:
    """<f, g> by its definition: the Chebyshev-U coefficients of f g summed
    against the moment table."""
    prod = mul(f.to_basis(CHEB_U), g.to_basis(CHEB_U))
    if prod.is_zero:
        return 0.0
    c = prod.coeffs
    return float(np.sum(c * orc.chebu_table(max(c.shape) - 1)[: c.shape[0], : c.shape[1]]))


class TestGramBlock:
    @pytest.mark.parametrize(
        "spec",
        [product_spec([0.5, -0.3]), generic_spec([[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]]), product_spec([0.9])],
        ids=["product", "generic", "a=0.9"],
    )
    def test_inner_products_match_the_product_definition(self, spec):
        orc = MomentOracle(spec)
        rng = np.random.default_rng(11)
        polys = [BivariatePoly(CHEB_U, rng.standard_normal(shape)) for shape in [(5, 3), (2, 6), (1, 4), (7, 1)]]
        polys += [BivariatePoly(MONOMIAL, [[0.5, 1.0], [0.0, -2.0]]), BivariatePoly.zero(CHEB_U)]
        polys += [p for _, p in orc.gram_schmidt(LEX, 3, 4).entries]
        want = np.array([[_mul_inner(orc, p, q) for q in polys] for p in polys])
        norms = np.sqrt(np.diag(want))
        scale = np.maximum(np.outer(norms, norms), 1e-300)  # rel to |p| |q|: most pairs are orthogonal
        got = np.array([[orc.inner(p, q) for q in polys] for p in polys])
        assert np.max(np.abs(got - want) / scale) < 1e-13
        assert np.max(np.abs(orc.inner_matrix(polys) - want) / scale) < 1e-13
        assert np.max(np.abs(orc.inner_matrix(polys[:4], polys[4:]) - want[:4, 4:]) / scale[:4, 4:]) < 1e-13
        got_norms = np.array([orc.norm(p) for p in polys])
        assert np.max(np.abs(got_norms - norms) / np.maximum(norms, 1e-300)) < 1e-13
        assert orc.inner(polys[5], polys[0]) == 0.0

    def test_block_is_read_only_and_grows_to_the_requested_size(self):
        orc = MomentOracle(product_spec([0.5, -0.3]))
        G = orc.gram_block(3)
        assert G.shape == (3, 3, 3, 3)
        assert not G.flags.writeable
        with pytest.raises(ValueError):
            G[0, 0, 0, 0] = 1.0
        assert orc.gram_block(2) is G  # a smaller request reads the block it has
        assert orc.gram_block(5).shape == (5, 5, 5, 5)
        orc.inner(BivariatePoly(CHEB_U, np.ones((7, 2))), BivariatePoly(CHEB_U, np.ones((1, 3))))
        assert orc.gram_block(1).shape == (7, 7, 7, 7)
        orc.gram([(0, 0), (8, 1)])
        assert orc.gram_block(1).shape == (9, 9, 9, 9)
        m1 = orc.chebu_table(16)
        assert orc.gram_block(9)[2, 1, 3, 0] == pytest.approx(sum(m1[s, 1] for s in (1, 3, 5)), abs=1e-15)


class TestGramHistory:
    """A contraction over the Gram block runs over its operands' own slot
    square, so the same call gives the same bits on a fresh oracle and on one
    whose block an earlier, larger request grew from the same moment table
    rows.  A request that regrows the table itself can still move G's
    entries in the last bits; that is not checked here."""

    @staticmethod
    def _warm(spec) -> MomentOracle:
        orc = MomentOracle(spec)
        orc.gram_block(12)
        return orc

    @pytest.mark.parametrize("a", [[0.45], [0.5, -0.3], [0.4, 0.3, -0.5]])
    def test_total_blocks(self, a):
        from bsz2d.recurrence import total_blocks

        spec = product_spec(a)
        for n in range(1, 7):
            fresh, warm = (total_blocks(spec, n, oracle=orc) for orc in (MomentOracle(spec), self._warm(spec)))
            for name in ("a_x", "b_x", "a_y", "b_y"):
                assert getattr(fresh, name).tobytes() == getattr(warm, name).tobytes(), (n, name)

    @pytest.mark.parametrize("a", [[0.45], [0.6]])
    def test_coefficient_inner_and_normalize(self, a):
        spec = product_spec(a)
        rng = np.random.default_rng(4)
        C = rng.standard_normal((5, 4, 3))
        D = rng.standard_normal((2, 2, 5))
        grids = {(i, j): rng.standard_normal((i + 1, j + 1)) for i in range(7) for j in range(6)}
        for make in (lambda orc: orc.coefficient_inner(C), lambda orc: orc.coefficient_inner(C, D)):
            assert make(MomentOracle(spec)).tobytes() == make(self._warm(spec)).tobytes()
        (u1, n1), (u2, n2) = (orc.normalize(grids) for orc in (MomentOracle(spec), self._warm(spec)))
        assert n1.tobytes() == n2.tobytes() and u1.tobytes() == u2.tobytes()


def test_doubly_hankel_structure():
    idx = [(0, 0), (1, 0), (0, 1), (1, 1)]
    ii, jj = np.array(idx).T
    # the moment matrix over monomials x^i y^j, read from the table by exponent sums
    M = oracle_for(product_spec([-0.5])).moment_table(2)[ii[:, None] + ii[None, :], jj[:, None] + jj[None, :]]
    assert M == pytest.approx(M.T)
    # entries depend only on the exponent sums
    assert M[1, 2] == pytest.approx(M[3, 0])  # both are moment(1, 1)
    assert M[1, 3] == pytest.approx(M[3, 1])  # both are moment(2, 1)
    assert M[2, 3] == pytest.approx(M[3, 2])  # both are moment(1, 2)


def _record(path) -> np.ndarray:
    """A table spill as its flat float64 record: magic, rows, mass, err and
    resolution, then the table."""
    return np.fromfile(path, "<f8")


def _spilled_table(path) -> np.ndarray:
    rec = _record(path)
    rows = int(rec[1])
    return rec[5:].reshape(rows, rows)


class TestSpill:
    def test_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BSZ2D_CACHE_DIR", str(tmp_path))
        spec = product_spec([0.93])  # stops at R = 512
        first = MomentOracle(spec)
        table = first.chebu_table(6).copy()
        assert first._chebu_resolution == 512
        files = list(tmp_path.iterdir())
        assert len(files) == 1 and files[0].suffix == ".f64"
        assert files[0].stat().st_size == 8 * (5 + 16 * 16)
        # a reloading oracle capped below the converged resolution can only
        # succeed by reading the spill
        second = MomentOracle(spec, max_resolution=first._chebu_resolution // 2)
        assert np.array_equal(second.chebu_table(6), table)
        assert second.mass == first.mass
        assert (second._chebu_err, second._chebu_resolution) == (first._chebu_err, first._chebu_resolution)

    def test_table_accepted_at_256_is_not_spilled(self, tmp_path, monkeypatch):
        # recomputing such a table costs less than writing its file
        monkeypatch.setenv("BSZ2D_CACHE_DIR", str(tmp_path))
        spec = product_spec([0.55])
        first = MomentOracle(spec)
        table = first.chebu_table(6).copy()
        assert first._chebu_resolution == 256
        assert list(tmp_path.iterdir()) == []
        second = MomentOracle(spec)
        assert second._chebu_table is None
        assert np.array_equal(second.chebu_table(6), table)
        assert (second.mass, second._chebu_err, second._chebu_resolution) == (
            first.mass,
            first._chebu_err,
            first._chebu_resolution,
        )

    def test_table_accepted_at_1024_is_spilled_and_adopted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BSZ2D_CACHE_DIR", str(tmp_path))
        MomentOracle(product_spec([0.55])).chebu_table(6)  # stops at R = 256: no file
        spec = product_spec([0.96])
        first = MomentOracle(spec)
        table = first.chebu_table(6).copy()
        assert first._chebu_resolution == 1024
        (path,) = tmp_path.iterdir()
        assert path.name == f"{spec.fingerprint}.f64"
        reopened = MomentOracle(spec)
        monkeypatch.setattr(reopened, "_ladder", None)  # any new quadrature would fail
        assert np.array_equal(reopened.chebu_table(6), table)
        assert (reopened.mass, reopened._chebu_err, reopened._chebu_resolution) == (
            first.mass,
            first._chebu_err,
            first._chebu_resolution,
        )

    def test_looser_spill_is_recomputed(self, tmp_path, monkeypatch):
        spec = product_spec([0.975])
        monkeypatch.delenv("BSZ2D_CACHE_DIR", raising=False)
        fresh = MomentOracle(spec)
        want = fresh.chebu_table(4).copy()
        monkeypatch.setenv("BSZ2D_CACHE_DIR", str(tmp_path))
        MomentOracle(spec, tol=1e-3).chebu_table(4)
        (path,) = tmp_path.iterdir()
        assert _record(path)[3] > 1e-11  # the spilled error estimate is looser than the reopening tol
        reopened = MomentOracle(spec, tol=1e-11)
        assert reopened._chebu_table is None  # the spill was not adopted
        assert np.array_equal(reopened.chebu_table(4), want)  # what a fresh oracle computes
        assert (reopened._chebu_err, reopened._chebu_resolution) == (fresh._chebu_err, fresh._chebu_resolution)

    def test_spill_with_an_increment_estimate_is_adopted(self, tmp_path, monkeypatch):
        # earlier versions wrote the same record, with the last doubling increment as the
        # error estimate, from a ladder that stopped later: [0.975] at R = 4096
        monkeypatch.setenv("BSZ2D_CACHE_DIR", str(tmp_path))
        spec = product_spec([0.975])
        raw = MomentOracle(spec)._table_at(15, 4096)
        table = raw / raw[0, 0]
        head = [moment_oracle._SPILL_MAGIC, 16, raw[0, 0], 5.811690917270181e-16, 4096]
        np.concatenate([head, table.ravel()]).astype("<f8").tofile(tmp_path / f"{spec.fingerprint}.f64")
        reopened = MomentOracle(spec)
        monkeypatch.setattr(reopened, "_table_at", None)  # any new quadrature would fail
        assert np.array_equal(reopened.chebu_table(12), table[:13, :13])
        assert (reopened.mass, reopened._chebu_err, reopened._chebu_resolution) == (raw[0, 0], 5.811690917270181e-16, 4096)

    def test_no_spill_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BSZ2D_CACHE_DIR", raising=False)
        MomentOracle(product_spec([0.15])).chebu_table(2)
        assert list(tmp_path.iterdir()) == []

    def test_only_a_write_creates_the_directory(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        monkeypatch.setenv("BSZ2D_CACHE_DIR", str(root))
        orc = MomentOracle(product_spec([0.93]))  # looks for a spill
        assert not root.exists()
        orc.chebu_table(2)
        assert [p.suffix for p in root.iterdir()] == [".f64"]

    def _spill(self, tmp_path, monkeypatch, spec):
        monkeypatch.setenv("BSZ2D_CACHE_DIR", str(tmp_path))
        MomentOracle(spec).moment(1, 1)  # fills and spills the chebU table
        (path,) = tmp_path.iterdir()
        return path, _record(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda r: r[:4],  # the header ends before err
            lambda r: np.concatenate([r[:1], [1.0], r[2:]]),  # rows 1 against a 16 x 16 body
            lambda r: r[: -int(r[1])],  # one row of the square short
            lambda r: np.concatenate([r[:1], [15.5], r[2:]]),
            lambda r: np.concatenate([r[:1], [0.0], r[2:5]]),
            lambda r: np.concatenate([[1.0], r[1:]]),
            lambda r: np.where(np.arange(len(r)) == 5 + 17 * 3, np.nan, r),
            lambda r: np.where(np.arange(len(r)) == 2, np.inf, r),
        ],
        ids=["no-err", "chebu-1d", "chebu-not-square", "rows-fraction", "rows-zero", "magic", "chebu-nan", "mass-inf"],
    )
    def test_malformed_spill_is_recomputed(self, tmp_path, monkeypatch, corrupt):
        spec = product_spec([0.93])
        path, rec = self._spill(tmp_path, monkeypatch, spec)
        want = _spilled_table(path)[:5, :5].copy()
        corrupt(rec).astype("<f8").tofile(path)
        reopened = MomentOracle(spec)
        assert reopened._chebu_table is None  # the spill was not adopted
        assert np.max(np.abs(reopened.chebu_table(4) - want)) < 1e-14

    def test_old_npz_spill_is_ignored(self, tmp_path, monkeypatch):
        # the .npz format of older versions is never read: its table is recomputed and spilled anew
        monkeypatch.setenv("BSZ2D_CACHE_DIR", str(tmp_path))
        spec = product_spec([0.93])
        old = tmp_path / f"{spec.fingerprint}.npz"
        np.savez(old, chebu=np.eye(16), mass=1.0, chebu_err=0.0, chebu_resolution=256)
        reopened = MomentOracle(spec)
        assert reopened._chebu_table is None
        want = MomentOracle(spec, tol=reopened.tol).chebu_table(4).copy()
        assert np.array_equal(reopened.chebu_table(4), want)
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".f64", ".npz"]

    def test_truncated_spill_is_recomputed(self, tmp_path, monkeypatch):
        spec = product_spec([0.93])
        path, _ = self._spill(tmp_path, monkeypatch, spec)
        whole = path.read_bytes()
        for keep in (100, 8 * 40, 0):  # inside a float, on a float boundary, empty
            path.write_bytes(whole[:keep])
            assert MomentOracle(spec)._chebu_table is None

    def test_failed_write_keeps_the_old_spill(self, tmp_path, monkeypatch):
        spec = product_spec([0.93])
        path, rec = self._spill(tmp_path, monkeypatch, spec)
        real = os.fdopen

        class Partial:
            """A file that takes 100 bytes of a write and then fails."""

            def __init__(self, fd, mode):
                self.f = real(fd, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:100])
                raise OSError("disk full")

        monkeypatch.setattr(os, "fdopen", Partial)
        with pytest.raises(OSError, match="disk full"):
            MomentOracle(spec).chebu_table(70)  # beyond the spilled 16-row table: computes and saves
        assert list(tmp_path.iterdir()) == [path]  # no temp file left behind
        assert np.array_equal(_record(path), rec)


class TestTableSize:
    SPEC = product_spec([0.93])  # stops at R = 512 for 16 to 64 rows: every table is spilled

    def test_rows_grow_to_the_next_power_of_two(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BSZ2D_CACHE_DIR", str(tmp_path))
        orc = MomentOracle(self.SPEC)
        prev = None
        for smax, rows in [(12, 16), (16, 32), (63, 64)]:
            assert orc.chebu_table(smax).shape == (smax + 1, smax + 1)
            table = orc._chebu_table
            assert table.shape == (rows, rows)
            if prev is not None:  # the regrown table extends the previous one
                assert np.max(np.abs(table[: len(prev), : len(prev)] - prev)) < orc.tol
            (path,) = tmp_path.iterdir()
            assert np.array_equal(_spilled_table(path), table)  # every growth rewrites the spill
            prev = table.copy()

    def test_reopened_oracle_serves_the_16_row_spill(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BSZ2D_CACHE_DIR", str(tmp_path))
        want = MomentOracle(self.SPEC).chebu_table(12).copy()
        reopened = MomentOracle(self.SPEC)
        assert reopened._chebu_table.shape == (16, 16)
        monkeypatch.setattr(reopened, "_table_at", None)  # any new quadrature would fail
        assert np.array_equal(reopened.chebu_table(12), want)


class TestTolContract:
    SPEC = product_spec([0.9])

    def test_tighter_tol_raises(self):
        orc = MomentOracle(self.SPEC, tol=1e-6)
        with pytest.raises(ValueError, match=r"oracle_for\(spec, tol\)"):
            orc.moment_with_error(2, 2, tol=1e-13)
        with pytest.raises(ValueError):
            orc.moment(1, 0, tol=1e-7)

    def test_looser_tol_is_served_from_the_table(self, monkeypatch):
        orc = MomentOracle(self.SPEC)
        want = orc.moment_with_error(2, 2)
        assert want[1] == orc._chebu_err < 1e-11
        monkeypatch.setattr(orc, "_table_at", None)  # any new quadrature would fail
        assert orc.moment_with_error(2, 2, tol=1e-3) == want
        assert orc.moment(3, 1, tol=1e-6) == orc.moment_table(3)[3, 1]

    def test_nearby_tol_gets_its_own_oracle(self, monkeypatch):
        # both tols print as 1.000e-11; each request gets an oracle at its own exact tol
        monkeypatch.setattr(moment_oracle, "_ORACLES", OrderedDict())
        loose = oracle_for(self.SPEC, 1.0004e-11)
        tight = oracle_for(self.SPEC, 1e-11)
        assert tight is not loose and tight.tol == 1e-11
        assert oracle_for(self.SPEC, 1.0004e-11) is loose

    def test_module_helper_builds_the_oracle_at_its_tol(self, monkeypatch):
        monkeypatch.setattr(moment_oracle, "_ORACLES", OrderedDict())
        moment_oracle.moment(self.SPEC, 2, 2, tol=1e-13)
        assert [o.tol for o in moment_oracle._ORACLES.values()] == [1e-13]


def _cos_matrix(imax: int, theta: np.ndarray) -> np.ndarray:
    """Rows i = 0..imax of cos^i(theta) sin^2(theta)."""
    return np.cos(theta)[None, :] ** np.arange(imax + 1)[:, None] * np.sin(theta)[None, :] ** 2


def _trapezoid_moments(spec, k: int) -> np.ndarray:
    """integral of x^i y^j dmu for i, j <= k, straight from the definition:
    the trapezoid rule on the full grid [0, 2 pi)^2 with rows
    cos^i(theta) sin^2(theta) and the complex |h(e^{i theta}, y)|^2,
    normalized by the (0, 0) entry.  Chunked over theta rows so R = 4096
    stays small."""

    def at(res):
        th = 2.0 * np.pi * np.arange(res) / res
        A = _cos_matrix(k, th)
        AW = np.zeros((k + 1, res))
        for lo in range(0, res, 256):
            W = 1.0 / np.abs(spec.h_eval(np.exp(1j * th[lo : lo + 256, None]), np.cos(th)[None, :])) ** 2
            AW += A[:, lo : lo + 256] @ W
        T = AW @ A.T
        return T / T[0, 0]

    return _ladder(at)


def _trapezoid_slice_moments(spec, k: int, y: float) -> np.ndarray:
    """integral of x^i dmu_y(x) for i <= k: half the trapezoid sum over
    [0, 2 pi) of cos^i(theta) sin^2(theta) / |h(e^{i theta}, y)|^2."""

    def at(res):
        th = 2.0 * np.pi * np.arange(res) / res
        return (np.pi / res) * (_cos_matrix(k, th) @ (1.0 / np.abs(spec.h_eval(np.exp(1j * th), y)) ** 2))

    return _ladder(at)


def _ladder(at, tol: float = 1e-14) -> np.ndarray:
    """at(R) for the first doubling of R whose increment, relative to
    1 + |value|, is below tol."""
    res, prev = 128, at(128)
    while res < 2**14:
        res *= 2
        cur = at(res)
        if np.max(np.abs(cur - prev) / (1.0 + np.abs(cur))) < tol:
            return cur
        prev = cur
    raise AssertionError("reference quadrature did not converge")


def _inverse_autocorrelation(p: list, rho: float, count: int) -> list:
    """c_k = sum_n b_{n+k} b_n for k < count, where sum_n b_n z^n = 1 / P(z) and
    P(z) = sum_i p[i] z^i, p[0] = 1, has every root at modulus >= 1 / rho: the
    Fourier coefficients of 1 / |P(e^{i psi})|^2 = (1 / P(z)) (1 / P(1 / z)).
    b_n follows the recurrence of P and falls like rho^n, so the sums are cut
    where their terms, about rho^{2n}, are below e^{-120} = 8e-53."""
    n = count + (math.ceil(60.0 / -math.log(rho)) if rho > 0.0 else len(p))
    b = [mpmath.mpf(1)]
    for k in range(1, n):
        b.append(-mpmath.fdot(p[1 : k + 1], b[k - 1 :: -1][: len(p) - 1]))
    return [mpmath.fdot(b[k:], b[: n - k]) for k in range(count)]


def _times(p: list, q: list) -> list:
    """The coefficients of the product of two polynomials."""
    return [mpmath.fsum(p[i] * q[k - i] for i in range(len(p)) if 0 <= k - i < len(q)) for k in range(len(p) + len(q) - 1)]


@lru_cache(maxsize=None)
def _exact_table(factors: tuple[float, ...], smax: int) -> np.ndarray:
    """m1[s, t] for s, t <= smax of a product weight, at 40 digits and with no
    quadrature.  On the torus the weight is F(theta, phi) = f(theta + phi)
    f(theta - phi) with f(psi) = prod_i 1 / |1 + a_i e^{i psi}|^2, so
    F^(u, v) = f^_{(u+v)/2} f^_{(u-v)/2} when u + v is even and 0 otherwise.
    U_s(cos theta) sin^2(theta) = (cos s theta - cos (s+2) theta) / 2, and F^ is
    even in u and in v, so each entry is a sum of four values of F^; the table
    is divided by its (0, 0) entry."""
    with mpmath.workdps(40):
        p = [mpmath.mpf(1)]
        for a in factors:
            p = _times(p, [mpmath.mpf(1), mpmath.mpf(a)])
        f = _inverse_autocorrelation(p, max(map(abs, factors), default=0.0), smax + 3)

        def F(u, v):
            return f[(u + v) // 2] * f[abs(u - v) // 2] if (u + v) % 2 == 0 else 0

        T = [[F(s, t) - F(s + 2, t) - F(s, t + 2) + F(s + 2, t + 2) for t in range(smax + 1)] for s in range(smax + 1)]
        return np.array([[float(v / T[0][0]) for v in row] for row in T])


@lru_cache(maxsize=None)
def _exact_slice(factors: tuple[float, ...], smax: int, y: float) -> np.ndarray:
    """integral of U_s(x) dmu_y(x) for s <= smax of a product weight, at 40
    digits and with no quadrature.  At fixed y = cos phi the weight
    f(theta + phi) f(theta - phi) = 1 / |h(e^{i theta}, y)|^2 has the Fourier
    coefficients g_k = sum_v f^_{(k+v)/2} f^_{(k-v)/2} e^{i v phi}, the
    autocorrelation of the power series of 1 / h(z, y), with
    h(z, y) = prod_i (1 + 2 a_i y z + a_i^2 z^2); the slice moment is
    (pi / 2) (g_s - g_{s+2})."""
    with mpmath.workdps(40):
        p, y = [mpmath.mpf(1)], mpmath.mpf(y)
        for a in factors:
            a = mpmath.mpf(a)
            p = _times(p, [mpmath.mpf(1), 2 * a * y, a * a])
        g = _inverse_autocorrelation(p, max(map(abs, factors), default=0.0), smax + 3)
        return np.array([float(mpmath.pi / 2 * (g[s] - g[s + 2])) for s in range(smax + 1)])


EXACT_YS = (-0.8, 0.1, 0.6)


def _assert_exact(orc: MomentOracle, table: np.ndarray, factors: tuple[float, ...]):
    """``table`` and the oracle's slices at EXACT_YS, each divided by its mass,
    match the exact moments of the product weight of ``factors``: the table
    within 1e-14, the slices within 1e-13."""
    smax = len(table) - 1
    assert np.max(np.abs(table / table[0, 0] - _exact_table(factors, smax))) <= 1e-14
    for y in EXACT_YS:
        u, want = orc.univariate_chebu_moments(smax, y), _exact_slice(factors, smax, y)
        assert np.max(np.abs(u / u[0] - want / want[0])) <= 1e-13
        assert abs(u[0] - want[0]) <= 1e-13 * want[0]


@pytest.mark.parametrize(
    "spec",
    [
        product_spec([0.5, -0.3]),
        product_spec([0.9]),
        product_spec([0.978]),
        product_spec([0.4, 0.3, -0.5]),
        generic_spec([[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]]),
    ],
    ids=["two-factor", "a=0.9", "a=0.978", "three-factor", "generic"],
)
def test_derived_moments_match_direct_trapezoid(spec):
    orc = MomentOracle(spec)
    assert np.max(np.abs(orc.moment_table(8) - _trapezoid_moments(spec, 8))) < 1e-13
    for y in (-0.8, 0.1, 0.6):
        got = np.array([orc.univariate_moment(i, y) for i in range(5)])
        want = _trapezoid_slice_moments(spec, 4, y)  # the slice mass reaches 36 at a = 0.978
        assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) < 1e-13


def test_unstable_weight_is_rejected():
    # min root modulus 0.62: an ungated oracle climbs toward a 16384^2 grid
    with pytest.raises(InvalidWeightError):
        MomentOracle(generic_spec([[1], [-0.6, -1.2], [0.3]]))


class TestKernel:
    SPECS = [
        product_spec([0.7]),
        product_spec([0.5, -0.3]),
        generic_spec([[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]]),
        generic_spec([[1.0], [0.3, -0.8], [0.2, 0.1, 0.15], [-0.05, 0.1], [0.02]]),
    ]
    IDS = ["one-factor", "two-factor", "generic", "generic-n4"]

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_h_abs2_matches_h_eval(self, spec):
        rng = np.random.default_rng(1)
        th = rng.uniform(0.0, 2.0 * np.pi, 7)
        y = np.concatenate([[-1.0, 1.0], rng.uniform(-1.0, 1.0, 5)])
        ref = lambda t, v: np.abs(spec.h_eval(np.exp(1j * t), v)) ** 2
        cases = [(th[:, None], y[None, :]), (th, 0.3), (th, 1.0), (th, -1.0), (th, np.cos(th)), (th[:7], y), (0.4, -0.2)]
        for t, v in cases:
            got, want = spec.h_abs2(t, v), ref(t, v)
            assert np.shape(got) == np.shape(want)
            assert np.max(np.abs(got - want) / want) < 1e-12

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_table_matches_full_grid(self, spec):
        res, size = 256, 9
        th = 2.0 * np.pi * np.arange(res) / res
        W = 1.0 / np.abs(spec.h_eval(np.exp(1j * th)[:, None], np.cos(th)[None, :])) ** 2
        A = np.sin(np.arange(1, size + 2)[:, None] * th) * np.sin(th)  # U_s(cos th) sin^2 th
        want = (2.0 * np.pi / res) ** 2 / np.pi**2 * (A @ W @ A.T)
        got = MomentOracle(spec)._table_at(size, res)
        assert np.max(np.abs(got - want)) < 1e-13

    @pytest.mark.parametrize("spec", SPECS[:2], ids=IDS[:2])
    def test_one_grid_sum_matches_exact_moments(self, spec):
        orc = MomentOracle(spec)
        _assert_exact(orc, orc._table_at(12, 256), spec.factors)

    def test_near_boundary_table_memory_is_bounded(self):
        orc = MomentOracle(product_spec([0.99]))
        tracemalloc.start()
        try:
            orc.chebu_table(12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert orc._chebu_resolution == 4096
        assert peak < 32 * 2**20  # one full 4096^2 weight grid alone is 128 MB


def test_oracle_registry_is_bounded():
    kept = oracle_for(product_spec([0.11]))
    dropped = oracle_for(product_spec([0.12]))
    for k in range(moment_oracle.MAX_ORACLES + 2):
        assert oracle_for(product_spec([0.11])) is kept  # recently used, so kept
        oracle_for(product_spec([0.2 + 0.01 * k]))
    assert len(moment_oracle._ORACLES) == moment_oracle.MAX_ORACLES
    assert oracle_for(product_spec([0.12])) is not dropped


def _count_points(monkeypatch, spec) -> list[int]:
    """Patch spec.h_abs2 and the product kernel ``_szego`` to record the number of
    weight points of every call; ``_szego`` takes the angles of a point in a column."""
    points = []
    real, real_szego = spec.h_abs2, moment_oracle._szego

    def counting(theta, y, hy=None):
        points.append(np.broadcast(np.asarray(theta), np.asarray(y)).size)
        return real(theta, y, hy)

    def szego(factors, cos, sin):
        points.append(cos.shape[-1])
        return real_szego(factors, cos, sin)

    monkeypatch.setattr(spec, "h_abs2", counting)
    monkeypatch.setattr(moment_oracle, "_szego", szego)
    return points


def _generic_form(spec):
    """The generic spec of the same h rows as ``spec``."""
    return generic_spec([h.to_basis(MONOMIAL).coeffs for h in spec.h])


class TestProductKernel:
    """A product weight is f(theta + phi) f(theta - phi) on the grid, read from one Szego line."""

    @pytest.mark.parametrize("a,resolution", [([0.5, -0.3], 256), ([0.93, 0.4, -0.5], 512), ([0.975], 2048)])
    def test_matches_the_generic_form(self, a, resolution):
        # only the product ladder reads rho = max |a_i|, so each form's stop is checked on its own
        spec = product_spec(a)
        prod, gen = MomentOracle(spec), MomentOracle(_generic_form(spec))
        got, want = prod.chebu_table(12), gen.chebu_table(12)
        assert prod._chebu_resolution == resolution
        assert gen._chebu_resolution == resolution
        assert np.max(np.abs(got - want)) < 1e-14

    @pytest.mark.parametrize("a", [[0.93, 0.4, -0.5], [0.975], [0.98, -0.97], [0.9, 0.9]])
    def test_matches_exact_moments(self, a):
        orc = MomentOracle(product_spec(a))
        orc.chebu_table(12)
        _assert_exact(orc, orc._chebu_table, tuple(a))

    @pytest.mark.parametrize("a", [[0.9, 0.9], [0.5, -0.3]], ids=["double-root", "two-factor"])
    def test_slices_match_exact_moments_to_rounding(self, a):
        # a slice reads f(theta + phi) f(theta - phi) from the factors: the expanded
        # |h|^2 cancels near the double root of [0.9, 0.9] and erred by 1.7e-14 at y = -0.8
        orc = MomentOracle(product_spec(a))
        for y in EXACT_YS:
            u, want = orc.univariate_chebu_moments(12, y), _exact_slice(tuple(a), 12, y)
            assert np.max(np.abs(u - want)) <= 2e-15 * want[0]

    @pytest.mark.parametrize(
        "a,b",
        [((1, 1, 63), (1, 1, 63)), ((1, 2, 32), (1, 2, 32)), ((1, 2, 32), (2, 2, 31)), ((2, 2, 31), (1, 1, 63))],
        ids=["unit", "odd-odd", "odd-even", "even-unit"],
    )
    @pytest.mark.parametrize("factors", [[0.5, -0.3], [0.93, 0.4, -0.5], [-0.975]], ids=["two", "three", "near"])
    def test_weighted_sum_matches_the_full_grid(self, factors, a, b):
        spec, res = product_spec(factors), 128
        ja, jb = (s + d * np.arange(n) for s, d, n in (a, b))
        rng = np.random.default_rng(5)
        Sa, Sb = rng.standard_normal((6, len(ja))), rng.standard_normal((5, len(jb)))
        th = 2.0 * np.pi * np.arange(res) / res
        W = 1.0 / spec.h_abs2(th[:, None], np.cos(th)[None, :])
        want = Sa @ W[np.ix_(ja, jb)] @ Sb.T
        got = MomentOracle(spec)._weighted_sum(Sa, a, Sb, b, res)
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(Sa) @ W[np.ix_(ja, jb)] @ np.abs(Sb).T)

    def test_line_is_mirrored_exactly(self):
        res = 256
        V = moment_oracle._szego_windows((0.93, 0.4, -0.5), res)
        line = np.concatenate([V[:, 0], V[-1, 1:]])
        assert len(line) == 2 * res and not V.flags.writeable
        assert np.array_equal(line[1:res], line[res - 1 : 0 : -1])
        assert np.array_equal(line[:res], line[res:])

    def test_builds_without_h_abs2(self, monkeypatch):
        orc = MomentOracle(product_spec([0.96]))
        monkeypatch.setattr(orc.spec, "h_abs2", None)  # any evaluation of h would fail
        orc.chebu_table(12)
        assert orc._chebu_resolution == 1024


@pytest.mark.parametrize("spec", TestKernel.SPECS[2:] + [_generic_form(product_spec([0.96]))], ids=TestKernel.IDS[2:] + ["a=0.96"])
def test_generic_table_is_bit_identical_to_per_block_h_abs2(monkeypatch, spec):
    want = MomentOracle(spec).chebu_table(12).copy()
    real = spec.h_abs2
    # the y coefficients handed in are ignored, so every theta block evaluates its own
    monkeypatch.setattr(spec, "h_abs2", lambda theta, y, hy=None: real(theta, y))
    assert np.array_equal(MomentOracle(spec).chebu_table(12), want)


class TestNestedLadder:
    """Each doubling adds only the trapezoid nodes the coarser grid lacks."""

    @pytest.mark.parametrize("a,resolution", [([0.5, -0.3], 256), ([0.96], 1024)])
    def test_table_evaluates_each_node_once(self, monkeypatch, a, resolution):
        # the generic form of the product: a product table evaluates no h_abs2 at all
        orc = MomentOracle(_generic_form(product_spec(a)))
        points = _count_points(monkeypatch, orc.spec)
        orc.chebu_table(12)
        assert orc._chebu_resolution == resolution
        assert sum(points) == (resolution // 2 - 1) ** 2

    @pytest.mark.parametrize("a", [[0.5, -0.3], [0.96]])
    def test_slice_evaluates_each_node_once(self, monkeypatch, a):
        for spec in (product_spec(a), _generic_form(product_spec(a))):
            with monkeypatch.context() as mp:
                orc = MomentOracle(spec)
                points, ends = _count_points(mp, spec), []
                if spec.variant == PRODUCT_OMEGA:
                    mp.setattr(spec, "h_abs2", None)  # read from the factors: any evaluation of h would fail
                real = orc._ladder

                def spy(*args):
                    out = real(*args)
                    ends.append(out[2])  # the resolution the ladder stopped at
                    return out

                mp.setattr(orc, "_ladder", spy)
                orc.univariate_chebu_moments(2, 0.3)
                assert len(ends) == 1 and ends[0] >= 256
                assert sum(points) == ends[0] // 2 - 1

    @pytest.mark.parametrize("spec", TestKernel.SPECS + [product_spec([0.96])], ids=TestKernel.IDS + ["a=0.96"])
    def test_nested_table_equals_the_one_grid_sum(self, spec):
        orc = MomentOracle(spec)
        orc.chebu_table(12)
        want = orc._table_at(len(orc._chebu_table) - 1, orc._chebu_resolution)
        assert abs(orc._mass - want[0, 0]) <= 1e-14 * want[0, 0]
        want /= want[0, 0]
        assert np.max(np.abs(orc._chebu_table - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("a", [[0.5, -0.3], [0.96]])
    def test_rungs_from_the_stop_on_match_exact_moments(self, a):
        # the stop and the rungs past it: each refinement adds its nodes to the rung below
        orc = MomentOracle(product_spec(a))
        orc.chebu_table(12)
        table = orc._table_at(15, 128)
        for resolution in (256, 512, 1024, 2048):
            table = orc._table_refined(table, 15, resolution)
            if resolution >= orc._chebu_resolution:
                _assert_exact(orc, table, tuple(a))

    @pytest.mark.parametrize("cap", [128, 512])
    def test_both_ladders_stop_at_the_cap(self, cap):
        orc = MomentOracle(product_spec([0.96]), max_resolution=cap)
        with pytest.raises(AccuracyError, match=f"no convergence below resolution {cap}"):
            orc.chebu_table(4)
        with pytest.raises(AccuracyError, match=f"no convergence below resolution {cap}"):
            orc.univariate_chebu_moments(4, 0.3)


def _random_generic(seed: int, n_h: int, modulus: float):
    """A generic spec drawn as the benchmark draws them: random rows within the
    degree bounds of N_h, rescaled so the sampled minimum root modulus is
    ``modulus`` (h_i -> s^i h_i moves the roots r -> r / s)."""
    rng = random.Random(seed)
    rows = [[1.0]] + [
        [rng.uniform(-1.0, 1.0) for _ in range(int(n_h / 2 - abs(n_h / 2 - i)) + 1)] for i in range(1, n_h + 1)
    ]
    s = is_stable(generic_spec(rows)).min_modulus / modulus
    return generic_spec([[c * s**i for c in row] for i, row in enumerate(rows)])


STOP_FACTORS = [(0.5, -0.3), (0.8,), (0.9, 0.9), (0.93, 0.4, -0.5), (0.96,), (0.975,), (0.98, -0.97)]
# (spec, factors of its exact moments or None): products, the generic forms of two of
# them and generic specs like the benchmark's, N_h = 2-4, that climb to R = 512-2048
STOP_CASES = (
    [(product_spec(a), a) for a in STOP_FACTORS]
    + [(_generic_form(product_spec(a)), a) for a in [(0.93, 0.4, -0.5), (0.96,)]]
    + [(_random_generic(*args), None) for args in [(1, 2, 1.05), (5, 3, 1.02), (3, 4, 1.05)]]
)
STOP_IDS = [",".join(map(str, a)) for a in STOP_FACTORS] + ["generic-0.93,0.4,-0.5", "generic-0.96", "nh2", "nh3", "nh4"]


class TestStopRule:
    """Each ladder stops at the first rung whose error estimate meets the tol,
    and that estimate is checked against the true error."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-11])
    @pytest.mark.parametrize("spec,factors", STOP_CASES, ids=STOP_IDS)
    def test_stop_meets_tol_and_estimates_its_error(self, spec, factors, tol):
        # the reference: exact moments, or for a random generic spec the one-grid table at 4x the stop
        orc = MomentOracle(spec, tol=tol)
        orc.chebu_table(12)
        table = orc._chebu_table
        if factors is None:
            ref = orc._table_at(len(table) - 1, 4 * orc._chebu_resolution)
            ref /= ref[0, 0]
        else:
            ref = _exact_table(factors, len(table) - 1)
        err = np.max(np.abs(table - ref))
        assert err <= tol
        assert orc._chebu_err >= err / 10
        for y in EXACT_YS if factors is not None else ():
            u, want = orc.univariate_chebu_moments(12, y), _exact_slice(factors, 12, y)
            assert np.max(np.abs(u / u[0] - want / want[0])) <= tol

    @pytest.mark.parametrize(
        "a,resolutions",
        [((0.5, -0.3), (256, 256)), ((0.96,), (1024, 2048)), ((0.975,), (2048, 4096)), ((0.98, -0.97), (2048, 4096))],
    )
    def test_stops_a_rung_or_two_below_the_increment_rule(self, a, resolutions):
        # the increment rule stopped where the relative increment over R / 2 fell below tol
        orc = MomentOracle(product_spec(a))
        orc.chebu_table(12)
        table = orc._table_at(15, 128)
        resolution = 128
        while True:
            resolution *= 2
            finer = orc._table_refined(table, 15, resolution)
            if np.max(np.abs(finer - table) / (1.0 + np.abs(finer))) < orc.tol:
                break
            table = finer
        assert (orc._chebu_resolution, resolution) == resolutions

    def test_tol_below_rounding_never_converges(self):
        # a product ladder's first ratio rho^64 is 5e-20 here, but no estimate falls below the rounding floor
        orc = MomentOracle(product_spec([0.5, -0.3]), tol=1e-20, max_resolution=1024)
        with pytest.raises(AccuracyError, match="no convergence below resolution 1024"):
            orc.chebu_table(4)


# the edges of the benchmark's resolution tiers, and the rung each stops at at the default tol
TIER_EDGES = [(0.2, 256), (0.6, 256), (0.72, 256), (0.8, 256), (0.92, 512), (0.935, 512)]
TIER_EDGES += [(0.955, 1024), (0.965, 1024), (0.975, 2048), (0.98, 2048)]


def _ladders(spec, tol: float, smax: int, ys) -> list[tuple[int, float, np.ndarray]]:
    """(resolution, error estimate, values divided by their first entry) of the
    table ladder to degree smax and then the slice ladders at ys, on a fresh oracle."""
    orc, out = MomentOracle(spec, tol=tol), []
    real = orc._ladder

    def spy(*args):
        value, err, resolution = real(*args)
        out.append((resolution, err, value / value.flat[0]))
        return value, err, resolution

    orc._ladder = spy
    orc.chebu_table(smax)
    for y in ys:
        orc.univariate_chebu_moments(smax, y)
    return out


def _from_128(monkeypatch):
    """Start every ladder at R = 128, as a ladder over at most 64 rows did before the start rule."""
    monkeypatch.setattr(moment_oracle, "_start_resolution", lambda rows, rho, tol: 128)


def _assert_same_ladders(got: list, want: list, atol: float = 1e-15):
    """The same stops, estimates equal but for the rounding of tiny increments,
    and values within atol of the mass."""
    assert [g[0] for g in got] == [w[0] for w in want]
    for (_, err, value), (_, err_want, value_want) in zip(got, want):
        assert err == pytest.approx(err_want, rel=1e-6)
        assert np.max(np.abs(value - value_want)) <= atol


class TestStartRung:
    """A product ladder starts at R* / 4, where rho^R* < tol / _SAFETY, and a
    ladder over many rows at twice their number; the stops, estimates and
    values are those of a ladder from R = 128."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-11])
    @pytest.mark.parametrize("spec,factors", STOP_CASES, ids=STOP_IDS)
    def test_stop_rule_battery_matches_the_ladder_from_128(self, monkeypatch, spec, factors, tol):
        got = _ladders(spec, tol, 12, EXACT_YS)
        _from_128(monkeypatch)
        _assert_same_ladders(got, _ladders(spec, tol, 12, EXACT_YS))

    @pytest.mark.parametrize("a,resolution", TIER_EDGES, ids=[str(a) for a, _ in TIER_EDGES])
    def test_tier_edges_match_the_ladder_from_128(self, monkeypatch, a, resolution):
        spec, ys = product_spec([a]), (-0.7, 0.2, 0.9)
        got = _ladders(spec, moment_oracle.DEFAULT_TOL, 12, ys)
        assert [g[0] for g in got] == [resolution] * 4
        _from_128(monkeypatch)
        _assert_same_ladders(got, _ladders(spec, moment_oracle.DEFAULT_TOL, 12, ys))

    def test_near_boundary_scan_matches_the_ladder_from_128(self, monkeypatch):
        rng = random.Random(18)
        cases = []
        for _ in range(100):
            rho = rng.uniform(0.85, 0.985)
            a = [rng.choice((-1.0, 1.0)) * rho] + [rng.uniform(-0.8, 0.8) * rho for _ in range(rng.randint(0, 2))]
            ys = [rng.uniform(-0.95, 0.95) for _ in range(2)]
            cases.append((product_spec(a), rng.choice((1e-9, 1e-11, 1e-12)), rng.randint(0, 40), ys))
        got = [_ladders(*case) for case in cases]
        _from_128(monkeypatch)
        for ladders, case in zip(got, cases):
            # a one-grid rung of up to 64 rows sums its nodes in another order than the nested ones
            _assert_same_ladders(ladders, _ladders(*case), atol=2e-15)

    def test_first_rung_is_one_grid_at_a_quarter_of_the_predicted_stop(self, monkeypatch):
        # 0.96^R < 1e-12 first at R* = 1024: one grid at 256, then the rungs 512 and 1024
        orc, rungs = MomentOracle(product_spec([0.96])), []
        at, refined = orc._table_at, orc._table_refined
        monkeypatch.setattr(orc, "_table_at", lambda smax, r: rungs.append(("at", r)) or at(smax, r))
        monkeypatch.setattr(orc, "_table_refined", lambda t, smax, r: rungs.append(("refined", r)) or refined(t, smax, r))
        orc.chebu_table(12)
        assert rungs == [("at", 256), ("refined", 512), ("refined", 1024)]
        assert orc._chebu_resolution == 1024

    @pytest.mark.parametrize(
        "rows,rho,tol,start",
        [(16, None, 1e-11, 128), (64, 0.6, 1e-11, 128), (16, 0.96, 1e-11, 256), (16, 0.99, 1e-11, 1024)]
        + [(256, None, 1e-11, 512), (256, 0.5, 1e-11, 512), (1024, 0.96, 1e-11, 2048), (16, 0.5, 0.0, 4096)],
    )
    def test_start_resolution(self, rows, rho, tol, start):
        # rows 64 at rho 0.6 is the benchmark's warm recurrence table; a tol of 0 is never met
        assert moment_oracle._start_resolution(rows, rho, tol) == start

    def test_rows_past_the_first_rung_do_not_alias(self):
        # at R = 128 the rows sin((s+1) theta), s + 1 > 64, of a 256-row table are minus
        # lower ones; a product ladder, whose first ratio is rho^{R/4} alone, stopped
        # at R = 256 with an estimate of 2.2e-16 and a table 1.0 away from the exact one
        spec = product_spec([0.5])
        prod, gen = MomentOracle(spec), MomentOracle(_generic_form(spec))
        prod.chebu_table(200)
        gen.chebu_table(200)
        assert np.max(np.abs(prod._chebu_table - _exact_table((0.5,), 255))) <= 1e-14
        assert np.max(np.abs(prod._chebu_table - gen._chebu_table)) <= 1e-14
        u = prod.univariate_chebu_moments(255, 0.3)
        assert np.max(np.abs(u - _exact_slice((0.5,), 255, 0.3))) <= 1e-14
        assert np.max(np.abs(u - gen.univariate_chebu_moments(255, 0.3))) <= 1e-14

    def test_max_resolution_below_the_start_computes_nothing(self, monkeypatch):
        monkeypatch.setattr(MomentOracle, "_table_at", _fail)
        with pytest.raises(AccuracyError, match="no convergence below resolution 256"):
            MomentOracle(product_spec([0.96]), max_resolution=256).chebu_table(12)


class TestSineRows:
    def test_rows_are_shared_read_only_and_exact(self):
        S = moment_oracle._sine_rows(16, 256)
        assert moment_oracle._sine_rows(16, 256) is S and not S.flags.writeable
        th = 2.0 * np.pi * np.arange(1, 128) / 256
        assert np.max(np.abs(S - np.sin(np.arange(1, 17)[:, None] * th) * np.sin(th))) < 1e-14

    def test_cache_stays_under_its_byte_bound(self):
        # 1024 rows: 8.4 MB at R = 2048 and 16.8 MB at 4096, and 67 MB at MAX_RESOLUTION
        bound = moment_oracle._SINE_ROWS_BYTES
        u = MomentOracle(product_spec([0.5])).univariate_chebu_moments(MAX_DEGREE, 0.3)
        assert np.max(np.abs(u[:13] - _exact_slice((0.5,), 12, 0.3))) <= 1e-14
        kept = moment_oracle._SINE_ROWS
        assert sum(S.nbytes for S in kept.values()) <= bound
        assert all(rows < MAX_DEGREE + 1 for rows, _ in kept)
        for rows in range(16, 160, 8):  # 0.26 .. 2.5 MB each at R = 4096
            moment_oracle._sine_rows(rows, 4096)
            assert sum(S.nbytes for S in kept.values()) <= bound
            assert (rows, 4096) in kept

    def test_threads_share_the_cache_within_its_bound(self):
        # 5 MB of matrices over 6 threads: each insert evicts under contention
        keys = [(rows, res) for rows in (16, 32, 48, 64) for res in (256, 512, 1024, 2048, 4096)]
        want = {key: moment_oracle._sine_rows(*key).copy() for key in keys}
        wrong = []

        def work(k):
            for key in keys[k:] + keys[:k]:
                if not np.array_equal(moment_oracle._sine_rows(*key), want[key]):
                    wrong.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert sum(S.nbytes for S in moment_oracle._SINE_ROWS.values()) <= moment_oracle._SINE_ROWS_BYTES


class TestSliceCache:
    def test_repeat_runs_no_quadrature(self, monkeypatch):
        orc = MomentOracle(product_spec([0.85]))
        want = [orc.univariate_moment(i, 0.3) for i in range(4)]
        head = orc.univariate_chebu_moments(15, 0.3).copy()
        monkeypatch.setattr(orc.spec, "h_abs2", None)  # any quadrature would fail
        monkeypatch.setattr(moment_oracle, "_szego", None)
        assert [orc.univariate_moment(i, 0.3) for i in range(4)] == want
        assert np.array_equal(orc.univariate_chebu_moments(15, 0.3), head)
        assert orc.univariate_moment(2, 0.3, tol=orc.tol) == want[2]

    def test_vectors_are_read_only(self):
        u = MomentOracle(product_spec([0.85])).univariate_chebu_moments(3, -0.2)
        with pytest.raises(ValueError, match="read-only"):
            u[0] = 1.0

    def test_other_tol_or_higher_degree_recomputes(self, monkeypatch):
        orc = MomentOracle(product_spec([0.85]))
        points = _count_points(monkeypatch, orc.spec)
        rows = orc.univariate_chebu_moments(2, 0.3)
        assert sum(points) > 0
        for smax, tol in [(2, 1e-8), (16, None)]:
            points.clear()
            got = orc.univariate_chebu_moments(smax, 0.3, tol)
            assert sum(points) > 0
            assert np.max(np.abs(got[:3] - rows)) < 1e-8
        points.clear()
        orc.univariate_chebu_moments(31, 0.3)  # the 32-row vector of degree 16 holds it
        assert points == []

    def test_at_most_max_slices_are_kept(self, monkeypatch):
        orc = MomentOracle(product_spec([0.5]))
        points = _count_points(monkeypatch, orc.spec)
        ys = np.linspace(-0.9, 0.9, moment_oracle.MAX_SLICES + 6)
        for y in ys:
            orc.univariate_moment(1, y)
            assert len(orc._slices) <= moment_oracle.MAX_SLICES
        assert len(orc._slices) == moment_oracle.MAX_SLICES
        points.clear()
        orc.univariate_moment(1, ys[-1])  # recently used, so kept
        assert points == []
        orc.univariate_moment(1, ys[0])  # least recently used, so dropped
        assert sum(points) > 0


def test_accuracy_error_on_tiny_cap():
    orc = MomentOracle(product_spec([0.9]), max_resolution=128)
    with pytest.raises(AccuracyError):
        orc.chebu_table(4)


def test_slice_accuracy_error_on_tiny_cap():
    orc = MomentOracle(product_spec([0.9]), max_resolution=128)
    with pytest.raises(AccuracyError, match="no convergence below resolution 128"):
        orc.univariate_chebu_moments(4, 0.3)
