import math

import numpy as np
import pytest

from bsz2d import moment_oracle
from bsz2d.moment_oracle import (
    AccuracyError,
    MomentOracle,
    monomial_moment_matrix,
    oracle_for,
)
from bsz2d.ortho import LEX, TOTAL
from bsz2d.poly_core import CHEB_U, BivariatePoly, u_index
from bsz2d.weights import chebyshev_spec, product_spec


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
        one = BivariatePoly.from_separable(u_index(0), u_index(0))
        assert orc.norm(one) == pytest.approx(1.0, abs=1e-10)

    def test_invalid_arguments(self):
        orc = oracle_for(product_spec([0.3]))
        with pytest.raises(ValueError):
            orc.moment(-1, 0)
        with pytest.raises(ValueError):
            orc.univariate_moment(0, 1.5)

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
            assert k1 == k2 and p1.approx_eq(p2, 1e-9)

    def test_norms_recorded(self):
        orc = oracle_for(product_spec([0.25]))
        system = orc.gram_schmidt(TOTAL, 2)
        assert len(system.norms) == len(system.entries)
        assert all(v > 0 for v in system.norms)


def test_doubly_hankel_structure():
    idx = [(0, 0), (1, 0), (0, 1), (1, 1)]
    M = monomial_moment_matrix(product_spec([-0.5]), idx)
    assert M == pytest.approx(M.T)
    # entries depend only on the exponent sums
    assert M[1, 2] == pytest.approx(M[3, 0])  # both are moment(1, 1)
    assert M[1, 3] == pytest.approx(M[3, 1])  # both are moment(2, 1)
    assert M[2, 3] == pytest.approx(M[3, 2])  # both are moment(1, 2)


class TestSpill:
    def test_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BSZ2D_CACHE_DIR", str(tmp_path))
        spec = product_spec([0.55])
        first = MomentOracle(spec)
        table = first.chebu_table(6).copy()
        files = list(tmp_path.iterdir())
        assert len(files) == 1 and files[0].suffix == ".npz"
        # a reloading oracle capped below the converged resolution can only
        # succeed by reading the spill
        second = MomentOracle(spec, max_resolution=first._chebu_resolution // 2)
        assert np.array_equal(second.chebu_table(6), table)
        assert second.mass == pytest.approx(first.mass)

    def test_looser_spill_is_recomputed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BSZ2D_CACHE_DIR", str(tmp_path))
        spec = product_spec([0.9])
        MomentOracle(spec, tol=1e-3).chebu_table(4)
        reopened = MomentOracle(spec, tol=1e-11)
        reopened.chebu_table(4)
        assert reopened._chebu_err < 1e-11
        assert reopened._chebu_resolution == 1024  # what a fresh oracle needs

    def test_no_spill_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("BSZ2D_CACHE_DIR", raising=False)
        MomentOracle(product_spec([0.15])).chebu_table(2)
        assert list(tmp_path.iterdir()) == []


def test_oracle_registry_is_bounded():
    kept = oracle_for(product_spec([0.11]))
    dropped = oracle_for(product_spec([0.12]))
    for k in range(moment_oracle.MAX_ORACLES + 2):
        assert oracle_for(product_spec([0.11])) is kept  # recently used, so kept
        oracle_for(product_spec([0.2 + 0.01 * k]))
    assert len(moment_oracle._ORACLES) == moment_oracle.MAX_ORACLES
    assert oracle_for(product_spec([0.12])) is not dropped


def test_accuracy_error_on_tiny_cap():
    orc = MomentOracle(product_spec([0.9]), max_resolution=128)
    with pytest.raises(AccuracyError):
        orc.chebu_table(4)
