import math

import numpy as np
import pytest

from bsz2d import moment_oracle
from bsz2d.moment_oracle import MomentOracle, OracleUnreliableError, oracle_for
from bsz2d.ortho import TOTAL, index_sequence
from bsz2d.total_order import build_total_vector, gram_deviation, total_threshold
from bsz2d.weights import chebyshev_spec, generic_spec, product_spec


def approx_eq(p, q, tol: float) -> bool:
    """Every coefficient of p - q (one basis) is at most tol in modulus."""
    return bool(np.max(np.abs((p - q).coeffs), initial=0.0) <= tol)


SPEC1 = product_spec([-0.6])           # N_h = 2, threshold 0
SPEC2 = product_spec([0.5, -0.3])      # N_h = 4, threshold 1
SPEC_CUBIC = generic_spec([[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]])  # N_h = 3


class TestThreshold:
    def test_values(self):
        assert total_threshold(chebyshev_spec()) == 0
        assert total_threshold(SPEC1) == 0
        assert total_threshold(SPEC_CUBIC) == 1
        assert total_threshold(SPEC2) == 1


class TestComponents:
    def test_closed_matches_oracle(self):
        orc = oracle_for(SPEC2)
        for n in range(1, 5):
            system = orc.gram_schmidt(TOTAL, n)
            vector = build_total_vector(SPEC2, n)
            for k in range(total_threshold(SPEC2), n + 1):
                assert approx_eq(vector.poly((k, n - k)), system.poly((k, n - k)), 1e-7)

    def test_low_matches_oracle_by_construction(self):
        # k = 0 is below the threshold: its row is read from the factor of the slots of
        # degree < 3 and (0, 3), the leading block of the whole level-3 factor
        orc = MomentOracle(SPEC2)
        p = build_total_vector(SPEC2, 3, orc).poly((0, 3))
        prefix = orc._orthonormalize(TOTAL, index_sequence(TOTAL, 3)[:7])
        assert approx_eq(p, prefix.poly((0, 3)), 0.0)
        assert approx_eq(p, orc.gram_schmidt(TOTAL, 3).poly((0, 3)), 1e-13)
        assert orc.norm(p) == pytest.approx(1.0, abs=1e-8)

    def test_range_guards(self):
        with pytest.raises(ValueError):
            build_total_vector(SPEC1, -1)


class TestVectors:
    @pytest.mark.parametrize("spec", [SPEC1, SPEC2, SPEC_CUBIC])
    def test_orthonormal_to_depth(self, spec):
        for n in range(7):
            system = build_total_vector(spec, n)
            assert len(system.entries) == n + 1
            assert gram_deviation(spec, system) < 1e-7

    def test_cross_level_orthogonality(self):
        orc = oracle_for(SPEC2)
        low = build_total_vector(SPEC2, 2)
        high = build_total_vector(SPEC2, 3)
        for _, p in low.entries:
            for _, q in high.entries:
                assert abs(orc.inner(p, q)) < 1e-7

    def test_leading_coefficients_positive(self):
        system = build_total_vector(SPEC2, 4)
        for (k, j), p in system.entries:
            assert p.coeffs[k, j] > 0

    def test_norms_recorded(self):
        system = build_total_vector(SPEC2, 3)
        assert len(system.norms) == 4
        assert all(np.isfinite(v) and v > 0 for v in system.norms)

    @pytest.mark.parametrize("spec", [SPEC1, SPEC2, SPEC_CUBIC, product_spec([0.4, 0.3, -0.5])])
    def test_one_assembly_pass(self, monkeypatch, oracle_calls, spec):
        # closed components are normalized in one batch, the rest come from one Cholesky
        # factor, of the slots of degree < n and the level's first thr slots
        orc = MomentOracle(spec)
        sizes = []
        real = orc._orthonormalize
        monkeypatch.setattr(orc, "_orthonormalize", lambda o, idx: sizes.append(len(idx)) or real(o, idx))
        thr = total_threshold(spec)
        for n in range(8):
            build_total_vector(spec, n, orc)
            assert oracle_calls["normalized"] == 0 and oracle_calls["gram_schmidt"] == 0
            assert sizes == ([n * (n + 1) // 2 + min(thr, n + 1)] if thr > 0 else [])
            oracle_calls.clear()
            sizes.clear()
        # the shared Gram block grows no further than the polynomials reach
        polys = [p for n in range(8) for _, p in build_total_vector(spec, n, orc).entries]
        assert len(orc.gram_block(1)) == max(max(p.coeffs.shape) for p in polys)

    @pytest.mark.parametrize("spec,thr", [(SPEC2, 1), (product_spec([0.4, 0.3, -0.5]), 2)])
    def test_factor_ends_at_the_last_fallback_slot(self, monkeypatch, spec, thr):
        # P_n factors the n(n+1)/2 slots of degree < n and its own first thr, not all of level n
        orc = MomentOracle(spec)
        asked = []
        real = orc._orthonormalize
        monkeypatch.setattr(orc, "_orthonormalize", lambda o, idx: asked.append(idx) or real(o, idx))
        assert total_threshold(spec) == thr
        for n in range(11):
            build_total_vector(spec, n, orc)
            assert asked == [index_sequence(TOTAL, n)[: n * (n + 1) // 2 + min(thr, n + 1)]]
            asked.clear()

    def test_condition_gate_sees_only_the_prefix(self, monkeypatch):
        # a cap between cond_1 of the level-3 prefix (3.21) and of all 10 level-3 slots (3.78)
        # passes P_3, whose factor stops at (0, 3), and refuses the whole system
        orc = MomentOracle(SPEC2)
        idx = index_sequence(TOTAL, 3)
        prefix, whole = (np.linalg.cond(orc.gram(slots), 1) for slots in (idx[:7], idx))
        assert prefix < whole
        monkeypatch.setattr(moment_oracle, "COND_CAP", math.sqrt(prefix * whole))
        assert gram_deviation(SPEC2, build_total_vector(SPEC2, 3, orc), orc) < 1e-12
        with pytest.raises(OracleUnreliableError, match="condition number"):
            orc.gram_schmidt(TOTAL, 3)

    def test_cached(self):
        assert build_total_vector(SPEC1, 4) is build_total_vector(SPEC1, 4)

    def test_chebyshev_degeneration_exact(self):
        system = build_total_vector(chebyshev_spec(), 4)
        for (k, j), p in system.entries:
            want = np.zeros((k + 1, j + 1))
            want[k, j] = 1.0
            c = np.zeros_like(want)
            c[: p.coeffs.shape[0], : p.coeffs.shape[1]] = p.coeffs
            assert np.max(np.abs(c - want)) < 1e-10
