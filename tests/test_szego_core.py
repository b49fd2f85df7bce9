import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsz2d.moment_oracle import oracle_for
from bsz2d.poly_core import CHEB_U, BivariatePoly, UnivariatePoly
from bsz2d.szego_core import (
    EliminationBreakdownError,
    _fold,
    build_qk,
    complete_1d,
    low_band_threshold,
    norm_threshold,
    qk_norm_closed,
    tilde_ql_grid,
)
from bsz2d.weights import generic_spec, product_spec


def u_index(n: int) -> np.ndarray:
    """Chebyshev-U coefficients of U_n with U_{-1} = 0 and U_{-n-2} = -U_n."""
    if n == -1:
        return np.zeros(0)
    c = np.zeros(max(n, -n - 2) + 1)
    c[-1] = 1.0 if n >= 0 else -1.0
    return c


def cheb_u(n: int, x: float) -> float:
    th = math.acos(x)
    return math.sin((n + 1) * th) / math.sin(th)


def x_slice(poly, y: float) -> np.ndarray:
    """Chebyshev-U-in-x coefficient vector of poly(., y)."""
    c = poly.to_basis(CHEB_U).coeffs
    return np.array([UnivariatePoly(CHEB_U, row)(y) for row in c])


class TestThresholds:
    def test_values(self):
        assert [low_band_threshold(n) for n in range(7)] == [0, 0, 0, 1, 1, 2, 2]
        assert [norm_threshold(n) for n in range(7)] == [0, 0, 1, 1, 2, 2, 3]

    def test_ordering(self):
        for n in range(12):
            assert low_band_threshold(n) <= norm_threshold(n)


class TestBuildQk:
    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            build_qk(product_spec([0.3]), -1)

    def test_one_factor_q1(self):
        a = 0.4
        q1 = build_qk(product_spec([-a]), 1)  # h = 1 - 2ayz + a^2 z^2
        for x, y in [(0.3, 0.7), (-0.5, 0.2)]:
            assert q1(x, y) == pytest.approx(cheb_u(1, x) - 2 * a * y, abs=1e-13)

    def test_negative_index_folding_at_k0(self):
        a = 0.4
        q0 = build_qk(product_spec([-a]), 0)  # h_2 U_{-2} folds to -a^2 U_0
        for x, y in [(0.3, 0.7), (-0.5, 0.2)]:
            assert q0(x, y) == pytest.approx(1.0 - a * a, abs=1e-13)

    @pytest.mark.parametrize(
        "spec",
        [
            product_spec([0.5, -0.3]),
            product_spec([0.3, 0.2, -0.4]),
            generic_spec([[1.0], [0.2, 0.3], [0.1, 0.05, 0.1], [0.05, 0.02], [0.03]]),
        ],
        ids=["two-factor", "three-factor", "generic-N4"],
    )
    def test_matches_the_defining_sum(self, spec):
        # sum_i h_i(y) U_{k-i}(x), term by term; at k = 0, 1 the generic
        # N_h = 4 spec folds h_2, h_3, h_4 onto lower rows
        for k in range(7):
            grid = np.zeros((k + spec.n_h + 1, spec.kappa + 1))
            for i, hi in enumerate(spec.h):
                ux = u_index(k - i)
                c = hi.to_basis(CHEB_U).coeffs
                grid[: len(ux), : len(c)] += np.outer(ux, c)
            want = BivariatePoly(CHEB_U, grid)
            got = build_qk(spec, k)
            assert got.coeffs.shape == want.coeffs.shape
            assert np.max(np.abs((got - want).coeffs), initial=0.0) <= 1e-15

    @given(st.floats(-0.8, 0.8).filter(lambda a: abs(a) > 0.05), st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_generating_sum_pointwise(self, a, k):
        spec = product_spec([a])
        qk = build_qk(spec, k)
        for x, y in [(0.25, -0.6), (-0.7, 0.4)]:
            want = sum(
                spec.h[i](y) * (cheb_u(k - i, x) if k - i >= 0 else (-cheb_u(-(k - i) - 2, x) if k - i <= -2 else 0.0))
                for i in range(spec.n_h + 1)
            )
            assert qk(x, y) == pytest.approx(want, rel=1e-11, abs=1e-11)


class TestSliceOrthogonality:
    def test_qk_kills_lower_degrees(self):
        spec = product_spec([0.5, -0.3])
        orc = oracle_for(spec)
        for k in range(low_band_threshold(spec.n_h), 5):
            qk = build_qk(spec, k)
            for y in (-0.6, 0.1, 0.8):
                fx = x_slice(qk, y)
                for t in range(k):
                    e_t = np.zeros(t + 1)
                    e_t[t] = 1.0
                    assert abs(orc.slice_inner(fx, e_t, y)) < 1e-9

    def test_closed_norm_matches_quadrature(self):
        spec = product_spec([0.5, -0.3])
        orc = oracle_for(spec)
        for k in range(low_band_threshold(spec.n_h), 5):
            want = qk_norm_closed(spec, k)
            for y in (-0.6, 0.1, 0.8):
                fx = x_slice(build_qk(spec, k), y)
                assert orc.slice_inner(fx, fx, y) == pytest.approx(want, rel=1e-9)

    def test_boundary_norm_one_factor(self):
        a = 0.45
        spec = product_spec([-a])
        assert qk_norm_closed(spec, 0) == pytest.approx(math.pi / 2 * (1 - a * a))
        assert qk_norm_closed(spec, 1) == pytest.approx(math.pi / 2)

    def test_norm_below_threshold_rejected(self):
        spec = product_spec([0.3, 0.2, -0.4])  # N_h = 6, threshold k = 2
        with pytest.raises(ValueError):
            qk_norm_closed(spec, 1)


class TestTilde:
    def test_product_tilde_is_swap(self):
        spec = product_spec([0.35, -0.2])
        for l in range(4):
            qt = BivariatePoly(CHEB_U, tilde_ql_grid(spec, l))
            q = build_qk(spec, l)
            for x, y in [(0.3, -0.4), (-0.6, 0.7)]:
                assert qt(x, y) == pytest.approx(q(y, x), abs=1e-12)


h5_st = st.lists(st.floats(-0.35, 0.35), min_size=5, max_size=5)


class TestComplete1D:
    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            complete_1d([2.0, 0.1, 0.1, 0.1, 0.1, 0.1], 0)  # h_0 != 1
        with pytest.raises(ValueError):
            complete_1d([1.0, 0.1, 0.1, 0.1, 0.1, 0.1], 2)  # k beyond chain

    @given(h5_st)
    @settings(max_examples=25, deadline=None)
    def test_quintic_top_correction_is_h5(self, tail):
        h = [1.0] + tail
        comp = complete_1d(h, 0)
        assert set(comp.corrections) == {1, 2, 3}
        assert comp.corrections[3] == pytest.approx(h[5], abs=1e-12)
        assert comp.poly.deg == 0 or len(comp.poly.coeffs) == 1

    @given(h5_st)
    @settings(max_examples=25, deadline=None)
    def test_quintic_k1_single_step(self, tail):
        h = [1.0] + tail
        comp = complete_1d(h, 1)
        assert set(comp.corrections) == {2}
        assert len(comp.poly.coeffs) == 2

    def test_cancellation_is_exact(self):
        h = [1.0, 0.31, -0.12, 0.07, 0.2, -0.15]
        comp = complete_1d(h, 0)
        # reassemble q_0 + sum c_j q_j directly and check every U_t, t >= 1, vanishes
        acc = np.zeros(8)

        def add_q(k, c):
            for i, hi in enumerate(h):
                t = k - i
                if t >= 0:
                    acc[t] += c * hi
                elif t <= -2:
                    acc[-t - 2] -= c * hi

        add_q(0, 1.0)
        for j, c in comp.corrections.items():
            add_q(j, c)
        assert np.max(np.abs(acc[1:])) < 1e-12
        assert acc[0] == pytest.approx(comp.poly.coeffs[0])

    def test_orthogonal_under_slice_measure(self):
        # a y-independent weight: the slice measure is the same for every y,
        # so the completed polynomial must kill all lower Chebyshev degrees
        h = [1.0, 0.2, -0.1, 0.15, 0.05, 0.1]
        spec = generic_spec([[v] for v in h])
        orc = oracle_for(spec)
        comp = complete_1d(h, 1)
        fx = np.asarray(comp.poly.coeffs, dtype=float)
        for y in (-0.5, 0.4):
            for t in range(1):
                e_t = np.zeros(t + 1)
                e_t[t] = 1.0
                assert abs(orc.slice_inner(fx, e_t, y)) < 1e-8

    def test_pivot_breakdown_reported(self):
        # h_0 - h_4 = 0 degenerates the t = 1 pivot
        with pytest.raises(EliminationBreakdownError):
            complete_1d([1.0, 0.2, 0.1, 0.05, 1.0, 0.02], 0)


def test_fold_of_a_constant_h_is_the_scalar_rule():
    # complete_1d folds a constant h with the rule qk_grid uses: +h_i at U_{k-i},
    # nothing at U_{-1} and -h_i at U_{i-k-2}, added in the order of i
    rng = np.random.default_rng(3)
    for n in range(3, 12):
        h = np.concatenate([[1.0], rng.uniform(-0.3, 0.3, n)])
        h[rng.integers(1, n + 1)] = 0.0
        for k in range(n + 2):
            want = np.zeros(max(k + 1, n - k - 1))
            for i, hi in enumerate(h):
                if k - i >= 0:
                    want[k - i] += hi
                elif k - i <= -2:
                    want[i - k - 2] -= hi
            assert np.array_equal(_fold(h, k), want)
