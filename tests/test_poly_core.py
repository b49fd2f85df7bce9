import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsz2d.poly_core import (
    CHEB_U,
    MONOMIAL,
    BasisMismatchError,
    BivariatePoly,
    LaurentPoly,
    UnivariatePoly,
    _extents,
    _square,
    mul,
    poly_from_dict,
    poly_to_dict,
    t_map,
    u_band,
)


def cheb_u(n: int, x: float) -> float:
    th = math.acos(x)
    return math.sin((n + 1) * th) / math.sin(th)


def u_xy(i: int, j: int) -> BivariatePoly:
    """U_i(x) U_j(y)."""
    c = np.zeros((i + 1, j + 1))
    c[i, j] = 1.0
    return BivariatePoly(CHEB_U, c)


def approx_eq(p, q, tol: float) -> bool:
    """Every coefficient of p - q (one basis) is at most tol in modulus."""
    return bool(np.max(np.abs((p - q).coeffs), initial=0.0) <= tol)


def chebu_mul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The linearization rule applied term by term."""
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    for (i1, j1), c1 in np.ndenumerate(a):
        for (i2, j2), c2 in np.ndenumerate(b):
            for x in range(abs(i1 - i2), i1 + i2 + 1, 2):
                for y in range(abs(j1 - j2), j1 + j2 + 1, 2):
                    out[x, y] += c1 * c2
    return out


class TestUnivariate:
    def test_chebu_evaluation_matches_trig(self):
        p = UnivariatePoly(CHEB_U, [0.0, 0.0, 1.0])
        for x in (-0.7, 0.1, 0.6):
            assert p(x) == pytest.approx(cheb_u(2, x), abs=1e-14)

    @given(st.integers(min_value=2, max_value=12), st.floats(-0.95, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_three_term_recurrence(self, n, x):
        u = [cheb_u(k, x) for k in range(n + 1)]
        assert 2 * x * u[n - 1] == pytest.approx(u[n] + u[n - 2], rel=1e-9, abs=1e-9)

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_basis_round_trip(self, coeffs):
        p = UnivariatePoly(CHEB_U, coeffs)
        back = p.to_basis(MONOMIAL).to_basis(CHEB_U)
        assert approx_eq(back, p, 1e-9 * (1 + max(abs(c) for c in coeffs)))

    def test_monomial_and_chebu_agree_pointwise(self):
        p = UnivariatePoly(CHEB_U, [1.0, -0.5, 0.25, 2.0])
        q = p.to_basis(MONOMIAL)
        for x in np.linspace(-0.9, 0.9, 7):
            assert p(x) == pytest.approx(q(x), abs=1e-12)


class TestBivariate:
    def test_separable_evaluation(self):
        p = u_xy(2, 1)
        assert p(0.3, -0.4) == pytest.approx(cheb_u(2, 0.3) * cheb_u(1, -0.4), abs=1e-12)

    def test_mul_matches_pointwise(self):
        rng = np.random.default_rng(11)
        pairs = [(u_xy(2, 1), u_xy(1, 2))]
        # dense, non-separable operands of unequal shapes
        for sa, sb in [((5, 3), (2, 6)), ((1, 4), (7, 1)), ((4, 4), (4, 4))]:
            pairs.append((BivariatePoly(CHEB_U, rng.normal(size=sa)), BivariatePoly(CHEB_U, rng.normal(size=sb))))
        for a, b in pairs:
            prod = mul(a, b)
            ref = chebu_mul_reference(a.coeffs, b.coeffs)
            assert prod.coeffs.shape == ref.shape
            assert np.max(np.abs(prod.coeffs - ref)) <= 1e-14 * np.max(np.abs(ref))
            for x, y in [(0.2, 0.5), (-0.6, -0.1), (0.85, 0.3)]:
                assert prod(x, y) == pytest.approx(a(x, y) * b(x, y), rel=1e-12, abs=1e-12)
            mono = mul(a.to_basis(MONOMIAL), b.to_basis(MONOMIAL))
            assert approx_eq(mono.to_basis(CHEB_U), prod, 1e-10)

    @pytest.mark.parametrize("k", range(7))
    def test_u_band_matches_mul(self, k):
        rng = np.random.default_rng(100 + k)
        for shape in [(5, 3), (1, 6), (7, 1), (2, 2)]:
            c = rng.normal(size=shape)
            for axis, uk in ((0, u_xy(k, 0)), (1, u_xy(0, k))):
                got = u_band(c, k, axis)
                want = list(shape)
                want[axis] += k
                assert got.shape == tuple(want)
                ref = mul(BivariatePoly(CHEB_U, c), uk)
                assert approx_eq(BivariatePoly(CHEB_U, got), ref, 1e-14 * np.max(np.abs(ref.coeffs)))
        for axis in (0, 1):
            assert not np.any(u_band(np.zeros((3, 4)), k, axis))
            assert BivariatePoly(CHEB_U, u_band(np.zeros((0, 0)), k, axis)).is_zero
        with pytest.raises(ValueError):
            u_band(np.ones((2, 2)), -1, 0)

    @given(st.integers(0, 5), st.integers(0, 5), st.floats(-0.9, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_chebu_linearization(self, a, b, x):
        lhs = cheb_u(a, x) * cheb_u(b, x)
        rhs = sum(cheb_u(c, x) for c in range(abs(a - b), a + b + 1, 2))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_basis_mismatch_raises(self):
        a = u_xy(1, 1)
        b = a.to_basis(MONOMIAL)
        with pytest.raises(BasisMismatchError):
            mul(a, b)

    def test_bivariate_basis_round_trip(self):
        rng = np.random.default_rng(7)
        p = BivariatePoly(CHEB_U, rng.normal(size=(4, 5)))
        back = p.to_basis(MONOMIAL).to_basis(CHEB_U)
        assert approx_eq(back, p, 1e-10)



def _substitute_half(mono_coeffs) -> dict[int, float]:
    """Laurent expansion of p((u + 1/u) / 2) from the monomial coefficients of
    p, term by term by the binomial theorem."""
    out: dict[int, float] = {}
    for k, c in enumerate(mono_coeffs):
        for j in range(k + 1):
            out[k - 2 * j] = out.get(k - 2 * j, 0.0) + c / 2.0**k * math.comb(k, j)
    return {e: v for e, v in out.items() if v != 0.0}


class TestLaurent:
    def test_t_map_on_separable(self):
        # T(p(x) U_n(x)) = z^{-n} p((z + 1/z) / 2), applied with n >= deg p
        mono = [0.5, -1.0, 2.0]
        assert _substitute_half([0.0, 0.0, 1.0]) == {2: 0.25, 0: 0.5, -2: 0.25}  # x^2
        px = UnivariatePoly(MONOMIAL, mono).to_basis(CHEB_U)
        p = mul(BivariatePoly(CHEB_U, px.coeffs[:, None]), u_xy(5, 0))
        img = t_map(p)
        want = LaurentPoly({(e, 0): v for e, v in _substitute_half(mono).items()}).shift(-5, 0)
        assert img.max_abs_diff(want) < 1e-12

    def test_laurent_algebra(self):
        a = LaurentPoly({(1, 0): 2.0, (0, 1): 1.0})
        b = LaurentPoly({(-1, 0): 0.5})
        assert (a * b).get(0, 0) == pytest.approx(1.0)
        assert (a - a).support == set()
        assert a.shift(2, -1).get(3, -1) == pytest.approx(2.0)


def test_json_round_trip():
    p = BivariatePoly(CHEB_U, [[1.0, 0.5], [0.0, -2.0]])
    q = poly_from_dict(json.loads(json.dumps(poly_to_dict(p))))
    assert isinstance(q, BivariatePoly)
    assert approx_eq(q, p, 0.0)
    blob = poly_to_dict(p)
    assert blob["basis"] == "chebU"
    assert blob["coeffs"] == [[1.0, 0.5], [0.0, -2.0]]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 5), st.integers(0, 5), st.integers(0, 2**31 - 1))
def test_stack_extents_match_trim(k, a, b, seed):
    # sparse grids, so whole trailing rows and columns are often zero
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((k, a, b)) * (rng.random((k, a, b)) < 0.3)
    nx, ny = _extents(stack)
    assert [(int(x), int(y)) for x, y in zip(nx, ny)] == [BivariatePoly(CHEB_U, g).coeffs.shape for g in stack]


def test_square_pads_cuts_and_keeps():
    stack = np.arange(12.0).reshape(2, 2, 3)
    assert _square(stack, 3)[1].tolist() == [[6.0, 7.0, 8.0], [9.0, 10.0, 11.0], [0.0, 0.0, 0.0]]
    assert _square(stack, 1)[:, 0, 0].tolist() == [0.0, 6.0]
    same = np.zeros((2, 3, 3))
    assert _square(same, 3) is same


def test_wrap_takes_the_grid_as_is():
    grid = np.array([[1.0, 0.0], [0.0, 0.0]])  # not trimmed, so the difference shows
    p = BivariatePoly._wrap(CHEB_U, grid)
    assert p.coeffs is grid and p.basis == CHEB_U
