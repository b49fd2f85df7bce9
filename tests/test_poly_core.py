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
    laurent_from_separable,
    laurent_substitute_half,
    mul,
    poly_from_json,
    poly_to_json,
    t_map,
    u_index,
)


def cheb_u(n: int, x: float) -> float:
    th = math.acos(x)
    return math.sin((n + 1) * th) / math.sin(th)


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

    def test_negative_index_convention(self):
        assert u_index(-1).is_zero
        for n in range(4):
            folded = u_index(-n - 2)
            direct = u_index(n).scale(-1.0)
            assert folded.approx_eq(direct, 0.0)

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_basis_round_trip(self, coeffs):
        p = UnivariatePoly(CHEB_U, coeffs)
        back = p.to_basis(MONOMIAL).to_basis(CHEB_U)
        assert back.approx_eq(p, 1e-9 * (1 + max(abs(c) for c in coeffs)))

    def test_monomial_and_chebu_agree_pointwise(self):
        p = UnivariatePoly(CHEB_U, [1.0, -0.5, 0.25, 2.0])
        q = p.to_basis(MONOMIAL)
        for x in np.linspace(-0.9, 0.9, 7):
            assert p(x) == pytest.approx(q(x), abs=1e-12)


class TestBivariate:
    def test_separable_evaluation(self):
        p = BivariatePoly.from_separable(u_index(2), u_index(1))
        assert p(0.3, -0.4) == pytest.approx(cheb_u(2, 0.3) * cheb_u(1, -0.4), abs=1e-12)

    def test_mul_matches_pointwise(self):
        rng = np.random.default_rng(11)
        pairs = [(BivariatePoly.from_separable(u_index(2), u_index(1)), BivariatePoly.from_separable(u_index(1), u_index(2)))]
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
            assert mono.to_basis(CHEB_U).approx_eq(prod, 1e-10)

    @given(st.integers(0, 5), st.integers(0, 5), st.floats(-0.9, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_chebu_linearization(self, a, b, x):
        lhs = cheb_u(a, x) * cheb_u(b, x)
        rhs = sum(cheb_u(c, x) for c in range(abs(a - b), a + b + 1, 2))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_basis_mismatch_raises(self):
        a = BivariatePoly.from_separable(u_index(1), u_index(1))
        b = a.to_basis(MONOMIAL)
        with pytest.raises(BasisMismatchError):
            mul(a, b)

    def test_bivariate_basis_round_trip(self):
        rng = np.random.default_rng(7)
        p = BivariatePoly(CHEB_U, rng.normal(size=(4, 5)))
        back = p.to_basis(MONOMIAL).to_basis(CHEB_U)
        assert back.approx_eq(p, 1e-10)

    def test_swap_xy(self):
        p = BivariatePoly.from_separable(u_index(3), u_index(1))
        q = p.swap_xy()
        assert q(0.2, 0.7) == pytest.approx(p(0.7, 0.2), abs=1e-12)

    def test_degrees(self):
        p = BivariatePoly.from_separable(u_index(3), u_index(2))
        assert p.total_degree == 5
        assert p.lex_degree == (3, 2)
        assert p.revlex_degree == (3, 2)  # leading slot, (xdeg, ydeg) convention


class TestLaurent:
    def test_t_map_on_separable(self):
        # T(p(x) U_n(x)) = z^{-n} p((z + 1/z) / 2), applied with n >= deg p
        mono = [0.5, -1.0, 2.0]
        px = UnivariatePoly(MONOMIAL, mono).to_basis(CHEB_U)
        un = u_index(5)
        p = mul(
            BivariatePoly.from_separable(px, u_index(0)),
            BivariatePoly.from_separable(un, u_index(0)),
        )
        img = t_map(p)
        want = LaurentPoly({(e, 0): v for e, v in laurent_substitute_half(mono).items()}).shift(-5, 0)
        assert img.max_abs_diff(want) < 1e-12

    def test_substitute_half_values(self):
        # p = x^2 -> ((u + 1/u)/2)^2 = u^2/4 + 1/2 + u^-2/4
        got = laurent_substitute_half([0.0, 0.0, 1.0])
        assert got == {2: 0.25, 0: 0.5, -2: 0.25}

    def test_laurent_algebra(self):
        a = LaurentPoly({(1, 0): 2.0, (0, 1): 1.0})
        b = LaurentPoly({(-1, 0): 0.5})
        assert (a * b).get(0, 0) == pytest.approx(1.0)
        assert (a - a).support == set()
        assert a.shift(2, -1).get(3, -1) == pytest.approx(2.0)

    def test_separable_table(self):
        t = laurent_from_separable({0: 1.0, 2: 3.0}, {-1: 2.0})
        assert t.get(2, -1) == pytest.approx(6.0)


def test_json_round_trip():
    p = BivariatePoly(CHEB_U, [[1.0, 0.5], [0.0, -2.0]])
    q = poly_from_json(poly_to_json(p))
    assert isinstance(q, BivariatePoly)
    assert q.approx_eq(p, 0.0)
    blob = json.loads(poly_to_json(p))
    assert blob["basis"] == "chebU"
    assert blob["coeffs"] == [[1.0, 0.5], [0.0, -2.0]]
