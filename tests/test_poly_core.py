import math

import numpy as np
import pytest
from conftest import (
    add_reference,
    chebu_mul_reference,
    neg_reference,
    reference_grid,
    scale_reference,
    trim2_reference,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from bsz2d import poly_core
from bsz2d.examples_suite import ex1, ex2, ex4
from bsz2d.moment_oracle import MomentOracle
from bsz2d.poly_core import (
    CHEB_U,
    MONOMIAL,
    BasisMismatchError,
    BivariatePoly,
    UnivariatePoly,
    _extents,
    _square,
    _trim2,
    u_band,
)
from bsz2d.recurrence import total_blocks


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
        n = max(len(back.coeffs), len(p.coeffs))
        diff = np.pad(back.coeffs, (0, n - len(back.coeffs))) - np.pad(p.coeffs, (0, n - len(p.coeffs)))
        assert np.max(np.abs(diff), initial=0.0) <= 1e-9 * (1 + max(abs(c) for c in coeffs))

    def test_monomial_and_chebu_agree_pointwise(self):
        p = UnivariatePoly(CHEB_U, [1.0, -0.5, 0.25, 2.0])
        q = p.to_basis(MONOMIAL)
        for x in np.linspace(-0.9, 0.9, 7):
            assert p(x) == pytest.approx(q(x), abs=1e-12)


class TestBivariate:
    def test_separable_evaluation(self):
        p = u_xy(2, 1)
        assert p(0.3, -0.4) == pytest.approx(cheb_u(2, 0.3) * cheb_u(1, -0.4), abs=1e-12)

    def test_mul_reference_matches_pointwise(self):
        # the product the tests build their references with
        rng = np.random.default_rng(11)
        pairs = [(u_xy(2, 1), u_xy(1, 2))]
        # dense, non-separable operands of unequal shapes
        for sa, sb in [((5, 3), (2, 6)), ((1, 4), (7, 1)), ((4, 4), (4, 4))]:
            pairs.append((BivariatePoly(CHEB_U, rng.normal(size=sa)), BivariatePoly(CHEB_U, rng.normal(size=sb))))
        for a, b in pairs:
            prod = BivariatePoly(CHEB_U, chebu_mul_reference(a.coeffs, b.coeffs))
            assert prod.coeffs.shape == tuple(np.add(a.coeffs.shape, b.coeffs.shape) - 1)
            for x, y in [(0.2, 0.5), (-0.6, -0.1), (0.85, 0.3)]:
                assert prod(x, y) == pytest.approx(a(x, y) * b(x, y), rel=1e-12, abs=1e-12)
        assert chebu_mul_reference(np.zeros((0, 0)), np.ones((2, 2))).size == 0

    @pytest.mark.parametrize("k", range(7))
    def test_u_band_matches_mul(self, k):
        # against the term-by-term product by U_k(x) or U_k(y)
        rng = np.random.default_rng(100 + k)
        for shape in [(5, 3), (1, 6), (7, 1), (2, 2)]:
            c = rng.normal(size=shape)
            for axis, uk in ((0, u_xy(k, 0)), (1, u_xy(0, k))):
                got = u_band(c, k, axis)
                want = list(shape)
                want[axis] += k
                assert got.shape == tuple(want)
                ref = BivariatePoly(CHEB_U, chebu_mul_reference(c, uk.coeffs))
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
            a + b

    def test_bivariate_basis_round_trip(self):
        rng = np.random.default_rng(7)
        p = BivariatePoly(CHEB_U, rng.normal(size=(4, 5)))
        back = p.to_basis(MONOMIAL).to_basis(CHEB_U)
        assert approx_eq(back, p, 1e-10)


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


# -- the construct -> trim -> add path against its earlier form ----------------
# ``trim2_reference`` and ``reference_grid`` (conftest) are the earlier ``_trim2``
# and conversion: every test on raw arrays through np.any and np.asarray.  The
# current trim tests row lists, and the conversion is skipped for a 2-D float64
# grid; they, and the sums, scalings and negations wrapped after them (against
# the reference forms in conftest, which trim by the same np.any loop), must
# give the same shape and bytes.  ``_post_init_reference`` is the earlier
# constructor.


def _post_init_reference(self):
    object.__setattr__(self, "coeffs", reference_grid(self.coeffs))
    if self.basis not in (CHEB_U, MONOMIAL):
        raise ValueError(f"unknown basis {self.basis!r}")


def _same(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# entries that trim and sum differently: signed zeros, NaN, infinities, subnormals
_SPECIAL = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -1.5, 2.0]


# scalars that zero, flip, poison or underflow a grid: 1e-300 takes a row of
# 1e-300 to zero, as 5e-324 does most rows; then a numpy scalar and an int
_SCALARS = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e-300, 5e-324, -1.5, np.float64(0.3), 3]


def _shape(rng) -> tuple[int, int]:
    """A grid shape: half the draws up to 5 x 5, half up to 64 x 64, past the
    widest grids the residual sums form."""
    return tuple(rng.integers(0, 6 if rng.random() < 0.5 else 65, 2))


def _grid(rng, shape) -> np.ndarray:
    """A grid of random and special entries, with zero (or -0.0) trailing rows
    and columns often enough that trimming has work to do."""
    g = np.where(rng.random(shape) < 0.5, rng.standard_normal(shape), rng.choice(_SPECIAL, shape))
    g[rng.random(shape) < 0.4] = 0.0
    if shape[0] and rng.random() < 0.5:
        g[-rng.integers(1, shape[0] + 1) :] = rng.choice([0.0, -0.0])
    if shape[1] and rng.random() < 0.5:
        g[:, -rng.integers(1, shape[1] + 1) :] = rng.choice([0.0, -0.0])
    return g


class _Subclass(np.ndarray):
    """A float64 grid that is not a plain ndarray: construction converts it."""


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf + -inf
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # drawn floats near the float64 maximum
class TestByteIdentity:
    @pytest.mark.parametrize("seed", range(8))
    def test_trim_matches_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            g = _grid(rng, _shape(rng))
            _same(_trim2(g), trim2_reference(g))

    def test_trim_edge_grids(self):
        grids = [
            np.zeros((0, 0)),
            np.zeros((3, 0)),
            np.zeros((0, 4)),
            np.zeros((3, 4)),
            np.full((2, 3), -0.0),
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0, 0.0], [0.0, np.nan]]),
            np.array([[0.0, -0.0], [-0.0, -0.0]]),
            np.array([[0.0, 0.0], [5e-324, 0.0]]),
            np.arange(12.0).reshape(3, 4)[:, ::2],  # a strided view
        ]
        for g in grids:
            _same(_trim2(g), trim2_reference(g))

    @pytest.mark.parametrize(
        "coeffs",
        [
            [],
            [[]],
            [0.0, 0.0],
            [1.0, 2.0, 0.0],
            [[1, 0], [0, 0]],
            [[0.5, -0.0], [np.nan, 0.0]],
            np.array([3, 0, 1]),
            np.array([[1, 2], [0, 0]], dtype=np.int64),
            np.array([[1.5, 0.0], [0.0, 0.0]], dtype=np.float32),
            np.array([[1.0, 2.0], [3.0, 0.0]], dtype=">f8"),
            np.array(2.5),
            np.zeros((0, 0)),
            np.zeros((2, 2)),
            np.array([[1.0, 0.0], [2.0, 0.0]]).view(_Subclass),
        ],
        ids=lambda c: type(c).__name__ + str(np.shape(c)) + getattr(getattr(c, "dtype", None), "str", ""),
    )
    def test_construction_matches_the_conversion(self, coeffs):
        got = BivariatePoly(CHEB_U, coeffs).coeffs
        _same(got, reference_grid(coeffs))
        assert type(got) is np.ndarray

    def test_construction_keeps_a_float_grid(self):
        grid = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert BivariatePoly(CHEB_U, grid).coeffs.base is grid  # a view, as np.asarray gives

    @pytest.mark.parametrize("seed", range(8))
    def test_sum_matches_the_padded_sum(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(50):
            shape = _shape(rng)
            other = shape if rng.random() < 0.5 else _shape(rng)
            p, q = BivariatePoly(CHEB_U, _grid(rng, shape)), BivariatePoly(CHEB_U, _grid(rng, other))
            _same((p + q).coeffs, add_reference(p, q).coeffs)
            _same((p - q).coeffs, add_reference(p, neg_reference(q)).coeffs)

    @pytest.mark.parametrize("c", _SCALARS, ids=repr)
    def test_scale_and_negation_match_the_constructed_forms(self, c):
        rng = np.random.default_rng(200)
        for _ in range(50):
            p = BivariatePoly(CHEB_U, _grid(rng, _shape(rng)))
            _same(p.scale(c).coeffs, scale_reference(p, c).coeffs)
            _same((-p).coeffs, neg_reference(p).coeffs)
        zero = BivariatePoly.zero(CHEB_U)
        _same(zero.scale(c).coeffs, scale_reference(zero, c).coeffs)
        _same((-zero).coeffs, neg_reference(zero).coeffs)

    def test_scale_trims_an_underflowed_row(self):
        p = BivariatePoly(CHEB_U, np.array([[1.0, 1e-300], [1e-300, 1e-300]]))
        got = p.scale(1e-300).coeffs
        _same(got, scale_reference(p, 1e-300).coeffs)
        assert got.tolist() == [[1e-300]]

    @pytest.mark.parametrize("seed", range(4))
    def test_arithmetic_keeps_the_grid_trimmed(self, seed):
        def trimmed(p):
            g = p.coeffs
            assert type(g) is np.ndarray and g.dtype == np.float64 and g.ndim == 2
            # NaN != 0, so NaN counts as nonzero
            assert g.shape == (0, 0) or (g.shape[0] and (g[-1] != 0).any() and (g[:, -1] != 0).any())

        rng = np.random.default_rng(300 + seed)
        for _ in range(50):
            p, q = (BivariatePoly(CHEB_U, _grid(rng, _shape(rng))) for _ in range(2))
            for r in (p + q, p - q, p + p.scale(-1.0), -p, *(p.scale(c) for c in _SCALARS)):
                trimmed(r)

    def test_sum_of_signed_zeros_and_nan(self):
        a = np.array([[-0.0, -0.0, 1.0], [0.0, np.nan, -0.0], [2.0, -0.0, 0.0]])
        b = np.array([[-0.0, 0.0, -1.0], [-0.0, 1.0, np.nan], [-2.0, -0.0, 3.0]])
        p, q = BivariatePoly._wrap(CHEB_U, a), BivariatePoly._wrap(CHEB_U, b)
        got = (p + q).coeffs
        _same(got, add_reference(p, q).coeffs)
        assert not np.signbit(got[0, 0])  # -0.0 + -0.0 is +0.0, as in the padded sum
        zero = BivariatePoly.zero(CHEB_U)
        for x, y in [(p, p), (p, zero), (zero, p), (zero, zero)]:
            _same((x + y).coeffs, add_reference(x, y).coeffs)

    @given(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_grids(self, shape, other, equal, data):
        other = shape if equal else other
        entries = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
        grids = [
            np.array(data.draw(st.lists(entries, min_size=r * c, max_size=r * c)), dtype=float).reshape(r, c)
            for r, c in (shape, other)
        ]
        for g in grids:
            _same(_trim2(g), trim2_reference(g))
            _same(BivariatePoly(CHEB_U, g).coeffs, reference_grid(g))
        p, q = (BivariatePoly(CHEB_U, g) for g in grids)
        _same((p + q).coeffs, add_reference(p, q).coeffs)
        _same(p.scale(-0.5).coeffs, reference_grid(p.coeffs * -0.5))
        _same(p.scale(-0.5).coeffs, scale_reference(p, -0.5).coeffs)
        _same((-p).coeffs, neg_reference(p).coeffs)

    @pytest.mark.parametrize("spec", [ex1(0.45), ex4(0.5, -0.3), ex2(0.4, 0.3)], ids=["ex1", "ex4", "ex2"])
    def test_total_blocks_are_the_same_bytes(self, spec, monkeypatch):
        def blocks():
            orc = MomentOracle(spec)
            return [total_blocks(spec, n, oracle=orc) for n in range(1, 9)]

        new = blocks()
        monkeypatch.setattr(poly_core, "_trim2", trim2_reference)
        monkeypatch.setattr(BivariatePoly, "__post_init__", _post_init_reference)
        monkeypatch.setattr(BivariatePoly, "__add__", add_reference)
        monkeypatch.setattr(BivariatePoly, "scale", scale_reference)
        old = blocks()
        for b_new, b_old in zip(new, old):
            for name in ("a_x", "b_x", "a_y", "b_y"):
                _same(getattr(b_new, name), getattr(b_old, name))
            assert b_new.residual == b_old.residual
