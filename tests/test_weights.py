import math

import numpy as np
import pytest
from conftest import h_eval_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from bsz2d import moment_oracle, weights
from bsz2d.examples_suite import ex2, remark_n4
from bsz2d.poly_core import CHEB_U, MONOMIAL, UnivariatePoly
from bsz2d.weights import (
    GENERIC_H,
    PRODUCT_OMEGA,
    InvalidWeightError,
    UnsupportedWeightError,
    WeightSpec,
    chebyshev_spec,
    generic_spec,
    homogeneous_corner,
    is_stable,
    omega_laurent,
    product_spec,
    spec_from_config,
    spec_to_config,
    tilde_expand,
)

factors_st = st.lists(
    st.floats(-0.9, 0.9).filter(lambda a: abs(a) > 0.05), min_size=1, max_size=3
)


class TestProductExpansion:
    def test_single_factor_rows(self):
        spec = product_spec([-0.5])
        rows = [hi.to_basis(MONOMIAL).coeffs.tolist() for hi in spec.h]
        assert rows[0] == [1.0]
        assert rows[1] == [0.0, -1.0]  # 2 a y with a = -0.5
        assert rows[2] == [0.25]

    @given(factors_st)
    @settings(max_examples=40, deadline=None)
    def test_expansion_matches_pointwise(self, factors):
        spec = product_spec(factors)
        for z, y in [(0.3 + 0.4j, 0.2), (-0.8j, -0.7), (1.0, 0.5)]:
            want = np.prod([1 + 2 * a * y * z + a * a * z * z for a in factors])
            assert h_eval_reference(spec, z, y) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @given(factors_st)
    @settings(max_examples=40, deadline=None)
    def test_degree_bounds_hold(self, factors):
        spec = product_spec(factors)
        n = spec.n_h
        assert n == 2 * len(factors)
        assert spec.kappa == len(factors)
        for i, hi in enumerate(spec.h):
            if not hi.is_zero:
                assert hi.deg <= n / 2 - abs(n / 2 - i)

    def test_invalid_factor_rejected(self):
        with pytest.raises(InvalidWeightError):
            product_spec([0.0])
        with pytest.raises(InvalidWeightError):
            product_spec([1.2])


class TestGeneric:
    def test_h0_must_be_one(self):
        with pytest.raises(InvalidWeightError):
            generic_spec([[2.0], [0.0, 1.0]])

    def test_degree_bound_enforced(self):
        # N_h = 2 allows deg h_1 <= 1; a quadratic h_1 must be rejected
        with pytest.raises(InvalidWeightError):
            generic_spec([[1.0], [0.0, 0.0, 1.0], [0.1]])

    def test_variant_and_tilde(self):
        g = generic_spec([[1.0], [-0.6, -1.0], [0.25, 0.3], [-0.1]])
        assert g.variant == GENERIC_H
        with pytest.raises(UnsupportedWeightError):
            tilde_expand(g)
        p = product_spec([0.4, -0.2])
        assert p.variant == PRODUCT_OMEGA
        assert tilde_expand(p) == p  # same factor parameters
        assert tilde_expand(p) is p  # the spec itself, with its cached expansion

    def test_h_chebu_is_a_read_only_copy_of_h(self):
        for spec in (product_spec([0.5, -0.3]), generic_spec([[1.0], [-0.6, -1.0], [0.25, 0.3], [-0.1]])):
            H = spec.h_chebu
            assert H.shape[0] == spec.n_h + 1
            for i, hi in enumerate(spec.h):
                c = hi.to_basis(CHEB_U).coeffs
                assert np.array_equal(H[i, : len(c)], c) and not np.any(H[i, len(c) :])
            with pytest.raises(ValueError):
                H[0, 0] = 2.0

    @pytest.mark.parametrize(
        "spec, n_h",
        [(ex2(0.6, 0.0), 2), (remark_n4(0.3, 0.0, 0.5), 3), (product_spec([0.5, -0.3]), 4)],
        ids=["ex2-b0", "remark_n4-b2-0", "two-factor"],
    )
    def test_h_mono_is_a_read_only_copy_of_h(self, spec, n_h):
        H = spec.h_mono
        assert spec.n_h == n_h and H.shape[0] == n_h + 1  # a zero top factor lowers N_h
        for i, hi in enumerate(spec.h):
            c = hi.to_basis(MONOMIAL).coeffs
            assert np.array_equal(H[i, : len(c)], c) and not np.any(H[i, len(c) :])
        with pytest.raises(ValueError):
            H[0, 0] = 2.0


class TestLaurentViews:
    @given(factors_st)
    @settings(max_examples=30, deadline=None)
    def test_omega_support_is_diagonal(self, factors):
        table = omega_laurent(product_spec(factors))
        assert set(table) <= {(i, i) for i in range(len(factors) + 1)}
        assert table[(0, 0)] == 1.0

    @given(factors_st)
    @settings(max_examples=30, deadline=None)
    def test_corner_is_elementary_symmetric(self, factors):
        g = homogeneous_corner(product_spec(factors))
        # compare against the polynomial prod (t + a_i)
        poly = np.array([1.0])
        for a in factors:
            poly = np.convolve(poly, [1.0, a])
        assert np.allclose(g, poly)


class TestStability:
    def test_product_always_stable(self):
        rep = is_stable(product_spec([0.9, -0.8]))
        assert rep.stable and rep.method == "analytic"
        assert rep.min_modulus == pytest.approx(1 / 0.9)

    def test_generic_sampled(self):
        rep = is_stable(generic_spec([[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]]))
        assert rep.stable and rep.method == "sampled"
        assert rep.min_modulus > 1.0

    def test_unstable_detected(self):
        # h = 1 - 2z has a root at 1/2 inside the disk
        rep = is_stable(generic_spec([[1.0], [-2.0]]))
        assert not rep.stable
        assert rep.min_modulus == pytest.approx(0.5, rel=1e-9)


def _stability_reference(spec, y_samples=129, tol=1e-9):
    """The sampled certificate one y at a time, with np.roots."""
    ys = np.cos(np.pi * (2 * np.arange(y_samples) + 1) / (2 * y_samples))
    ys = np.concatenate([ys, [-1.0, 1.0]])
    min_mod, witness, drops = float("inf"), None, []
    for y in ys:
        c = np.array([float(hi(y)) for hi in spec.h])
        nz = len(c)
        while nz > 1 and abs(c[nz - 1]) <= 1e-14 * np.max(np.abs(c)):
            nz -= 1
        if nz < len(c):
            drops.append(float(y))
        if nz > 1:
            m = float(np.min(np.abs(np.roots(c[:nz][::-1]))))
            if m < min_mod:
                min_mod, witness = m, float(y)
    return min_mod > 1.0 + tol, min_mod, witness, tuple(drops)


@pytest.mark.parametrize(
    "rows",
    [
        [[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]],
        [[1], [-0.6, -1.2], [0.3]],  # unstable, min modulus 0.62
        [[1], [0.3, -0.5], [0.0]],  # h_2 = 0: the degree drops at every y
        [[1], [0.1, 0.2], [0.1, 0.0, 0.05], [0.0, 0.3], [0.0]],  # h_3 = 0.3 y also vanishes near y = 0
        [[1.0], [-2.0]],
        [[1.0]],  # h = 1 has no roots
    ],
)
def test_batched_stability_matches_per_sample_roots(rows):
    spec = generic_spec(rows)
    rep = is_stable(spec)
    stable, min_mod, witness, drops = _stability_reference(spec)
    assert rep.method == "sampled" and rep.stable == stable
    assert rep.min_modulus == pytest.approx(min_mod, rel=1e-12)
    assert rep.witness_y == witness and rep.degree_drops == drops


def test_batched_stability_on_random_specs():
    rng = np.random.default_rng(3)
    for n_h in (2, 3, 4):
        for _ in range(5):
            rows = [[1.0]] + [list(rng.uniform(-0.4, 0.4, int(min(i, n_h - i)) + 1)) for i in range(1, n_h + 1)]
            spec = generic_spec(rows)
            rep = is_stable(spec)
            stable, min_mod, witness, drops = _stability_reference(spec)
            assert (rep.stable, rep.witness_y, rep.degree_drops) == (stable, witness, drops)
            assert rep.min_modulus == pytest.approx(min_mod, rel=1e-12)


def test_stability_is_computed_once_per_spec():
    spec = generic_spec([[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]])
    rep = spec.stability
    assert spec.stability is rep
    assert rep == is_stable(spec)
    assert is_stable(spec, y_samples=33) is not rep  # other arguments still compute


def test_stability_certificate_checks_its_budget(monkeypatch):
    # h = 1 + 0.5 z^20 at 131 y values: 131 companion matrices of 20^2 doubles, 409 KiB
    spec = generic_spec([[1.0]] + [[0.0]] * 19 + [[0.5]])
    assert is_stable(spec).stable  # roots of modulus 2^(1/20)
    monkeypatch.setattr(weights, "MAX_BLOCK_BYTES", 2**18)
    with pytest.raises(moment_oracle.ResourceLimitError, match="a stack of 131 companion matrices of degree 20"):
        is_stable(spec)
    assert is_stable(spec, y_samples=2).stable  # 4 matrices fit


class TestConfig:
    def test_round_trip_product(self):
        spec = product_spec([-0.5, 0.3])
        again = spec_from_config(spec_to_config(spec))
        assert again == spec

    def test_round_trip_generic(self):
        spec = generic_spec([[1.0], [-0.6, -1.0], [0.25, 0.3], [-0.1]])
        again = spec_from_config(spec_to_config(spec))
        assert again == spec

    def test_zero_factors_dropped(self):
        spec = spec_from_config({"product": [0.0, 0.5]})
        assert spec.factors == (0.5,)

    def test_bad_config(self):
        with pytest.raises(InvalidWeightError):
            spec_from_config({"nonsense": 1})


def test_chebyshev_degenerate_spec():
    ch = chebyshev_spec()
    assert ch.variant == PRODUCT_OMEGA
    assert ch.n_h == 0 and ch.n_f == 0 and ch.kappa == 0
    assert ch.h_abs2(0.5, 0.3) == pytest.approx(1.0)


def test_fingerprint_is_order_insensitive_for_products():
    assert product_spec([0.3, -0.5]) == product_spec([-0.5, 0.3])
