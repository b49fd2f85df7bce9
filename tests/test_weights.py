import math

import numpy as np
import pytest
from conftest import CROSSING_ROWS, h_eval_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from bsz2d import moment_oracle, weights
from bsz2d.examples_suite import ex2, remark_n4
from bsz2d.poly_core import CHEB_U, MONOMIAL, UnivariatePoly
from bsz2d.szego_core import qk_grid, tilde_ql_grid
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
    product_spec,
    spec_from_config,
    spec_to_config,
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
        # only a product weight has a reflected weight: its own factors, variables exchanged
        g = generic_spec([[1.0], [-0.6, -1.0], [0.25, 0.3], [-0.1]])
        assert g.variant == GENERIC_H
        p = product_spec([0.4, -0.2])
        assert p.variant == PRODUCT_OMEGA
        for l in range(6):
            with pytest.raises(UnsupportedWeightError):
                tilde_ql_grid(g, l)
            assert np.array_equal(tilde_ql_grid(p, l), qk_grid(p, l).T)

    @pytest.mark.parametrize("rows", [[[math.nan]], [[1.0], [math.nan]], [[1.0], [0.5], [math.nan]],
                                      [[1.0], [0.0, math.inf]], [[1.0], [-math.inf]]])
    def test_non_finite_coefficients_rejected(self, rows):
        # a NaN h_0 would pass the h_0 = 1 test, and the stability certificate would pass NaN rows
        with pytest.raises(InvalidWeightError, match="finite"):
            generic_spec(rows)

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

    def test_generic_resultant(self):
        rep = is_stable(generic_spec([[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]]))
        assert rep.stable and rep.method == "resultant" and rep.crossing_y is None
        assert rep.min_modulus > 1.0

    def test_unstable_detected(self):
        # h = 1 - 2z has a root at 1/2 inside the disk at every y, so no crossing: y0 = 0 is named
        rep = is_stable(generic_spec([[1.0], [-2.0]]))
        assert not rep.stable and rep.crossing_y == 0.0
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
    assert rep.stable == stable
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


def test_stability_is_computed_once_per_spec(monkeypatch):
    rows = [[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]]
    spec = generic_spec(rows)
    rep = spec.stability
    assert spec.stability is rep
    assert is_stable(spec) is rep
    min_mod = rep.min_modulus
    monkeypatch.setattr(weights, "SCAN_SAMPLES", 33)
    assert rep.min_modulus == min_mod  # the report keeps its scan
    fresh = generic_spec(rows)  # a new spec object gets a new report, with a new scan
    assert is_stable(fresh).min_modulus == pytest.approx(_stability_reference(fresh, y_samples=33)[1], rel=1e-12)


@pytest.mark.parametrize("first", ["is_stable", "require_stable", "MomentOracle"])
def test_certified_once_whichever_entry_point_asks_first(monkeypatch, first):
    calls = []
    real = weights._crossing_test

    def counting(H):
        calls.append(H.shape)
        return real(H)

    monkeypatch.setattr(weights, "_crossing_test", counting)
    spec = generic_spec([[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]])
    entry = {
        "is_stable": is_stable,
        "require_stable": weights.require_stable,
        "MomentOracle": moment_oracle.MomentOracle,
    }
    entry.pop(first)(spec)
    for ask in entry.values():
        ask(spec)
    assert len(calls) == 1
    assert is_stable(spec) is spec.stability


def test_product_degrees_match_the_expansion():
    # N_h = 2 N_f and kappa = N_f from the factors, unless prod a_i^2 underflows and the
    # expansion drops rows: [1e-200] has N_h = 1, while [1e-160] keeps a subnormal top row
    rng = np.random.default_rng(26)
    tiny = [1e-200, 1e-170, 1e-160, 1e-120, 1e-100, 1e-80]
    cases = [[], [1e-200], [1e-160], [1e-160, 1e-3], [1e-160, 0.5], [1e-100] * 4, [0.999, -0.999]]
    for _ in range(300):
        mags = [rng.choice(tiny) if rng.random() < 0.3 else rng.uniform(1e-3, 0.999) for _ in range(rng.integers(0, 5))]
        cases.append([float(rng.choice([-1.0, 1.0])) * m for m in mags])
    underflows = 0
    for a in cases:
        spec = product_spec(a)
        n_h, kappa = spec.n_h, spec.kappa
        h = product_spec(a).h  # the expansion, on another spec object
        assert n_h == len(h) - 1, a
        assert kappa == max((hi.deg for hi in h if not hi.is_zero), default=0), a
        underflow = math.prod(x * x for x in a) == 0.0
        assert ("h" in spec.__dict__) == underflow, a  # the expansion is built only on underflow
        underflows += underflow
    assert product_spec([1e-200]).n_h == 1 and product_spec([1e-160]).n_h == 2
    assert 20 < underflows < len(cases) - 100


def test_product_spec_builds_no_expansion_until_a_caller_needs_coefficients():
    spec = product_spec([0.5, -0.3])
    assert (spec.n_h, spec.kappa, spec.n_f) == (4, 2, 2)
    assert spec.stability.stable and spec.fingerprint
    moment_oracle.MomentOracle(spec).chebu_table(4)
    assert not {"h", "h_chebu", "h_mono"} & set(spec.__dict__)
    assert spec.h_mono.shape == (5, 3) and "h" in spec.__dict__


def test_stability_certificate_checks_its_budget(monkeypatch):
    # h = 1 + 0.5 z^20: a resultant constant in y, one Sylvester matrix of 40^2 doubles, but the
    # diagnostic scan at 131 y values needs 131 companion matrices of 20^2 doubles, 409 KiB
    spec = generic_spec([[1.0]] + [[0.0]] * 19 + [[0.5]])
    assert is_stable(spec).stable  # roots of modulus 2^(1/20)
    monkeypatch.setattr(weights, "MAX_BLOCK_BYTES", 2**18)
    rep = is_stable(spec)
    assert rep.stable
    with pytest.raises(moment_oracle.ResourceLimitError, match="a stack of 131 companion matrices of degree 20"):
        rep.min_modulus
    monkeypatch.setattr(weights, "SCAN_SAMPLES", 2)
    assert is_stable(spec).min_modulus == pytest.approx(2 ** (1 / 20))  # 4 matrices fit
    # h_1 = 0.1 y raises the resultant's y-degree to 40: 41 Sylvester matrices, 513 KiB
    with pytest.raises(moment_oracle.ResourceLimitError, match="a stack of 41 Sylvester matrices of order 40"):
        is_stable(generic_spec([[1.0], [0.0, 0.1]] + [[0.0]] * 18 + [[0.5]]))


def test_crossing_between_samples_is_refused():
    spec = generic_spec(CROSSING_ROWS)
    rep = is_stable(spec)
    assert rep.min_modulus > 1.0 + weights.MODULUS_MARGIN  # the sampled scan misses it
    assert not rep.stable and rep.method == "resultant"
    assert min(abs(rep.crossing_y + 0.3797), abs(rep.crossing_y + 0.3615)) < 1e-3
    c = np.array([float(hi(rep.crossing_y)) for hi in spec.h])
    assert abs(np.min(np.abs(np.roots(c[::-1]))) - 1.0) < 1e-9  # a root on the circle there


def test_reading_the_verdict_runs_no_scan(monkeypatch):
    def fail(*args):
        raise AssertionError("the diagnostic scan ran")

    monkeypatch.setattr(weights, "_sampled_scan", fail)
    assert is_stable(generic_spec([[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]])).stable
    moment_oracle.MomentOracle(generic_spec([[1.0], [0.3, -0.5], [0.1]]))


@pytest.mark.parametrize(
    "rows,stable",
    [
        ([[1.0], [1.0, 1.0], [0.25, 1.0], [0.25]], False),  # (1 + z)(1 + y z + z^2 / 4): R = 0, a root at -1
        ([[1.0], [-2.5], [1.0]], False),  # (1 - 2z)(1 - z / 2): a reciprocal pair, R = 0
        ([[1], [0.3, -0.5], [0.0]], True),  # h_2 = 0
        ([[1.0], [0.0, 1.998], [0.998001]], True),  # product [0.999]: R has a root at y = 1 + 5e-7
    ],
    ids=["root-on-circle", "reciprocal-pair", "top-vanishes", "root-at-edge"],
)
def test_inconclusive_crossing_test_falls_back_to_the_dense_scan(rows, stable):
    rep = is_stable(generic_spec(rows))
    assert rep.method == "scan" and rep.stable == stable
    assert (rep.crossing_y is None) == stable


@pytest.mark.parametrize(
    "rows", [CROSSING_ROWS, [[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]], [[1.0], [0.5, 0.2], [0.3]]]
)
def test_resultant_parts_match_references(rows):
    # |det S(y)| = |h_N|^(2N) |prod_ij (1 - a_i a_j)| over the roots a_i of h(., y); the nodes'
    # values map to the Chebyshev coefficients numpy's chebval reads; the colleague matrix has the
    # eigenvalues of numpy's chebroots
    H = generic_spec(rows).h_mono
    n, kappa = len(H) - 1, H.shape[1] - 1
    ys, powers, to_cheb, r, c, k = weights._resultant_grid(n, kappa)
    vals = powers @ H.T
    S = np.zeros((len(ys), 2 * n, 2 * n))
    S[:, r, c] = vals[:, k]
    for row, det in zip(vals, np.linalg.det(S)):
        a = np.roots(row[::-1])
        want = abs(row[-1] ** (2 * n) * np.prod(1.0 - np.outer(a, a)))
        assert abs(abs(det) - want) <= 1e-12 * max(1.0, want)
    cheb = np.polynomial.chebyshev
    coeffs = np.random.default_rng(len(ys)).normal(size=len(ys))
    assert np.allclose(to_cheb @ cheb.chebval(ys, coeffs), coeffs, atol=1e-13)
    got, want = weights._chebyshev_roots(coeffs), cheb.chebroots(coeffs)
    assert np.allclose(np.sort_complex(got), np.sort_complex(want), atol=1e-9)


def _rescaled_rows(rng, n_h, rho):
    """Random rows within the degree bounds, rescaled (h_i -> s^i h_i) so that the sampled
    minimum root modulus is rho, as the benchmark's generators draw them."""
    rows = [[1.0]] + [list(rng.uniform(-1.0, 1.0, int(min(i, n_h - i)) + 1)) for i in range(1, n_h + 1)]
    s = is_stable(generic_spec(rows)).min_modulus / rho
    return [[c * s**i for c in row] for i, row in enumerate(rows)]


@pytest.mark.parametrize("lo,hi,stable", [(1.02, 2.2, True), (0.7, 0.99, False)], ids=["stable", "unstable"])
def test_certificate_battery(lo, hi, stable):
    rng = np.random.default_rng(11 if stable else 12)
    for k in range(90):
        spec = generic_spec(_rescaled_rows(rng, 2 + k % 3, rng.uniform(lo, hi)))
        rep = is_stable(spec)
        assert rep.stable == stable, spec.h
        if rep.stable != (rep.min_modulus > 1.0 + weights.MODULUS_MARGIN):
            dense = weights._sampled_scan(spec.h, 20001)[0]
            assert rep.stable == (dense > 1.0 + weights.MODULUS_MARGIN), spec.h


@pytest.mark.parametrize(
    "spec",
    [ex2(0.6, 0.3), ex2(-0.5, 0.25), remark_n4(0.3, -0.2, 0.5), generic_spec([[1.0], [0.0, 1.95], [0.950625]])],
    ids=["ex2", "ex2-negative", "remark_n4", "near-boundary"],
)
def test_certificate_keeps_known_verdicts(spec):
    rep = is_stable(spec)
    assert rep.stable and rep.method == "resultant" and rep.min_modulus > 1.0


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
