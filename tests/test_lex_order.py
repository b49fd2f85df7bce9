import dataclasses
from collections import OrderedDict

import numpy as np
import pytest
from conftest import chebu_mul_reference

from bsz2d import lex_order, moment_oracle
from bsz2d.lex_order import (
    RecursionBreakdownError,
    _closed_grid,
    _forbidden_rows,
    _high_band_grids,
    _null_vector,
    build_lex_high,
    build_lex_high_recursion,
    connection_reshape,
    eliminate,
    lex_system,
)
from bsz2d.moment_oracle import MomentOracle, OracleUnreliableError, oracle_for
from bsz2d.ortho import LEX, REVLEX, index_sequence
from bsz2d.poly_core import CHEB_U, BivariatePoly
from bsz2d.szego_core import build_qk, norm_threshold, tilde_ql_grid
from bsz2d.weights import PRODUCT_OMEGA, generic_spec, product_spec

SPEC1 = product_spec([-0.6])        # N_f = 1, N_h = 2, kappa = 1
SPEC2 = product_spec([0.5, -0.3])   # N_f = 2, N_h = 4, kappa = 2
SPEC3 = product_spec([0.4, 0.3, -0.5])  # N_f = 3
SPEC_CUBIC = generic_spec([[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]])


def u_xy(i: int, j: int) -> BivariatePoly:
    """U_i(x) U_j(y)."""
    c = np.zeros((i + 1, j + 1))
    c[i, j] = 1.0
    return BivariatePoly(CHEB_U, c)


def approx_eq(p, q, tol: float) -> bool:
    """Every coefficient of p - q (one basis) is at most tol in modulus."""
    return bool(np.max(np.abs((p - q).coeffs), initial=0.0) <= tol)


def _loop_forbidden_rows(grids: np.ndarray, r: int, k: int, m: int) -> np.ndarray:
    """The high-band matrix M, slot by slot in row-major order."""
    rows = []
    for i in range(grids.shape[1]):
        for j in range(grids.shape[2]):
            forbidden = j > m or i > r or (i == r and j > k)
            if forbidden and np.any(grids[:, i, j] != 0.0):
                rows.append(grids[:, i, j])
    return np.array(rows) if rows else np.zeros((0, len(grids)))


def _product(a: np.ndarray, b: BivariatePoly) -> BivariatePoly:
    """The polynomial of grid a times b, by the term-by-term product."""
    return BivariatePoly(CHEB_U, chebu_mul_reference(a, b.coeffs))


def _reference_low(spec, r, k) -> BivariatePoly:
    """q_r(x, y) U_k(y), un-normalized: the low-band lex slot (r, k)."""
    return _product(build_qk(spec, r).coeffs, u_xy(0, k))


def _reference_terms(spec, r, k, m) -> list[BivariatePoly]:
    """The high-band candidate products, each by a general two-axis product."""
    steps = k - (m - spec.n_f)
    terms = [_product(build_qk(spec, r + j).coeffs, u_xy(0, k - j)) for j in range(steps)]
    terms += [_product(tilde_ql_grid(spec, m + 1 + j), u_xy(r + k - m - 1 - j, 0)) for j in range(steps)]
    return terms


def _pad(polys: list[BivariatePoly]) -> np.ndarray:
    out = np.zeros((len(polys), max(p.coeffs.shape[0] for p in polys), max(p.coeffs.shape[1] for p in polys)))
    for a, p in enumerate(polys):
        out[a, : p.coeffs.shape[0], : p.coeffs.shape[1]] = p.coeffs
    return out


def _reference_slot(spec, r, k, m) -> BivariatePoly | None:
    """The closed-form lex slot (r, k), un-normalized, by general products
    and the looped high-band matrix; None where the oracle builds it."""
    if k <= m - spec.kappa and r >= norm_threshold(spec.n_h):
        return _reference_low(spec, r, k)
    if not (spec.variant == PRODUCT_OMEGA and m - spec.n_f < k <= m and r >= 2 * spec.n_f and m >= 2 * spec.n_f):
        return None
    terms = _reference_terms(spec, r, k, m)
    M = _loop_forbidden_rows(_pad(terms), r, k, m)
    _, sv, Vt = np.linalg.svd(M)
    if len(terms) - len(sv) + int(np.sum(sv <= 1e-8 * sv[0])) != 1:
        return None
    p = BivariatePoly.zero(CHEB_U)
    for c, t in zip(Vt[-1], terms):
        p = p + t.scale(float(c))
    return p


def _reference_system(spec, n, m, ordering):
    """(index, polynomial, norm) per slot, each closed-form slot normalized
    on its own; the rest from oracle Gram-Schmidt."""
    orc = oracle_for(spec)
    swap = ordering == REVLEX
    major, minor = (m, n) if swap else (n, m)
    out = []
    for r in range(major + 1):
        for k in range(minor + 1):
            idx = (k, r) if swap else (r, k)
            p = _reference_slot(spec, r, k, minor) if spec.variant == PRODUCT_OMEGA or not swap else None
            if p is None:
                system = orc.gram_schmidt(ordering, n, m)
                pos = system.indices().index(idx)
                out.append((idx, system.entries[pos][1], system.norms[pos]))
            else:
                out.append((idx, *orc.normalized(BivariatePoly(CHEB_U, p.coeffs.T) if swap else p, idx)))
    return out


class TestBands:
    def test_band_geometry(self):
        # [0.5, -0.3] has kappa = N_f = 2: row 5 of a width-5 window is q_5 U_k for k <= 3,
        # and the high band mixes in other terms at k = 4, 5
        for k in range(6):
            grid = BivariatePoly(CHEB_U, _closed_grid(SPEC2, 5, k, 5))
            low = _reference_low(SPEC2, 5, k)
            assert approx_eq(grid, low, 1e-13 * np.max(np.abs(low.coeffs))) == (k <= 3)

    def test_low_band_guards(self):
        # rows below the pi/2-norm threshold N_h / 2 = 2 have no closed form: the oracle builds them
        assert [r for r in range(4) if _closed_grid(SPEC2, r, 0, 5) is None] == [0, 1]
        assert _closed_grid(SPEC_CUBIC, 1, 0, 3) is not None  # a generic weight has the low band too

    @pytest.mark.parametrize(
        "spec, ks", [(SPEC2, range(5)), (product_spec([0.4, 0.3, -0.5, 0.2]), range(3))], ids=["n4", "n8"]
    )
    def test_even_boundary_row_matches_the_closed_form(self, spec, ks):
        # for even N_h the row r = N_h / 2 - 1, one below the threshold, is still q_r U_k
        orc = MomentOracle(spec)
        r = spec.n_h // 2 - 1
        assert r == norm_threshold(spec.n_h) - 1
        system = orc.gram_schmidt(LEX, r, max(ks) + spec.kappa)
        for k in ks:
            want, _ = orc.normalized(_reference_low(spec, r, k), (r, k))
            assert approx_eq(system.poly((r, k)), want, 1e-13)


class TestLowBand:
    def test_matches_oracle_and_window_independent(self):
        orc = oracle_for(SPEC2)
        small = orc.gram_schmidt(LEX, 3, 3)
        wide = orc.gram_schmidt(LEX, 3, 5)
        closed_small, closed_wide = lex_system(SPEC2, 3, 3), lex_system(SPEC2, 3, 5)
        for r in (2, 3):
            for k in (0, 1):
                closed, _ = orc.normalized(_reference_low(SPEC2, r, k), (r, k))
                assert approx_eq(closed, small.poly((r, k)), 1e-7)
                assert approx_eq(closed, wide.poly((r, k)), 1e-7)
                assert approx_eq(closed_small.poly((r, k)), closed_wide.poly((r, k)), 1e-14)

    def test_one_factor_slot(self):
        orc = oracle_for(SPEC1)
        system = orc.gram_schmidt(LEX, 2, 2)
        closed, _ = orc.normalized(_reference_low(SPEC1, 2, 0), (2, 0))
        assert approx_eq(closed, system.poly((2, 0)), 1e-7)
        assert approx_eq(lex_system(SPEC1, 2, 2).poly((2, 0)), closed, 1e-13)


class TestHighBand:
    def test_guards(self):
        with pytest.raises(ValueError):
            build_lex_high(SPEC2, 5, 2, 5)  # k below the band
        with pytest.raises(ValueError):
            build_lex_high(SPEC2, 2, 5, 5)  # r < 2 N_f

    def test_matches_oracle(self):
        orc = oracle_for(SPEC2)
        system = orc.gram_schmidt(LEX, 5, 5)
        for k in (4, 5):  # the high band m - N_f < k <= m
            p = build_lex_high(SPEC2, 5, k, 5)
            assert approx_eq(p, system.poly((5, k)), 1e-7)

    def test_leading_weight_present(self):
        grids = _high_band_grids(SPEC2, 5, 5, 5)
        v = _null_vector(grids, 5, 5, 5)
        assert len(grids) == 2 * 2  # J = 2 a-terms plus J b-terms
        assert abs(v[0]) > 1e-6 * np.max(np.abs(v))

    @pytest.mark.parametrize("spec, slots", [
        (SPEC1, [(2, 3, 3), (4, 5, 5), (6, 4, 4)]),
        (SPEC2, [(4, 4, 4), (5, 4, 5), (5, 5, 5), (6, 5, 6), (7, 7, 7)]),
        (SPEC3, [(6, 4, 6), (6, 5, 6), (6, 6, 6), (8, 7, 8)]),
        (product_spec([0.9]), [(3, 5, 5), (7, 7, 7)]),
    ])
    def test_masked_matrix_matches_loop(self, spec, slots):
        for r, k, m in slots:
            grids = _high_band_grids(spec, r, k, m)
            M = _forbidden_rows(grids, r, k, m)
            assert M.shape[0] > 0
            assert np.array_equal(M, _loop_forbidden_rows(grids, r, k, m))
            ref = _loop_forbidden_rows(_pad(_reference_terms(spec, r, k, m)), r, k, m)
            assert M.shape == ref.shape
            assert np.max(np.abs(M - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_kills_forbidden_slots(self):
        terms = _reference_terms(SPEC2, 4, 5, 5)
        v = _null_vector(_high_band_grids(SPEC2, 4, 5, 5), 4, 5, 5)
        acc = np.zeros((max(t.coeffs.shape[0] for t in terms), max(t.coeffs.shape[1] for t in terms)))
        for c, t in zip(v, terms):
            si, sj = t.coeffs.shape
            acc[:si, :sj] += c * t.coeffs
        scale = np.max(np.abs(acc))
        for i in range(acc.shape[0]):
            for j in range(acc.shape[1]):
                if j > 5 or i > 4 or (i == 4 and j > 5):
                    assert abs(acc[i, j]) < 1e-10 * scale


class TestElimination:
    def test_requires_product_weight(self):
        gen = generic_spec([[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]])
        with pytest.raises(ValueError):
            eliminate(gen, 4, 3, 3)

    def test_step_bookkeeping(self):
        state = eliminate(SPEC2, 5, 5, 5)
        assert state.step == 2
        assert len(state.ks) == 2
        assert len(state.gamma) == 1  # degree N_f - steps = 0

    @pytest.mark.parametrize("r,k,m", [(4, 4, 4), (5, 4, 5), (5, 5, 5), (6, 5, 6)])
    def test_recursion_agrees_with_nullspace(self, r, k, m):
        a = build_lex_high(SPEC2, r, k, m)
        b = build_lex_high_recursion(SPEC2, r, k, m)
        assert approx_eq(a, b, 1e-8)

    def test_one_factor_band(self):
        a = build_lex_high(SPEC1, 2, 3, 3)
        b = build_lex_high_recursion(SPEC1, 2, 3, 3)
        assert approx_eq(a, b, 1e-8)
        assert approx_eq(a, oracle_for(SPEC1).gram_schmidt(LEX, 2, 3).poly((2, 3)), 1e-7)


def _laurent_image(spec, r: int, m: int, gamma: np.ndarray) -> np.ndarray:
    """z^{-r} w^{-m} prod_i (1 + a_i z w) sum_i gamma_i z^i w^{deg - i}, formed
    term by term as a dict of z^a w^b coefficients, with z^a w^b placed at
    grid entry (-a, -b)."""
    omega = {(0, 0): 1.0}
    for a in spec.factors:
        nxt: dict[tuple[int, int], float] = {}
        for (p, q), v in omega.items():
            nxt[(p, q)] = nxt.get((p, q), 0.0) + v
            nxt[(p + 1, q + 1)] = nxt.get((p + 1, q + 1), 0.0) + a * v
        omega = nxt
    deg = len(gamma) - 1
    table: dict[tuple[int, int], float] = {}
    for (p, q), v in omega.items():
        for i, g in enumerate(gamma):
            key = (p + i - r, q + deg - i - m)
            table[key] = table.get(key, 0.0) + v * g
    grid = np.zeros((r + 1, m + 1))
    for (a, b), v in table.items():
        assert a <= 0 and b <= 0, (a, b)  # a positive exponent has no grid entry
        grid[-a, -b] = v
    return grid


class TestEliminationRefusals:
    @pytest.mark.parametrize("spec", [SPEC1, SPEC2, SPEC3], ids=["nf1", "nf2", "nf3"])
    def test_perturbed_gamma_is_refused(self, spec):
        n_f = spec.n_f
        for steps in range(1, n_f + 1):
            state = eliminate(spec, 2 * n_f + 1, n_f + steps, 2 * n_f)
            state.check_invariants()
            gamma = state.gamma.copy()
            gamma[0] += 1e-6
            with pytest.raises(RecursionBreakdownError, match=f"image invariant violated at step {steps}"):
                dataclasses.replace(state, gamma=gamma).check_invariants()

    def test_nan_gamma_is_refused(self):
        state = eliminate(SPEC2, 5, 5, 5)
        with pytest.raises(RecursionBreakdownError, match="image invariant violated at step 2: nan"):
            dataclasses.replace(state, gamma=np.array([np.nan])).check_invariants()

    def test_surviving_w_term_is_refused(self, monkeypatch):
        r, m = 5, 5
        state = eliminate(SPEC2, r, 5, m)
        grid = state.s_poly().coeffs
        bad = np.zeros((grid.shape[0], max(grid.shape[1], m + 2)))
        bad[:, : grid.shape[1]] = grid
        bad[r, m + 1] += 1e-6 * np.max(np.abs(grid))  # w^{-(m+1)}, far above the 1e-9 cutoff
        monkeypatch.setattr(state, "s_poly", lambda: BivariatePoly(CHEB_U, bad))
        with pytest.raises(RecursionBreakdownError, match="image invariant violated at step 2"):
            state.check_invariants()

    def test_vanishing_gamma_0_is_refused(self, monkeypatch):
        monkeypatch.setattr(lex_order, "homogeneous_corner", lambda spec: np.array([0.0, 0.2, -0.15]))
        with pytest.raises(RecursionBreakdownError, match="gamma_0 ~ 0 entering step 1"):
            eliminate(SPEC2, 5, 5, 5)

    def test_predicted_image_is_the_laurent_product(self):
        rng = np.random.default_rng(2718)
        for _ in range(40):
            n_f = int(rng.integers(1, 4))
            spec = product_spec(list(rng.uniform(0.05, 0.9, n_f) * rng.choice([-1.0, 1.0], n_f)))
            r, m = (int(v) for v in rng.integers(2 * n_f, 10, size=2))
            steps = int(rng.integers(1, n_f + 1))
            state = eliminate(spec, r, m - n_f + steps, m)
            got = state.predicted_image()
            want = _laurent_image(spec, r, m, state.gamma)
            assert got.shape == want.shape == (r + 1, m + 1)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class TestSystems:
    def test_lex_system_orthonormal(self):
        spec = generic_spec([[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]])
        orc = oracle_for(spec)
        system = lex_system(spec, 3, 3)
        polys = [p for _, p in system.entries]
        G = np.array([[orc.inner(p, q) for q in polys] for p in polys])
        assert np.max(np.abs(G - np.eye(len(polys)))) < 1e-7

    def test_lex_system_matches_pure_oracle(self):
        orc = oracle_for(SPEC2)
        mixed = lex_system(SPEC2, 4, 4)
        pure = orc.gram_schmidt(LEX, 4, 4)
        for (idx, p), (idx2, q) in zip(mixed.entries, pure.entries):
            assert idx == idx2
            assert approx_eq(p, q, 1e-7)

    def test_revlex_system(self):
        orc = oracle_for(SPEC2)
        mixed = lex_system(SPEC2, 3, 3, ordering=REVLEX)
        pure = orc.gram_schmidt(REVLEX, 3, 3)
        for (idx, p), (idx2, q) in zip(mixed.entries, pure.entries):
            assert idx == idx2
            assert approx_eq(p, q, 1e-7)

    @pytest.mark.parametrize("ordering", [LEX, REVLEX])
    @pytest.mark.parametrize(
        "spec", [SPEC2, SPEC3, product_spec([0.9]), SPEC_CUBIC], ids=["f2", "f3", "a09", "generic"]
    )
    def test_lex_system_matches_per_slot_reference(self, spec, ordering):
        for n, m in [(3, 3), (5, 7), (6, 4), (8, 8)]:
            got = lex_system(spec, n, m, ordering)
            ref = _reference_system(spec, n, m, ordering)
            assert got.indices() == [idx for idx, _, _ in ref]
            for (_, p), nrm, (_, q, want) in zip(got.entries, got.norms, ref):
                assert approx_eq(p, q, 1e-13 * max(1.0, np.max(np.abs(q.coeffs))))
                assert abs(nrm - want) <= 1e-13 * want

    def test_bad_ordering(self):
        with pytest.raises(ValueError):
            lex_system(SPEC1, 2, 2, ordering="total")

    @pytest.mark.parametrize("n,m", [(-1, 2), (2, -1)])
    def test_negative_bounds(self, n, m):
        with pytest.raises(ValueError, match="nonnegative"):
            lex_system(SPEC1, n, m)

    @pytest.mark.parametrize("ordering", [LEX, REVLEX])
    @pytest.mark.parametrize("spec", [SPEC2, SPEC3, SPEC_CUBIC], ids=["f2", "f3", "generic"])
    def test_one_assembly_pass(self, oracle_calls, spec, ordering):
        # closed slots are normalized in one batch, and the fallback is one Gram-Schmidt run
        orc = MomentOracle(spec)
        for n, m in [(3, 3), (5, 7), (8, 8)]:
            lex_system(spec, n, m, ordering, orc)
            assert oracle_calls["normalized"] == 0 and oracle_calls["gram_schmidt"] <= 1
            oracle_calls.clear()


class TestFallbackPrefix:
    """A Gram-Schmidt slot depends only on the slots before it, so lex_system
    factors only the leading window that holds every fallback slot."""

    @pytest.mark.parametrize("ordering,window", [(LEX, (LEX, 3, 8)), (REVLEX, (REVLEX, 8, 3))])
    def test_only_the_prefix_is_factored(self, monkeypatch, ordering, window):
        # on [0.5, -0.3] the 22 fallback slots of the 8 x 8 window lie in rows 0..3 (revlex: columns)
        orc = MomentOracle(SPEC2)
        asked = []
        real = orc.gram_schmidt
        monkeypatch.setattr(orc, "gram_schmidt", lambda *w: asked.append(w) or real(*w))
        lex_system(SPEC2, 8, 8, ordering, orc)
        assert asked == [window]
        assert len(index_sequence(*window)) == 36

    @pytest.mark.parametrize("ordering", [LEX, REVLEX])
    def test_prefix_slots_match_the_whole_window(self, monkeypatch, ordering):
        orc = MomentOracle(SPEC2)
        fallback = []
        real = orc.assemble

        def spy(ordering, slots, closed, n, m=None):
            fallback.extend(idx for idx in slots if idx not in closed)
            return real(ordering, slots, closed, n, m)

        monkeypatch.setattr(orc, "assemble", spy)
        system = lex_system(SPEC2, 8, 8, ordering, orc)
        whole = orc.gram_schmidt(ordering, 8, 8)
        assert len(fallback) == 22
        at = {idx: k for k, idx in enumerate(whole.indices())}
        for idx in fallback:
            p, q = system.poly(idx), whole.poly(idx)
            assert p.coeffs.shape == q.coeffs.shape
            assert np.max(np.abs(p.coeffs - q.coeffs)) < 1e-13
            assert abs(system.norms[system.indices().index(idx)] - whole.norms[at[idx]]) < 1e-13

    def test_condition_gate_still_applies(self, monkeypatch):
        monkeypatch.setattr(moment_oracle, "COND_CAP", 1.0)
        with pytest.raises(OracleUnreliableError):
            lex_system(SPEC2, 8, 8, LEX, MomentOracle(SPEC2))

    def test_system_tensor_is_read_only(self):
        system = lex_system(SPEC2, 4, 4)
        with pytest.raises(ValueError, match="read-only"):
            system.coeffs[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            system.entries[0][1].coeffs[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            system.norms[0] = 1.0


class TestRowGrids:
    @pytest.mark.parametrize("ordering", [LEX, REVLEX])
    def test_one_qk_grid_per_row(self, monkeypatch, ordering):
        # every low-band slot of a row shares its q_r; each high-band slot adds its own terms
        calls = []
        real = lex_order.qk_grid
        monkeypatch.setattr(lex_order, "qk_grid", lambda spec, r: calls.append(r) or real(spec, r))
        lex_system(SPEC2, 8, 8, ordering, MomentOracle(SPEC2))
        n_f, m = SPEC2.n_f, 8
        high = sum(k - (m - n_f) for r in range(2 * n_f, 9) for k in range(m - n_f + 1, m + 1))
        assert high == 15 and len(calls) <= 9 + high


class TestSharedHighBand:
    """The high-band combination depends only on the step count J, so a window
    solves it once per J and reuses it on every later high row."""

    @pytest.mark.parametrize("ordering", [LEX, REVLEX])
    @pytest.mark.parametrize("spec", [SPEC1, SPEC2, SPEC3, product_spec([0.9, -0.7, 0.3])], ids=["f1", "f2", "f3", "f3b"])
    def test_one_solve_per_step_count(self, monkeypatch, spec, ordering):
        calls = []  # the (r, k, m) of every solve
        real = lex_order._null_vector
        monkeypatch.setattr(lex_order, "_null_vector", lambda *a: calls.append(a[1:]) or real(*a))
        shared = lex_system(spec, 8, 8, ordering, MomentOracle(spec))
        assert 0 < len(calls) <= spec.n_f
        assert {r for r, _, _ in calls} == {2 * spec.n_f}  # all from the first high row
        monkeypatch.setattr(lex_order, "_kills", lambda *a: False)  # every slot solves its own
        calls.clear()
        per_slot = lex_system(spec, 8, 8, ordering, MomentOracle(spec))
        assert len(calls) == (9 - 2 * spec.n_f) * spec.n_f  # one per high-band slot
        scale = np.max(np.abs(per_slot.coeffs))
        assert np.max(np.abs(shared.coeffs - per_slot.coeffs)) <= 1e-14 * scale
        assert np.max(np.abs(shared.norms - per_slot.norms)) <= 1e-14 * np.max(per_slot.norms)

    def test_vector_that_leaves_a_forbidden_slot_is_not_reused(self):
        grids = _high_band_grids(SPEC2, 5, 5, 5)
        v = _null_vector(grids, 5, 5, 5)
        assert lex_order._kills(v, grids, 5, 5, 5)
        assert not lex_order._kills(v[::-1], grids, 5, 5, 5)


class TestExplicitOracle:
    @pytest.mark.parametrize(
        "build",
        [
            lambda spec, orc: lex_system(spec, 3, 3, LEX, orc).poly((3, 1)),
            lambda spec, orc: build_lex_high(spec, 5, 5, 5, oracle=orc),
            lambda spec, orc: build_lex_high_recursion(spec, 5, 5, 5, oracle=orc),
            lambda spec, orc: lex_system(spec, 4, 4, REVLEX, orc).poly((4, 4)),
        ],
        ids=["low", "high", "recursion", "revlex"],
    )
    def test_no_default_tol_oracle(self, monkeypatch, build):
        monkeypatch.setattr(moment_oracle, "_ORACLES", OrderedDict())
        spec = product_spec([0.45, -0.35])
        orc = oracle_for(spec, 1e-6)
        p = build(spec, orc)
        assert orc.norm(p) == pytest.approx(1.0, abs=1e-12)
        assert [o.tol for o in moment_oracle._ORACLES.values()] == [1e-6]


class TestConnection:
    def test_leading_matrix_triangular(self):
        system = lex_system(SPEC2, 3, 3)
        view = connection_reshape(system, 3, 3)
        assert view.triangular_ok
        assert len(view.matrices) == 4
        assert view.max_violation < 1e-8
