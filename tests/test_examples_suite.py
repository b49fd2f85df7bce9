import math

import pytest
from conftest import h_eval_reference

from bsz2d.examples_suite import (
    EXAMPLES,
    ex1,
    ex2,
    ex4,
    remark_n4,
    run_regression,
)
from bsz2d.weights import GENERIC_H, PRODUCT_OMEGA, is_stable


class TestSpecBuilders:
    def test_registry(self):
        assert set(EXAMPLES) == {"ex1", "ex2", "ex4", "remark_n4"}

    def test_ex1(self):
        spec = ex1(0.4)
        assert spec.variant == PRODUCT_OMEGA and spec.n_f == 1
        assert ex1(0.0).n_h == 0  # degenerates to product Chebyshev
        with pytest.raises(ValueError):
            ex1(1.0)

    def test_ex2_expansion(self):
        a, b = 0.6, 0.3
        spec = ex2(a, b)
        assert spec.variant == GENERIC_H and spec.n_h == 3
        # h(z, y) = (1 - 2bz)(1 - 2ayz + a^2 z^2) pointwise
        for z, y in [(0.4, 0.2), (-0.7, -0.5)]:
            want = (1 - 2 * b * z) * (1 - 2 * a * y * z + a * a * z * z)
            assert h_eval_reference(spec, z, y) == pytest.approx(want, rel=1e-12)
        assert is_stable(spec).stable
        with pytest.raises(ValueError):
            ex2(0.3, 0.6)

    def test_ex4(self):
        spec = ex4(0.5, -0.3)
        assert spec.variant == PRODUCT_OMEGA and spec.n_f == 2
        assert ex4(0.5, 0.0).n_f == 1
        assert ex4(0.0, 0.0).n_h == 0

    def test_remark_n4(self):
        spec = remark_n4(0.3, -0.2, 0.4)
        assert spec.n_h == 4
        assert is_stable(spec).stable
        for z, y in [(0.4, 0.2), (-0.7, -0.5)]:
            want = (1 - 0.3 * z) * (1 + 0.2 * z) * (1 - 0.8 * y * z + 0.16 * z * z)
            assert h_eval_reference(spec, z, y) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "build,n_h,fingerprint",
        [
            (lambda: ex2(0.6, 0.0), 2, "db8a3eb6b9e635df5707061f359bc37990abe3a7"),
            (lambda: ex2(0.0, 0.0), 0, "b754811e5a7ab43dfdd5f8ac25f4d6f902cbcadd"),
            (lambda: remark_n4(0.0, 0.0, 0.5), 2, "3b3d3643936e371adb365e0eb7b0172e71f5391c"),
            (lambda: remark_n4(0.3, 0.0, 0.0), 1, "7886e1121d96757f5aab111e4ed1f7fcf068c7d9"),
        ],
        ids=["ex2-b0", "ex2-a0-b0", "remark_n4-b0", "remark_n4-a0"],
    )
    def test_degenerate_factors_drop_top_rows(self, build, n_h, fingerprint):
        # a vanishing factor coefficient leaves zero top z-rows, which must not count toward N_h
        spec = build()
        assert spec.n_h == n_h
        assert spec.fingerprint == fingerprint


class TestRegression:
    @pytest.mark.parametrize(
        "example_id,params",
        [
            ("ex1", {"a": 0.3}),
            ("ex1", {"a": -0.5}),
            ("ex2", {"a": 0.6, "b": 0.3}),
            ("ex4", {"a1": 0.5, "a2": -0.3}),
            ("remark_n4", {"b1": 0.3, "b2": -0.2, "a": 0.4}),
        ],
    )
    def test_all_pass(self, example_id, params):
        rep = run_regression(example_id, 5, **params)
        failed = [e for e in rep.entries if not e.passed]
        assert rep.ok, failed

    def test_chebyshev_degeneration(self):
        rep = run_regression("ex1", 4, a=0.0)
        assert rep.ok

    def test_entries_carry_locations(self):
        rep = run_regression("ex2", 3, a=0.6, b=0.3)
        assert all(e.location for e in rep.entries)
        d = rep.to_dict()
        assert d["ok"] and d["example"] == "ex2"
        assert {"name", "location", "passed", "margin"} <= set(d["entries"][0])

    @pytest.mark.parametrize("depth", [0, 1])
    def test_ex2_shallow_depth(self, depth):
        # levels 0..depth-1 have blocks: depth 0 has none to check, depth 1 only B_x0 and B_y0
        rep = run_regression("ex2", depth, a=0.3, b=0.1)
        names = {e.name for e in rep.entries}
        assert rep.ok and "B_x1" not in names
        assert ("B_x0" in names and "B_y0" in names) == (depth >= 1)

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            run_regression("ex1", 9, a=0.3)
        with pytest.raises(ValueError):
            run_regression("ex1", -1, a=0.3)

    def test_margins_are_finite(self):
        rep = run_regression("ex1", 3, a=0.3)
        assert all(math.isfinite(e.margin) for e in rep.entries)
