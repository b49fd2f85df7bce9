"""Registered example weights and their regression suite.

Four families with known closed forms serve as the regression corpus:

* ex1(a):        h = 1 - 2 a y z + a^2 z^2 (one quadratic factor);
* ex2(a, b):     h = (1 - 2 b z)(1 - 2 a y z + a^2 z^2);
* ex4(a1, a2):   two quadratic factors;
* remark_n4(b1, b2, a): two linear z-factors times one quadratic factor.

Each expected value carries a location tag so regression reports state
where the reference number comes from.  The a = 0 limits degenerate to
the product Chebyshev measure and remain valid inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .moment_oracle import DEFAULT_TOL, oracle_for
from .poly_core import CHEB_U, MONOMIAL, UnivariatePoly
from .recurrence import lex_blocks, total_blocks, verify_total_structure
from .szego_core import build_qk
from .total_order import build_total_vector, gram_deviation
from .weights import WeightSpec, _expand_z, chebyshev_spec, generic_spec, product_spec


def ex1(a: float) -> WeightSpec:
    if not abs(a) < 1:
        raise ValueError("need |a| < 1")
    return chebyshev_spec() if a == 0 else product_spec([-a])


def ex2(a: float, b: float) -> WeightSpec:
    if not (abs(a) < 1 and abs(b) < 0.5):
        raise ValueError("need |a| < 1 and |b| < 1/2")
    return generic_spec(_expand_z([[[1.0], [-2.0 * b]], [[1.0, 0.0], [0.0, -2.0 * a], [a * a, 0.0]]]))


def ex4(a1: float, a2: float) -> WeightSpec:
    if not (abs(a1) < 1 and abs(a2) < 1):
        raise ValueError("need |a1|, |a2| < 1")
    factors = [-a for a in (a1, a2) if a != 0]
    return chebyshev_spec() if not factors else product_spec(factors)


def remark_n4(b1: float, b2: float, a: float) -> WeightSpec:
    if not (abs(b1) < 1 and abs(b2) < 1 and abs(a) < 1):
        raise ValueError("need |b1|, |b2|, |a| < 1")
    return generic_spec(_expand_z([[[1.0], [-b1]], [[1.0], [-b2]], [[1.0, 0.0], [0.0, -2.0 * a], [a * a, 0.0]]]))


EXAMPLES = {"ex1": ex1, "ex2": ex2, "ex4": ex4, "remark_n4": remark_n4}


# ---------------------------------------------------------------------------
# Expected data
# ---------------------------------------------------------------------------


def ex1_a_x(a: float, n: int) -> np.ndarray:
    """Half of [[a, sqrt(1-a^2), 0, ...]; shifted identity below]."""
    out = np.zeros((n + 1, n + 2))
    out[0, 0] = a
    out[0, 1] = math.sqrt(1.0 - a * a)
    for i in range(1, n + 1):
        out[i, i + 1] = 1.0
    return 0.5 * out


def half_identity(n: int) -> np.ndarray:
    """Half of [I | 0], the frozen A_y block."""
    return 0.5 * np.hstack([np.eye(n + 1), np.zeros((n + 1, 1))])


def ex2_b_x1(a: float, b: float) -> np.ndarray:
    s = math.sqrt(1.0 - a * a)
    return b * np.array([[1.0 - a * a, -a * s], [-a * s, a * a]])


def ex2_marginal(a: float, b: float, y: float) -> float:
    """Closed form of the un-normalized slice mass for ex2."""
    return (math.pi / 2) / ((1.0 - a * a) * (1.0 - 4.0 * a * b * y + 4.0 * a * a * b * b))


def ex4_marginal(a1: float, a2: float, y: float) -> float:
    """Closed form of the un-normalized slice mass for ex4."""
    c = a1 * a2
    scale = (math.pi / 2) / ((1.0 - a1 * a1) * (1.0 - a2 * a2))
    return scale * (1.0 + c) / ((1.0 - c) * ((1.0 + c) ** 2 - 4.0 * c * y * y))


def ex2_qk_coeffs(a: float, b: float, k: int) -> list[UnivariatePoly]:
    """x-Chebyshev coefficients of q_k as y-polynomials, k >= 3:
    U_k - 2(ay + b)U_{k-1} + a(4by + a)U_{k-2} - 2 a^2 b U_{k-3}."""
    rows = {
        k: [1.0],
        k - 1: [-2.0 * b, -2.0 * a],
        k - 2: [a * a, 4.0 * a * b],
        k - 3: [-2.0 * a * a * b],
    }
    return [UnivariatePoly(MONOMIAL, np.asarray(rows.get(i, [0.0]))) for i in range(k + 1)]


# ---------------------------------------------------------------------------
# Regression report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportEntry:
    name: str
    location: str
    passed: bool
    margin: float


@dataclass
class Report:
    example: str
    params: dict[str, float]
    entries: list[ReportEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def add(self, name: str, location: str, margin: float, bound: float):
        self.entries.append(ReportEntry(name, location, margin <= bound, float(margin)))

    def to_dict(self) -> dict:
        return {
            "example": self.example,
            "params": self.params,
            "ok": self.ok,
            "entries": [
                {"name": e.name, "location": e.location, "passed": e.passed, "margin": e.margin}
                for e in self.entries
            ],
        }


def run_regression(example_id: str, depth: int = 5, tol: float = DEFAULT_TOL, **params) -> Report:
    """Build systems to ``depth``, extract blocks, compare with the known
    closed forms; failures land in the report, nothing raises.  Every
    quadrature runs on one oracle at ``tol``."""
    if not 0 <= depth <= 8:
        raise ValueError("depth must lie in 0..8")
    spec = EXAMPLES[example_id](**params)
    rep = Report(example_id, dict(params))
    orc = oracle_for(spec, tol)
    gate = 1e-8

    for n in range(depth + 1):
        system = build_total_vector(spec, n, orc)
        rep.add(f"total orthonormality n={n}", "independent quadrature", gram_deviation(spec, system, orc), 1e-7)

    # each level's blocks are computed once; the closed-form and structure checks read them
    blocks = {n: total_blocks(spec, n, oracle=orc) for n in range(depth)}
    if example_id == "ex1":
        a = params["a"]
        for n in range(1, depth):
            blk = blocks[n]
            rep.add(f"A_x n={n}", "section 5.1 display", float(np.max(np.abs(blk.a_x - ex1_a_x(a, n)))), gate)
            rep.add(f"A_y n={n}", "section 5.1 display", float(np.max(np.abs(blk.a_y - half_identity(n)))), gate)
            rep.add(f"B_x=0 n={n}", "section 5.1 text", float(np.max(np.abs(blk.b_x))), gate)
            rep.add(f"B_y=0 n={n}", "section 5.1 text", float(np.max(np.abs(blk.b_y))), gate)
        if depth >= 3 and a != 0:
            blk_l = lex_blocks(spec, 3, 3, oracle=orc)
            rep.add("lex collapse A", "section 4 collapse theorem", float(np.max(np.abs(blk_l.a - 0.5 * np.eye(4)))), gate)
            rep.add("lex collapse B", "section 4 collapse theorem", float(np.max(np.abs(blk_l.b))), gate)
    elif example_id == "ex2":
        a, b = params["a"], params["b"]
        if depth >= 1:
            rep.add("B_x0", "section 5.2 display", float(abs(blocks[0].b_x[0, 0] - b)), gate)
            rep.add("B_y0", "section 5.2 display", float(abs(blocks[0].b_y[0, 0] - a * b)), gate)
        if depth >= 2:
            rep.add("B_x1", "section 5.2 display", float(np.max(np.abs(blocks[1].b_x - ex2_b_x1(a, b)))), gate)
        for n in range(2, depth):
            want = np.zeros((n + 1, n + 1))
            want[:2, :2] = ex2_b_x1(a, b)
            rep.add(f"B_x n={n}", "section 5.2 block display", float(np.max(np.abs(blocks[n].b_x - want))), gate)
            rep.add(f"B_y=0 n={n}", "section 5.2 text", float(np.max(np.abs(blocks[n].b_y))), gate)
        if a != 0:
            q3 = build_qk(spec, 3)
            want = np.zeros_like(q3.coeffs)
            for i, hi in enumerate(ex2_qk_coeffs(a, b, 3)):
                cz = hi.to_basis(CHEB_U).coeffs
                want[i, : len(cz)] = cz
            rep.add("q_3 closed form", "section 5.2 display", float(np.max(np.abs(q3.coeffs - want))), 1e-14)
        marg = max(
            abs(orc.univariate_moment(0, y) - ex2_marginal(a, b, y)) / ex2_marginal(a, b, y)
            for y in (-0.8, 0.0, 0.5)
        )
        rep.add("marginal mass", "section 5.2 integral", marg, 1e-9)
    elif example_id == "ex4":
        a1, a2 = params["a1"], params["a2"]
        marg = max(
            abs(orc.univariate_moment(0, y) - ex4_marginal(a1, a2, y)) / ex4_marginal(a1, a2, y)
            for y in (-0.8, 0.0, 0.5)
        )
        rep.add("marginal mass", "section 5.4 integral", marg, 1e-9)
        if depth >= 2 and a1 * a2 != 0:
            # the marginal weight is even in y; its Bernstein-Szego factor is
            # 1 - a1 a2 w^2, so the k = 0 component is U_n - a1 a2 U_{n-2}
            p = build_total_vector(spec, depth, orc).poly((0, depth))
            c = p.coeffs[0]
            ratio = c[depth - 2] / c[depth]
            rep.add("V-type k=0 ratio", "section 5.4 V_n (index corrected)", float(abs(ratio + a1 * a2)), gate)
            rep.add("V-type k=0 parity", "section 5.4 V_n (index corrected)", float(abs(c[depth - 1] / c[depth])), gate)
            blk_l = lex_blocks(spec, 5, 5, oracle=orc)
            rep.add("lex collapse A", "section 4 collapse theorem", float(np.max(np.abs(blk_l.a - 0.5 * np.eye(6)))), gate)
            rep.add("lex collapse B", "section 4 collapse theorem", float(np.max(np.abs(blk_l.b))), gate)

    n0 = spec.n_h // 2
    for n in range(max(1, n0), min(depth, n0 + 3) + 1):
        srep = verify_total_structure(spec, n, oracle=orc, blocks=blocks.get(n))
        rep.entries.append(ReportEntry(f"total structure n={n}", "section 4 block pattern", srep.ok, srep.worst))
    return rep
