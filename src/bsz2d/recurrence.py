"""Block recurrence matrices and their structural verification.

Total-degree ordering (level n):

    x P_n = A_x P_{n+1} + B_x P_n + A_{x,n-1}^t P_{n-1}

with A_x of shape (n+1) x (n+2) and B_x symmetric (n+1) x (n+1); same
for y.  Lexicographical ordering (window column m):

    x p_{n,m} = A_{n+1,m} p_{n+1,m} + B_{n,m} p_{n,m} + A_{n,m}^t p_{n-1,m}

with A_{n,m} = <x p_{n-1,m}, p_{n,m}> lower triangular.  Beyond
weight-dependent corner blocks the matrices freeze into half-shift
patterns, which the verify_* functions assert entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .moment_oracle import MomentOracle, _oracle
from .ortho import LEX, REVLEX, TOTAL, OrthoSystem
from .poly_core import CHEB_U, BivariatePoly, _square, u_band
from .total_order import build_total_vector
from .lex_order import lex_system
from .weights import PRODUCT_OMEGA, WeightSpec

RESIDUAL_TOL = 1e-7  # largest three-term residual (lex: B asymmetry) the block builders accept
STRUCTURE_TOL = 1e-8  # largest deviation from a frozen block pattern the verify_* functions accept


class ConstructionInconsistencyError(RuntimeError):
    """The three-term residual of the built systems exceeds tolerance."""


def _pairing(orc: MomentOracle, axis: int, rows: OrthoSystem, cols: OrthoSystem) -> np.ndarray:
    """[<t p, q>] for p in ``rows`` and q in ``cols``, t = x (axis 0) or y (axis 1).

    t U_i = (U_{i+1} + U_{i-1}) / 2 with U_{-1} = 0, so t acts on a coefficient
    grid as the symmetric tridiagonal shift S along ``axis``, and the block is
    the one product S C_rows G C_cols^T over the oracle's Gram block G.
    """
    s = rows.coeffs.shape[1] + 1  # t raises a degree by one
    S = 0.5 * (np.eye(s, k=1) + np.eye(s, k=-1))
    C = _square(rows.coeffs, s)
    return orc.coefficient_inner(S @ C if axis == 0 else C @ S, cols.coeffs)


@dataclass
class BlockRecurrence:
    """Recurrence blocks at one level; lex blocks live in ``a``/``b``,
    total-degree blocks in the per-variable fields."""

    ordering: str
    level: tuple[int, ...]
    a_x: np.ndarray | None = None
    b_x: np.ndarray | None = None
    a_y: np.ndarray | None = None
    b_y: np.ndarray | None = None
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    residual: float = 0.0


def total_blocks(spec: WeightSpec, n: int, oracle: MomentOracle | None = None) -> BlockRecurrence:
    """A_x, B_x, A_y, B_y at level n, with the three-term residual checked
    against RESIDUAL_TOL.

    The residual expands x P_n and y P_n by polynomial arithmetic, with
    t = U_1(t) / 2 applied as a one-axis band, so it checks the matrix-form
    blocks independently."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    orc = _oracle(spec, oracle)
    p_n = build_total_vector(spec, n, orc)
    p_up = build_total_vector(spec, n + 1, orc)
    p_dn = build_total_vector(spec, n - 1, orc) if n > 0 else None
    a_x = _pairing(orc, 0, p_n, p_up)
    b_x = _pairing(orc, 0, p_n, p_n)
    a_y = _pairing(orc, 1, p_n, p_up)
    b_y = _pairing(orc, 1, p_n, p_n)
    res = 0.0
    for axis, a, b in ((0, a_x, b_x), (1, a_y, b_y)):
        a_prev = _pairing(orc, axis, p_dn, p_n) if p_dn is not None else None
        for i, (_, p) in enumerate(p_n.entries):
            acc = BivariatePoly(CHEB_U, 0.5 * u_band(p.coeffs, 1, axis))
            for j, (_, q) in enumerate(p_up.entries):
                acc = acc + q.scale(-a[i, j])
            for j, (_, q) in enumerate(p_n.entries):
                acc = acc + q.scale(-b[i, j])
            if p_dn is not None:
                for j, (_, q) in enumerate(p_dn.entries):
                    acc = acc + q.scale(-a_prev[j, i])
            res = max(res, float(np.max(np.abs(acc.coeffs), initial=0.0)))
    if res > RESIDUAL_TOL:
        raise ConstructionInconsistencyError(f"three-term residual {res:.3e} at level {n}")
    return BlockRecurrence(TOTAL, (n,), a_x=a_x, b_x=b_x, a_y=a_y, b_y=b_y, residual=res)


def lex_blocks(
    spec: WeightSpec, n: int, m: int, ordering: str = LEX, oracle: MomentOracle | None = None
) -> BlockRecurrence:
    """A_{n,m} and B_{n,m} (or the revlex mirror, where the roles of the
    variables and of n, m are exchanged), with the asymmetry of B checked
    against RESIDUAL_TOL."""
    if ordering == LEX:
        if n < 1:
            raise ValueError("need n >= 1 for A_{n,m}")
        hi, axis, size = n, 0, m + 1
    elif ordering == REVLEX:
        if m < 1:
            raise ValueError("need m >= 1 for the revlex block")
        hi, axis, size = m, 1, n + 1
    else:
        raise ValueError("ordering must be lex or revlex")
    orc = _oracle(spec, oracle)
    # the (n-1, m) window (revlex: (n, m-1)) is a leading block of this one: a closed-form
    # slot depends only on itself and the minor bound, a Gram-Schmidt slot only on earlier slots
    system = lex_system(spec, n, m, ordering, orc)
    sys_hi, sys_lo = system.slice_first(hi), system.slice_first(hi - 1)
    a = _pairing(orc, axis, sys_lo, sys_hi)
    b = _pairing(orc, axis, sys_hi, sys_hi)
    if a.shape != (size, size) or b.shape != (size, size):
        raise ConstructionInconsistencyError("unexpected block shape")
    res = float(np.max(np.abs(b - b.T)))
    if res > RESIDUAL_TOL:
        raise ConstructionInconsistencyError(f"B asymmetry {res:.3e}")
    return BlockRecurrence(ordering, (n, m), a=a, b=b, residual=res)


# ---------------------------------------------------------------------------
# Structure verification
# ---------------------------------------------------------------------------


@dataclass
class StructureReport:
    ok: bool
    sizes: dict[str, int]
    violations: list[tuple[str, int, int, float]] = field(default_factory=list)
    seam: dict[tuple[int, int], float] = field(default_factory=dict)
    blocks: BlockRecurrence | None = None


def _check_zero(name: str, mat: np.ndarray, cells, out: list):
    for i, j in cells:
        v = float(mat[i, j])
        if abs(v) > STRUCTURE_TOL:
            out.append((name, i, j, v))


def verify_total_structure(
    spec: WeightSpec, n: int, oracle: MomentOracle | None = None, *, blocks: BlockRecurrence | None = None
) -> StructureReport:
    """Assert the frozen block patterns of the total-degree recurrence.

    With N the z-degree of the weight: A_y = diag(C_y, half-identity)
    with a trailing zero column, C_y lower triangular of size
    ceil((N-1)/2) with positive diagonal; B_y = diag(D_y, 0) with D_y of
    size ceil((N-2)/2); A_x has half-shift rows below the lower-Hessenberg
    corner C_x of size ceil((N+1)/2); B_x = diag(D_x, 0) with D_x of size
    ceil(N/2).  Entries at the ambiguous C_x seam are reported verbatim
    rather than asserted.

    A violation is (name, i, j, deviation), with deviation above
    STRUCTURE_TOL: a cell asserted to be 0 or 1/2 reports its entry minus
    that value, a symmetry check (i = j = -1) the largest entry of M - M^T,
    and a sign check ("C_y diag", "A_x superdiag") the entry itself, which
    is its own deviation from positivity.

    ``blocks`` is this level's ``total_blocks(spec, n)``, for a caller that
    has already computed it; without it the blocks are computed here.
    Blocks of another ordering or level raise ValueError.
    """
    big_n = spec.n_h
    c_y = big_n // 2  # ceil((N-1)/2)
    c_x = big_n // 2 + 1  # ceil((N+1)/2)
    d_y = max(0, (big_n - 1) // 2)  # ceil((N-2)/2)
    d_x = (big_n + 1) // 2  # ceil(N/2)
    if n < c_y:
        raise ValueError(f"theorem applies for n >= {c_y}")
    if blocks is None:
        blocks = total_blocks(spec, n, oracle=oracle)
    elif (blocks.ordering, blocks.level) != (TOTAL, (n,)):
        raise ValueError(f"blocks are {blocks.ordering} at level {blocks.level}, not total at ({n},)")
    bad: list[tuple[str, int, int, float]] = []

    a_y = blocks.a_y
    _check_zero("A_y", a_y, [(i, j) for i in range(n + 1) for j in range(n + 2) if j > i], bad)
    _check_zero("A_y", a_y, [(i, j) for i in range(c_y, n + 1) for j in range(i)], bad)
    for i in range(n + 1):
        if i >= c_y and abs(a_y[i, i] - 0.5) > STRUCTURE_TOL:
            bad.append(("A_y diag", i, i, float(a_y[i, i] - 0.5)))
        if i < min(c_y, n + 1) and a_y[i, i] <= 0.0:
            bad.append(("C_y diag", i, i, float(a_y[i, i])))

    b_y = blocks.b_y
    _check_zero("B_y", b_y, [(i, j) for i in range(n + 1) for j in range(n + 1) if i >= d_y or j >= d_y], bad)

    a_x = blocks.a_x
    seam = {}
    for i in range(n + 1):
        for j in range(n + 2):
            v = float(a_x[i, j])
            if j > i + 1 and abs(v) > STRUCTURE_TOL:
                bad.append(("A_x", i, j, v))
            elif i >= c_x:
                if j == i + 1:
                    if abs(v - 0.5) > STRUCTURE_TOL:
                        bad.append(("A_x shift", i, j, v - 0.5))
                elif abs(v) > STRUCTURE_TOL:
                    bad.append(("A_x", i, j, v))
            elif j <= min(c_x, i + 1) and (j == c_x or i == c_x - 1):
                seam[(i, j)] = v
        if a_x[i, i + 1] <= 0.0:
            bad.append(("A_x superdiag", i, i + 1, float(a_x[i, i + 1])))

    b_x = blocks.b_x
    _check_zero("B_x", b_x, [(i, j) for i in range(n + 1) for j in range(n + 1) if i >= d_x or j >= d_x], bad)
    for name, mat in (("B_x sym", b_x), ("B_y sym", b_y)):
        dev = float(np.max(np.abs(mat - mat.T), initial=0.0))
        if dev > STRUCTURE_TOL:
            bad.append((name, -1, -1, dev))

    sizes = {"C_y": c_y, "D_y": d_y, "C_x": c_x, "D_x": d_x}
    return StructureReport(not bad, sizes, bad, seam, blocks)


def verify_lex_structure(
    spec: WeightSpec, n: int, m: int, oracle: MomentOracle | None = None
) -> StructureReport:
    """Assert the lex pattern A = diag(1/2 I_{m-kappa+1}, C), B = diag(0, D),
    and for product weights past 2 N_f the full collapse A = 1/2 I, B = 0.

    Violations are reported as by ``verify_total_structure``: a cell asserted
    to be 0 or 1/2 reports its entry minus that value, a collapse check
    (i = j = -1) its largest deviation, and the sign check "C diag" the entry."""
    kappa = spec.kappa
    if n < spec.n_h // 2 + 1:
        raise ValueError(f"theorem applies for n >= {spec.n_h // 2 + 1}")
    if m < kappa:
        raise ValueError("window too narrow for the corner block")
    blocks = lex_blocks(spec, n, m, oracle=oracle)
    a, b = blocks.a, blocks.b
    cut = m - kappa + 1
    bad: list[tuple[str, int, int, float]] = []
    for i in range(m + 1):
        for j in range(m + 1):
            v = float(a[i, j])
            if i < cut or j < cut:
                want = 0.5 if i == j else 0.0
                if abs(v - want) > STRUCTURE_TOL:
                    bad.append(("A", i, j, v - want))
            elif j > i and abs(v) > STRUCTURE_TOL:
                bad.append(("C", i, j, v))
            v = float(b[i, j])
            if (i < cut or j < cut) and abs(v) > STRUCTURE_TOL:
                bad.append(("B", i, j, v))
    for i in range(cut, m + 1):
        if a[i, i] <= 0.0:
            bad.append(("C diag", i, i, float(a[i, i])))
    if spec.variant == PRODUCT_OMEGA and min(n, m) > 2 * spec.n_f:
        dev_a = float(np.max(np.abs(a - 0.5 * np.eye(m + 1))))
        dev_b = float(np.max(np.abs(b)))
        if dev_a > STRUCTURE_TOL:
            bad.append(("A collapse", -1, -1, dev_a))
        if dev_b > STRUCTURE_TOL:
            bad.append(("B collapse", -1, -1, dev_b))
    sizes = {"C": kappa, "D": kappa, "identity": cut}
    return StructureReport(not bad, sizes, bad, {}, blocks)


def mixed_action_deviation(spec: WeightSpec, n: int, oracle: MomentOracle | None = None) -> float:
    """Deviation between the two block expansions of (xy) P_n.

    Expanding xy P_n through the x-recurrence then y, or y then x, gives
    matrix identities at the levels n+2, n+1 and n; returns the largest
    entrywise mismatch (zero exactly when the finite blocks commute the
    way the infinite block Jacobi operators do).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    orc = _oracle(spec, oracle)
    blk = {lev: total_blocks(spec, lev, oracle=orc) for lev in (n - 1, n, n + 1)}
    ax, bx = blk[n].a_x, blk[n].b_x
    ay, by = blk[n].a_y, blk[n].b_y
    ax1, ay1 = blk[n + 1].a_x, blk[n + 1].a_y
    bx1, by1 = blk[n + 1].b_x, blk[n + 1].b_y
    axp, ayp = blk[n - 1].a_x, blk[n - 1].a_y
    dev = 0.0
    # coefficient of P_{n+2}
    dev = max(dev, float(np.max(np.abs(ax @ ay1 - ay @ ax1))))
    # coefficient of P_{n+1}
    dev = max(dev, float(np.max(np.abs(ax @ by1 + bx @ ay - (ay @ bx1 + by @ ax)))))
    # coefficient of P_n
    lhs = ax @ ay.T + bx @ by + axp.T @ ayp
    rhs = ay @ ax.T + by @ bx + ayp.T @ axp
    dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    return dev
