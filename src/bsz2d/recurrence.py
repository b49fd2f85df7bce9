"""Block recurrence matrices and their structural verification.

Total-degree ordering (level n):

    x P_n = A_x P_{n+1} + B_x P_n + A_{x,n-1}^t P_{n-1}

with A_x of shape (n+1) x (n+2) and B_x symmetric (n+1) x (n+1); same
for y.  Lexicographical ordering (window column m):

    x p_{n,m} = A_{n+1,m} p_{n+1,m} + B_{n,m} p_{n,m} + A_{n,m}^t p_{n-1,m}

with A_{n,m} = <x p_{n-1,m}, p_{n,m}> lower triangular.  Beyond
weight-dependent corner blocks the matrices freeze into half-shift
patterns, which the verify_* functions assert as masked comparisons of
whole blocks.
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


def _listed(name: str, values: np.ndarray, bad: np.ndarray) -> list[tuple[str, int, int, float]]:
    """(name, i, j, values[i, j]) at every cell flagged in ``bad``, row-major."""
    i, j = np.nonzero(bad)
    return [(name, a, b, v) for a, b, v in zip(i.tolist(), j.tolist(), values[i, j].tolist())]


def _cell_violations(rows) -> list[tuple[str, int, int, float]]:
    """Rows (name, block, expected value, mask): a masked cell whose entry
    minus the expected value is not within STRUCTURE_TOL, NaN included,
    is a violation recording that deviation."""
    out = []
    for name, mat, want, mask in rows:
        dev = mat - want
        out += _listed(name, dev, mask & ~(np.abs(dev) <= STRUCTURE_TOL))
    return out


def _sign_violations(rows) -> list[tuple[str, int, int, float]]:
    """Rows (name, block, mask): a masked cell whose entry is not positive,
    NaN included, is a violation recording the entry."""
    out = []
    for name, mat, mask in rows:
        out += _listed(name, mat, mask & ~(mat > 0.0))
    return out


def _max_violations(rows) -> list[tuple[str, int, int, float]]:
    """Rows (name, largest deviation): one not within STRUCTURE_TOL, NaN
    included, is a violation (name, -1, -1, deviation)."""
    return [(name, -1, -1, dev) for name, dev in rows if not dev <= STRUCTURE_TOL]


def verify_total_structure(
    spec: WeightSpec, n: int, oracle: MomentOracle | None = None, *, blocks: BlockRecurrence | None = None
) -> StructureReport:
    """Assert the frozen block patterns of the total-degree recurrence.

    With N the z-degree of the weight: A_y = diag(C_y, half-identity)
    with a trailing zero column, C_y lower triangular of size
    ceil((N-1)/2) with positive diagonal; B_y = diag(D_y, 0) with D_y of
    size ceil((N-2)/2); A_x has half-shift rows below the lower-Hessenberg
    corner C_x of size ceil((N+1)/2); B_x = diag(D_x, 0) with D_x of size
    ceil(N/2).  Entries at the ambiguous C_x seam are reported verbatim,
    row-major, rather than asserted.

    A violation is (name, i, j, deviation), for a deviation that is not
    within STRUCTURE_TOL (a NaN deviation is one): a cell asserted to be
    0 or 1/2 reports its entry minus that value, a sign check ("C_y diag",
    "A_x superdiag") an entry that is not positive, and a symmetry check
    (i = j = -1) the largest entry of M - M^T.  Violations are listed
    check by check in that order (A_y, A_y diag, B_y, A_x, A_x shift,
    B_x, C_y diag, A_x superdiag, B_x sym, B_y sym), row-major within a
    check.

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
    a_x, b_x, a_y, b_y = blocks.a_x, blocks.b_x, blocks.a_y, blocks.b_y
    i, j = np.ogrid[: n + 1, : n + 2]  # A blocks; the B blocks drop the last column
    k = j[:, :-1]
    bad = _cell_violations([
        ("A_y", a_y, 0.0, (j > i) | ((i >= c_y) & (j < i))),
        ("A_y diag", a_y, 0.5, (i >= c_y) & (j == i)),
        ("B_y", b_y, 0.0, (i >= d_y) | (k >= d_y)),
        ("A_x", a_x, 0.0, (j > i + 1) | ((i >= c_x) & (j <= i))),
        ("A_x shift", a_x, 0.5, (i >= c_x) & (j == i + 1)),
        ("B_x", b_x, 0.0, (i >= d_x) | (k >= d_x)),
    ])
    bad += _sign_violations([("C_y diag", a_y, (i < c_y) & (j == i)), ("A_x superdiag", a_x, j == i + 1)])
    bad += _max_violations(
        (name, float(np.max(np.abs(mat - mat.T), initial=0.0))) for name, mat in (("B_x sym", b_x), ("B_y sym", b_y))
    )
    si, sj = np.nonzero((i < c_x) & (j <= i + 1) & ((j == c_x) | (i == c_x - 1)))
    seam = dict(zip(zip(si.tolist(), sj.tolist()), a_x[si, sj].tolist()))
    sizes = {"C_y": c_y, "D_y": d_y, "C_x": c_x, "D_x": d_x}
    return StructureReport(not bad, sizes, bad, seam, blocks)


def verify_lex_structure(
    spec: WeightSpec, n: int, m: int, oracle: MomentOracle | None = None
) -> StructureReport:
    """Assert the lex pattern A = diag(1/2 I_{m-kappa+1}, C), B = diag(0, D),
    and for product weights past 2 N_f the full collapse A = 1/2 I, B = 0.

    Violations are reported as by ``verify_total_structure``: a cell asserted
    to be 0 or 1/2 reports its entry minus that value, the sign check
    "C diag" an entry that is not positive, and a collapse check (i = j = -1)
    its largest deviation; NaN counts as a violation.  They are listed check
    by check (A, C, B, C diag, A collapse, B collapse), row-major within a
    check."""
    kappa = spec.kappa
    if n < spec.n_h // 2 + 1:
        raise ValueError(f"theorem applies for n >= {spec.n_h // 2 + 1}")
    if m < kappa:
        raise ValueError("window too narrow for the corner block")
    blocks = lex_blocks(spec, n, m, oracle=oracle)
    a, b = blocks.a, blocks.b
    cut = m - kappa + 1
    i, j = np.ogrid[: m + 1, : m + 1]
    edge = (i < cut) | (j < cut)  # outside the corner blocks C and D
    half = 0.5 * (i == j)
    bad = _cell_violations([("A", a, half, edge), ("C", a, 0.0, ~edge & (j > i)), ("B", b, 0.0, edge)])
    bad += _sign_violations([("C diag", a, (i >= cut) & (i == j))])
    if spec.variant == PRODUCT_OMEGA and min(n, m) > 2 * spec.n_f:
        bad += _max_violations([
            ("A collapse", float(np.max(np.abs(a - half)))),
            ("B collapse", float(np.max(np.abs(b)))),
        ])
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
