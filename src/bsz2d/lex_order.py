"""Lexicographical and reverse-lexicographical orthonormal systems.

On the window Pi_{n,m} the slot (r, k) splits into two bands.  In the
low band (k <= m - kappa, from the row r = low_band_threshold(N_h) that
also starts the total ordering's closed form) the polynomial is simply
q_r(x, y) U_k(y).  In the high band (m - N_f < k <= m, product
weights) it mixes the q and q~ families:

    p = sum_j [ a_j q_{r+j} U_{k-j}(y) + b_j q~_{m+1+j} U_{r+k-m-1-j}(x) ]

with j running over 0 .. k-(m-N_f)-1.  Two independent constructions are
provided: a nullspace solve that kills every forbidden tensor-Chebyshev
slot (the production path, ``build_lex_high`` for one slot), and the
step-by-step elimination (``eliminate``) that determines the same
combination by repeatedly cancelling the w^{-(m+1)} term of the tracked
leading image.  That combination depends
only on the step count J = k - (m - N_f), not on r or m, so ``lex_system``
solves it once per J, on the first high row r = 2 N_f, and builds every
later high slot from that vector when it kills the slot's forbidden
slots; a slot where it does not is solved on its own.

The map U_i(x) U_j(y) -> z^{-i} w^{-j} that defines the leading image
only relabels the tensor Chebyshev-U slots, so the elimination holds the
image as the Chebyshev-U grid itself: entry (i, j) is the coefficient of
z^{-i} w^{-j}.

Every term above is one polynomial times one U_k, so a slot is built in
coefficient space: ``poly_core.u_band`` applies the banded product by
U_k along one axis to the grid of q_r or q~_l.  ``_closed_grid`` is the
one place that holds the band rules; ``lex_system`` builds with it
the grids of all closed-form slots of a window (revlex: those of the
reflected weight, transposed, which only a product weight has; a generic
revlex window comes from the oracle factor alone) and hands them to
``MomentOracle.assemble``, which normalizes them together and fills the
other slots from one oracle Cholesky factor, of the window's slot
sequence up to the last of those slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .moment_oracle import MomentOracle, _oracle, cap_system
from .ortho import LEX, REVLEX, OrthoSystem
from .poly_core import CHEB_U, MONOMIAL, BivariatePoly, _padded, u_band
from .szego_core import low_band_threshold, qk_grid, tilde_ql_grid
from .weights import PRODUCT_OMEGA, WeightSpec, homogeneous_corner


class DegenerateWindowError(RuntimeError):
    """The high-band nullspace is not one-dimensional."""


class RecursionBreakdownError(RuntimeError):
    """A leading gamma coefficient vanished during elimination."""


class AnomalousSolutionError(RuntimeError):
    """The solved high-band combination has a_0 ~ 0."""


# a singular value at most this fraction of the largest counts as zero in the
# high-band nullspace solve
_SVD_RATIO = 1e-8


# ---------------------------------------------------------------------------
# High band: nullspace formulation
# ---------------------------------------------------------------------------


def _high_band_grids(spec: WeightSpec, r: int, k: int, m: int) -> np.ndarray:
    """The grids of the 2J candidate products of the high-band combination,
    a-terms first, zero-padded into one array."""
    n_f = spec.n_f
    if not (m - n_f < k <= m):
        raise ValueError(f"high band covers {m - n_f} < k <= {m}")
    if not (r >= 2 * n_f and m >= 2 * n_f):
        raise ValueError(f"need r, m >= 2 N_f = {2 * n_f}")
    steps = k - (m - n_f)
    terms = [u_band(qk_grid(spec, r + j), k - j, 1) for j in range(steps)]
    terms += [u_band(tilde_ql_grid(spec, m + 1 + j), r + k - m - 1 - j, 0) for j in range(steps)]
    return _padded(terms)


def _forbidden_rows(grids: np.ndarray, r: int, k: int, m: int) -> np.ndarray:
    """The rows [grid[i, j] for each grid] at every slot (i, j) that is out of
    window (j > m) or lex-greater than (r, k), in row-major slot order,
    except those that are zero in every grid."""
    i = np.arange(grids.shape[1])[:, None]
    j = np.arange(grids.shape[2])[None, :]
    rows = grids[:, (j > m) | (i > r) | ((i == r) & (j > k))].T
    return rows[np.any(rows != 0.0, axis=1)]


def _null_vector(grids: np.ndarray, r: int, k: int, m: int) -> np.ndarray:
    """The combination of the stacked term grids that kills every forbidden slot."""
    M = _forbidden_rows(grids, r, k, m)
    n_terms = len(grids)
    _, s, Vt = np.linalg.svd(M) if M.size else (None, np.zeros(0), np.eye(n_terms))
    smax = s[0] if len(s) else 0.0
    null_dim = n_terms - len(s) + int(np.sum(s <= _SVD_RATIO * smax)) if smax > 0 else n_terms
    if null_dim != 1:
        raise DegenerateWindowError(
            f"nullspace dimension {null_dim} at slot (r, k, m) = ({r}, {k}, {m})"
        )
    v = Vt[-1]
    if abs(v[0]) < 1e-10 * np.max(np.abs(v)):
        raise AnomalousSolutionError(f"leading combination weight a_0 ~ 0 at ({r}, {k}, {m})")
    return v


def _kills(v: np.ndarray, grids: np.ndarray, r: int, k: int, m: int) -> bool:
    """Whether the unit vector v is a null vector of the forbidden rows to
    ``_SVD_RATIO`` of their Frobenius norm, which bounds their largest singular value."""
    M = _forbidden_rows(grids, r, k, m)
    return bool(M.size) and float(np.linalg.norm(M @ v)) <= _SVD_RATIO * float(np.linalg.norm(M))


def _high_band_sum(
    spec: WeightSpec, r: int, k: int, m: int, solved: dict[int, np.ndarray] | None = None
) -> np.ndarray:
    """The grid of the solved high-band combination at lex slot (r, k), un-normalized.

    The combination depends only on J = k - (m - N_f): it is the k_j chain
    ``eliminate`` builds from gamma alone.  ``solved`` maps J to the vector
    of the first slot of the window that solved it; a later slot reuses that
    vector when it kills the slot's forbidden rows, and is solved on its own
    otherwise."""
    grids = _high_band_grids(spec, r, k, m)
    steps = k - (m - spec.n_f)
    v = None if solved is None else solved.get(steps)
    if v is None or not _kills(v, grids, r, k, m):
        v = _null_vector(grids, r, k, m)
        if solved is not None:
            solved.setdefault(steps, v)
    return np.tensordot(v, grids, axes=1)


def build_lex_high(
    spec: WeightSpec, r: int, k: int, m: int, oracle: MomentOracle | None = None
) -> BivariatePoly:
    """Unit-norm high-band polynomial at lex slot (r, k) on a width-m window."""
    p = BivariatePoly(CHEB_U, _high_band_sum(spec, r, k, m))
    unit, _ = _oracle(spec, oracle).normalized(p, (r, k))
    return unit


# ---------------------------------------------------------------------------
# High band: elimination recursion
# ---------------------------------------------------------------------------

# Atoms are (kind, alpha, beta) with coefficient tables; kind "q" denotes
# q_alpha(x, y) U_beta(y) and kind "qt" denotes q~_beta(x, y) U_alpha(x).
Atom = tuple[str, int, int]


def _realize(spec: WeightSpec, atoms: dict[Atom, float]) -> BivariatePoly:
    grids = [
        c * (u_band(qk_grid(spec, alpha), beta, 1) if kind == "q" else u_band(tilde_ql_grid(spec, beta), alpha, 0))
        for (kind, alpha, beta), c in atoms.items()
        if c != 0.0
    ]
    return BivariatePoly(CHEB_U, _padded(grids).sum(0)) if grids else BivariatePoly.zero(CHEB_U)


def _combine(a: dict[Atom, float], b: dict[Atom, float], cb: float) -> dict[Atom, float]:
    out = dict(a)
    for atom, c in b.items():
        out[atom] = out.get(atom, 0.0) + cb * c
    return {k: v for k, v in out.items() if v != 0.0}


def _shifted(atoms: dict[Atom, float], dx: int, dy: int) -> dict[Atom, float]:
    """Raise the x-type index by dx and the y-type index by dy on every atom."""
    out: dict[Atom, float] = {}
    for (kind, alpha, beta), c in atoms.items():
        out[(kind, alpha + dx, beta + dy)] = c
    return out


@dataclass
class EliminationState:
    """One step of the leading-image elimination.

    ``gamma`` holds the coefficients of the homogeneous factor of the
    tracked image, degree N_f - step: T(S) = z^{-r} w^{-m} omega(z, w)
    sum_i gamma_i z^i w^{deg - i}.  Both sides are image grids, entry
    (i, j) the coefficient of z^{-i} w^{-j}.
    """

    spec: WeightSpec
    r: int
    m: int
    step: int
    s_atoms: dict[Atom, float]
    st_atoms: dict[Atom, float]
    gamma: np.ndarray
    ks: list[float] = field(default_factory=list)

    def s_poly(self) -> BivariatePoly:
        return _realize(self.spec, self.s_atoms)

    def s_image(self) -> np.ndarray:
        """The trimmed Chebyshev-U grid of S, read as the image T(S) under
        U_i(x) U_j(y) -> z^{-i} w^{-j}: entry (i, j) is the coefficient of
        z^{-i} w^{-j}."""
        return self.s_poly().coeffs

    def predicted_image(self) -> np.ndarray:
        """z^{-r} w^{-m} omega(z, w) times the homogeneous gamma factor, as an
        (r+1) x (m+1) image grid.  omega = sum_k e_k (z w)^k, e the elementary
        symmetric functions ``homogeneous_corner`` returns, so the term
        e_k gamma_i lands at (r - k - i, m - k - deg + i)."""
        e = homogeneous_corner(self.spec)
        deg = len(self.gamma) - 1
        k, i = np.divmod(np.arange(len(e) * (deg + 1)), deg + 1)
        rows, cols = self.r - k - i, self.m - k - deg + i
        # r, m >= 2 N_f keeps every index >= 0; np.add.at would wrap a negative one
        assert rows.min() >= 0 and cols.min() >= 0, (self.r, self.m, deg)
        grid = np.zeros((self.r + 1, self.m + 1))
        np.add.at(grid, (rows, cols), e[k] * self.gamma[i])
        return grid

    def check_invariants(self):
        if self.step == 0:
            return
        img = self.s_image()
        # a deviation above 1e-9 of the image's largest coefficient is a breakdown,
        # and so is a NaN; the predicted image ends at w^{-m}, so a surviving
        # w^{-(m+1)} term is one
        cutoff = 1e-9 * (float(np.max(np.abs(img))) if img.size else 1.0)
        both = _padded([img, self.predicted_image()])
        dev = float(np.max(np.abs(both[0] - both[1])))
        if not dev <= cutoff:
            raise RecursionBreakdownError(f"image invariant violated at step {self.step}: {dev:.3e}")


def eliminate(spec: WeightSpec, r: int, k: int, m: int) -> EliminationState:
    """Run the elimination to slot (r, k): J = k - (m - N_f) steps.

    Each step cancels the w^{-(m+1)} term of the tracked image; the
    cancellation constant is the ratio of the extreme coefficients of the
    current homogeneous factor, and the factor loses one degree.
    """
    if spec.variant != PRODUCT_OMEGA:
        raise ValueError("elimination requires a product weight")
    n_f = spec.n_f
    steps = k - (m - n_f)
    if not (1 <= steps <= n_f):
        raise ValueError(f"high band covers {m - n_f} < k <= {m}")
    if not (r >= 2 * n_f and m >= 2 * n_f):
        raise ValueError(f"need r, m >= 2 N_f = {2 * n_f}")
    s: dict[Atom, float] = {("q", r, m - n_f + 1): 1.0}
    st: dict[Atom, float] = {("qt", r - n_f, m + 1): 1.0}
    state = EliminationState(spec, r, m, 0, s, st, homogeneous_corner(spec))
    for j in range(1, steps + 1):
        d = len(state.gamma) - 1
        if abs(state.gamma[0]) < 1e-12:
            raise RecursionBreakdownError(f"gamma_0 ~ 0 entering step {j}")
        kj = float(state.gamma[d] / state.gamma[0])
        if j == 1:
            new_s = _combine(state.s_atoms, state.st_atoms, -kj)
            new_st = _shifted(_combine(state.st_atoms, state.s_atoms, -kj), 1, -1)
        else:
            new_s = _shifted(_combine(state.s_atoms, state.st_atoms, -kj), 0, 1)
            new_st = _shifted(_combine(state.st_atoms, state.s_atoms, -kj), 1, 0)
        gamma = np.array([state.gamma[i] - kj * state.gamma[d - i] for i in range(d)])
        state = EliminationState(spec, r, m, j, new_s, new_st, gamma, state.ks + [kj])
        state.check_invariants()
    return state


def build_lex_high_recursion(
    spec: WeightSpec, r: int, k: int, m: int, oracle: MomentOracle | None = None
) -> BivariatePoly:
    """Same slot as :func:`build_lex_high`, via the elimination recursion."""
    state = eliminate(spec, r, k, m)
    unit, _ = _oracle(spec, oracle).normalized(state.s_poly(), (r, k))
    return unit


# ---------------------------------------------------------------------------
# Whole-window systems and the matrix-polynomial view
# ---------------------------------------------------------------------------


def lex_system(
    spec: WeightSpec, n: int, m: int, ordering: str = LEX, oracle: MomentOracle | None = None
) -> OrthoSystem:
    """The full orthonormal system on Pi_{n,m} in lex (or revlex) order.

    Slots with a closed form use it; everything else falls back to oracle
    Gram-Schmidt.  Both routes produce the same polynomials, so the
    output is consistent regardless of the split.
    """
    if ordering not in (LEX, REVLEX):
        raise ValueError("ordering must be lex or revlex")
    if n < 0 or m < 0:
        raise ValueError("window bounds n and m must be nonnegative")
    cap_system(1 + max(n, m))  # before the slots are listed
    orc = _oracle(spec, oracle)
    swap = ordering == REVLEX
    major, minor = (n, m) if not swap else (m, n)
    # revlex reads the lex slots of the reflected weight, which only a product spec has: itself
    base = spec if not swap or spec.variant == PRODUCT_OMEGA else None
    slots = [(r, k) if not swap else (k, r) for r in range(major + 1) for k in range(minor + 1)]
    closed = {}
    solved: dict[int, np.ndarray] = {}  # one high-band combination per step count J
    if base is not None:
        for r in range(major + 1):
            q = qk_grid(base, r)  # shared by every low-band slot of the row
            for k in range(minor + 1):
                grid = _closed_grid(base, r, k, minor, q, solved)
                if grid is not None:
                    closed[(k, r) if swap else (r, k)] = grid.T if swap else grid
    return orc.assemble(ordering, slots, closed, n, m)


def _closed_grid(
    base: WeightSpec,
    r: int,
    k: int,
    m: int,
    q: np.ndarray | None = None,
    solved: dict[int, np.ndarray] | None = None,
) -> np.ndarray | None:
    """Grid of the closed-form lex slot (r, k) of ``base`` on a width-m
    window, un-normalized, or None when only the oracle can build it.
    ``q`` is ``qk_grid(base, r)`` when the caller already has it; ``solved``
    holds the window's high-band combinations (see ``_high_band_sum``)."""
    if k <= m - base.kappa and r >= low_band_threshold(base.n_h):
        return u_band(qk_grid(base, r) if q is None else q, k, 1)
    if base.variant == PRODUCT_OMEGA and m - base.n_f < k <= m and r >= 2 * base.n_f and m >= 2 * base.n_f:
        try:
            return _high_band_sum(base, r, k, m, solved)
        except DegenerateWindowError:
            return None
    return None


@dataclass
class ConnectionView:
    """x-coefficient matrices K_0..K_n of the vector polynomial at (n, m):
    component i is sum_{j,l} K_j[i, l] x^j y^l."""

    matrices: list[np.ndarray]
    triangular_ok: bool
    max_violation: float


def connection_reshape(system: OrthoSystem, n: int, m: int) -> ConnectionView:
    """Reshape the x-index-n lex components into matrix-polynomial form and
    check the leading matrix is lower triangular, to 1e-8, with positive diagonal."""
    mats = [np.zeros((m + 1, m + 1)) for _ in range(n + 1)]
    for i in range(m + 1):
        p = system.poly((n, i)).to_basis(MONOMIAL)
        c = p.coeffs
        for jx in range(min(c.shape[0], n + 1)):
            for ly in range(min(c.shape[1], m + 1)):
                mats[jx][i, ly] = c[jx, ly]
    lead = mats[n]
    upper = np.triu(lead, 1)
    viol = float(np.max(np.abs(upper))) if upper.size else 0.0
    ok = viol <= 1e-8 and bool(np.all(np.diag(lead) > 0.0))
    return ConnectionView(mats, ok, viol)
