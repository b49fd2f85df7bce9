"""Lexicographical and reverse-lexicographical orthonormal systems.

On the window Pi_{n,m} the slot (r, k) splits into two bands.  In the
low band (k <= m - kappa) the polynomial is simply q_r(x, y) U_k(y).  In
the high band (m - N_f < k <= m, product weights) it mixes the q and
q~ families:

    p = sum_j [ a_j q_{r+j} U_{k-j}(y) + b_j q~_{m+1+j} U_{r+k-m-1-j}(x) ]

with j running over 0 .. k-(m-N_f)-1.  Two independent constructions are
provided: a nullspace solve that kills every forbidden tensor-Chebyshev
slot (the production path), and the step-by-step Laurent elimination
that determines the same combination by repeatedly cancelling the
w^{-(m+1)} term of the tracked leading image.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .moment_oracle import oracle_for
from .ortho import LEX, REVLEX, OrthoSystem
from .poly_core import CHEB_U, MONOMIAL, BivariatePoly, LaurentPoly, mul, t_map, u_index
from .szego_core import build_qk, build_tilde_ql, norm_threshold
from .weights import PRODUCT_OMEGA, WeightSpec, homogeneous_corner, omega_laurent


class DegenerateWindowError(RuntimeError):
    """The high-band nullspace is not one-dimensional."""


class RecursionBreakdownError(RuntimeError):
    """A leading gamma coefficient vanished during elimination."""


class AnomalousSolutionError(RuntimeError):
    """The solved high-band combination has a_0 ~ 0."""


# ---------------------------------------------------------------------------
# Band geometry
# ---------------------------------------------------------------------------


def low_band_max_k(spec: WeightSpec, m: int) -> int:
    """Largest k for which q_r U_k(y) is valid on a window with bound m."""
    return m - spec.kappa


def high_band_range(spec: WeightSpec, m: int) -> range:
    """High-band slots m - N_f < k <= m (product weights only)."""
    return range(m - spec.n_f + 1, m + 1)


# ---------------------------------------------------------------------------
# Low band
# ---------------------------------------------------------------------------


def build_lex_low(spec: WeightSpec, r: int, k: int, normalize: bool = True) -> BivariatePoly:
    """q_r(x, y) U_k(y), unit norm: the lex slot (r, k) whenever k <= m - kappa.

    Independent of the window bound m, so a slot survives window growth
    unchanged.  For even N the value r = N/2 - 1 is accepted one step
    below the threshold; the combination is then orthogonal only up to a
    multiple and is normalized numerically like everything else.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    r_min = norm_threshold(spec.n_h)
    if spec.n_h % 2 == 0 and r == r_min - 1:
        pass  # boundary case, accepted
    elif r < r_min:
        raise ValueError(f"low-band closed form needs r >= {r_min} (N_h = {spec.n_h})")
    p = mul(build_qk(spec, r), BivariatePoly.from_separable(u_index(0), u_index(k)))
    if not normalize:
        return p
    unit, _ = oracle_for(spec).normalized(p, (r, k))
    return unit


# ---------------------------------------------------------------------------
# High band: nullspace formulation
# ---------------------------------------------------------------------------


def _high_band_terms(spec: WeightSpec, r: int, k: int, m: int) -> list[BivariatePoly]:
    """The 2J candidate products of the high-band combination, a-terms first."""
    n_f = spec.n_f
    if not (m - n_f < k <= m):
        raise ValueError(f"high band covers {m - n_f} < k <= {m}")
    if not (r >= 2 * n_f and m >= 2 * n_f):
        raise ValueError(f"need r, m >= 2 N_f = {2 * n_f}")
    steps = k - (m - n_f)
    terms = []
    for j in range(steps):
        uy = BivariatePoly.from_separable(u_index(0), u_index(k - j))
        terms.append(mul(build_qk(spec, r + j), uy))
    for j in range(steps):
        ux = BivariatePoly.from_separable(u_index(r + k - m - 1 - j), u_index(0))
        terms.append(mul(build_tilde_ql(spec, m + 1 + j), ux))
    return terms


def high_band_coefficients(
    spec: WeightSpec, r: int, k: int, m: int, svd_ratio: float = 1e-8
) -> tuple[np.ndarray, list[BivariatePoly]]:
    """Solve for the combination killing every tensor-Chebyshev slot that is
    out of window (y-degree > m) or lex-greater than (r, k).

    Returns the nullspace vector (a_0..a_{J-1}, b_0..b_{J-1}) and the
    candidate terms.  The nullspace must be one-dimensional.
    """
    terms = _high_band_terms(spec, r, k, m)
    imax = max(t.coeffs.shape[0] for t in terms)
    jmax = max(t.coeffs.shape[1] for t in terms)
    grids = np.zeros((len(terms), imax, jmax))
    for t_i, t in enumerate(terms):
        si, sj = t.coeffs.shape
        grids[t_i, :si, :sj] = t.coeffs
    rows = []
    for i in range(imax):
        for j in range(jmax):
            forbidden = j > m or i > r or (i == r and j > k)
            if forbidden and np.any(grids[:, i, j] != 0.0):
                rows.append(grids[:, i, j])
    M = np.array(rows) if rows else np.zeros((0, len(terms)))
    _, s, Vt = np.linalg.svd(M) if M.size else (None, np.zeros(0), np.eye(len(terms)))
    smax = s[0] if len(s) else 0.0
    null_dim = len(terms) - len(s) + int(np.sum(s <= svd_ratio * smax)) if smax > 0 else len(terms)
    if null_dim != 1:
        raise DegenerateWindowError(
            f"nullspace dimension {null_dim} at slot (r, k, m) = ({r}, {k}, {m})"
        )
    v = Vt[-1]
    if abs(v[0]) < 1e-10 * np.max(np.abs(v)):
        raise AnomalousSolutionError(f"leading combination weight a_0 ~ 0 at ({r}, {k}, {m})")
    return v, terms


def _high_band_sum(spec: WeightSpec, r: int, k: int, m: int) -> BivariatePoly:
    """The solved high-band combination at lex slot (r, k), un-normalized."""
    v, terms = high_band_coefficients(spec, r, k, m)
    p = BivariatePoly.zero(CHEB_U)
    for c, t in zip(v, terms):
        p = p + t.scale(float(c))
    return p


def build_lex_high(spec: WeightSpec, r: int, k: int, m: int) -> BivariatePoly:
    """Unit-norm high-band polynomial at lex slot (r, k) on a width-m window."""
    unit, _ = oracle_for(spec).normalized(_high_band_sum(spec, r, k, m), (r, k))
    return unit


# ---------------------------------------------------------------------------
# High band: elimination recursion
# ---------------------------------------------------------------------------

# Atoms are (kind, alpha, beta) with coefficient tables; kind "q" denotes
# q_alpha(x, y) U_beta(y) and kind "qt" denotes q~_beta(x, y) U_alpha(x).
Atom = tuple[str, int, int]


def _realize(spec: WeightSpec, atoms: dict[Atom, float]) -> BivariatePoly:
    p = BivariatePoly.zero(CHEB_U)
    for (kind, alpha, beta), c in atoms.items():
        if c == 0.0:
            continue
        if kind == "q":
            t = mul(build_qk(spec, alpha), BivariatePoly.from_separable(u_index(0), u_index(beta)))
        else:
            t = mul(build_tilde_ql(spec, beta), BivariatePoly.from_separable(u_index(alpha), u_index(0)))
        p = p + t.scale(c)
    return p


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
    sum_i gamma_i z^i w^{deg - i}.
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

    def st_poly(self) -> BivariatePoly:
        return _realize(self.spec, self.st_atoms)

    def s_image(self) -> LaurentPoly:
        return t_map(self.s_poly())

    def predicted_image(self) -> LaurentPoly:
        """z^{-r} w^{-m} omega(z, w) times the homogeneous gamma factor."""
        deg = len(self.gamma) - 1
        omega = LaurentPoly(omega_laurent(self.spec))
        homog = LaurentPoly({(i, deg - i): g for i, g in enumerate(self.gamma)})
        return (omega * homog).shift(-self.r, -self.m)

    def check_invariants(self, tol: float = 1e-9):
        if self.step == 0:
            return
        img = self.s_image()
        scale = max((abs(v) for v in img.coeffs.values()), default=1.0)
        dev = img.max_abs_diff(self.predicted_image())
        if dev > tol * scale:
            raise RecursionBreakdownError(f"image invariant violated at step {self.step}: {dev:.3e}")
        low_w = [b for (_, b) in img.prune(tol * scale).support if b <= -(self.m + 1)]
        if low_w:
            raise RecursionBreakdownError(f"w^{min(low_w)} survives step {self.step}")


def eliminate(spec: WeightSpec, r: int, k: int, m: int, tol: float = 1e-12) -> EliminationState:
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
        if abs(state.gamma[0]) < tol:
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


def build_lex_high_recursion(spec: WeightSpec, r: int, k: int, m: int) -> BivariatePoly:
    """Same slot as :func:`build_lex_high`, via the elimination recursion."""
    state = eliminate(spec, r, k, m)
    unit, _ = oracle_for(spec).normalized(state.s_poly(), (r, k))
    return unit


# ---------------------------------------------------------------------------
# Reverse lexicographical
# ---------------------------------------------------------------------------


def build_revlex(spec: WeightSpec, l: int, t: int, n: int) -> BivariatePoly:
    """Revlex slot (l, t) on a window with x-bound n: the lex construction
    applied to the reflected weight, variables exchanged afterwards."""
    from .weights import tilde_expand

    reflected = tilde_expand(spec)
    if l <= n - reflected.kappa:
        p = build_lex_low(reflected, t, l, normalize=False)
    else:
        p = _high_band_sum(reflected, t, l, n)
    p = p.swap_xy()
    unit, _ = oracle_for(spec).normalized(p, (l, t))
    return unit


# ---------------------------------------------------------------------------
# Whole-window systems and the matrix-polynomial view
# ---------------------------------------------------------------------------


def lex_system(spec: WeightSpec, n: int, m: int, ordering: str = LEX) -> OrthoSystem:
    """The full orthonormal system on Pi_{n,m} in lex (or revlex) order.

    Slots with a closed form use it; everything else falls back to oracle
    Gram-Schmidt.  Both routes produce the same polynomials, so the
    output is consistent regardless of the split.
    """
    if ordering not in (LEX, REVLEX):
        raise ValueError("ordering must be lex or revlex")
    orc = oracle_for(spec)
    fallback = None
    out = OrthoSystem(ordering)
    swap = ordering == REVLEX
    major, minor = (n, m) if not swap else (m, n)
    for r in range(major + 1):
        for k in range(minor + 1):
            idx = (r, k) if not swap else (k, r)
            hit = _closed_slot(spec, r, k, minor, swap)
            if hit is None:
                if fallback is None:
                    fallback = orc.gram_schmidt(ordering, n, m)
                p = fallback.poly(idx)
                nrm = fallback.norms[fallback.indices().index(idx)] if fallback.norms else float("nan")
            else:
                p, nrm = hit
            out.entries.append((idx, p))
            out.norms.append(float(nrm))
    return out


def _closed_slot(
    spec: WeightSpec, r: int, k: int, m: int, swap: bool
) -> tuple[BivariatePoly, float] | None:
    """Closed-form slot polynomial, or None when only the oracle can build it."""
    try:
        base = tilde_expandable(spec) if swap else spec
        if base is None:
            return None
        if k <= m - base.kappa and r >= norm_threshold(base.n_h):
            p = build_lex_low(base, r, k, normalize=False)
        elif (
            base.variant == PRODUCT_OMEGA
            and m - base.n_f < k <= m
            and r >= 2 * base.n_f
            and m >= 2 * base.n_f
        ):
            p = _high_band_sum(base, r, k, m)
        else:
            return None
    except (ValueError, DegenerateWindowError):
        return None
    if swap:
        p = p.swap_xy()
        idx = (k, r)
    else:
        idx = (r, k)
    return oracle_for(spec).normalized(p, idx)


def tilde_expandable(spec: WeightSpec) -> WeightSpec | None:
    from .weights import UnsupportedWeightError, tilde_expand

    try:
        return tilde_expand(spec)
    except UnsupportedWeightError:
        return None


@dataclass
class ConnectionView:
    """x-coefficient matrices K_0..K_n of the vector polynomial at (n, m):
    component i is sum_{j,l} K_j[i, l] x^j y^l."""

    matrices: list[np.ndarray]
    triangular_ok: bool
    max_violation: float


def connection_reshape(system: OrthoSystem, n: int, m: int, tol: float = 1e-8) -> ConnectionView:
    """Reshape the x-index-n lex components into matrix-polynomial form and
    check the leading matrix is lower triangular with positive diagonal."""
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
    ok = viol <= tol and bool(np.all(np.diag(lead) > 0.0))
    return ConnectionView(mats, ok, viol)
