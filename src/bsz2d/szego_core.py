"""The one-parameter families q_k, q~_l, their closed-form norms, and the
one-variable low-degree completion.

q_k(x, y) = sum_{i=0}^{N} h_i(y) U_{k-i}(x) with the negative-index
convention U_{-1} = 0, U_{-n-2} = -U_n.  Each q_k is orthogonal to every
polynomial in x of degree below k under the slice measure
dmu_y = sqrt(1-x^2)/|h(e^{i theta}, y)|^2 dx, with a y-independent norm
once k is large enough.  q_k is stored exactly as defined; unit
normalization happens downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly_core import CHEB_U, MONOMIAL, BivariatePoly, UnivariatePoly
from .weights import PRODUCT_OMEGA, UnsupportedWeightError, WeightSpec


class EliminationBreakdownError(RuntimeError):
    """A pivot in the degree-reduction chain is numerically zero."""


def low_band_threshold(n_h: int) -> int:
    """ceil((N-2)/2), floored at zero: the first k with closed-form q_k of
    exact total degree k."""
    return max(0, (n_h - 1) // 2)


def norm_threshold(n_h: int) -> int:
    """ceil((N-1)/2): the first k whose squared slice norm is pi/2."""
    return max(0, n_h // 2)


def qk_grid(spec: WeightSpec, k: int) -> np.ndarray:
    """The x-by-y Chebyshev-U coefficient grid of q_k, from the z-coefficients
    of the weight.

    The grid is ``_fold(spec.h_chebu, k)``, not trimmed.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _fold(spec.h_chebu, k)


def _fold(H: np.ndarray, k: int) -> np.ndarray:
    """The Chebyshev-U coefficients of sum_i H[i] U_{k-i}, one row per degree
    and one column per column of H (a 1-D H gives a vector).  Row k - i
    collects +H[i] for i <= k, and row i - k - 2 collects -H[i] for
    i >= k + 2 (the folding U_{-1} = 0, U_{-n-2} = -U_n)."""
    up, down = H[: k + 1], H[k + 2 :]
    grid = np.zeros((max(k + 1, len(down)),) + H.shape[1:])
    grid[k + 1 - len(up) : k + 1] += up[::-1]
    grid[: len(down)] -= down
    return grid


def tilde_ql_grid(spec: WeightSpec, l: int) -> np.ndarray:
    """The grid of q~_l: q_l of the reflected weight, variables exchanged.
    Only a product spec has a reflected weight, and it is the spec itself
    (each factor reads 1 + 2 a_i x w + a_i^2 w^2 in the swapped variables);
    a generic spec raises ``UnsupportedWeightError``."""
    if spec.variant != PRODUCT_OMEGA:
        raise UnsupportedWeightError("the reflected weight needs product structure")
    return qk_grid(spec, l).T


def build_qk(spec: WeightSpec, k: int) -> BivariatePoly:
    """q_k as a polynomial; see :func:`qk_grid`."""
    return BivariatePoly(CHEB_U, qk_grid(spec, k))


def qk_norm_closed(spec: WeightSpec, k: int):
    """Squared slice norm of q_k: pi/2 once k >= ceil((N-1)/2), and
    pi/2 (1 - h_N) on the boundary case 2k + 2 = N.  The boundary case
    only arises when the degree bound forces h_N constant."""
    n_h = spec.n_h
    if k < low_band_threshold(n_h):
        raise ValueError(f"no closed-form norm below k = {low_band_threshold(n_h)}")
    if k >= norm_threshold(n_h):
        return math.pi / 2
    # remaining case: N even, 2k + 2 = N
    h_top = spec.h[n_h].to_basis(MONOMIAL)
    top = float(h_top.coeffs[0]) if not h_top.is_zero else 0.0
    return math.pi / 2 * (1.0 - top)


# ---------------------------------------------------------------------------
# One-variable completion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Completion1D:
    poly: UnivariatePoly  # the degree-k completed polynomial, chebU basis
    corrections: dict[int, float]  # j -> multiplier attached to q_j


def complete_1d(h, k: int) -> Completion1D:
    """Degree reduction of q_k for a one-variable weight (constant h_i).

    The top Chebyshev coefficients U_t, t = N-k-2 down to k+1, are
    cancelled by attaching multiples h'_t of q_t.  Cancelling at a low
    degree t can fold a contribution back above t (q_t itself reaches
    degree N-t-2), so the chain is obtained by solving the square linear
    system the cancellation conditions form; this is the fixed point the
    top-down pass converges to.  The diagonal pivots are h_0 - h_{2t+2}
    (h_j = 0 beyond N) and breakdown is reported when one is below
    1e-10.  q_k of the constant h is ``_fold(h, k)``.
    """
    h = np.asarray(h, dtype=float)
    n = len(h) - 1
    if abs(h[0] - 1.0) > 1e-12:
        raise ValueError("h_0 must be 1")
    kmax = max(0, (n - 1) // 2) - 1
    if not (0 <= k <= kmax):
        raise ValueError(f"k must satisfy 0 <= k <= {kmax} for N = {n}")

    def h_at(j: int) -> float:
        return float(h[j]) if 0 <= j <= n else 0.0

    chain = list(range(n - k - 2, k, -1))  # top-down
    for t in chain:
        if abs(h_at(0) - h_at(2 * t + 2)) < 1e-10:
            raise EliminationBreakdownError(f"pivot |h_0 - h_{2*t+2}| < 1e-10 at degree t = {t}")
    qk = _fold(h, k)
    q_chain = {t: _fold(h, t) for t in chain}
    size = max([len(qk)] + [len(q) for q in q_chain.values()])

    def coeff(vec: np.ndarray, t: int) -> float:
        return float(vec[t]) if t < len(vec) else 0.0

    A = np.array([[coeff(q_chain[j], t) for j in chain] for t in chain])
    rhs = -np.array([coeff(qk, t) for t in chain])
    sol = np.linalg.solve(A, rhs) if chain else np.zeros(0)
    corrections = {j: float(c) for j, c in zip(chain, sol)}
    cur = np.zeros(size)
    cur[: len(qk)] = qk
    for j, c in corrections.items():
        qj = q_chain[j]
        cur[: len(qj)] += c * qj
    residual = float(np.max(np.abs(cur[k + 1 :]), initial=0.0))
    if residual > 1e-9 * max(1.0, float(np.max(np.abs(cur)))):
        raise EliminationBreakdownError(f"degree reduction left residual {residual:.3e}")
    return Completion1D(UnivariatePoly(CHEB_U, cur[: k + 1]), corrections)
