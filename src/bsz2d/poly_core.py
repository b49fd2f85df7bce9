"""Exact-shape polynomial arithmetic in the tensor Chebyshev-U basis.

Univariate and bivariate polynomials are stored as dense coefficient
arrays over either the Chebyshev-U basis or the monomial basis.
Coefficients are double precision.  The Chebyshev-U grid is the one
representation: the leading image of the lexicographical elimination,
U_i(x) U_j(y) -> z^{-i} w^{-j}, only relabels its slots, so
``lex_order`` reads that image off the grid itself.

Every Chebyshev-U product reduces to the linearization rule
U_a U_b = sum of U_c over c = |a-b|, |a-b|+2, ..., a+b, held as a 0/1
tensor by ``_lin``.

Every ``BivariatePoly`` holds a trimmed grid: its last row and last column
each hold a nonzero entry (NaN counts as nonzero, -0.0 as zero), and the
zero polynomial is the 0 x 0 grid.  Construction trims, after converting
the coefficients to a 2-D float64 array when they are not one already;
``_wrap`` takes a grid that is already trimmed and skips that step.  Sums
and scalings are built by construction, so the arithmetic keeps the
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

CHEB_U = "chebU"
MONOMIAL = "monomial"

NEG_INF = float("-inf")


class BasisMismatchError(ValueError):
    """Raised when an operation requires operands in the same basis."""


def _trim1(c: np.ndarray) -> np.ndarray:
    n = len(c)
    while n > 0 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _trim2(c: np.ndarray) -> np.ndarray:
    nr, nc = c.shape
    while nr > 0 and not c[nr - 1].any():
        nr -= 1
    while nc > 0 and not c[:nr, nc - 1].any():
        nc -= 1
    return c[:nr, :nc]


def _extents(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shape ``_trim2`` cuts each grid of a (K, a, b) stack to: one past
    its last nonzero row and column, (0, 0) for a zero grid."""
    nz = stack != 0
    nx = (nz.any(2) * np.arange(1, stack.shape[1] + 1)).max(1, initial=0)
    ny = (nz.any(1) * np.arange(1, stack.shape[2] + 1)).max(1, initial=0)
    return nx, ny


def _square(stack: np.ndarray, s: int) -> np.ndarray:
    """The (K, a, b) stack zero-padded or cut to (K, s, s); the stack itself
    when it already has that shape."""
    if stack.shape[1:] == (s, s):
        return stack
    out = np.zeros((len(stack), s, s))
    a, b = min(stack.shape[1], s), min(stack.shape[2], s)
    out[:, :a, :b] = stack[:, :a, :b]
    return out


def chebu_to_monomial_matrix(n: int) -> np.ndarray:
    """Columns are the monomial coefficients of U_0 .. U_n (exact integers)."""
    T = np.zeros((n + 1, n + 1))
    T[0, 0] = 1.0
    if n >= 1:
        T[1, 1] = 2.0
    for k in range(2, n + 1):
        T[1:, k] = 2.0 * T[:-1, k - 1]
        T[:, k] -= T[:, k - 2]
    return T


@lru_cache(maxsize=64)
def _mono_to_chebu(k: int) -> np.ndarray:
    """M[c, i] with x^i = sum_c M[c, i] U_c(x), for i, c <= k.

    Column i is x times column i - 1, by x U_c = (U_{c+1} + U_{c-1}) / 2
    with U_{-1} = 0.  The entries are exact dyadic rationals.  The tables
    are small, cached and read-only."""
    M = np.zeros((k + 1, k + 1))
    M[0, 0] = 1.0
    for i in range(1, k + 1):
        M[1:, i] = M[:-1, i - 1] / 2
        M[:-1, i] += M[1:, i - 1] / 2
    M.setflags(write=False)
    return M


def _padded(grids: list[np.ndarray], shape: tuple[int, int] | None = None) -> np.ndarray:
    """The 2-D grids zero-padded into one (len(grids), *shape) array; the
    shape defaults to the largest extent of the grids on each axis."""
    if shape is None:
        shape = (max(g.shape[0] for g in grids), max(g.shape[1] for g in grids))
    out = np.zeros((len(grids), *shape))
    for a, g in enumerate(grids):
        out[a, : g.shape[0], : g.shape[1]] = g
    return out


def _convert1(coeffs: np.ndarray, src: str, dst: str) -> np.ndarray:
    if src == dst or len(coeffs) == 0:
        return coeffs.copy()
    if src == CHEB_U and dst == MONOMIAL:
        return chebu_to_monomial_matrix(len(coeffs) - 1) @ coeffs
    if src == MONOMIAL and dst == CHEB_U:
        return _mono_to_chebu(len(coeffs) - 1) @ coeffs
    raise ValueError(f"unknown basis pair {src!r} -> {dst!r}")


def chebu_eval(coeffs: np.ndarray, x):
    """Evaluate sum_k c_k U_k(x) by the three-term recurrence (vectorized)."""
    x = np.asarray(x, dtype=float)
    acc = np.zeros_like(x, dtype=float)
    if len(coeffs) == 0:
        return acc
    u_prev = np.ones_like(x)
    acc = acc + float(coeffs[0]) * u_prev
    if len(coeffs) == 1:
        return acc
    u = 2.0 * x
    acc = acc + float(coeffs[1]) * u
    for k in range(2, len(coeffs)):
        u, u_prev = 2.0 * x * u - u_prev, u
        acc = acc + float(coeffs[k]) * u
    return acc


@dataclass(frozen=True)
class UnivariatePoly:
    """A univariate polynomial in either the Chebyshev-U or monomial basis.

    The zero polynomial is the canonical empty coefficient vector; its
    degree is reported as -inf.
    """

    basis: str
    coeffs: np.ndarray

    def __post_init__(self):
        arr = _trim1(np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "coeffs", arr)
        if self.basis not in (CHEB_U, MONOMIAL):
            raise ValueError(f"unknown basis {self.basis!r}")

    @property
    def deg(self) -> float:
        return len(self.coeffs) - 1 if len(self.coeffs) else NEG_INF

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 0

    def to_basis(self, basis: str) -> "UnivariatePoly":
        return UnivariatePoly(basis, _convert1(self.coeffs, self.basis, basis))

    def __call__(self, x):
        if self.is_zero:
            return np.zeros_like(np.asarray(x, dtype=float))
        if self.basis == CHEB_U:
            return chebu_eval(self.coeffs, x)
        return np.polyval(np.asarray(self.coeffs, dtype=float)[::-1], x)


@lru_cache(maxsize=256)
def _lin(na: int, nb: int) -> np.ndarray:
    """L[a, b, c] = 1 where U_c occurs in U_a U_b, for a < na, b < nb.

    The tables are small, cached and read-only."""
    a = np.arange(na)[:, None, None]
    b = np.arange(nb)[None, :, None]
    c = np.arange(na + nb - 1)[None, None, :]
    L = ((np.abs(a - b) <= c) & (c <= a + b) & ((a + b - c) % 2 == 0)).astype(float)
    L.setflags(write=False)
    return L


def u_band(c: np.ndarray, k: int, axis: int) -> np.ndarray:
    """The coefficient grid of (grid c) * U_k, with U_k in x (axis 0) or y (axis 1).

    U_a U_k is a sum of U_b over a band of b, so the product applies the 0/1
    band ``_lin(n, k + 1)[:, k, :]`` along one axis: the banded
    multiplication operator of the ultraspherical method (S. Olver and
    A. Townsend, SIAM Review 55, 2013).  The result is not trimmed."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    band = _lin(c.shape[axis], k + 1)[:, k, :]
    return band.T @ c if axis == 0 else c @ band


@dataclass(frozen=True)
class BivariatePoly:
    """Coefficient grid over basis_i(x) * basis_j(y); entry (i, j) is the
    coefficient of the x-degree-i, y-degree-j basis element."""

    basis: str
    coeffs: np.ndarray

    def __post_init__(self):
        arr = self.coeffs
        if type(arr) is not np.ndarray or arr.dtype != np.float64 or arr.ndim != 2:
            arr = np.atleast_2d(np.asarray(arr, dtype=float))
        object.__setattr__(self, "coeffs", _trim2(arr))
        if self.basis not in (CHEB_U, MONOMIAL):
            raise ValueError(f"unknown basis {self.basis!r}")

    @classmethod
    def _wrap(cls, basis: str, coeffs: np.ndarray) -> "BivariatePoly":
        """The polynomial over a float grid that is already trimmed, taken as
        is: neither copied nor trimmed again."""
        p = object.__new__(cls)
        object.__setattr__(p, "basis", basis)
        object.__setattr__(p, "coeffs", coeffs)
        return p

    # -- degrees ----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    # -- construction helpers --------------------------------------------
    @staticmethod
    def zero(basis: str = CHEB_U) -> "BivariatePoly":
        return BivariatePoly(basis, np.zeros((0, 0)))

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "BivariatePoly"):
        if self.basis != other.basis:
            raise BasisMismatchError(self.basis + " vs " + other.basis)

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        self._check(other)
        nr = max(self.coeffs.shape[0], other.coeffs.shape[0])
        nc = max(self.coeffs.shape[1], other.coeffs.shape[1])
        out = np.zeros((nr, nc))
        a, b = self.coeffs, other.coeffs
        out[: a.shape[0], : a.shape[1]] += a
        out[: b.shape[0], : b.shape[1]] += b
        return BivariatePoly(self.basis, out)

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly(self.basis, -self.coeffs if self.coeffs.size else self.coeffs)

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        return self + (-other)

    def scale(self, c) -> "BivariatePoly":
        if self.is_zero:
            return self
        return BivariatePoly(self.basis, self.coeffs * c)

    def to_basis(self, basis: str) -> "BivariatePoly":
        if basis == self.basis or self.is_zero:
            return BivariatePoly(basis, self.coeffs.copy())
        nx, ny = self.coeffs.shape
        if self.basis == CHEB_U and basis == MONOMIAL:
            Tx = chebu_to_monomial_matrix(nx - 1)
            Ty = chebu_to_monomial_matrix(ny - 1)
            return BivariatePoly(MONOMIAL, Tx @ self.coeffs @ Ty.T)
        if self.basis == MONOMIAL and basis == CHEB_U:
            return BivariatePoly(CHEB_U, _mono_to_chebu(nx - 1) @ self.coeffs @ _mono_to_chebu(ny - 1).T)
        raise ValueError(f"unknown basis pair {self.basis!r} -> {basis!r}")

    def __call__(self, x, y):
        c = self.to_basis(MONOMIAL).coeffs
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        acc = np.zeros(np.broadcast(x, y).shape)
        for i in range(c.shape[0]):
            row = np.zeros_like(acc)
            for j in range(c.shape[1] - 1, -1, -1):
                row = row * y + float(c[i, j])
            acc = acc + row * x**i
        return acc


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def poly_to_dict(p: BivariatePoly | UnivariatePoly) -> dict:
    return {"basis": p.basis, "coeffs": p.coeffs.tolist()}


def poly_from_dict(d: dict) -> BivariatePoly | UnivariatePoly:
    coeffs = d["coeffs"]
    if coeffs and isinstance(coeffs[0], list):
        return BivariatePoly(d["basis"], np.asarray(coeffs, dtype=float))
    if not coeffs:
        # ambiguous empty payload; default to the bivariate zero
        return BivariatePoly(d["basis"], np.zeros((0, 0)))
    return UnivariatePoly(d["basis"], np.asarray(coeffs, dtype=float))

