"""Exact-shape polynomial arithmetic in the tensor Chebyshev-U basis.

Univariate and bivariate polynomials are stored as dense coefficient
arrays over either the Chebyshev-U basis or the monomial basis; a sparse
Laurent table in (z, w) supports the leading-behaviour bookkeeping of the
lexicographical elimination algorithm.  Coefficients are double precision.

Every Chebyshev-U product reduces to the linearization rule
U_a U_b = sum of U_c over c = |a-b|, |a-b|+2, ..., a+b, held as a 0/1
tensor by ``_lin``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

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
    while nr > 0 and not np.any(c[nr - 1, :] != 0):
        nr -= 1
    while nc > 0 and not np.any(c[:nr, nc - 1] != 0):
        nc -= 1
    return c[:nr, :nc]


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


def _chebu_from_monomial_1d(m: np.ndarray) -> np.ndarray:
    """Back-substitution against the (upper triangular) U-to-monomial matrix."""
    n = len(m) - 1
    if n < 0:
        return m.copy()
    T = chebu_to_monomial_matrix(n)
    c = m.astype(float)
    out = np.zeros(n + 1)
    for i in range(n, -1, -1):
        ci = c[i] / T[i, i]
        out[i] = ci
        if ci != 0:
            c[: i + 1] = c[: i + 1] - ci * T[: i + 1, i]
    return out


def _convert1(coeffs: np.ndarray, src: str, dst: str) -> np.ndarray:
    if src == dst or len(coeffs) == 0:
        return coeffs.copy()
    if src == CHEB_U and dst == MONOMIAL:
        return chebu_to_monomial_matrix(len(coeffs) - 1) @ coeffs
    if src == MONOMIAL and dst == CHEB_U:
        return _chebu_from_monomial_1d(coeffs)
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

    def __add__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        if self.basis != other.basis:
            raise BasisMismatchError(self.basis + " vs " + other.basis)
        out = np.zeros(max(len(self.coeffs), len(other.coeffs)))
        out[: len(self.coeffs)] += self.coeffs
        out[: len(other.coeffs)] += other.coeffs
        return UnivariatePoly(self.basis, out)

    def __neg__(self) -> "UnivariatePoly":
        return UnivariatePoly(self.basis, -self.coeffs if len(self.coeffs) else self.coeffs)

    def __sub__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        return self + (-other)

    def scale(self, c) -> "UnivariatePoly":
        if len(self.coeffs) == 0:
            return self
        return UnivariatePoly(self.basis, self.coeffs * c)

    def approx_eq(self, other: "UnivariatePoly", tol: float = 1e-12) -> bool:
        a = self.to_basis(self.basis).coeffs
        b = other.to_basis(self.basis).coeffs
        n = max(len(a), len(b))
        pa = np.zeros(n)
        pb = np.zeros(n)
        pa[: len(a)] = a
        pb[: len(b)] = b
        return bool(np.max(np.abs(pa - pb), initial=0.0) <= tol)


def u_index(n: int) -> UnivariatePoly:
    """U_n with the negative-index convention U_{-1} = 0, U_n = -U_{-n-2}."""
    if n == -1:
        return UnivariatePoly(CHEB_U, [])
    sign = 1.0
    if n < -1:
        n = -n - 2
        sign = -1.0
    c = np.zeros(n + 1)
    c[n] = sign
    return UnivariatePoly(CHEB_U, c)


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


@dataclass(frozen=True)
class BivariatePoly:
    """Coefficient grid over basis_i(x) * basis_j(y); entry (i, j) is the
    coefficient of the x-degree-i, y-degree-j basis element."""

    basis: str
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "coeffs", _trim2(arr))
        if self.basis not in (CHEB_U, MONOMIAL):
            raise ValueError(f"unknown basis {self.basis!r}")

    # -- degrees ----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 0

    @property
    def xdeg(self) -> float:
        return self.coeffs.shape[0] - 1 if self.coeffs.size else NEG_INF

    @property
    def ydeg(self) -> float:
        return self.coeffs.shape[1] - 1 if self.coeffs.size else NEG_INF

    def support(self) -> list[tuple[int, int]]:
        if self.is_zero:
            return []
        ii, jj = np.nonzero(self.coeffs != 0)
        return list(zip(ii.tolist(), jj.tolist()))

    @property
    def total_degree(self) -> float:
        sup = self.support()
        return max((i + j for i, j in sup), default=NEG_INF)

    @property
    def lex_degree(self):
        sup = self.support()
        return max(sup, default=NEG_INF)

    @property
    def revlex_degree(self):
        sup = self.support()
        if not sup:
            return NEG_INF
        j, i = max(((j, i) for i, j in sup))
        return (i, j)

    # -- construction helpers --------------------------------------------
    @staticmethod
    def zero(basis: str = CHEB_U) -> "BivariatePoly":
        return BivariatePoly(basis, np.zeros((0, 0)))

    @staticmethod
    def from_separable(px: UnivariatePoly, py: UnivariatePoly) -> "BivariatePoly":
        if px.basis != py.basis:
            raise BasisMismatchError(px.basis + " vs " + py.basis)
        if px.is_zero or py.is_zero:
            return BivariatePoly.zero(px.basis)
        return BivariatePoly(px.basis, np.outer(px.coeffs, py.coeffs))

    @staticmethod
    def const(c, basis: str = CHEB_U) -> "BivariatePoly":
        return BivariatePoly(basis, np.array([[c]], dtype=float))

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
            mid = np.stack([_chebu_from_monomial_1d(self.coeffs[:, j]) for j in range(ny)], axis=1)
            out = np.stack([_chebu_from_monomial_1d(mid[i, :]) for i in range(nx)], axis=0)
            return BivariatePoly(CHEB_U, out)
        raise ValueError(f"unknown basis pair {self.basis!r} -> {basis!r}")

    def swap_xy(self) -> "BivariatePoly":
        if self.is_zero:
            return self
        return BivariatePoly(self.basis, self.coeffs.T.copy())

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

    def approx_eq(self, other: "BivariatePoly", tol: float = 1e-12) -> bool:
        d = (self - other).coeffs
        if d.size == 0:
            return True
        return bool(np.max(np.abs(d)) <= tol)


def mul(p: BivariatePoly, q: BivariatePoly) -> BivariatePoly:
    """Exact product of two bivariate polynomials (same basis required)."""
    if p.basis != q.basis:
        raise BasisMismatchError(p.basis + " vs " + q.basis)
    if p.is_zero or q.is_zero:
        return BivariatePoly.zero(p.basis)
    a, b = p.coeffs, q.coeffs
    if p.basis == MONOMIAL:
        out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                c = a[i, j]
                if c != 0:
                    out[i : i + b.shape[0], j : j + b.shape[1]] += c * b
        return BivariatePoly(MONOMIAL, out)
    # out[x, y] = sum a[i1, j1] b[i2, j2] Lx[i1, i2, x] Ly[j1, j2, y]
    t = np.tensordot(a, _lin(a.shape[0], b.shape[0]), axes=(0, 0))  # (j1, i2, x)
    t = np.tensordot(t, b, axes=(1, 0))  # (j1, x, j2)
    out = np.tensordot(t, _lin(a.shape[1], b.shape[1]), axes=([0, 2], [0, 1]))
    return BivariatePoly(CHEB_U, out)


# ---------------------------------------------------------------------------
# Laurent side
# ---------------------------------------------------------------------------


@dataclass
class LaurentPoly:
    """Finite real coefficient table on z^a w^b; zero entries are absent."""

    coeffs: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {k: float(v) for k, v in self.coeffs.items() if v != 0.0}

    def get(self, a: int, b: int) -> float:
        return self.coeffs.get((a, b), 0.0)

    @property
    def support(self) -> set[tuple[int, int]]:
        return set(self.coeffs)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return LaurentPoly(out)

    def scale(self, c: float) -> "LaurentPoly":
        return LaurentPoly({k: c * v for k, v in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + other.scale(-1.0)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[tuple[int, int], float] = {}
        for (a1, b1), v1 in self.coeffs.items():
            for (a2, b2), v2 in other.coeffs.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0.0) + v1 * v2
        return LaurentPoly(out)

    def shift(self, da: int, db: int) -> "LaurentPoly":
        return LaurentPoly({(a + da, b + db): v for (a, b), v in self.coeffs.items()})

    def max_abs_diff(self, other: "LaurentPoly") -> float:
        keys = self.support | other.support
        return max((abs(self.get(*k) - other.get(*k)) for k in keys), default=0.0)

    def prune(self, tol: float) -> "LaurentPoly":
        return LaurentPoly({k: v for k, v in self.coeffs.items() if abs(v) > tol})


def t_map(p: BivariatePoly) -> LaurentPoly:
    """Linear map U_i(x) U_j(y) -> z^{-i} w^{-j}."""
    if p.basis != CHEB_U:
        raise BasisMismatchError("t_map requires the chebU basis")
    out: dict[tuple[int, int], float] = {}
    for i, j in p.support():
        out[(-i, -j)] = float(p.coeffs[i, j])
    return LaurentPoly(out)


def laurent_substitute_half(mono_coeffs) -> dict[int, float]:
    """Laurent expansion of p((u + 1/u)/2) from monomial coefficients of p."""
    out: dict[int, float] = {}
    for k, c in enumerate(mono_coeffs):
        c = float(c)
        if c == 0.0:
            continue
        s = c / 2.0**k
        for j in range(k + 1):
            e = k - 2 * j
            out[e] = out.get(e, 0.0) + s * math.comb(k, j)
    return {e: v for e, v in out.items() if v != 0.0}


def laurent_from_separable(zc: Mapping[int, float], wc: Mapping[int, float]) -> LaurentPoly:
    return LaurentPoly({(a, b): va * vb for a, va in zc.items() for b, vb in wc.items() if va * vb != 0.0})


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def poly_to_dict(p: BivariatePoly | UnivariatePoly) -> dict:
    if isinstance(p, UnivariatePoly):
        return {"basis": p.basis, "coeffs": [float(c) for c in p.coeffs]}
    return {"basis": p.basis, "coeffs": [[float(c) for c in row] for row in p.coeffs]}


def poly_from_dict(d: dict) -> BivariatePoly | UnivariatePoly:
    coeffs = d["coeffs"]
    if coeffs and isinstance(coeffs[0], list):
        return BivariatePoly(d["basis"], np.asarray(coeffs, dtype=float))
    if not coeffs:
        # ambiguous empty payload; default to the bivariate zero
        return BivariatePoly(d["basis"], np.zeros((0, 0)))
    return UnivariatePoly(d["basis"], np.asarray(coeffs, dtype=float))


def poly_to_json(p) -> str:
    return json.dumps(poly_to_dict(p))


def poly_from_json(s: str):
    return poly_from_dict(json.loads(s))
