"""Independent ground truth: quadrature moments and brute-force Gram-Schmidt.

All integrals use the substitution x = cos(theta), y = cos(phi), under
which every integrand is a smooth doubly periodic function of (theta,
phi); the trapezoid rule on [0, 2pi)^2 then converges geometrically.
Resolution is doubled until successive values agree to the requested
tolerance, and the last doubling increment is kept as the error estimate.

The probability measure is
    dmu = (4/pi^2) sqrt(1-x^2) sqrt(1-y^2) / |h(e^{i theta}, y)|^2 dx dy,
and the one-variable slice measure (no 2/pi prefactor) is
    dmu_y = sqrt(1-x^2) / |h(e^{i theta}, y)|^2 dx.

Orthonormal systems are produced by modified Gram-Schmidt with one
reorthogonalization pass, run over the tensor Chebyshev-U basis ordered
exactly like the monomial sequence of the requested ordering.  Since
U_i(x) U_j(y) and x^i y^j have identical leading index pairs in every
ordering used here, the resulting system is the same one monomial
Gram-Schmidt defines, but the Gram matrices stay well conditioned.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

import numpy as np

from .ortho import OrthoSystem, index_sequence, leading_sign_fix
from .poly_core import CHEB_U, BivariatePoly, _lin, mul
from .weights import WeightSpec

DEFAULT_TOL = 1e-11
MAX_RESOLUTION = 2**14
MAX_ORACLES = 8
_START_RESOLUTION = 128


class AccuracyError(RuntimeError):
    """Quadrature failed to converge within the resolution cap."""


class OracleUnreliableError(RuntimeError):
    """The Gram matrix is too ill conditioned to trust the oracle."""


def _theta_grid(resolution: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(resolution) / resolution


def _sin_matrix(smax: int, theta: np.ndarray) -> np.ndarray:
    """Rows s = 0..smax of sin((s+1) theta) sin(theta) = U_s(cos theta) sin^2(theta)."""
    s = np.arange(smax + 1)[:, None]
    return np.sin((s + 1) * theta[None, :]) * np.sin(theta)[None, :]


def _cos_matrix(imax: int, theta: np.ndarray) -> np.ndarray:
    """Rows i = 0..imax of cos^i(theta) sin^2(theta)."""
    i = np.arange(imax + 1)[:, None]
    return np.cos(theta)[None, :] ** i * np.sin(theta)[None, :] ** 2


class MomentOracle:
    """Per-spec moment cache and Gram-Schmidt engine.

    The oracle owns every cached result for its spec and tolerance: the
    moment tables and, in ``_systems``, the Gram-Schmidt systems and the
    total-degree vectors.  Thread access: the cache is read-mostly; a
    missing table is computed under a lock so the first writer's value is
    the one stored.
    """

    def __init__(self, spec: WeightSpec, tol: float = DEFAULT_TOL, max_resolution: int = MAX_RESOLUTION):
        self.spec = spec
        self.tol = tol
        self.max_resolution = max_resolution
        self._lock = threading.RLock()
        self._chebu_table: np.ndarray | None = None
        self._mass = 1.0
        self._chebu_err = 0.0
        self._chebu_resolution = 0
        self._mono: dict[tuple[int, int], tuple[float, float]] = {}
        self._systems: dict[tuple, OrthoSystem] = {}
        self._load_spill()

    # -- quadrature cores -------------------------------------------------
    def _weight_grid(self, resolution: int) -> np.ndarray:
        th = _theta_grid(resolution)
        y = np.cos(th)
        return 1.0 / self.spec.h_abs2(th[:, None], y[None, :])

    def _table_at(self, make_rows, resolution: int) -> np.ndarray:
        """(1/pi^2) (2 pi / R)^2 * A W B^T for row factories in theta and phi."""
        th = _theta_grid(resolution)
        W = self._weight_grid(resolution)
        A, B = make_rows(th)
        scale = (2.0 * np.pi / resolution) ** 2 / np.pi**2
        return scale * (A @ W @ B.T)

    def _converged_table(self, make_rows, tol: float) -> tuple[np.ndarray, float, int]:
        resolution = _START_RESOLUTION
        prev = self._table_at(make_rows, resolution)
        err = float("inf")
        while True:
            resolution *= 2
            if resolution > self.max_resolution:
                raise AccuracyError(
                    f"no convergence below resolution {self.max_resolution} "
                    f"(last increment {err:.3e}, tol {tol:.3e})"
                )
            cur = self._table_at(make_rows, resolution)
            err = float(np.max(np.abs(cur - prev) / (1.0 + np.abs(cur))))
            if err < tol:
                return cur, err, resolution
            prev = cur

    # -- Chebyshev-U moments ---------------------------------------------
    def chebu_table(self, smax: int) -> np.ndarray:
        """m1[s, t] = integral of U_s(x) U_t(y) dmu, for s, t <= smax.

        dmu is normalized to a probability measure: the raw weight is
        divided by its total mass, so m1[0, 0] = 1 for every spec.
        """
        with self._lock:
            if self._chebu_table is None or self._chebu_table.shape[0] <= smax:
                size = max(smax, 63)
                make = lambda th: (_sin_matrix(size, th), _sin_matrix(size, th))
                table, err, res = self._converged_table(make, self.tol)
                self._mass = float(table[0, 0])
                self._chebu_table = table / self._mass
                self._chebu_err, self._chebu_resolution = err, res
                self._save_spill()
            return self._chebu_table[: smax + 1, : smax + 1]

    @property
    def mass(self) -> float:
        """Total mass of the raw (un-normalized) weight."""
        self.chebu_table(0)
        return self._mass

    # -- monomial moments -------------------------------------------------
    def moment_with_error(self, i: int, j: int, tol: float | None = None) -> tuple[float, float]:
        if i < 0 or j < 0:
            raise ValueError("moment exponents must be nonnegative")
        tol = self.tol if tol is None else tol
        key = (i, j)
        with self._lock:
            if key not in self._mono:
                mass = self.mass
                imax = max(i, j, 8)
                make = lambda th: (_cos_matrix(imax, th), _cos_matrix(imax, th))
                table, err, res = self._converged_table(make, tol)
                table = table / mass
                prev = self._table_at(make, res // 2) / mass
                errs = np.abs(table - prev)
                for a in range(imax + 1):
                    for b in range(imax + 1):
                        self._mono.setdefault((a, b), (float(table[a, b]), float(errs[a, b])))
                self._save_spill()
            return self._mono[key]

    def moment(self, i: int, j: int, tol: float | None = None) -> float:
        return self.moment_with_error(i, j, tol)[0]

    # -- univariate slice measure ----------------------------------------
    def _uni_values(self, rows_of, y: float, tol: float) -> np.ndarray:
        resolution = _START_RESOLUTION

        def run(res: int) -> np.ndarray:
            th = _theta_grid(res)
            w = 1.0 / self.spec.h_abs2(th, np.full_like(th, y))
            A = rows_of(th)
            # dmu_y carries no 2/pi prefactor: 1/2 * trapezoid over [0, 2pi)
            return 0.5 * (2.0 * np.pi / res) * (A @ w)

        prev = run(resolution)
        while True:
            resolution *= 2
            if resolution > self.max_resolution:
                raise AccuracyError("univariate quadrature did not converge")
            cur = run(resolution)
            if float(np.max(np.abs(cur - prev) / (1.0 + np.abs(cur)))) < tol:
                return cur
            prev = cur

    def univariate_moment(self, i: int, y: float, tol: float | None = None) -> float:
        """integral of x^i dmu_y(x)."""
        if abs(y) > 1.0:
            raise ValueError("need |y| <= 1")
        tol = self.tol if tol is None else tol
        vals = self._uni_values(lambda th: _cos_matrix(i, th), y, tol)
        return float(vals[i])

    def univariate_chebu_moments(self, smax: int, y: float, tol: float | None = None) -> np.ndarray:
        """integral of U_s(x) dmu_y(x) for s = 0..smax."""
        tol = self.tol if tol is None else tol
        return self._uni_values(lambda th: _sin_matrix(smax, th), y, tol)

    def slice_inner(self, fx: np.ndarray, gx: np.ndarray, y: float) -> float:
        """integral of f(x) g(x) dmu_y(x) for Chebyshev-U coefficient vectors."""
        if len(fx) == 0 or len(gx) == 0:
            return 0.0
        prod = np.tensordot(np.outer(fx, gx), _lin(len(fx), len(gx)))
        vals = self.univariate_chebu_moments(len(prod) - 1, y)
        return float(np.dot(prod, vals))

    # -- inner products under the full measure ----------------------------
    def inner(self, f: BivariatePoly, g: BivariatePoly) -> float:
        fu = f.to_basis(CHEB_U)
        gu = g.to_basis(CHEB_U)
        prod = mul(fu, gu)
        if prod.is_zero:
            return 0.0
        smax = max(prod.coeffs.shape) - 1
        m1 = self.chebu_table(smax)
        c = prod.coeffs.astype(float)
        return float(np.sum(c * m1[: c.shape[0], : c.shape[1]]))

    def norm(self, f: BivariatePoly) -> float:
        return float(np.sqrt(max(self.inner(f, f), 0.0)))

    def normalized(self, f: BivariatePoly, leading: tuple[int, int]) -> tuple[BivariatePoly, float]:
        nrm = self.norm(f)
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero polynomial")
        return leading_sign_fix(f.to_basis(CHEB_U).scale(1.0 / nrm), leading), nrm

    def gram(self, indices: list[tuple[int, int]]) -> np.ndarray:
        """Gram matrix of the tensor Chebyshev-U elements at the given
        (x-degree, y-degree) pairs."""
        ii, jj = np.array(indices).T
        nx, ny = int(ii.max()) + 1, int(jj.max()) + 1
        m1 = self.chebu_table(2 * max(nx, ny) - 2)
        # H[i1, i2, j1, j2] = <U_i1(x) U_j1(y), U_i2(x) U_j2(y)>
        H = np.tensordot(_lin(nx, nx) @ m1[: 2 * nx - 1, : 2 * ny - 1], _lin(ny, ny), axes=(2, 2))
        return H[ii[:, None], ii[None, :], jj[:, None], jj[None, :]]

    # -- Gram-Schmidt ------------------------------------------------------
    def gram_schmidt(self, ordering: str, n: int, m: int | None = None, cond_cap: float = 1e12) -> OrthoSystem:
        """Orthonormal system over the requested index range, built purely
        from quadrature moments.  This is the universal oracle the closed
        forms are compared against."""
        return self._memo((ordering, n, m), lambda: self._orthonormalize(ordering, n, m, cond_cap))

    def _memo(self, key: tuple, build) -> OrthoSystem:
        """The system cached under ``key``, built on a miss (first writer wins)."""
        with self._lock:
            if key in self._systems:
                return self._systems[key]
        system = build()
        with self._lock:
            return self._systems.setdefault(key, system)

    def _orthonormalize(self, ordering: str, n: int, m: int | None, cond_cap: float) -> OrthoSystem:
        idx = index_sequence(ordering, n, m)
        G = self.gram(idx)
        cond = float(np.linalg.cond(G))
        if cond > cond_cap:
            raise OracleUnreliableError(f"Gram matrix condition number {cond:.3e} exceeds {cond_cap:.1e}")
        nbasis = len(idx)
        C = np.eye(nbasis)  # row k: coefficients of the k-th orthonormal poly
        norms: list[float] = []
        for k in range(nbasis):
            v = C[k].copy()
            for _ in range(2):  # one reorthogonalization pass
                for p in range(k):
                    v -= (C[p] @ G @ v) * C[p]
            nrm2 = float(v @ G @ v)
            if nrm2 <= 1e-20:
                raise OracleUnreliableError(f"pivot loss at slot {idx[k]}")
            nrm = float(np.sqrt(nrm2))
            C[k] = v / nrm
            norms.append(nrm)
        system = OrthoSystem(ordering)
        for k, (i, j) in enumerate(idx):
            grid = np.zeros((max(a for a, _ in idx[: k + 1]) + 1, max(b for _, b in idx[: k + 1]) + 1))
            for pos, (a, b) in enumerate(idx):
                if C[k, pos] != 0.0:
                    if a >= grid.shape[0] or b >= grid.shape[1]:
                        pad = np.zeros((max(grid.shape[0], a + 1), max(grid.shape[1], b + 1)))
                        pad[: grid.shape[0], : grid.shape[1]] = grid
                        grid = pad
                    grid[a, b] += C[k, pos]
            p = leading_sign_fix(BivariatePoly(CHEB_U, grid), (i, j))
            system.entries.append(((i, j), p))
            system.norms.append(norms[k])
        return system

    # -- disk spill --------------------------------------------------------
    def _spill_path(self) -> str | None:
        root = os.environ.get("BSZ2D_CACHE_DIR")
        if not root:
            return None
        os.makedirs(root, exist_ok=True)
        return os.path.join(root, f"{self.spec.fingerprint}.npz")

    def _save_spill(self):
        path = self._spill_path()
        if path is None or self._chebu_table is None:
            return
        mono_keys = np.array(sorted(self._mono), dtype=int).reshape(-1, 2)
        mono_vals = np.array([self._mono[tuple(k)] for k in mono_keys], dtype=float).reshape(-1, 2)
        np.savez(
            path,
            chebu=self._chebu_table,
            mass=self._mass,
            chebu_err=self._chebu_err,
            chebu_resolution=self._chebu_resolution,
            mono_keys=mono_keys,
            mono_vals=mono_vals,
        )

    def _load_spill(self):
        path = self._spill_path()
        if path is None or not os.path.exists(path):
            return
        try:
            data = np.load(path)
        except Exception:
            return
        if float(data["chebu_err"]) > self.tol:
            return  # written at a looser tolerance: recompute
        self._chebu_table = data["chebu"]
        self._mass = float(data["mass"])
        self._chebu_err = float(data["chebu_err"])
        self._chebu_resolution = int(data["chebu_resolution"])
        for k, v in zip(data["mono_keys"], data["mono_vals"]):
            self._mono[(int(k[0]), int(k[1]))] = (float(v[0]), float(v[1]))


_ORACLES: OrderedDict[str, MomentOracle] = OrderedDict()
_ORACLES_LOCK = threading.Lock()


def oracle_for(spec: WeightSpec, tol: float = DEFAULT_TOL) -> MomentOracle:
    """Shared per-spec oracle (first writer wins, deterministic).

    At most MAX_ORACLES are kept; the least recently used one is dropped,
    and with it every table and system cached for its spec.
    """
    key = f"{spec.fingerprint}:{tol:.3e}"
    with _ORACLES_LOCK:
        if key in _ORACLES:
            _ORACLES.move_to_end(key)
        else:
            _ORACLES[key] = MomentOracle(spec, tol=tol)
            if len(_ORACLES) > MAX_ORACLES:
                _ORACLES.popitem(last=False)
        return _ORACLES[key]


def moment(spec: WeightSpec, i: int, j: int, tol: float = DEFAULT_TOL) -> float:
    return oracle_for(spec).moment(i, j, tol)


def univariate_moment(spec: WeightSpec, i: int, y: float, tol: float = DEFAULT_TOL) -> float:
    return oracle_for(spec).univariate_moment(i, y, tol)


def gram_schmidt(spec: WeightSpec, ordering: str, n: int, m: int | None = None) -> OrthoSystem:
    return oracle_for(spec).gram_schmidt(ordering, n, m)


def monomial_moment_matrix(spec: WeightSpec, indices: list[tuple[int, int]]) -> np.ndarray:
    """Moment matrix over monomials x^i y^j; entry depends only on the
    exponent sums, which is the doubly Hankel structure."""
    oracle = oracle_for(spec)
    n = len(indices)
    M = np.empty((n, n))
    for a, (ia, ja) in enumerate(indices):
        for b, (ib, jb) in enumerate(indices):
            M[a, b] = oracle.moment(ia + ib, ja + jb)
    return M
