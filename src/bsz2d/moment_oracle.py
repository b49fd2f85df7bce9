"""Independent ground truth: quadrature moments and brute-force Gram-Schmidt.

All integrals use the substitution x = cos(theta), y = cos(phi), under
which every integrand is a smooth doubly periodic function of (theta,
phi); the trapezoid rule on [0, 2pi)^2 then converges geometrically.
Resolution is doubled until successive values agree to the requested
tolerance, and the last doubling increment is kept as the error estimate.

The trapezoid sums run over a quarter of the grid.  The weight
1/|h(e^{i theta}, y)|^2 is even in theta (h has real coefficients) and
in phi (it depends on y = cos phi only), and every row of the one sine
matrix a resolution uses on both axes is even and vanishes at theta = 0
and pi.  So the nodes 2 pi j / R with j and R - j contribute equally,
j = 0 and j = R/2 contribute nothing, and a table is 4 times its sum over
the interior nodes theta, phi in (0, pi); a slice moment is 2 times its
interior sum.  A table is accumulated over theta-row chunks of at most
_CHUNK_BYTES of weights, so its memory grows like R, not R^2.  A table
miss for s, t <= smax computes max(16, next power of two >= smax + 1) rows.

An oracle accepts only weights that ``is_stable`` certifies.  An unstable
h can vanish on the unit circle, where the weight is not integrable, and
the doubling would then climb to MAX_RESOLUTION before failing.

The probability measure is
    dmu = (4/pi^2) sqrt(1-x^2) sqrt(1-y^2) / |h(e^{i theta}, y)|^2 dx dy,
and the one-variable slice measure (no 2/pi prefactor) is
    dmu_y = sqrt(1-x^2) / |h(e^{i theta}, y)|^2 dx.

Orthonormal systems are produced in coefficient space over the tensor
Chebyshev-U basis ordered exactly like the monomial sequence of the
requested ordering, from one Cholesky factorization G = L L^T of the Gram
matrix of those slots: C = L^{-1} is lower triangular with a positive
diagonal and C G C^T = I, so row k of C is the k-th orthonormal polynomial
and the norm divided out is L[k, k].  Since U_i(x) U_j(y) and x^i y^j have
identical leading index pairs in every ordering used here, the result is
the system monomial Gram-Schmidt defines, but the Gram matrices stay well
conditioned.  The leading block of L is the factor of the leading block
of G, so a smaller system of the same ordering is a leading block of a
larger one.

Every system the library builds is put together by ``assemble``.  The
slots with a closed form arrive as Chebyshev-U grids and are normalized
in one batch by ``normalize``, whose squared norms are the diagonal of
C G C^T and which makes each leading coefficient positive; every other
slot is read from one Gram-Schmidt system of the same ordering.

Inner products under the full measure are c_f^T G c_g: c holds a
polynomial's tensor Chebyshev-U coefficients, zero-padded to an s x s
slot square, and G[i1, j1, i2, j2] = <U_i1(x) U_j1(y), U_i2(x) U_j2(y)>
is a sum of moment-table entries over the linearization rule of
``poly_core._lin``.  Each oracle keeps one read-only G, grown to exactly
the largest s a request has needed: s^4 doubles, 166 KB at s = 12.

Monomial moments are not integrated separately.  x^i = sum_c M[c, i] U_c(x)
with M exact, nonnegative and every column summing to at most 1 (J. C.
Mason and D. C. Handscomb, Chebyshev Polynomials, 2003), so the monomial
table is M^T m1 M and a slice moment is M^T u(y): their errors are no
larger than the Chebyshev-U ones.  Every cache belongs to one oracle,
that is to one (spec fingerprint, tol) pair.  A per-call tol looser than
the oracle's is served from its table; a tighter one raises ValueError,
since only ``oracle_for(spec, tol)`` can honour it.  Slice moments are
not cached: each call runs its own 1-D ladder at the tol it is given.
"""

from __future__ import annotations

import os
import tempfile
import threading
import zipfile
from collections import OrderedDict

import numpy as np

from .ortho import OrthoSystem, index_sequence
from .poly_core import CHEB_U, BivariatePoly, _lin, _mono_to_chebu, _padded, _trim2
from .weights import InvalidWeightError, WeightSpec, is_stable

DEFAULT_TOL = 1e-11
MAX_RESOLUTION = 2**14
MAX_ORACLES = 8
COND_CAP = 1e12  # largest Gram condition number Gram-Schmidt accepts
_START_RESOLUTION = 128
_CHUNK_BYTES = 2**21  # bytes of weights evaluated in one theta-row chunk of a table
_SPILL_KEYS = ("chebu", "mass", "chebu_err", "chebu_resolution")


class AccuracyError(RuntimeError):
    """Quadrature failed to converge within the resolution cap."""


class OracleUnreliableError(RuntimeError):
    """The Gram matrix is too ill conditioned to trust the oracle."""


def _interior_grid(resolution: int) -> np.ndarray:
    """The trapezoid nodes 2 pi j / R strictly inside (0, pi): j = 1 .. R/2 - 1."""
    return 2.0 * np.pi * np.arange(1, resolution // 2) / resolution


def _sin_matrix(smax: int, theta: np.ndarray) -> np.ndarray:
    """Rows s = 0..smax of sin((s+1) theta) sin(theta) = U_s(cos theta) sin^2(theta)."""
    s = np.arange(smax + 1)[:, None]
    return np.sin((s + 1) * theta[None, :]) * np.sin(theta)[None, :]


def grid_size(polys: list[BivariatePoly]) -> int:
    """The smallest s (at least 1) whose s x s slot square holds every
    polynomial's coefficient grid; a basis change keeps a grid's shape."""
    return max([1] + [max(p.coeffs.shape) for p in polys])


def chebu_grids(polys: list[BivariatePoly], s: int) -> np.ndarray:
    """The polynomials' tensor Chebyshev-U coefficients, zero-padded to
    shape (len(polys), s, s)."""
    return _padded([p.coeffs if p.basis == CHEB_U else p.to_basis(CHEB_U).coeffs for p in polys], (s, s))


class MomentOracle:
    """Per-spec moment cache and Gram-Schmidt engine.

    The oracle owns every cached result for its spec and tolerance: the
    moment tables, the Gram block and, in ``_systems``, the Gram-Schmidt
    systems and the total-degree vectors.  Thread access: the cache is
    read-mostly; a missing table is computed under a lock so the first
    writer's value is the one stored, and a larger Gram block replaces the
    read-only one a caller may still hold.
    """

    def __init__(self, spec: WeightSpec, tol: float = DEFAULT_TOL, max_resolution: int = MAX_RESOLUTION):
        report = is_stable(spec)
        if not report.stable:
            raise InvalidWeightError(
                f"weight is not stable: min root modulus {report.min_modulus:.6g} at y={report.witness_y}"
            )
        self.spec = spec
        self.tol = tol
        self.max_resolution = max_resolution
        self._lock = threading.RLock()
        self._chebu_table: np.ndarray | None = None
        self._mass = 1.0
        self._chebu_err = 0.0
        self._chebu_resolution = 0
        self._gram: np.ndarray | None = None
        self._systems: dict[tuple, OrthoSystem] = {}
        self._load_spill()

    # -- quadrature cores -------------------------------------------------
    def _table_at(self, smax: int, resolution: int) -> np.ndarray:
        """(1/pi^2) (2 pi / R)^2 * S W S^T, S = _sin_matrix(smax, .) on both axes.

        Summed over the interior quarter grid (times 4), in theta-row chunks
        of at most _CHUNK_BYTES of weights.
        """
        th = _interior_grid(resolution)
        S = _sin_matrix(smax, th)
        y = np.cos(th)[None, :]
        rows = max(1, _CHUNK_BYTES // (8 * len(th)))
        SW = np.zeros((len(S), len(th)))
        for lo in range(0, len(th), rows):
            chunk = slice(lo, lo + rows)
            W = self.spec.h_abs2(th[chunk, None], y)
            np.reciprocal(W, out=W)
            SW += S[:, chunk] @ W
        scale = 4.0 * (2.0 * np.pi / resolution) ** 2 / np.pi**2
        return scale * (SW @ S.T)

    def _ladder(self, run, tol: float) -> tuple[np.ndarray, float, int]:
        """The first ``run(resolution)`` whose relative increment over the
        previous doubling is below tol; returns (value, increment, resolution)."""
        resolution = _START_RESOLUTION
        prev = run(resolution)
        err = float("inf")
        while True:
            resolution *= 2
            if resolution > self.max_resolution:
                raise AccuracyError(
                    f"no convergence below resolution {self.max_resolution} "
                    f"(last increment {err:.3e}, tol {tol:.3e})"
                )
            cur = run(resolution)
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
        if smax < 0:
            raise ValueError("moment degrees must be nonnegative")
        with self._lock:
            if self._chebu_table is None or self._chebu_table.shape[0] <= smax:
                size = max(16, 1 << int(smax).bit_length()) - 1  # fewer rows converge at a lower R
                table, err, res = self._ladder(lambda r: self._table_at(size, r), self.tol)
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
    def moment_table(self, k: int) -> np.ndarray:
        """integral of x^i y^j dmu for i, j <= k, as M^T m1 M."""
        m1 = self.chebu_table(k)  # rejects a negative k
        return _mono_to_chebu(k).T @ m1 @ _mono_to_chebu(k)

    def moment_with_error(self, i: int, j: int, tol: float | None = None) -> tuple[float, float]:
        """The moment of x^i y^j and the increment of the Chebyshev-U table
        it is derived from, which bounds its error."""
        if i < 0 or j < 0:
            raise ValueError("moment exponents must be nonnegative")
        if tol is not None and tol < self.tol:
            raise ValueError(f"tol {tol:.3e} is tighter than this oracle's {self.tol:.3e}; use oracle_for(spec, tol)")
        return float(self.moment_table(max(i, j))[i, j]), self._chebu_err

    def moment(self, i: int, j: int, tol: float | None = None) -> float:
        return self.moment_with_error(i, j, tol)[0]

    # -- univariate slice measure ----------------------------------------
    def univariate_moment(self, i: int, y: float, tol: float | None = None) -> float:
        """integral of x^i dmu_y(x), as M^T u(y)."""
        return float(self.univariate_chebu_moments(i, y, tol) @ _mono_to_chebu(i)[:, i])  # checks i first

    def univariate_chebu_moments(self, smax: int, y: float, tol: float | None = None) -> np.ndarray:
        """integral of U_s(x) dmu_y(x) for s = 0..smax."""
        if smax < 0 or not abs(y) <= 1.0:  # a NaN y fails here too
            raise ValueError("need a nonnegative degree and |y| <= 1")
        tol = self.tol if tol is None else tol

        def run(res: int) -> np.ndarray:
            th = _interior_grid(res)
            w = 1.0 / self.spec.h_abs2(th, y)
            # dmu_y carries no 2/pi prefactor: 1/2 * trapezoid over [0, 2pi),
            # which is twice the sum over the interior half grid
            return (2.0 * np.pi / res) * (_sin_matrix(smax, th) @ w)

        return self._ladder(run, tol)[0]

    def slice_inner(self, fx: np.ndarray, gx: np.ndarray, y: float) -> float:
        """integral of f(x) g(x) dmu_y(x) for Chebyshev-U coefficient vectors."""
        if len(fx) == 0 or len(gx) == 0:
            return 0.0
        prod = np.tensordot(np.outer(fx, gx), _lin(len(fx), len(gx)))
        vals = self.univariate_chebu_moments(len(prod) - 1, y)
        return float(np.dot(prod, vals))

    # -- inner products under the full measure ----------------------------
    def gram_block(self, s: int) -> np.ndarray:
        """The read-only Gram block of the tensor Chebyshev-U slots,
        G[i1, j1, i2, j2] = <U_i1(x) U_j1(y), U_i2(x) U_j2(y)>, over the
        S x S slot square, where S >= s is the largest size requested so far.

        The block grows to exactly the size a request needs, never beyond
        it: it holds S^4 doubles, 166 KB at S = 12.
        """
        with self._lock:
            if self._gram is None or len(self._gram) < s:
                L = _lin(s, s)
                # H[i1, i2, j1, j2]: x-linearization against the rows of m1, y against its columns
                H = np.tensordot(L @ self.chebu_table(2 * s - 2), L, axes=(2, 2))
                G = np.ascontiguousarray(H.transpose(0, 2, 1, 3))
                G.setflags(write=False)
                self._gram = G
            return self._gram

    def inner(self, f: BivariatePoly, g: BivariatePoly) -> float:
        return float(self.inner_matrix([f], [g])[0, 0])

    def norm(self, f: BivariatePoly) -> float:
        return float(np.sqrt(max(self.inner(f, f), 0.0)))

    def normalized(self, f: BivariatePoly, leading: tuple[int, int]) -> tuple[BivariatePoly, float]:
        return self.normalize({leading: f.to_basis(CHEB_U).coeffs})[leading]

    def normalize(
        self, grids: dict[tuple[int, int], np.ndarray]
    ) -> dict[tuple[int, int], tuple[BivariatePoly, float]]:
        """(unit-norm polynomial, norm divided out) for each Chebyshev-U grid,
        keyed by its leading slot, where the polynomial's coefficient is made
        positive.  The squared norms are the diagonal of C G C^T, one row of
        C per grid."""
        # trimmed, a grid grows the oracle's shared Gram block only as far as its polynomial reaches
        grids = {idx: _trim2(g) for idx, g in grids.items()}
        G = self.gram_block(max([1] + [max(g.shape) for g in grids.values()]))
        s = len(G)
        C = _padded(list(grids.values()), (s, s)).reshape(len(grids), s * s)
        norms = np.sqrt(np.maximum(((C @ G.reshape(s * s, s * s)) * C).sum(1), 0.0))
        if np.any(norms == 0.0):
            raise ValueError("cannot normalize the zero polynomial")
        out = {}
        for ((i, j), g), nrm in zip(grids.items(), norms):
            unit = g * (1.0 / nrm)
            if i < unit.shape[0] and j < unit.shape[1] and unit[i, j] < 0.0:
                unit = -unit
            out[(i, j)] = (BivariatePoly(CHEB_U, unit), float(nrm))
        return out

    def inner_matrix(self, polys: list[BivariatePoly], others: list[BivariatePoly] | None = None) -> np.ndarray:
        """[<p, q>] for p in ``polys`` and q in ``others`` (default ``polys``),
        as C_p G C_q^T: the rows of C hold the tensor Chebyshev-U coefficients
        over the slot square of the Gram block G."""
        others = polys if others is None else others
        G = self.gram_block(max(grid_size(polys), grid_size(others)))
        s = len(G)
        C = chebu_grids(polys, s).reshape(len(polys), s * s)
        D = C if others is polys else chebu_grids(others, s).reshape(len(others), s * s)
        return C @ G.reshape(s * s, s * s) @ D.T

    def gram(self, indices: list[tuple[int, int]]) -> np.ndarray:
        """Gram matrix of the tensor Chebyshev-U elements at the given
        (x-degree, y-degree) pairs."""
        ii, jj = np.array(indices).T
        G = self.gram_block(int(max(ii.max(), jj.max())) + 1)
        return G[ii[:, None], jj[:, None], ii[None, :], jj[None, :]]

    # -- Gram-Schmidt ------------------------------------------------------
    def gram_schmidt(self, ordering: str, n: int, m: int | None = None) -> OrthoSystem:
        """Orthonormal system over the requested index range, built purely
        from quadrature moments.  This is the universal oracle the closed
        forms are compared against."""
        return self._memo((ordering, n, m), lambda: self._orthonormalize(ordering, n, m))

    def assemble(
        self, ordering: str, slots: list[tuple[int, int]], closed: dict, n: int, m: int | None = None
    ) -> OrthoSystem:
        """The orthonormal system over ``slots``, in their order.  A slot in
        ``closed`` is its closed-form Chebyshev-U grid, normalized with the
        others in one batch; every other slot is read from
        ``gram_schmidt(ordering, n, m)``, which is asked for at most once."""
        units = self.normalize(closed)
        rest = [idx for idx in slots if idx not in units]
        if rest:
            fallback = self.gram_schmidt(ordering, n, m)
            pos = {idx: k for k, idx in enumerate(fallback.indices())}
            units.update({idx: (fallback.entries[pos[idx]][1], fallback.norms[pos[idx]]) for idx in rest})
        return OrthoSystem(ordering, [(idx, units[idx][0]) for idx in slots], [float(units[idx][1]) for idx in slots])

    def _memo(self, key: tuple, build) -> OrthoSystem:
        """The system cached under ``key``, built on a miss (first writer wins)."""
        with self._lock:
            if key in self._systems:
                return self._systems[key]
        system = build()
        with self._lock:
            return self._systems.setdefault(key, system)

    def _orthonormalize(self, ordering: str, n: int, m: int | None) -> OrthoSystem:
        idx = index_sequence(ordering, n, m)
        G = self.gram(idx)
        cond = float(np.linalg.cond(G))
        if cond > COND_CAP:
            raise OracleUnreliableError(f"Gram matrix condition number {cond:.3e} exceeds {COND_CAP:.1e}")
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:
            raise OracleUnreliableError(f"Gram matrix is not positive definite: {exc}") from exc
        C = np.linalg.inv(L)  # row k: coefficients of the k-th orthonormal poly
        norms = np.diag(L)
        # row k is supported on the first k + 1 slots, so its grid spans their running
        # maxima; its own slot holds C[k, k] = 1 / norms[k] > 0, so no sign fix is needed
        ii, jj = np.array(idx).T
        nx, ny = np.maximum.accumulate(ii) + 1, np.maximum.accumulate(jj) + 1
        system = OrthoSystem(ordering)
        for k, (i, j) in enumerate(idx):
            grid = np.zeros((nx[k], ny[k]))
            grid[ii[: k + 1], jj[: k + 1]] = C[k, : k + 1]
            system.entries.append(((i, j), BivariatePoly(CHEB_U, grid)))
            system.norms.append(float(norms[k]))
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
        # write beside the target, then rename over it: a reader never sees half a file
        fd, tmp = tempfile.mkstemp(suffix=".npz.tmp", dir=os.path.dirname(path))
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez(
                    f,
                    chebu=self._chebu_table,
                    mass=self._mass,
                    chebu_err=self._chebu_err,
                    chebu_resolution=self._chebu_resolution,
                )
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def _load_spill(self):
        """Adopt the spill if it is whole, well formed and at least as tight
        as the oracle's tol; otherwise leave the oracle empty to recompute."""
        path = self._spill_path()
        if path is None:
            return
        try:
            with open(path, "rb") as f, np.load(f) as data:
                spill = {key: data[key] for key in _SPILL_KEYS}
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            return
        table = spill["chebu"]
        if table.ndim != 2 or table.shape[0] != table.shape[1] or not np.all(np.isfinite(table)):
            return
        if not float(spill["chebu_err"]) <= self.tol:
            return  # written at a looser tolerance: recompute
        self._chebu_table = table
        self._mass = float(spill["mass"])
        self._chebu_err = float(spill["chebu_err"])
        self._chebu_resolution = int(spill["chebu_resolution"])


_ORACLES: OrderedDict[tuple[str, float], MomentOracle] = OrderedDict()
_ORACLES_LOCK = threading.Lock()


def oracle_for(spec: WeightSpec, tol: float = DEFAULT_TOL) -> MomentOracle:
    """Shared per-spec oracle (first writer wins, deterministic).

    At most MAX_ORACLES are kept; the least recently used one is dropped,
    and with it every table and system cached for its spec.
    """
    key = (spec.fingerprint, float(tol))  # the exact tol: a rounded one could serve a looser oracle
    with _ORACLES_LOCK:
        if key in _ORACLES:
            _ORACLES.move_to_end(key)
        else:
            _ORACLES[key] = MomentOracle(spec, tol=tol)
            if len(_ORACLES) > MAX_ORACLES:
                _ORACLES.popitem(last=False)
        return _ORACLES[key]


def moment(spec: WeightSpec, i: int, j: int, tol: float = DEFAULT_TOL) -> float:
    return oracle_for(spec, tol).moment(i, j)


def univariate_moment(spec: WeightSpec, i: int, y: float, tol: float = DEFAULT_TOL) -> float:
    return oracle_for(spec, tol).univariate_moment(i, y)


def gram_schmidt(spec: WeightSpec, ordering: str, n: int, m: int | None = None) -> OrthoSystem:
    return oracle_for(spec).gram_schmidt(ordering, n, m)

