"""Independent ground truth: quadrature moments and brute-force Gram-Schmidt.

All integrals use the substitution x = cos(theta), y = cos(phi), under
which every integrand is a smooth doubly periodic function of (theta,
phi); the trapezoid rule on [0, 2pi)^2 then converges geometrically,
its error falling like rho^R when the weight is analytic for
rho < |z| < 1/rho (L. N. Trefethen and J. A. C. Weideman, SIAM Rev. 56,
2014).  Resolution is doubled from a start rung.  The increment d_R over R/2,
taken on the values divided by their mass, is about the error at R/2, so
it contracts by r = d_R / d_{R/2} ~ rho^{R/4} and the error left at R is
about d_R r^2.  A product weight knows its rho = max |a_i| and takes r as
at least rho^{R/4}.  The ladder stops at the first rung with r < 1/4 and
10 max(d_R r^2, floor) < tol, and keeps that maximum as the error
estimate, where floor = 2^-52 max |values / mass| is the float64 rounding
of the mass-normalized values (their first entry is 1).  A generic
ladder's first refinement, with no ratio yet, stops when
max(d_R, floor) < tol.  A tol below ten floors, at least 2.2e-15, is
never met.

A ladder over ``rows`` rows starts at max(128, 2 rows, R* / 4).  Below
2 rows the sine rows of s + 1 > R / 2 fold onto lower ones on the nodes,
and a product ladder's first ratio rho^{R/4} would accept that.  For a product
weight R* is the first power of two with rho^R* < tol / 10, where the
error rho^R is predicted to meet tol.  From R* / 4 the check at R* reads
the observed ratio d_R* / d_{R*/2}, as a ladder from 128 does, so from R*
on it takes the stop and estimate of a ladder from 128 (a start at R* / 2
would judge R* by rho^{R/4} alone).  A ladder over at most 64 rows starts
at 128 unless it is a product's with R* > 512.

The trapezoid sums run over a quarter of the grid.  The weight
1/|h(e^{i theta}, y)|^2 is even in theta (h has real coefficients) and
in phi (it depends on y = cos phi only), and every row of the one sine
matrix a resolution uses on both axes is even and vanishes at theta = 0
and pi.  So the nodes 2 pi j / R with j and R - j contribute equally,
j = 0 and j = R/2 contribute nothing, and a table is 4 times its sum over
the interior nodes theta, phi in (0, pi); a slice moment is 2 times its
interior sum.  Each sine value is read from one table of sin(2 pi k / R)
per resolution, with (s+1) j reduced mod R in integers.  One read-only
sine matrix per (rows, R) over the interior nodes serves every rung: its
columns [:, ::2] are the odd nodes and [:, 1::2] the even ones.  The
matrices are kept across ladders and oracles, least recently used out
first, while they total at most _SINE_ROWS_BYTES = 4 MiB; a larger one,
such as 1024 rows at MAX_RESOLUTION (67 MB), is used and not kept.

The doubling ladder is nested: the interior nodes of R are the nodes of
even index at 2R, so rung 2R adds only the nodes of odd index.  A table
is T_2R = T_R / 4 plus the sum over the 3/4 of the interior grid with an
odd theta or phi index: S_o W_oo S_o^T + S_o W_oe S_e^T + S_e W_eo S_o^T
over the step-2 progressions of odd and even nodes.  A slice is
u_2R = u_R / 2 plus the sum over the odd nodes.  A ladder that ends at R
thus evaluates each of its (R/2 - 1)^2 table nodes (R/2 - 1 slice nodes)
exactly once; the first rung is the one-grid sum ``_table_at``.  The
weights are evaluated in theta blocks of at most _CHUNK_BYTES = 256 KiB,
so a block and the sine columns it meets stay in L2, and the memory of a
table grows like R, not R^2.  A table or slice for degrees <= smax
computes max(16, next power of two >= smax + 1) rows.

A generic weight block is ``h_abs2`` on its nodes, with the coefficients
h_k(y) of its phi row evaluated once per weighted sum.  A product weight
needs no h: 1 + 2 a y z + a^2 z^2 = (1 + a z e^{i phi})(1 + a z e^{-i phi}),
so on the grid 1/|h|^2 = f(theta + phi) f(theta - phi) with the
one-variable Bernstein-Szego weight f(psi) = prod_i 1/|1 + a_i e^{i psi}|^2.
One line of f at the nodes 2 pi k / R per resolution, computed on
k <= R/2 and mirrored so f[k] == f[R - k] exactly, gives every block as H * T, where H[p, q] = f[j_p + j_q] and
T[p, q] = f[|j_p - j_q|] are strided read-only views of the line.  That
weight is symmetric in (theta, phi), so W_eo = W_oe^T and a refined rung
sums S_o W_oe S_e^T once and adds its transpose.  A product slice at
y = cos phi reads the same f at theta +- phi from its factors, with cos and
sin of theta from ``_sines(R)`` and the angle sums taken with (y, sqrt(1 - y^2)):
the expanded |h|^2 of a generic slice cancels near a double root of h.

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

Every system the library builds is put together by ``assemble`` as one
read-only (K, s, s) tensor of Chebyshev-U coefficients (an ``OrthoSystem``).
The slots with a closed form arrive as Chebyshev-U grids and are
normalized in one batch by ``normalize``, whose squared norms are the
diagonal of C G C^T and which makes each leading coefficient positive;
Gram-Schmidt scatters C into its tensor with one assignment.  Every other
slot is read from one Gram-Schmidt system of the same ordering, and only
of the smallest window that holds those slots: by the leading-block
property that window's system is the leading block of the whole one, so
a lex window whose fallback slots all lie in its first rows factors only
those rows (revlex: columns), and the condition gate sees only them.

A table or slice degree above MAX_DEGREE, and a Gram block (s^4 doubles)
or a stack of K coefficient grids (K s^2 doubles) above MAX_BLOCK_BYTES,
raise ResourceLimitError before anything is allocated.

With BSZ2D_CACHE_DIR set, a Chebyshev-U table whose ladder stopped above
2 _START_RESOLUTION (R >= 512) is spilled to one file per spec,
``<fingerprint>.f64``: one flat little-endian float64 record of a magic
value, the rows, the mass, the error estimate and the resolution, then the
rows x rows table.  A table accepted at R = 256 (at most 64 rows) is not
written: it recomputes, to the same bits, in 0.1 to 0.2 ms, while a write
costs 0.15 ms into a warm directory and a 0.54 ms median under the
``cold_quadrature`` benchmark, mostly creating the temporary file; a read
costs 0.05 ms (one core of an x86-64 Xeon VM).  A spill is written to a
temporary file and renamed into place.  Any valid spill is adopted,
whatever its resolution.  A record that is cut short, has another magic
value, a rows field that does not match its length, a value that is not
finite, or an error estimate above the oracle's tol is not adopted: the
table is recomputed.  The ``.npz`` spills of older versions are never read.

Inner products under the full measure are c_f^T G c_g: c holds a
polynomial's tensor Chebyshev-U coefficients, zero-padded to an s x s
slot square, and G[i1, j1, i2, j2] = <U_i1(x) U_j1(y), U_i2(x) U_j2(y)>
is a sum of moment-table entries over the linearization rule of
``poly_core._lin``.  Each oracle keeps one read-only G, grown to exactly
the largest s a request has needed: s^4 doubles, 166 KB at s = 12.  An
inner product runs over the leading s x s square of G that its operands span,
not over the whole block, so it does not depend on which requests grew
G before it.  The entries of G do: a larger block is built from a larger
moment table, whose low rows can differ from a smaller table's in the
last bits.

Monomial moments are not integrated separately.  x^i = sum_c M[c, i] U_c(x)
with M exact, nonnegative and every column summing to at most 1 (J. C.
Mason and D. C. Handscomb, Chebyshev Polynomials, 2003), so the monomial
table is M^T m1 M and a slice moment is M^T u(y): their errors are no
larger than the Chebyshev-U ones.  Every cache belongs to one oracle,
that is to one (spec fingerprint, tol) pair.  A per-call tol looser than
the oracle's is served from its table; a tighter one raises ValueError,
since only ``oracle_for(spec, tol)`` can honour it.  Slice moments run
their own 1-D ladder at the tol they are given, which may be tighter:
each oracle keeps an LRU of at most MAX_SLICES = 64 read-only slice
vectors keyed on the exact (y, tol), so every degree of one slice is
read from the leading rows of one ladder's result.  A degree above the
cached rows, or another tol, runs a new ladder.
"""

from __future__ import annotations

import os
import tempfile
import threading
from collections import OrderedDict
from functools import lru_cache

import numpy as np

from .ortho import LEX, REVLEX, OrthoSystem, index_sequence
from .poly_core import CHEB_U, BivariatePoly, _extents, _lin, _mono_to_chebu, _padded, _square
from .weights import PRODUCT_OMEGA, InvalidWeightError, WeightSpec

DEFAULT_TOL = 1e-11
MAX_RESOLUTION = 2**14
MAX_ORACLES = 8
COND_CAP = 1e12  # largest Gram condition number Gram-Schmidt accepts
# largest Gram block (s^4 doubles) or stack of K coefficient grids (K s^2 doubles) an
# oracle allocates: a 40 x 40 lex window needs about 25 MB of each, lex --n 150 --m 150 4 GB
MAX_BLOCK_BYTES = 2**27
# largest Chebyshev-U degree of a table or slice: its rows of sine values and of
# their weighted sums, two doubles per interior node at MAX_RESOLUTION, fit the
# same budget (1024 rows)
MAX_DEGREE = MAX_BLOCK_BYTES // (16 * (MAX_RESOLUTION // 2)) - 1
_START_RESOLUTION = 128
# a ladder stops when _SAFETY times its error estimate is below tol; the
# estimate is never below _ROUNDING times the largest mass-normalized value
_SAFETY = 10.0
_ROUNDING = 2.0**-52
# bytes of weights evaluated in one theta block of a table: the block and the
# sine columns it is summed against stay in L2
_CHUNK_BYTES = 2**18
# bytes of interior sine matrices (``_sine_rows``) kept across ladders: the
# 16-row ones of R = 128 .. 4096 take 0.5 MiB
_SINE_ROWS_BYTES = 2**22
MAX_SLICES = 64  # slice moment vectors kept per oracle
# a table spill is one flat little-endian float64 record: _SPILL_MAGIC, rows,
# mass, err and resolution, then the rows x rows table
_SPILL_MAGIC = float(np.frombuffer(b"bsz2d.t1", "<f8")[0])
_SPILL_HEAD = 5
_SPILL_SUFFIX = ".f64"


class AccuracyError(RuntimeError):
    """Quadrature failed to converge within the resolution cap."""


class OracleUnreliableError(RuntimeError):
    """The Gram matrix is too ill conditioned to trust the oracle."""


class ResourceLimitError(ValueError):
    """A request exceeds a size cap; raised before anything is allocated."""


def _cap_degree(smax: int):
    if smax > MAX_DEGREE:
        raise ResourceLimitError(f"degree {smax} exceeds the cap MAX_DEGREE = {MAX_DEGREE}")


def _cap_bytes(doubles: int, what: str):
    if 8 * doubles > MAX_BLOCK_BYTES:
        raise ResourceLimitError(
            f"{what} needs {8 * doubles / 2**20:.0f} MiB, over the cap MAX_BLOCK_BYTES = {MAX_BLOCK_BYTES >> 20} MiB"
        )


def cap_system(slots: list[tuple[int, int]]):
    """Raise ResourceLimitError, before anything is allocated, when a system over
    ``slots`` needs a Gram block or coefficient stack above MAX_BLOCK_BYTES: its
    polynomials fill at least the s x s square, s = 1 + the largest slot index."""
    s = 1 + max((max(idx) for idx in slots), default=0)
    _cap_bytes(s**4, f"a Gram block of s = {s}")
    _cap_bytes(len(slots) * s * s, f"a stack of {len(slots)} {s} x {s} coefficient grids")


def _indices(start: int, step: int, count: int) -> np.ndarray:
    """The node indices of a progression: start, start + step, ..."""
    return start + step * np.arange(count)


def _interior(resolution: int) -> tuple[int, int, int]:
    """The indices j = 1 .. R/2 - 1 of the trapezoid nodes 2 pi j / R strictly
    inside (0, pi), as a progression."""
    return 1, 1, resolution // 2 - 1


def _odd(resolution: int) -> tuple[int, int, int]:
    """The interior nodes of odd index: those the grid of R / 2 nodes lacks."""
    return 1, 2, resolution // 4


def _rows(smax: int) -> int:
    """Rows a table or slice computes for degrees up to smax: max(16, next power
    of two >= smax + 1), since fewer rows converge at a lower R."""
    return max(16, 1 << int(smax).bit_length())


def _table_scale(resolution: int) -> float:
    """4 (2 pi / R)^2 / pi^2: the trapezoid weight of the quarter-grid sum."""
    return 4.0 * (2.0 * np.pi / resolution) ** 2 / np.pi**2


@lru_cache(maxsize=16)
def _sines(resolution: int) -> np.ndarray:
    """Read-only sin(2 pi k / R) for k = 0 .. R - 1."""
    sn = np.sin(2.0 * np.pi * np.arange(resolution) / resolution)
    sn.setflags(write=False)
    return sn


_SINE_ROWS: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
_SINE_ROWS_LOCK = threading.Lock()


@lru_cache(maxsize=16)
def _node_sines(resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only sin(theta) and cos(theta) at the interior nodes theta = 2 pi j / R,
    j = 1 .. R/2 - 1, read from ``_sines(R)``; the odd nodes are every other one."""
    sn = _sines(resolution)
    j = _indices(*_interior(resolution))
    st, ct = sn[j], sn[(j + resolution // 4) % resolution]
    st.setflags(write=False)
    ct.setflags(write=False)
    return st, ct


def _sine_rows(rows: int, resolution: int) -> np.ndarray:
    """The read-only rows s < ``rows`` of sin((s+1) theta) sin(theta) =
    U_s(cos theta) sin^2(theta) at the interior nodes theta = 2 pi j / R,
    j = 1 .. R/2 - 1, read from ``_sines(R)``: (s+1) j is reduced mod R in
    integers, so no rounding of (s+1) theta enters.  Its columns [:, ::2] are
    the odd nodes and [:, 1::2] the even ones.  The matrices are kept, least
    recently used out first, while they total at most _SINE_ROWS_BYTES; a
    larger one is not kept."""
    key = (rows, resolution)
    with _SINE_ROWS_LOCK:
        S = _SINE_ROWS.get(key)
        if S is not None:
            _SINE_ROWS.move_to_end(key)
            return S
    sn = _sines(resolution)
    j = _indices(*_interior(resolution))
    k = np.arange(1, rows + 1)[:, None] * j
    k %= resolution
    S = sn[k]
    S *= sn[j]
    S.setflags(write=False)
    if S.nbytes <= _SINE_ROWS_BYTES:
        with _SINE_ROWS_LOCK:
            _SINE_ROWS[key] = S
            total = sum(v.nbytes for v in _SINE_ROWS.values())
            while total > _SINE_ROWS_BYTES:
                total -= _SINE_ROWS.popitem(last=False)[1].nbytes
    return S


def _start_resolution(rows: int, rho: float | None, tol: float) -> int:
    """The first rung of a ladder over ``rows`` rows: max(_START_RESOLUTION,
    2 rows, R* / 4), where R* is the first power of two with
    rho^R* < tol / _SAFETY for a product weight of ``rho`` (see the module
    docstring).  A generic weight (rho None) has no R*."""
    start = max(_START_RESOLUTION, 2 * rows)
    if rho is not None:
        predicted = 1
        while predicted < MAX_RESOLUTION and rho**predicted >= tol / _SAFETY:
            predicted *= 2
        start = max(start, predicted // 4)
    return start


def _szego(factors: tuple[float, ...], cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """The one-variable Bernstein-Szego weight f(psi) = prod_i 1 / |1 + a_i e^{i psi}|^2,
    multiplied over the rows of the (m, n) arrays cos psi and sin psi: one value
    per column.  Each modulus is the sum of squares (1 + a cos)^2 + (a sin)^2."""
    a = np.array(factors)[:, None, None]
    re = 1.0 + a * cos
    im = a * sin
    re *= re
    im *= im
    re += im
    return np.reciprocal(re.reshape(-1, re.shape[-1]).prod(0))


@lru_cache(maxsize=16)
def _szego_windows(factors: tuple[float, ...], resolution: int) -> np.ndarray:
    """The read-only windows V[k, q] = F[k + q], q < R/2 - 1, of the line
    F[k] = f(2 pi k / R), k = 0 .. 2R - 1, of ``_szego``.  The half k <= R / 2 is
    computed from ``_sines(R)`` and mirrored, so F[k] == F[R - k] exactly, and F
    has period R."""
    sn = _sines(resolution)
    k = np.arange(resolution // 2 + 1)
    f = _szego(factors, sn[None, (k + resolution // 4) % resolution], sn[None, k])
    line = np.concatenate([f, f[-2:0:-1], f, f[-2:0:-1]])
    width = resolution // 2 - 1
    # the view sliding_window_view builds, without its argument checks
    return np.lib.stride_tricks.as_strided(line, (len(line) - width + 1, width), line.strides * 2, writeable=False)


def grid_size(polys: list[BivariatePoly]) -> int:
    """The smallest s (at least 1) whose s x s slot square holds every
    polynomial's coefficient grid; a basis change keeps a grid's shape."""
    return max([1] + [max(p.coeffs.shape) for p in polys])


def chebu_grids(polys: list[BivariatePoly]) -> np.ndarray:
    """The polynomials' tensor Chebyshev-U coefficients, zero-padded to
    shape (len(polys), s, s) with s = ``grid_size(polys)``."""
    s = grid_size(polys)
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
        report = spec.stability
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
        self._slices: OrderedDict[tuple[float, float], np.ndarray] = OrderedDict()
        self._systems: dict[tuple, OrthoSystem] = {}
        self._load_spill()

    # -- quadrature cores -------------------------------------------------
    def _weighted_sum(self, Sa: np.ndarray, a: tuple, Sb: np.ndarray, b: tuple, resolution: int) -> np.ndarray:
        """Sa W Sb^T with W[p, q] = 1 / |h(e^{i theta_p}, cos phi_q)|^2, where theta_p and
        phi_q run over the node progressions a and b, each (start, step, count) of
        indices j of the nodes 2 pi j / R.  W is built in theta blocks of at most
        _CHUNK_BYTES: for a product spec as H * T from one Szego line, otherwise
        by ``h_abs2`` with the y coefficients evaluated once."""
        (sa, da, na), (sb, db, nb) = a, b
        rows = max(1, _CHUNK_BYTES // (8 * nb))
        SW = np.zeros((len(Sa), nb))
        if self.spec.variant == PRODUCT_OMEGA:
            # W[p, q] = f(theta_p + phi_q) f(theta_p - phi_q): a Hankel and a Toeplitz view
            V = _szego_windows(self.spec.factors, resolution)
            span = slice(None, (nb - 1) * db + 1, db)
            H = V[sa + sb :: da][:na, span]
            T = V[resolution + sa - sb - (nb - 1) * db :: da][:na, span][:, ::-1]
            for lo in range(0, na, rows):
                SW += Sa[:, lo : lo + rows] @ (H[lo : lo + rows] * T[lo : lo + rows])
        else:
            tha, thb = (2.0 * np.pi * _indices(*nodes) / resolution for nodes in (a, b))
            y = np.cos(thb)[None, :]
            hy = self.spec.h_y(y)
            for lo in range(0, na, rows):
                W = self.spec.h_abs2(tha[lo : lo + rows, None], y, hy)
                np.reciprocal(W, out=W)
                SW += Sa[:, lo : lo + rows] @ W
        return SW @ Sb.T

    def _table_at(self, smax: int, resolution: int) -> np.ndarray:
        """(1/pi^2) (2 pi / R)^2 * S W S^T, S = _sine_rows(smax + 1, R) on both
        axes, summed over the interior quarter grid (times 4)."""
        nodes = _interior(resolution)
        S = _sine_rows(smax + 1, resolution)
        return _table_scale(resolution) * self._weighted_sum(S, nodes, S, nodes, resolution)

    def _table_refined(self, coarse: np.ndarray, smax: int, resolution: int) -> np.ndarray:
        """The table at ``resolution`` from ``coarse``, the one at resolution / 2.

        The interior nodes with even theta and even phi index are the coarse
        grid's, so only the pairs with an odd index on either axis are new:
        S_o W_oo S_o^T + X + S_e W_eo S_o^T with X = S_o W_oe S_e^T, over the
        step-2 progressions of odd and even nodes.  A product weight is
        symmetric in (theta, phi), so there W_eo = W_oe^T and the last term is
        X^T; otherwise odd theta meets every phi in one sum."""
        nodes = _interior(resolution)
        odd, even = _odd(resolution), (2, 2, resolution // 4 - 1)
        S = _sine_rows(smax + 1, resolution)
        So, Se = S[:, ::2], S[:, 1::2]
        if self.spec.variant == PRODUCT_OMEGA:
            new = self._weighted_sum(So, odd, So, odd, resolution)
            X = self._weighted_sum(So, odd, Se, even, resolution)
            new += X
            new += X.T
        else:
            new = self._weighted_sum(So, odd, S, nodes, resolution)
            new += self._weighted_sum(Se, even, So, odd, resolution)
        return coarse / 4.0 + _table_scale(resolution) * new

    def _ladder(self, rows: int, first, refine, tol: float) -> tuple[np.ndarray, float, int]:
        """Double the resolution from ``_start_resolution(rows, rho, tol)``:
        ``first(R)`` is the value at the first rung and ``refine(value, R)`` the
        value at R from the one at R / 2.  Returns the first value whose error
        estimate meets tol, with that estimate and its resolution, by the
        stopping rule of the module docstring: d_R is the increment of the
        values divided by their first entry (the mass), r = d_R / d_{R/2}, at
        least rho^{R/4} for a product weight, and a rung is accepted when
        r < 1/4 and _SAFETY max(d_R r^2, floor) < tol, where floor = _ROUNDING
        max |values / mass| is their float64 rounding.  Nothing is computed
        when the first refinement would pass max_resolution."""
        rho = max(map(abs, self.spec.factors), default=0.0) if self.spec.variant == PRODUCT_OMEGA else None
        resolution = _start_resolution(rows, rho, tol)
        prev = prev_unit = None
        prev_step = err = np.inf
        while 2 * resolution <= self.max_resolution:
            if prev is None:
                prev = first(resolution)
                prev_unit = prev / prev.flat[0]
            resolution *= 2
            cur = refine(prev, resolution)
            unit = cur / cur.flat[0]
            step = float(np.abs(unit - prev_unit).max())
            floor = _ROUNDING * float(np.abs(unit).max())
            if rho is None and prev_step == np.inf:
                err = max(step, floor)
                done = err < tol
            else:
                # step / inf is 0: a product's first ratio is rho^{R/4} alone
                ratio = step / prev_step if prev_step > 0.0 else (np.inf if step > 0.0 else 0.0)
                if rho is not None:
                    ratio = max(ratio, rho ** (resolution / 4))
                err = max(step * ratio * ratio, floor)
                done = ratio < 0.25 and _SAFETY * err < tol
            if done:
                return cur, err, resolution
            prev, prev_unit, prev_step = cur, unit, step
        raise AccuracyError(
            f"no convergence below resolution {self.max_resolution} (last error estimate {err:.3e}, tol {tol:.3e})"
        )

    # -- Chebyshev-U moments ---------------------------------------------
    def chebu_table(self, smax: int) -> np.ndarray:
        """m1[s, t] = integral of U_s(x) U_t(y) dmu, for s, t <= smax.

        dmu is normalized to a probability measure: the raw weight is
        divided by its total mass, so m1[0, 0] = 1 for every spec.
        """
        if smax < 0:
            raise ValueError("moment degrees must be nonnegative")
        _cap_degree(smax)
        with self._lock:
            if self._chebu_table is None or self._chebu_table.shape[0] <= smax:
                size = _rows(smax) - 1
                table, err, res = self._ladder(
                    size + 1, lambda r: self._table_at(size, r), lambda t, r: self._table_refined(t, size, r), self.tol
                )
                self._mass = float(table[0, 0])
                self._chebu_table = table / self._mass
                self._chebu_err, self._chebu_resolution = err, res
                if res > 2 * _START_RESOLUTION:  # a table accepted at 256 recomputes faster than it spills
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
        """The moment of x^i y^j and the error estimate of the Chebyshev-U
        table it is derived from (see ``_ladder``); a monomial moment's
        error is no larger than the table's."""
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
        """integral of U_s(x) dmu_y(x) for s = 0..smax, read-only."""
        if smax < 0 or not abs(y) <= 1.0:  # a NaN y fails here too
            raise ValueError("need a nonnegative degree and |y| <= 1")
        _cap_degree(smax)
        tol = float(self.tol if tol is None else tol)
        key = (float(y), tol)
        with self._lock:
            u = self._slices.get(key)
            if u is not None and len(u) > smax:
                self._slices.move_to_end(key)
                return u[: smax + 1]
        rows = _rows(smax)
        factors = self.spec.factors if self.spec.variant == PRODUCT_OMEGA else None
        # cos phi and the column (-sin phi, sin phi), whose rows give theta + phi and theta - phi
        cp, sp = float(y), np.sqrt(1.0 - y * y) * np.array([[-1.0], [1.0]])

        def at(every: int, res: int) -> np.ndarray:
            # the weighted sum over every interior node (every = 1) or the odd ones (every = 2)
            if factors is None:
                w = np.reciprocal(self.spec.h_abs2(2.0 * np.pi * np.arange(1, res // 2, every) / res, y))
            else:
                # f(theta + phi) f(theta - phi), the angle sums read from the sine table
                st, ct = (v[::every] for v in _node_sines(res))
                w = _szego(factors, ct * cp + sp * st, st * cp - sp * ct)
            # dmu_y carries no 2/pi prefactor: 1/2 * trapezoid over [0, 2pi),
            # which is twice the sum over the interior half grid; np.dot hands a
            # strided S to BLAS as a copy, where @ would sum it in its own loop
            return (2.0 * np.pi / res) * np.dot(_sine_rows(rows, res)[:, ::every], w)

        u = self._ladder(rows, lambda r: at(1, r), lambda v, r: v / 2.0 + at(2, r), tol)[0]
        u.setflags(write=False)
        with self._lock:
            self._slices[key] = u
            self._slices.move_to_end(key)
            if len(self._slices) > MAX_SLICES:
                self._slices.popitem(last=False)
        return u[: smax + 1]

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
        S x S slot square, where S >= s is the largest size requested so far;
        ``_gram_matrix(s)`` is its leading s x s part.

        The block grows to exactly the size a request needs, never beyond
        it: it holds S^4 doubles, 166 KB at S = 12.
        """
        with self._lock:
            if self._gram is None or len(self._gram) < s:
                _cap_degree(2 * s - 2)
                _cap_bytes(s**4, f"a Gram block of s = {s}")
                m1 = self.chebu_table(2 * s - 2)
                L = _lin(s, s)
                # H[i1, i2, j1, j2]: x-linearization against the rows of m1, y against its columns
                H = np.tensordot(L @ m1, L, axes=(2, 2))
                G = np.ascontiguousarray(H.transpose(0, 2, 1, 3))
                G.setflags(write=False)
                self._gram = G
            return self._gram

    def _gram_matrix(self, s: int) -> np.ndarray:
        """The Gram block over the s x s slot square as an (s^2, s^2) matrix,
        whatever size the shared block has grown to: a contraction over it
        does not depend on which requests came before."""
        return self.gram_block(s)[:s, :s, :s, :s].reshape(s * s, s * s)

    def inner(self, f: BivariatePoly, g: BivariatePoly) -> float:
        return float(self.inner_matrix([f], [g])[0, 0])

    def norm(self, f: BivariatePoly) -> float:
        return float(np.sqrt(max(self.inner(f, f), 0.0)))

    def normalized(self, f: BivariatePoly, leading: tuple[int, int]) -> tuple[BivariatePoly, float]:
        units, norms = self.normalize({leading: f.to_basis(CHEB_U).coeffs})
        return BivariatePoly(CHEB_U, units[0]), float(norms[0])

    def normalize(self, grids: dict[tuple[int, int], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The unit-norm polynomials of the Chebyshev-U grids, as one (K, s, s)
        tensor in the dict's order, and the norms divided out.  Each
        polynomial's coefficient at its key, its leading slot, is made
        positive.  The squared norms are the diagonal of C G C^T, one row of
        C per grid."""
        # the stack is padded to the grids' extents, then cut to the square their polynomials fill
        s = max(max(g.shape) for g in grids.values())
        _cap_bytes(len(grids) * s * s, f"a stack of {len(grids)} {s} x {s} coefficient grids")
        T = _padded(list(grids.values()))
        nx, ny = _extents(T)
        # trimmed, a grid grows the oracle's shared Gram block only as far as its polynomial reaches
        s = max(1, int(nx.max()), int(ny.max()))
        C = _square(T, s).reshape(len(T), s * s)
        norms = np.sqrt(np.maximum(((C @ self._gram_matrix(s)) * C).sum(1), 0.0))
        if np.any(norms == 0.0):
            raise ValueError("cannot normalize the zero polynomial")
        units = _square(T, s) * (1.0 / norms)[:, None, None]
        ii, jj = np.array(list(grids)).T
        inside = np.flatnonzero((ii < s) & (jj < s))
        flip = inside[units[inside, ii[inside], jj[inside]] < 0.0]
        units[flip] = -units[flip]
        return units, norms

    def inner_matrix(self, polys: list[BivariatePoly], others: list[BivariatePoly] | None = None) -> np.ndarray:
        """[<p, q>] for p in ``polys`` and q in ``others`` (default ``polys``)."""
        D = None if others is None or others is polys else chebu_grids(others)
        return self.coefficient_inner(chebu_grids(polys), D)

    def coefficient_inner(self, C: np.ndarray, D: np.ndarray | None = None) -> np.ndarray:
        """[<c, d>] for the grids c of the (K, a, b) Chebyshev-U stack C and d of
        D (default C), as C G D^T: each grid is one row of tensor Chebyshev-U
        coefficients over the s x s slot square the grids span."""
        s = max(C.shape[1:] + (() if D is None else D.shape[1:]))
        Cs = _square(C, s).reshape(len(C), s * s)
        Ds = Cs if D is None else _square(D, s).reshape(len(D), s * s)
        return Cs @ self._gram_matrix(s) @ Ds.T

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
        others in one batch.  Every other slot is read from one Gram-Schmidt
        system, asked for at most once: ``gram_schmidt(ordering, n, m)``,
        except that a lex window ends at the row of the last such slot and
        a revlex window at its column, a leading block of the (n, m) one."""
        cap_system(slots)
        pos = {idx: k for k, idx in enumerate(slots)}
        parts = []
        if closed:
            units, norms = self.normalize(closed)
            parts.append(([pos[idx] for idx in closed], units, norms))
        rest = [idx for idx in slots if idx not in closed]
        if rest:
            if ordering == LEX:
                n = max(i for i, _ in rest)
            elif ordering == REVLEX:
                m = max(j for _, j in rest)
            fallback = self.gram_schmidt(ordering, n, m)
            at = {idx: k for k, idx in enumerate(fallback.indices())}
            take = [at[idx] for idx in rest]
            parts.append(([pos[idx] for idx in rest], fallback.coeffs[take], fallback.norms[take]))
        s = max(part.shape[1] for _, part, _ in parts)
        T = np.zeros((len(slots), s, s))
        norms = np.empty(len(slots))
        for rows, part, nrm in parts:
            T[rows, : part.shape[1], : part.shape[2]] = part
            norms[rows] = nrm
        return OrthoSystem(ordering, slots, T, norms)

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
        # G is symmetric, so its singular values are the moduli of its eigenvalues
        lam = np.abs(np.linalg.eigvalsh(G))
        cond = float(lam.max() / lam.min()) if lam.min() > 0.0 else float("inf")
        if cond > COND_CAP:
            raise OracleUnreliableError(f"Gram matrix condition number {cond:.3e} exceeds {COND_CAP:.1e}")
        try:
            L = np.linalg.cholesky(G)
        except np.linalg.LinAlgError as exc:
            raise OracleUnreliableError(f"Gram matrix is not positive definite: {exc}") from exc
        C = np.linalg.inv(L)  # row k: coefficients of the k-th orthonormal poly
        # row k holds C[k, k] = 1 / L[k, k] > 0 at its own slot, so no sign fix is needed
        ii, jj = np.array(idx).T
        s = int(max(ii.max(), jj.max())) + 1
        T = np.zeros((len(idx), s, s))
        T[:, ii, jj] = C
        return OrthoSystem(ordering, idx, T, np.diag(L))

    # -- disk spill --------------------------------------------------------
    def _spill_path(self) -> str | None:
        root = os.environ.get("BSZ2D_CACHE_DIR")
        return os.path.join(root, f"{self.spec.fingerprint}{_SPILL_SUFFIX}") if root else None

    def _save_spill(self):
        path = self._spill_path()
        if path is None or self._chebu_table is None:
            return
        head = [_SPILL_MAGIC, len(self._chebu_table), self._mass, self._chebu_err, self._chebu_resolution]
        record = np.concatenate([head, self._chebu_table.ravel()]).astype("<f8").tobytes()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # write beside the target, then rename over it: a reader never sees half a file
        fd, tmp = tempfile.mkstemp(suffix=_SPILL_SUFFIX + ".tmp", dir=os.path.dirname(path))
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(record)
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
            with open(path, "rb") as f:
                raw = f.read()
            record = np.frombuffer(raw, "<f8").astype(float)
        except (OSError, ValueError):  # missing, or not a whole number of float64s
            return
        if len(record) < _SPILL_HEAD or record[0] != _SPILL_MAGIC:
            return
        _, rows, mass, err, resolution = record[:_SPILL_HEAD]
        if rows < 1 or rows * rows != len(record) - _SPILL_HEAD or not np.all(np.isfinite(record)):
            return
        if not err <= self.tol:
            return  # written at a looser tolerance: recompute
        self._chebu_table = record[_SPILL_HEAD:].reshape(int(rows), int(rows))
        self._mass = float(mass)
        self._chebu_err = float(err)
        self._chebu_resolution = int(resolution)


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

