"""Weight specifications and stability certification.

A weight is determined by a polynomial h(z, y) = sum_i h_i(y) z^i that is
stable (zero free on |z| <= 1) for every y in [-1, 1].  Two views exist:

* generic: the list of coefficient polynomials h_i(y) is given directly;
* product: h is a product of quadratic factors (1 + 2 a_i y z + a_i^2 z^2)
  coming from the bidisk-stable factorization prod_i (1 + a_i z w); the
  raw parameters a_i are stored, N_h = 2 N_f and kappa = N_f are read from
  them, and the generic expansion is built on first use, not up front.

The reflected weight h~(x, w) swaps the roles of (z, y) and (w, x); for
product specs it has the same factor parameters.

``is_stable`` certifies a product spec analytically and a generic one by
the crossing test: h(., 0) is stable, and no real root in [-1, 1] of the
resultant of h and its reversal z^N h(1/z) marks a root of h(., y) on or
inside |z| = 1.  Its report's ``min_modulus`` is a sampled diagnostic,
computed only when read.  A spec object is certified once: the report is
cached as ``WeightSpec.stability``, and ``is_stable``, ``require_stable``
and ``MomentOracle`` all read it, whichever asks first.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from .poly_core import CHEB_U, MONOMIAL, UnivariatePoly, _padded

GENERIC_H = "generic_h"
PRODUCT_OMEGA = "product_omega"


class InvalidWeightError(ValueError):
    """The weight specification violates a structural invariant."""


class UnsupportedWeightError(ValueError):
    """The requested view needs product structure the spec does not have."""


# largest array one step of the package allocates: an oracle's Gram block (s^4
# doubles) or stack of K coefficient grids (K s^2 doubles), where a 40 x 40 lex
# window needs about 25 MB of each and lex --n 150 --m 150 4 GB, or the
# Sylvester or companion matrices of a stability certificate
MAX_BLOCK_BYTES = 2**27

# The sampled diagnostic scan of a generic weight: its Chebyshev y values
# (the endpoints are added), and the margin above 1 by which a root modulus
# must clear the unit circle, there and in the certificate.  The dense scan
# decides when the crossing test is inconclusive.
SCAN_SAMPLES = 129
DENSE_SAMPLES = 20001
MODULUS_MARGIN = 1e-9


class ResourceLimitError(ValueError):
    """A request exceeds a size cap; raised before anything is allocated."""


def _cap_bytes(doubles: int, what: str):
    if 8 * doubles > MAX_BLOCK_BYTES:
        raise ResourceLimitError(
            f"{what} needs {8 * doubles / 2**20:.0f} MiB, over the cap MAX_BLOCK_BYTES = {MAX_BLOCK_BYTES >> 20} MiB"
        )


@dataclass(frozen=True)
class StabilityReport:
    """The verdict of ``is_stable``.

    ``crossing_y`` is None for a stable weight, and otherwise a y in
    [-1, 1] where h(., y) has a root of modulus at most 1 + MODULUS_MARGIN:
    where a root crosses |z| = 1, if the test found one.  ``min_modulus``,
    ``witness_y`` and ``degree_drops`` are diagnostics of a sampled scan,
    computed on first access (analytic for a product spec): the smallest
    root modulus over SCAN_SAMPLES Chebyshev y values and the endpoints,
    the y where it occurs, and the y values where the top coefficient
    vanishes.  A minimum above 1 there does not certify the weight.
    """

    stable: bool
    method: str  # "analytic", "resultant" or "scan"
    crossing_y: float | None
    _diagnostics: Callable[[], tuple[float, float | None, tuple[float, ...]]] = field(repr=False, compare=False)

    @cached_property
    def _scan(self) -> tuple[float, float | None, tuple[float, ...]]:
        return self._diagnostics()

    @property
    def min_modulus(self) -> float:
        return self._scan[0]

    @property
    def witness_y(self) -> float | None:
        return self._scan[1]

    @property
    def degree_drops(self) -> tuple[float, ...]:
        return self._scan[2]


def _degree_bound(n_h: int, i: int) -> float:
    return n_h / 2 - abs(n_h / 2 - i)


class WeightSpec:
    """Weight specification; immutable after construction.

    ``factors`` is None for generic specs.  ``h`` is the list of
    UnivariatePoly coefficients of z^0 .. z^{N_h} (monomial basis in y);
    a product spec expands it on first use, and answers ``n_h`` and
    ``kappa`` from its factors without it.
    """

    def __init__(self, h: list[UnivariatePoly] | None = None, factors: tuple[float, ...] | None = None):
        if h is None and factors is None:
            raise InvalidWeightError("either h coefficients or product factors required")
        if factors is not None:
            factors = tuple(float(a) for a in factors)
            for a in factors:
                if not (0.0 < abs(a) < 1.0):
                    raise InvalidWeightError(f"invalid factor {a}: need 0 < |a| < 1")
        self._factors = factors
        self._h = tuple(h) if h is not None else None
        if self._h is not None:
            self._validate_h(self._h)

    # -- validation -------------------------------------------------------
    @staticmethod
    def _validate_h(h: tuple[UnivariatePoly, ...]):
        if not h:
            raise InvalidWeightError("empty h list")
        n_h = len(h) - 1
        h0 = h[0].to_basis(MONOMIAL)
        if h0.deg != 0 or abs(float(h0.coeffs[0]) - 1.0) > 1e-12:
            raise InvalidWeightError("h_0 must be identically 1")
        for i, hi in enumerate(h):
            if not hi.is_zero and hi.deg > _degree_bound(n_h, i):
                raise InvalidWeightError(
                    f"deg h_{i} = {hi.deg} exceeds the bound {_degree_bound(n_h, i)}"
                )

    # -- views ------------------------------------------------------------
    @property
    def variant(self) -> str:
        return PRODUCT_OMEGA if self._factors is not None else GENERIC_H

    @property
    def factors(self) -> tuple[float, ...]:
        if self._factors is None:
            raise UnsupportedWeightError("no product factorization available")
        return self._factors

    @property
    def n_f(self) -> int:
        return len(self.factors)

    @cached_property
    def h(self) -> tuple[UnivariatePoly, ...]:
        if self._h is not None:
            return self._h
        # h(z, y) = prod_i (1 + 2 a_i y z + a_i^2 z^2)
        return _expand_z([[1.0, 0.0], [0.0, 2.0 * a], [a * a, 0.0]] for a in self._factors)

    @cached_property
    def h_chebu(self) -> np.ndarray:
        """Read-only matrix whose row i holds h_i(y) in the Chebyshev-U basis."""
        H = _padded([hi.to_basis(CHEB_U).coeffs[None, :] for hi in self.h])[:, 0]
        H.flags.writeable = False
        return H

    @cached_property
    def h_mono(self) -> np.ndarray:
        """Read-only matrix whose row i holds h_i(y) in the monomial basis."""
        H = _padded([hi.to_basis(MONOMIAL).coeffs[None, :] for hi in self.h])[:, 0]
        H.flags.writeable = False
        return H

    @cached_property
    def _degrees(self) -> tuple[int, int]:
        """(N_h, kappa).  When a product's top coefficient prod a_i^2, taken in
        the order ``_expand_z`` takes it, is a nonzero double, so is its
        y^N_f z^N_f coefficient prod 2 a_i, hence N_h = 2 N_f and kappa = N_f.
        A generic spec, or a product whose top coefficient underflows (the
        expansion then drops rows), reads them from ``h``."""
        if self._factors is not None and math.prod(a * a for a in self._factors) != 0.0:
            return 2 * len(self._factors), len(self._factors)
        degs = [hi.deg for hi in self.h if not hi.is_zero]
        return len(self.h) - 1, int(max(degs, default=0))

    @property
    def n_h(self) -> int:
        return self._degrees[0]

    @property
    def kappa(self) -> int:
        return self._degrees[1]

    @cached_property
    def stability(self) -> StabilityReport:
        """The certificate of this spec object, computed on first access.

        ``is_stable``, ``require_stable`` and ``MomentOracle`` all read this
        report, so a spec is certified once, whichever of them asks first."""
        return _certify(self)

    @cached_property
    def fingerprint(self) -> str:
        if self._factors is not None:
            payload = b"product:" + np.asarray(sorted(self._factors), dtype=float).tobytes()
        else:
            rows = [np.asarray(hi.to_basis(MONOMIAL).coeffs, dtype=float).tobytes() for hi in self.h]
            payload = b"generic:" + b"|".join(rows)
        return hashlib.sha1(payload).hexdigest()

    # -- evaluation -------------------------------------------------------
    def h_y(self, y) -> np.ndarray:
        """c_k = h_k(y) for k = 0 .. N_h, by Horner over ``h_mono``: shape (K,) + y.shape."""
        y = np.asarray(y, dtype=float)
        H = self.h_mono
        hy = np.zeros((len(H),) + y.shape)
        for c in H.T[::-1].reshape(H.shape[::-1] + (1,) * y.ndim):
            hy *= y
            hy += c
        return hy

    def h_abs2(self, theta, y, hy: np.ndarray | None = None):
        """|h(e^{i theta}, y)|^2 on broadcastable grids, in real arithmetic.

        With c_k = h_k(y): |h|^2 = (sum_k c_k cos k theta)^2 + (sum_k c_k sin k theta)^2.
        Each sum is one rank-K matrix product (K = N_h + 1) on a tensor grid (theta a
        column, y a row), a matrix-vector one for a scalar y.  A caller that meets the
        same y again passes ``hy = h_y(y)``, so the y work is done once.
        """
        theta = np.asarray(theta, dtype=float)
        y = np.asarray(y, dtype=float)
        if hy is None:
            hy = self.h_y(y)
        kt = np.multiply.outer(theta, np.arange(len(hy)))  # theta.shape + (K,)
        if y.ndim == 0:
            re, im = np.cos(kt) @ hy, np.sin(kt) @ hy
        elif theta.ndim == y.ndim == 2 and theta.shape[1] == 1 and y.shape[0] == 1:
            re, im = np.cos(kt[:, 0]) @ hy[:, 0], np.sin(kt[:, 0]) @ hy[:, 0]
        else:
            re = np.einsum("...k,k...->...", np.cos(kt), hy)
            im = np.einsum("...k,k...->...", np.sin(kt), hy)
        re *= re
        im *= im
        re += im
        return re

    # -- misc -------------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, WeightSpec) and self.fingerprint == other.fingerprint

    def __hash__(self):
        return hash(self.fingerprint)

    def __repr__(self):
        if self._factors is not None:
            return f"WeightSpec(product {list(self._factors)})"
        return f"WeightSpec(generic N_h={self.n_h})"


def _expand_z(factors) -> tuple[UnivariatePoly, ...]:
    """The z-coefficients h_0, h_1, ... of a product of polynomials in z
    whose coefficients are polynomials in y.  Row i of a factor holds the
    y-monomial coefficients of its z^i term; trailing zero rows of the
    product are dropped, so a vanishing top coefficient lowers N_h."""
    acc = np.ones((1, 1))
    for fac in factors:
        fac = np.atleast_2d(np.asarray(fac, dtype=float))
        out = np.zeros((len(acc) + len(fac) - 1, acc.shape[1] + fac.shape[1] - 1))
        for i, j in np.ndindex(len(acc), len(fac)):
            out[i + j] += np.convolve(acc[i], fac[j])
        acc = out
    while len(acc) > 1 and not np.any(acc[-1]):
        acc = acc[:-1]
    return tuple(UnivariatePoly(MONOMIAL, r) for r in acc)


def product_spec(a: list[float]) -> WeightSpec:
    """Product-form weight from factor parameters (0 < |a_i| < 1)."""
    return WeightSpec(factors=tuple(a))


def generic_spec(h_rows: list[list[float]] | list[UnivariatePoly]) -> WeightSpec:
    """Generic weight from y-monomial coefficient rows [h_0, h_1, ...]."""
    h = [
        r if isinstance(r, UnivariatePoly) else UnivariatePoly(MONOMIAL, np.asarray(r, dtype=float))
        for r in h_rows
    ]
    return WeightSpec(h=h)


def tilde_expand(spec: WeightSpec) -> WeightSpec:
    """The reflected weight h~(x, w) = omega(z, w) omega(1/z, w).

    For product specs the reflected weight is again a product spec with
    the same factor parameters (each factor reads 1 + 2 a_i x w + a_i^2 w^2
    in the swapped variables), so the same WeightSpec value represents it;
    callers interpret its variables as (w, x).
    """
    if spec.variant != PRODUCT_OMEGA:
        raise UnsupportedWeightError("tilde expansion requires product structure")
    return spec


def homogeneous_corner(spec: WeightSpec) -> np.ndarray:
    """Coefficients gamma_i of w^{N_f} omega(z, 1/w) = sum_i gamma_i z^i w^{N_f - i}.

    These are the elementary symmetric functions of the factor parameters.
    """
    g = np.zeros(spec.n_f + 1)
    g[0] = 1.0
    for a in spec.factors:
        g[1:] = g[1:] + a * g[:-1].copy()
    return g


def is_stable(spec: WeightSpec) -> StabilityReport:
    """Certify h(., y) zero-free on |z| <= 1 for all y in [-1, 1].

    The report is ``spec.stability``: it is computed once per spec object,
    whichever of ``is_stable``, ``require_stable`` or ``MomentOracle`` asks
    first, and every later call returns the same report.

    Product specs are certified analytically: every factor has both roots
    of modulus 1/|a_i| > 1 uniformly in y.  A generic spec gets the
    crossing test.  As y moves, a root of h(., y) can enter the closed
    disk only across |z| = 1, and a root z on the circle has its conjugate
    1/z as a root too (h is real), so the reversal z^N h(1/z, y) vanishes
    at z as well: y is a real root of the resultant
    R(y) = Res_z(h, z^N h(1/z)) (E. I. Jury, "Stability of multidimensional
    scalar and matrix polynomials", Proc. IEEE 66, 1978).  So h is stable
    when h(., 0) is and no real root of R in [-1, 1] has a root of h(., y)
    of modulus at most 1 + MODULUS_MARGIN.  A root of R from a reciprocal
    pair z, 1/z off the circle has one of the two inside the disk, so those
    moduli refuse it too.  The test is inconclusive when R is numerically
    zero, when h_N (a constant, by the degree bounds) vanishes, or when a
    root of R sits at an end of the interval; then a scan of DENSE_SAMPLES
    y values decides, and refuses the weight unless every root modulus
    clears the margin.  The report's ``min_modulus``, ``witness_y`` and
    ``degree_drops`` are a sampled diagnostic computed on first access, so
    a caller that reads only ``stable`` never runs that scan.  A Sylvester
    or companion stack above MAX_BLOCK_BYTES raises ResourceLimitError
    before it exists.
    """
    return spec.stability


def _certify(spec: WeightSpec) -> StabilityReport:
    """The certificate ``is_stable`` describes; only ``WeightSpec.stability`` calls it."""
    if spec.variant == PRODUCT_OMEGA:
        mn = min((1.0 / abs(a) for a in spec.factors), default=float("inf"))
        stable = mn > 1.0 + MODULUS_MARGIN
        return StabilityReport(stable, "analytic", None if stable else 0.0, lambda: (mn, None, ()))
    diagnostics = partial(_sampled_scan, spec.h)
    verdict = _crossing_test(spec.h_mono)
    if verdict is not None:
        return StabilityReport(verdict[0], "resultant", verdict[1], diagnostics)
    min_mod, witness, _ = _sampled_scan(spec.h, DENSE_SAMPLES)
    stable = min_mod > 1.0 + MODULUS_MARGIN
    return StabilityReport(stable, "scan", None if stable else witness, diagnostics)


def require_stable(spec: WeightSpec):
    """Raise InvalidWeightError, naming a y where h(., y) has a root in the
    closed disk, unless ``spec.stability`` certifies it.  That report is
    computed once per spec object, here or by whichever of ``is_stable``
    and ``MomentOracle`` asked first."""
    report = spec.stability
    if not report.stable:
        raise InvalidWeightError(f"weight is not stable: h(., y) has a root in |z| <= 1 at y = {report.crossing_y:.6g}")


def _crossing_test(H: np.ndarray) -> tuple[bool, float | None] | None:
    """(stable, y of a root in the closed disk) from the resultant of h and its
    reversal, or None when the test is inconclusive.  Row i of H holds h_i(y)."""
    n, kappa = len(H) - 1, H.shape[1] - 1
    if n == 0:
        return True, None
    if abs(H[-1, 0]) <= 1e-14 * np.max(np.abs(H)):
        return None
    # R has y-degree <= 2 n kappa: its 2n x 2n Sylvester matrix has entries h_i(y)
    m = 2 * n * kappa + 1
    _cap_bytes(m * (2 * n) ** 2, f"a stack of {m} Sylvester matrices of order {2 * n}")
    ys, powers, to_cheb, rows, cols, which = _resultant_grid(n, kappa)
    c = powers @ H.T  # c[j, i] = h_i(ys[j])
    S = np.zeros((m, 2 * n, 2 * n))
    S[:, rows, cols] = c[:, which]
    R = np.linalg.det(S)
    # Hadamard: |R| <= (|c|^2)^n, each of the 2n rows holding the entries of c once.  Far
    # below that bound the rounding of the determinants would move the roots of R.
    if not np.max(np.abs(R)) > 1e-9 * np.max(np.einsum("ji,ji->j", c, c) ** n):
        return None
    roots = _chebyshev_roots(to_cheb @ R)
    # a root pair crossing the circle is a double root of R, which rounding can split into
    # a complex pair; checking a root that is not real costs a few moduli, and refuses nothing
    # that is stable, so the filter is wide
    real = roots[np.abs(roots.imag) <= 1e-2].real
    if np.any(np.abs(np.abs(real) - 1.0) < 1e-6):
        return None
    y = np.append(real[np.abs(real) < 1.0], 0.0)  # the crossings first, then y0 = 0
    mods, _ = _min_moduli(np.power.outer(y, np.arange(kappa + 1)) @ H.T)
    inside = np.flatnonzero(mods <= 1.0 + MODULUS_MARGIN)
    return (True, None) if inside.size == 0 else (False, float(y[inside[0]]))


@lru_cache(maxsize=32)
def _resultant_grid(n: int, kappa: int):
    """For a z-degree n and y-degree kappa: the 2 n kappa + 1 Chebyshev nodes,
    the powers y^k there, the map from values there to Chebyshev-T
    coefficients, and the Sylvester positions (row, column, index into h's
    coefficients): row r < n holds h's from the top, shifted r places, and
    row n + r those of the reversal, that is h's from the bottom.  The arrays
    are shared by every caller, so they are read-only."""
    m = 2 * n * kappa + 1
    theta = np.pi * (np.arange(m) + 0.5) / m
    ys = np.cos(theta)
    to_cheb = np.cos(np.outer(np.arange(m), theta)) * (2.0 / m)
    to_cheb[0] /= 2.0
    r, k = np.divmod(np.arange(2 * n * (n + 1)), n + 1)
    out = (ys, np.power.outer(ys, np.arange(kappa + 1)), to_cheb, r, r % n + k, np.where(r < n, n - k, k))
    for a in out:
        a.flags.writeable = False
    return out


def _chebyshev_roots(a: np.ndarray) -> np.ndarray:
    """Roots of sum_k a_k T_k(y), trimmed of leading coefficients below 1e-13 of
    the largest, as the eigenvalues of the colleague matrix."""
    a = a[: np.flatnonzero(np.abs(a) > 1e-13 * np.max(np.abs(a)))[-1] + 1]
    d = len(a) - 1
    if d < 2:
        return -a[:1] / a[1:]  # empty for a constant
    A = _colleague(d).copy()
    A[-1] -= a[:-1] / (2.0 * a[-1])
    return np.linalg.eigvals(A)


@lru_cache(maxsize=32)
def _colleague(d: int) -> np.ndarray:
    """The read-only part of a degree-d colleague matrix that does not depend on the
    series: y T_0 = T_1 and y T_k = (T_{k-1} + T_{k+1}) / 2; the last row also
    carries the series, which eliminates T_d."""
    A = np.zeros((d, d))
    A[0, 1] = 1.0
    k = np.arange(1, d)
    A[k, k - 1] = 0.5
    A[k[:-1], k[:-1] + 1] = 0.5
    A.flags.writeable = False
    return A


def _min_moduli(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each row of c, the smallest root modulus of sum_k c_k z^k (inf for a
    constant) and the length left after trailing coefficients below 1e-14 of
    the row's largest."""
    a = np.abs(c)
    live = a > 1e-14 * np.max(a, axis=1, keepdims=True)
    live[:, 0] = True
    nz = c.shape[1] - np.argmax(live[:, ::-1], axis=1)  # effective length after trailing near-zeros
    mods = np.full(len(c), np.inf)
    for n in sorted(set(nz.tolist()) - {1}):
        rows = np.flatnonzero(nz == n)
        # companion matrices of the reversed coefficients, as np.roots builds them
        p = c[rows, :n][:, ::-1]
        _cap_bytes(len(rows) * (n - 1) ** 2, f"a stack of {len(rows)} companion matrices of degree {n - 1}")
        comp = np.zeros((len(rows), n - 1, n - 1))
        comp[:, 0, :] = -p[:, 1:] / p[:, :1]
        comp[:, np.arange(1, n - 1), np.arange(n - 2)] = 1.0
        mods[rows] = np.min(np.abs(np.linalg.eigvals(comp)), axis=1)
    return mods, nz


def _sampled_scan(h: tuple[UnivariatePoly, ...], samples: int | None = None) -> tuple[float, float | None, tuple]:
    """The smallest root modulus of h(., y) over ``samples`` (default
    SCAN_SAMPLES) Chebyshev y values and the endpoints, the y where it
    occurs, and the y values at which the top coefficient vanishes."""
    samples = SCAN_SAMPLES if samples is None else samples
    ys = np.cos(np.pi * (2 * np.arange(samples) + 1) / (2 * samples))
    ys = np.concatenate([ys, [-1.0, 1.0]])
    c = np.stack([np.broadcast_to(hi(ys), ys.shape) for hi in h], axis=1)  # row: z^0 .. z^N at ys[r]
    mods, nz = _min_moduli(c)
    drops = tuple(float(y) for y in ys[nz < c.shape[1]])
    k = int(np.argmin(mods))
    return float(mods[k]), float(ys[k]) if np.isfinite(mods[k]) else None, drops


# -- JSON config ------------------------------------------------------------


def spec_from_config(cfg: dict) -> WeightSpec:
    """Weight config: {"product": [a1, ...]} or {"generic_h": [[...], ...]}."""
    if "product" in cfg:
        a = [x for x in cfg["product"] if x != 0.0]
        return WeightSpec(factors=tuple(a))
    if "generic_h" in cfg:
        return generic_spec(cfg["generic_h"])
    raise InvalidWeightError("config needs a 'product' or 'generic_h' key")


def spec_to_config(spec: WeightSpec) -> dict:
    if spec.variant == PRODUCT_OMEGA:
        return {"product": list(spec.factors)}
    return {"generic_h": [[float(c) for c in hi.to_basis(MONOMIAL).coeffs] for hi in spec.h]}


def chebyshev_spec() -> WeightSpec:
    """The trivial weight h = 1 (product Chebyshev measure), as the empty
    product so all product-only constructions degenerate cleanly."""
    return WeightSpec(factors=())
