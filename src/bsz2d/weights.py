"""Weight specifications and stability certification.

A weight is determined by a polynomial h(z, y) = sum_i h_i(y) z^i that is
stable (zero free on |z| <= 1) for every y in [-1, 1].  Two views exist:

* generic: the list of coefficient polynomials h_i(y) is given directly;
* product: h is a product of quadratic factors (1 + 2 a_i y z + a_i^2 z^2)
  coming from the bidisk-stable factorization prod_i (1 + a_i z w); the
  raw parameters a_i are stored and the generic expansion is cached.

The reflected weight h~(x, w) swaps the roles of (z, y) and (w, x); for
product specs it has the same factor parameters.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

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
# companion matrices of a sampled stability certificate
MAX_BLOCK_BYTES = 2**27


class ResourceLimitError(ValueError):
    """A request exceeds a size cap; raised before anything is allocated."""


def _cap_bytes(doubles: int, what: str):
    if 8 * doubles > MAX_BLOCK_BYTES:
        raise ResourceLimitError(
            f"{what} needs {8 * doubles / 2**20:.0f} MiB, over the cap MAX_BLOCK_BYTES = {MAX_BLOCK_BYTES >> 20} MiB"
        )


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    min_modulus: float
    witness_y: float | None
    method: str  # "analytic" or "sampled"
    degree_drops: tuple[float, ...]
    tol: float


def _degree_bound(n_h: int, i: int) -> float:
    return n_h / 2 - abs(n_h / 2 - i)


class WeightSpec:
    """Weight specification; immutable after construction.

    ``factors`` is None for generic specs.  ``h`` is the list of
    UnivariatePoly coefficients of z^0 .. z^{N_h} (monomial basis in y).
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

    @property
    def n_h(self) -> int:
        return len(self.h) - 1

    @cached_property
    def kappa(self) -> int:
        degs = [hi.deg for hi in self.h if not hi.is_zero]
        return int(max((d for d in degs), default=0))

    @cached_property
    def stability(self) -> StabilityReport:
        """``is_stable(self)`` at its default arguments, computed once."""
        return is_stable(self)

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


def omega_laurent(spec: WeightSpec) -> dict[tuple[int, int], float]:
    """Laurent table of omega(z, w) = prod_i (1 + a_i z w); support {(i, i)}."""
    coeffs = {(0, 0): 1.0}
    for a in spec.factors:
        new: dict[tuple[int, int], float] = {}
        for (p, q), v in coeffs.items():
            new[(p, q)] = new.get((p, q), 0.0) + v
            new[(p + 1, q + 1)] = new.get((p + 1, q + 1), 0.0) + v * a
        coeffs = new
    return coeffs


def homogeneous_corner(spec: WeightSpec) -> np.ndarray:
    """Coefficients gamma_i of w^{N_f} omega(z, 1/w) = sum_i gamma_i z^i w^{N_f - i}.

    These are the elementary symmetric functions of the factor parameters.
    """
    g = np.zeros(spec.n_f + 1)
    g[0] = 1.0
    for a in spec.factors:
        g[1:] = g[1:] + a * g[:-1].copy()
    return g


def is_stable(spec: WeightSpec, y_samples: int = 129, tol: float = 1e-9) -> StabilityReport:
    """Certify h(., y) zero-free on |z| <= 1 for all y in [-1, 1].

    Product specs are certified analytically: every factor has both roots
    of modulus 1/|a_i| > 1 uniformly in y.  Generic specs are sampled on a
    Chebyshev y-grid (plus the endpoints); this is a numerical
    certificate with an explicit margin, not a proof.  Companion matrices
    above MAX_BLOCK_BYTES raise ResourceLimitError before they exist.
    """
    if y_samples < 2:
        raise ValueError("y_samples must be >= 2")
    if spec.variant == PRODUCT_OMEGA:
        mods = [1.0 / abs(a) for a in spec.factors]
        mn = min(mods, default=float("inf"))
        return StabilityReport(mn > 1.0 + tol, mn, None, "analytic", (), tol)

    ys = np.cos(np.pi * (2 * np.arange(y_samples) + 1) / (2 * y_samples))
    ys = np.concatenate([ys, [-1.0, 1.0]])
    c = np.stack([np.broadcast_to(hi(ys), ys.shape) for hi in spec.h], axis=1)  # row: z^0 .. z^N at ys[r]
    scale = np.max(np.abs(c), axis=1, keepdims=True)
    live = np.abs(c) > 1e-14 * scale
    live[:, 0] = True
    nz = c.shape[1] - np.argmax(live[:, ::-1], axis=1)  # effective length after trailing near-zeros
    mods = np.full(len(ys), np.inf)
    for n in np.unique(nz[nz > 1]):
        rows = np.flatnonzero(nz == n)
        # companion matrices of the reversed coefficients, as np.roots builds them
        p = c[rows, :n][:, ::-1]
        _cap_bytes(len(rows) * (n - 1) ** 2, f"a stack of {len(rows)} companion matrices of degree {n - 1}")
        comp = np.zeros((len(rows), n - 1, n - 1))
        comp[:, 0, :] = -p[:, 1:] / p[:, :1]
        comp[:, np.arange(1, n - 1), np.arange(n - 2)] = 1.0
        mods[rows] = np.min(np.abs(np.linalg.eigvals(comp)), axis=1)
    drops = tuple(float(y) for y in ys[nz < c.shape[1]])
    k = int(np.argmin(mods))
    min_mod, witness = float(mods[k]), float(ys[k]) if np.isfinite(mods[k]) else None
    return StabilityReport(min_mod > 1.0 + tol, min_mod, witness, "sampled", drops, tol)


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
