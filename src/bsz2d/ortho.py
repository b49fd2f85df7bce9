"""Monomial orderings and the orthonormal-system container."""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np

from .poly_core import CHEB_U, BivariatePoly, _extents, _padded, _square

TOTAL = "total"
LEX = "lex"
REVLEX = "revlex"


def index_sequence(ordering: str, n: int, m: int | None = None) -> list[tuple[int, int]]:
    """Ordered (x-degree, y-degree) pairs: total degree <= n (by degree,
    then x-degree), or the rectangular window 0..n by 0..m for lex (by
    x-degree, then y-degree) or revlex (by y-degree, then x-degree)."""
    if ordering not in (TOTAL, LEX, REVLEX):
        raise ValueError(f"unknown ordering {ordering!r}: use {TOTAL}, {LEX} or {REVLEX}")
    if n < 0 or (m is not None and m < 0):
        raise ValueError("index bounds n and m must be nonnegative")
    if ordering == TOTAL:
        return [(i, d - i) for d in range(n + 1) for i in range(d + 1)]
    if m is None:
        raise ValueError("lex/revlex orderings need the window bound m")
    if ordering == LEX:
        return [(i, j) for i in range(n + 1) for j in range(m + 1)]
    return [(i, j) for j in range(m + 1) for i in range(n + 1)]


class OrthoSystem:
    """An ordered orthonormal system tagged with its ordering.

    The system is one read-only (K, s, s) tensor ``coeffs``: ``coeffs[k]``
    holds the tensor Chebyshev-U coefficients of the k-th polynomial, whose
    leading slot is ``indices()[k]``, zero-padded to the smallest s x s
    square (s >= 1) that holds every trimmed grid.  The constructor takes
    the tensor it is given (a copy only when it must pad or cut it) and
    trims the whole stack in one pass.  ``norms`` holds the
    pre-normalization norms consumed when each polynomial was scaled to
    unit length (empty for a system read without them).  The
    ``BivariatePoly`` entries are built on first use, each a view of its
    trimmed grid.
    """

    def __init__(self, ordering: str, indices, coeffs: np.ndarray, norms=()):
        self.ordering = ordering
        self._indices = [tuple(idx) for idx in indices]
        nx, ny = _extents(coeffs)
        T = np.ascontiguousarray(_square(coeffs, max(1, int(nx.max(initial=0)), int(ny.max(initial=0)))))
        T.setflags(write=False)
        self.coeffs = T
        self._shapes = list(zip(nx.tolist(), ny.tolist()))
        self.norms = np.array(norms, dtype=float)
        self.norms.setflags(write=False)

    @cached_property
    def entries(self) -> tuple[tuple[tuple[int, int], BivariatePoly], ...]:
        return tuple(
            (idx, BivariatePoly._wrap(CHEB_U, self.coeffs[k, :nx, :ny]))
            for k, (idx, (nx, ny)) in enumerate(zip(self._indices, self._shapes))
        )

    def poly(self, idx: tuple[int, int]) -> BivariatePoly:
        try:
            return self.entries[self._indices.index(tuple(idx))][1]
        except ValueError:
            raise KeyError(f"no entry at index {idx}") from None

    def indices(self) -> list[tuple[int, int]]:
        return list(self._indices)

    def slice_first(self, n: int) -> "OrthoSystem":
        """Entries whose x-index equals n (a lex vector), the y-index for
        revlex, or total degree n for the total ordering."""
        pos = 0 if self.ordering == LEX else 1
        keep = [k for k, idx in enumerate(self._indices) if (sum(idx) if self.ordering == TOTAL else idx[pos]) == n]
        norms = self.norms[keep] if len(self.norms) else ()
        return OrthoSystem(self.ordering, [self._indices[k] for k in keep], self.coeffs[keep], norms)

    def to_dict(self) -> dict:
        return {
            "ordering": self.ordering,
            "entries": [
                {"index": list(k), "poly": {"basis": p.basis, "coeffs": p.coeffs.tolist()}} for k, p in self.entries
            ],
            "norms": self.norms.tolist(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_dict(d: dict) -> "OrthoSystem":
        grids = [BivariatePoly(e["poly"]["basis"], e["poly"]["coeffs"]).to_basis(CHEB_U).coeffs for e in d["entries"]]
        s = max([1] + [max(g.shape) for g in grids])
        coeffs = _padded(grids, (s, s))
        return OrthoSystem(d["ordering"], [e["index"] for e in d["entries"]], coeffs, d.get("norms", []))
