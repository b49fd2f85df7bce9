"""Monomial orderings and the orthonormal-system container."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .poly_core import BivariatePoly, poly_from_dict, poly_to_dict

TOTAL = "total"
LEX = "lex"
REVLEX = "revlex"


def td_key(idx: tuple[int, int]) -> tuple[int, int]:
    i, j = idx
    return (i + j, i)


def lex_key(idx: tuple[int, int]) -> tuple[int, int]:
    return idx


def revlex_key(idx: tuple[int, int]) -> tuple[int, int]:
    i, j = idx
    return (j, i)


_KEYS = {TOTAL: td_key, LEX: lex_key, REVLEX: revlex_key}


def index_sequence(ordering: str, n: int, m: int | None = None) -> list[tuple[int, int]]:
    """Ordered (x-degree, y-degree) pairs: total degree <= n, or the
    rectangular window 0..n by 0..m for lex/revlex."""
    if ordering == TOTAL:
        idx = [(i, j) for d in range(n + 1) for i in range(d + 1) for j in [d - i]]
        return sorted(idx, key=td_key)
    if m is None:
        raise ValueError("lex/revlex orderings need the window bound m")
    idx = [(i, j) for i in range(n + 1) for j in range(m + 1)]
    return sorted(idx, key=_KEYS[ordering])


@dataclass
class OrthoSystem:
    """An ordered list of orthonormal polynomials tagged with its ordering.

    ``norms`` holds the pre-normalization norms consumed when each entry
    was scaled to unit length.
    """

    ordering: str
    entries: list[tuple[tuple[int, int], BivariatePoly]] = field(default_factory=list)
    norms: list[float] = field(default_factory=list)

    def poly(self, idx: tuple[int, int]) -> BivariatePoly:
        for k, p in self.entries:
            if k == tuple(idx):
                return p
        raise KeyError(f"no entry at index {idx}")

    def indices(self) -> list[tuple[int, int]]:
        return [k for k, _ in self.entries]

    def slice_first(self, n: int) -> "OrthoSystem":
        """Entries whose x-index equals n (a lex vector), or total degree n
        for the total ordering."""
        if self.ordering == TOTAL:
            keep = [(k, p) for k, p in self.entries if sum(k) == n]
        else:
            pos = 0 if self.ordering == LEX else 1
            keep = [(k, p) for k, p in self.entries if k[pos] == n]
        sub = OrthoSystem(self.ordering, keep)
        if self.norms:
            all_idx = self.indices()
            sub.norms = [self.norms[all_idx.index(k)] for k, _ in keep]
        return sub

    def to_dict(self) -> dict:
        return {
            "ordering": self.ordering,
            "entries": [{"index": list(k), "poly": poly_to_dict(p)} for k, p in self.entries],
            "norms": [float(v) for v in self.norms],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_dict(d: dict) -> "OrthoSystem":
        sys = OrthoSystem(d["ordering"])
        for e in d["entries"]:
            sys.entries.append((tuple(e["index"]), poly_from_dict(e["poly"])))
        sys.norms = list(d.get("norms", []))
        return sys


def leading_sign_fix(p: BivariatePoly, idx: tuple[int, int]) -> BivariatePoly:
    """Flip the sign so the coefficient at the leading basis slot is positive."""
    i, j = idx
    c = p.coeffs
    if i < c.shape[0] and j < c.shape[1] and float(c[i, j]) < 0.0:
        return p.scale(-1.0)
    return p
