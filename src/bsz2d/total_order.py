"""Total-degree orthonormal vectors P_n.

For k at or above the threshold ceil((N-2)/2) the component of leading
monomial x^k y^{n-k} is the closed form q_k(x, y) U_{n-k}(y), normalized
under the probability-normalized measure.  Below the threshold no closed
form exists in general and the component comes from oracle Gram-Schmidt.
"""

from __future__ import annotations

import numpy as np

from .moment_oracle import MomentOracle, oracle_for
from .ortho import TOTAL, OrthoSystem
from .poly_core import BivariatePoly, mul, u_index
from .szego_core import build_qk, low_band_threshold
from .weights import WeightSpec


def total_threshold(spec: WeightSpec) -> int:
    """First k whose total-degree component has the closed product form."""
    return low_band_threshold(spec.n_h)


def build_total_component(spec: WeightSpec, n: int, k: int) -> BivariatePoly:
    """Unit-norm component of P_n with leading monomial x^k y^{n-k}.

    Only valid at or above the closed-form threshold; the normalization
    constant always comes from quadrature.
    """
    k0 = total_threshold(spec)
    if not (k0 <= k <= n):
        raise ValueError(f"need {k0} <= k <= {n}; use build_total_low below the threshold")
    p = _raw_total_component(spec, n, k)
    orc = oracle_for(spec)
    unit, _ = orc.normalized(p, (k, n - k))
    return unit


def _raw_total_component(spec: WeightSpec, n: int, k: int) -> BivariatePoly:
    """q_k(x, y) U_{n-k}(y), un-normalized."""
    uy = BivariatePoly.from_separable(u_index(0), u_index(n - k))
    return mul(build_qk(spec, k), uy)


def build_total_low(spec: WeightSpec, n: int, k: int) -> BivariatePoly:
    """Unit-norm component below the closed-form threshold, from oracle
    Gram-Schmidt against all smaller monomials in the total-degree order."""
    k0 = total_threshold(spec)
    if not (0 <= k < k0):
        raise ValueError(f"build_total_low handles 0 <= k < {k0}")
    orc = oracle_for(spec)
    system = orc.gram_schmidt(TOTAL, n)
    return system.poly((k, n - k))


def build_total_vector(spec: WeightSpec, n: int, oracle: MomentOracle | None = None) -> OrthoSystem:
    """The (n+1)-component orthonormal vector P_n, ordered by ascending k.

    Cached by the oracle, beside its Gram-Schmidt systems.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    orc = oracle_for(spec) if oracle is None else oracle
    return orc._memo(("total vector", n), lambda: _total_vector(spec, n, orc))


def _total_vector(spec: WeightSpec, n: int, orc: MomentOracle) -> OrthoSystem:
    k0 = total_threshold(spec)
    low = orc.gram_schmidt(TOTAL, n) if k0 > 0 else None
    out = OrthoSystem(TOTAL)
    for k in range(n + 1):
        idx = (k, n - k)
        if k < k0:
            p = low.poly(idx)
            all_idx = low.indices()
            nrm = low.norms[all_idx.index(idx)] if low.norms else float("nan")
        else:
            raw = _raw_total_component(spec, n, k)
            p, nrm = orc.normalized(raw, idx)
        out.entries.append((idx, p))
        out.norms.append(float(nrm))
    return out


def gram_deviation(spec: WeightSpec, system: OrthoSystem) -> float:
    """Max deviation of the oracle Gram matrix of ``system`` from identity."""
    orc = oracle_for(spec)
    polys = [p for _, p in system.entries]
    G = np.array([[orc.inner(p, q) for q in polys] for p in polys])
    return float(np.max(np.abs(G - np.eye(len(polys))))) if polys else 0.0
