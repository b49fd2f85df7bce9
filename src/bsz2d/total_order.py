"""Total-degree orthonormal vectors P_n.

For k at or above the threshold ceil((N-2)/2) the component of leading
monomial x^k y^{n-k} is the closed form q_k(x, y) U_{n-k}(y), normalized
under the probability-normalized measure.  Below the threshold no closed
form exists in general and the component comes from oracle Gram-Schmidt.
``MomentOracle.assemble`` does both: it normalizes the closed components
in one batch and reads the others from one Cholesky factor, of the slots
of degree below n and those of level n up to the last fallback one.
"""

from __future__ import annotations

import numpy as np

from .moment_oracle import MomentOracle, _oracle, cap_system
from .ortho import TOTAL, OrthoSystem
from .poly_core import u_band
from .szego_core import low_band_threshold, qk_grid
from .weights import WeightSpec


def total_threshold(spec: WeightSpec) -> int:
    """First k whose total-degree component has the closed product form."""
    return low_band_threshold(spec.n_h)


def build_total_vector(spec: WeightSpec, n: int, oracle: MomentOracle | None = None) -> OrthoSystem:
    """The (n+1)-component orthonormal vector P_n, ordered by ascending k.

    Cached by the oracle.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    orc = _oracle(spec, oracle)
    return orc._memo(("total vector", n), lambda: _total_vector(spec, n, orc))


def _total_vector(spec: WeightSpec, n: int, orc: MomentOracle) -> OrthoSystem:
    cap_system(n + 1)  # before any closed-form grid is built
    slots = [(k, n - k) for k in range(n + 1)]
    # q_k(x, y) U_{n-k}(y) from the threshold on; the oracle builds the rest
    closed = {(k, n - k): u_band(qk_grid(spec, k), n - k, 1) for k in range(total_threshold(spec), n + 1)}
    return orc.assemble(TOTAL, slots, closed, n)


def gram_deviation(spec: WeightSpec, system: OrthoSystem, oracle: MomentOracle | None = None) -> float:
    """Max deviation of the oracle Gram matrix of ``system`` from identity."""
    orc = _oracle(spec, oracle)
    C = system.coeffs
    return float(np.max(np.abs(orc.coefficient_inner(C) - np.eye(len(C))))) if len(C) else 0.0
