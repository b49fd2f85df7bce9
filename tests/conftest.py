from collections import Counter

import numpy as np
import pytest

from bsz2d.moment_oracle import MomentOracle

# An N_h = 4 generic weight that is not stable, though the 131 y samples of the diagnostic
# scan read a minimum root modulus of 1.000001: a root pair dips to modulus 0.99996 near
# y = -0.371, crossing |z| = 1 at y = -0.3797 and -0.3615 (y-monomial coefficient rows)
CROSSING_ROWS = [
    [1.0],
    [-0.6698313147905028, 0.507915478674425],
    [-0.3095202433662152, 0.1606618284542834, 0.4985576735946885],
    [0.17387638567330999, -0.29904407476346323],
    [-0.12609160828825425],
]


@pytest.fixture()
def oracle_calls(monkeypatch) -> Counter:
    """Counts of the calls to MomentOracle.normalized, .gram_schmidt and
    ._orthonormalize (one per Cholesky factor) made during the test, by any oracle."""
    calls = Counter()
    for name in ("normalized", "gram_schmidt", "_orthonormalize"):
        real = getattr(MomentOracle, name)

        def counting(self, *args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(MomentOracle, name, counting)
    return calls


def chebu_mul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The tensor Chebyshev-U product of two coefficient grids, by the
    linearization rule U_a U_b = sum of U_c over c = |a-b|, |a-b|+2, ..., a+b
    applied term by term, over the nonzero terms, on both axes."""
    if a.size == 0 or b.size == 0:
        return np.zeros((0, 0))
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    terms_b = [(i2, j2, b[i2, j2]) for i2, j2 in zip(*np.nonzero(b))]
    for i1, j1 in zip(*np.nonzero(a)):
        c1 = a[i1, j1]
        for i2, j2, c2 in terms_b:
            out[abs(i1 - i2) : i1 + i2 + 1 : 2, abs(j1 - j2) : j1 + j2 + 1 : 2] += c1 * c2
    return out


def h_eval_reference(spec, z, y) -> np.ndarray:
    """h(z, y) = sum_i h_i(y) z^i in complex arithmetic, with complex z and
    real y broadcasting elementwise."""
    z = np.asarray(z, dtype=complex)
    y = np.asarray(y, dtype=float)
    acc = np.zeros(np.broadcast(z, y).shape, dtype=complex)
    zp = np.ones_like(z)
    for hi in spec.h:
        acc = acc + hi(y) * zp
        zp = zp * z
    return acc
