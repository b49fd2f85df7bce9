"""The quadrature oracle: ground truth every closed form is checked against.

Moments are computed by the trapezoid rule after x = cos(theta),
y = cos(phi); the integrands become smooth periodic functions, so the
rule converges geometrically.  The resolution is doubled until the error
predicted from the contraction of successive increments meets the
tolerance.  A product weight's ladder starts at a quarter of the
resolution its rho = max |a_i| predicts for the tolerance, so a
near-boundary table skips the coarse rungs; every rung reads its sine
rows from one small shared cache.
The grids are nested, so each doubling evaluates the weight
only at the nodes the coarser grid lacks.  A product
weight is read on the grid from one line of the one-variable Szego weight
f, as f(theta + phi) f(theta - phi); a generic weight evaluates |h|^2.
Both give the same table for the same h.  The same machinery provides inner products, slice integrals at fixed y (one
ladder per y serves every degree, from a small per-oracle cache), and
brute-force Gram-Schmidt systems.
"""

import numpy as np

from bsz2d.moment_oracle import oracle_for
from bsz2d.ortho import TOTAL
from bsz2d.poly_core import MONOMIAL
from bsz2d.weights import generic_spec, product_spec


def main():
    spec = product_spec([-0.6])
    orc = oracle_for(spec)

    print("spec:", spec)
    print("raw weight mass:", round(orc.mass, 8), "(moments below are probability-normalized)")
    m, err = orc.moment_with_error(2, 2)
    print(f"moment x^2 y^2 = {m:.12f} (error estimate {err:.1e})")

    print("\nChebyshev-U moment table (4x4 corner):")
    print(np.array_str(orc.chebu_table(3), precision=6, suppress_small=True))

    same = generic_spec([h.to_basis(MONOMIAL).coeffs for h in spec.h])  # the same h, no product structure
    diff = np.max(np.abs(oracle_for(same).chebu_table(12) - orc.chebu_table(12)))
    print(f"product kernel vs generic kernel on the same h: max table difference {diff:.1e}")

    print("\nslice mass at a few y values (un-normalized slice measure):")
    for y in (-0.8, 0.0, 0.5):
        print(f"  y = {y:+.1f}: {orc.univariate_moment(0, y):.8f}")

    system = orc.gram_schmidt(TOTAL, 3)
    polys = [p for _, p in system.entries]
    G = np.array([[orc.inner(p, q) for q in polys] for p in polys])
    print("\nGram-Schmidt system to degree 3: gram deviation",
          f"{np.max(np.abs(G - np.eye(len(polys)))):.2e}")


if __name__ == "__main__":
    main()
