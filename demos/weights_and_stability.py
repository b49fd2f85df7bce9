"""Building weight specs and certifying their stability.

A weight is 1/|h(z, y)|^2 against the product Chebyshev measure, where
h(z, y) = sum_i h_i(y) z^i with h_0 = 1 and h nonvanishing on the closed
unit disk for every y in [-1, 1].  Two constructions are shown: the
product form prod_i (1 + 2 a_i y z + a_i^2 z^2), for which stability is
automatic, and a free coefficient table, for which stability is
certified by the resultant crossing test.  The minimum root modulus printed
beside the verdict is a sampled diagnostic, which can miss a root that dips
inside the disk between its samples; the test does not.
"""

import numpy as np

from bsz2d.weights import generic_spec, is_stable, product_spec, spec_to_config


def main():
    # product form: each factor contributes a conjugate root pair
    spec = product_spec([0.5, -0.3])
    print("product spec:", spec)
    print("  z-degree N_h =", spec.n_h, " factors N_f =", spec.n_f, " kappa =", spec.kappa)
    for i, hi in enumerate(spec.h):
        print(f"  h_{i}(y) =", np.round(hi.to_basis("monomial").coeffs, 6))
    rep = is_stable(spec)
    print("  stability:", rep.stable, f"(min root modulus {rep.min_modulus:.4f}, {rep.method})")

    # free coefficient table (a cubic h): no root crosses |z| = 1 for y in [-1, 1]
    gen = generic_spec([[1.0], [-0.6, -1.2], [0.36, 0.72], [-0.216]])
    rep = is_stable(gen)
    print("\ngeneric spec:", gen)
    print("  stability:", rep.stable, f"(min root modulus {rep.min_modulus:.4f}, {rep.method})")

    # an unstable weight is detected and reported with its witness
    bad = generic_spec([[1.0], [-2.0]])
    rep = is_stable(bad)
    print("\nunstable example 1 - 2z:")
    print(f"  stable = {rep.stable}, min modulus {rep.min_modulus:.4f} at y = {rep.witness_y}")

    # a root pair crosses |z| = 1 between the scan's samples: the scan reads 1.000001
    dip = generic_spec(
        [
            [1.0],
            [-0.6698313147905028, 0.507915478674425],
            [-0.3095202433662152, 0.1606618284542834, 0.4985576735946885],
            [0.17387638567330999, -0.29904407476346323],
            [-0.12609160828825425],
        ]
    )
    rep = is_stable(dip)
    print("\nN_h = 4 spec with a crossing between samples:")
    print(f"  stable = {rep.stable} ({rep.method}), a root on |z| = 1 at y = {rep.crossing_y:.4f}")
    print(f"  sampled min modulus {rep.min_modulus:.6f}")

    # specs serialize to plain JSON-able configs for the CLI
    print("\nCLI config for the product spec:", spec_to_config(spec))


if __name__ == "__main__":
    main()
