"""The lexicographical high band, built two independent ways.

On the window Pi_{n,m}, slots (r, k) with k <= m - kappa are simply
q_r(x, y) U_k(y).  The last N_f slots of each row mix the q and q~
families; the mixing coefficients come either from a nullspace solve
(kill every tensor-Chebyshev slot that is out of window or beyond the
target), or from the step-by-step elimination that tracks the Laurent
image of the combination and cancels its w^{-(m+1)} term at each step.
Both must produce the same polynomial, and so must the whole-window
system ``lex_system`` builds.
"""

import numpy as np

from bsz2d.lex_order import build_lex_high, build_lex_high_recursion, eliminate, lex_system
from bsz2d.weights import product_spec


def main():
    spec = product_spec([0.5, -0.3])
    m = 5
    print("spec:", spec)
    print(f"window column m = {m}: low band k <= {m - spec.kappa}, "
          f"high band k in {list(range(m - spec.n_f + 1, m + 1))}")

    r, k = 5, 5
    print(f"\nelimination walk to slot (r, k) = ({r}, {k}):")
    state = eliminate(spec, r, k, m)
    print("  cancellation constants k_j:", np.round(state.ks, 6))
    print("  final homogeneous factor gamma:", np.round(state.gamma, 6))
    for kind, label in (("q", "q_alpha U_beta(y)"), ("qt", "q~_beta U_alpha(x)")):
        terms = {(a, b): c for (t, a, b), c in state.s_atoms.items() if t == kind}
        print(f"  {label} terms (alpha, beta): coefficient:",
              {ab: round(c, 6) for ab, c in sorted(terms.items())})
    img = state.s_image().prune(1e-10)
    print("  lowest surviving w-exponent in the image:",
          min(b for _, b in img.support))

    direct = build_lex_high(spec, r, k, m)
    recursed = build_lex_high_recursion(spec, r, k, m)
    window = lex_system(spec, r, m).poly((r, k))
    dev = float(np.max(np.abs((direct - recursed).coeffs), initial=0.0))
    print(f"\nnullspace vs recursion coefficient deviation: {dev:.2e}")
    dev = float(np.max(np.abs((direct - window).coeffs), initial=0.0))
    print(f"nullspace vs lex_system slot deviation: {dev:.2e}")


if __name__ == "__main__":
    main()
