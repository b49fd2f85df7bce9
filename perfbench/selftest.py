"""Self-test of the benchmark on a tiny seeded run.

    python3 perfbench/selftest.py

Checks that
  1. a traced worker produces the same outputs as an untraced one, op for op,
     and that each op's self times plus its unattributed time add up to the
     op's wall time;
  2. counts that follow by hand from the calls made are exact: a repeated
     build_total_vector or gram_schmidt call is a hit, a warm oracle has no
     table misses, a cold table costs the grid points of its doublings, a
     reopened oracle reads its spill, mul counts nnz(p) * nnz(q) pairs.
Exits nonzero on the first failure.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import run

TINY_OPS = {"blocks_ladder": 5, "cold_quadrature": 6, "cli_mix": 32}  # cli_mix: a whole round
BALANCE_S = 1e-6


def expect(cond: bool, what: str):
    if not cond:
        raise AssertionError(what)
    print(f"PASS {what}")


def traced_matches_untraced(workdir: Path):
    for workload, k in TINY_OPS.items():
        plain = run.spawn(workload, 7, "run", workdir, f"{workload}-plain", seconds=1e9, max_ops=k)
        traced = run.spawn(workload, 7, "trace", workdir, f"{workload}-traced", rounds=k, max_ops=k)
        expect(all(o["ok"] for o in plain["ops"] + traced["ops"]), f"{workload}: all {k} tiny ops pass their checks")
        same = [o["digest"] for o in plain["ops"]] == [o["digest"] for o in traced["ops"]]
        expect(same and len(traced["ops"]) == k, f"{workload}: traced and untraced outputs are identical")
        expect(traced["balance_s"] <= BALANCE_S, f"{workload}: self times sum to op wall ({traced['balance_s']:.1e} s)")


def hand_counts(spill_dir: Path):
    os.environ["BSZ2D_CACHE_DIR"] = str(spill_dir)
    sys.path.insert(0, str(run.ROOT / "src"))
    import spans

    rec = spans.install()
    from bsz2d import lex_order, moment_oracle, ortho, poly_core, total_order, weights

    def layers(fn):
        for arr in (rec.name, rec.t0, rec.t1, rec.parent, rec.op, rec.count):
            del arr[:]
        rec.begin_op(0)
        t0 = perf_counter()
        fn()
        wall = perf_counter() - t0
        rec.end_op()
        arrays = rec.arrays()
        expect(spans.op_balance(arrays, [wall]) <= BALANCE_S, "self times sum to op wall")
        return spans.layer_metrics(rec.names, arrays, [wall])

    spec = weights.product_spec([0.5])
    warm = moment_oracle.oracle_for(spec)
    warm.chebu_table(63)

    m = layers(lambda: [total_order.build_total_vector(spec, 3) for _ in range(2)])
    expect(m["total_order.build_total_vector.calls"] == 2, "build_total_vector: two calls")
    expect(m["total_order.build_total_vector.hits"] == 1, "build_total_vector: the repeat is a hit")

    m = layers(lambda: [warm.gram_schmidt(ortho.TOTAL, 3) for _ in range(2)])
    expect(m["moment_oracle.gram_schmidt.calls"] == 2, "gram_schmidt: two calls")
    expect(m["moment_oracle.gram_schmidt.hits"] == 1, "gram_schmidt: the repeat is a hit")
    expect(m["moment_oracle.gram.entries"] == 10**2, "gram: 10 total-degree slots give 100 entries")

    m = layers(lambda: warm.chebu_table(10))
    expect(m["moment_oracle.table.calls"] == 1, "warm oracle: one table call")
    expect(m["moment_oracle.table.misses"] == 0, "warm oracle: no table misses")
    expect(m["weights.h_abs2.calls"] == 0, "warm oracle: no weight evaluations")

    cold = weights.product_spec([0.55])
    m = layers(lambda: moment_oracle.MomentOracle(cold).chebu_table(10))
    expect(m["moment_oracle.table.misses"] == 1, "cold oracle: one table miss")
    expect(m["weights.h_abs2.points"] == 128**2 + 256**2, "cold oracle: grids 128 and 256 evaluated")
    expect(m["moment_oracle.spill.reads"] == 0, "cold oracle: nothing to read from the spill")

    m = layers(lambda: moment_oracle.MomentOracle(cold).chebu_table(10))
    expect(m["moment_oracle.spill.reads"] == 1, "reopened oracle: reads its spill")
    expect(m["moment_oracle.table.misses"] == 0, "reopened oracle: no table misses")

    p = poly_core.BivariatePoly(poly_core.CHEB_U, [[1.0, 2.0], [0.0, 3.0]])
    q = poly_core.BivariatePoly(poly_core.CHEB_U, [[1.0, 0.0, 1.0]])
    m = layers(lambda: poly_core.mul(p, q))
    expect(m["poly_core.mul.calls"] == 1 and m["poly_core.mul.pairs"] == 3 * 2, "mul: 3 x 2 nonzero pairs")

    m = layers(lambda: lex_order.lex_system(spec, 3, 3))
    slots = m["lex_order.closed_slots"] + m["lex_order.fallback_slots"]
    expect(m["lex_order.lex_system.calls"] == 1 and slots == 16, "lex_system: 4 x 4 window has 16 slots")


def main() -> int:
    state = run.ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=state))
    try:
        traced_matches_untraced(workdir)
        hand_counts(workdir / "spill")
    except (AssertionError, run.ChildError) as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
