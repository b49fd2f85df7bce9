"""One workload in one fresh process: set-up, then a closed loop of operations.

Modes:
  setup  import, generate the first round, warm up, report when ready;
  run    then execute whole rounds until --seconds of op time have passed;
  trace  then execute exactly --rounds rounds with every span recorded.

Each operation is timed alone; its correctness check runs after the clock
stops (and, in trace mode, with recording paused).  An operation fails if
it raises or if its check finds a problem.  A speed probe runs before each
operation and around set-up, outside every timed span; each time is also
reported rescaled to a reference host speed (see PROBE_REF_S).
The result goes to --out as JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
import traceback

import numpy as np

# Shared hosts change speed by up to 2x for seconds at a time.  Interpreted
# code and large-array arithmetic slow down by different factors, and each
# follows a fixed probe of its own kind to within a few percent.  The probes
# a workload uses (its ``probes``) run before every op, and every time is also
# reported as wall time * PROBE_REF_S / probe time, with the probe of the kind
# of work that dominates the op (the workload's ``probe_kind``).
# Each probe's time on the reference host (2-CPU Xeon VM, fast state).
PROBE_REF_S = {"loop": 2.7e-3, "array": 2.7e-3}


@functools.cache
def _grid() -> np.ndarray:
    return np.exp(1j * np.linspace(0.0, 6.0, 512 * 512)).reshape(512, 512)


def probe(kind: str) -> float:
    """Seconds for a fixed kernel that never changes, so its time tracks how
    fast the host runs at that moment.  "loop": small fancy-indexed numpy
    updates in a Python loop.  "array": |z|^2 on a 512 x 512 complex grid
    and a matrix product with it."""
    grid = _grid() if kind == "array" else None
    t0 = time.perf_counter()
    if kind == "loop":
        a = np.zeros((16, 16))
        for i in range(300):
            xs = list(range(i % 7, i % 7 + 9, 2))
            ys = list(range(i % 5, i % 5 + 7, 2))
            a[np.ix_(xs, ys)] += 1.0
    else:
        v = (grid * grid.conj()).real
        v @ v[:64].T
    return time.perf_counter() - t0


def rescale(wall_s: float, probe_s: float, kind: str) -> float:
    return wall_s * PROBE_REF_S[kind] / probe_s


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--max-ops", type=int, default=0, help="stop after this many ops (0: no limit)")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    t_probe = time.monotonic()
    probe_start = probe("loop")
    probe_cost = time.monotonic() - t_probe

    import spans as span_trace
    import workloads

    recorder = span_trace.install() if args.mode == "trace" else None
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tmp)
    first = wl.round(0)
    ready = time.monotonic()
    result: dict = {
        "ready": ready,
        "probe_cost_s": probe_cost,
        "setup_probe_s": 0.5 * (probe_start + probe("loop")),
    }
    if args.mode == "setup":
        _write(args.out, result)
        return 0

    ops: list[dict] = []
    walls: list[float] = []
    measured = 0.0
    r = 0
    while True:
        if args.mode == "run" and r > 0 and measured >= args.seconds:
            break
        if args.mode == "trace" and r >= args.rounds:
            break
        if args.max_ops and len(ops) >= args.max_ops:
            break
        for op in first if r == 0 else wl.round(r):
            if args.max_ops and len(ops) >= args.max_ops:
                break
            rec = {"round": r, "kind": op.kind, "params": op.params, "probe_kind": wl.probe_kind(op)}
            rec["probes"] = {k: probe(k) for k in wl.probes}
            if recorder is not None:
                recorder.begin_op(len(ops))
            t0 = time.perf_counter()
            try:
                res = wl.run(op)
                err = None
            except Exception:
                err = traceback.format_exc(limit=4)
            t1 = time.perf_counter()
            if recorder is not None:
                recorder.end_op()
            rec["wall_s"] = t1 - t0
            measured += rescale(t1 - t0, rec["probes"][rec["probe_kind"]], rec["probe_kind"])
            if err is None:
                try:
                    outcome = wl.check(op, res)
                    rec.update(digest=outcome.digest, margins=outcome.margins, problems=outcome.problems)
                except Exception:
                    rec["problems"] = ["check raised: " + traceback.format_exc(limit=4)]
            else:
                rec["problems"] = ["op raised: " + err]
            rec["ok"] = not rec["problems"]
            ops.append(rec)
            walls.append(t1 - t0)
        r += 1

    # each op's speed is the mean of the probes just before and just after it
    after = [o["probes"] for o in ops[1:]] + [{k: probe(k) for k in wl.probes}]
    for rec, nxt in zip(ops, after):
        rec["probes"] = {k: 0.5 * (rec["probes"][k] + nxt[k]) for k in wl.probes}
        rec["ref_s"] = rescale(rec["wall_s"], rec["probes"][rec["probe_kind"]], rec["probe_kind"])
    result.update(
        rounds=r,
        ops=ops,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if recorder is not None:
        spans = recorder.arrays()
        result["layers"] = span_trace.layer_metrics(recorder.names, spans, walls)
        result["balance_s"] = span_trace.op_balance(spans, walls)
        result["spans"] = len(spans["t0"])
        if args.spans:
            recorder.save(args.spans)
    _write(args.out, result)
    return 0


def _write(path: str, obj: dict):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
