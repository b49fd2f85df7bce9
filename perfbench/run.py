"""The bsz2d benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Every workload runs in fresh child processes (``worker.py``)
with BLAS and OpenMP pinned to one thread, an address-space cap, and a
fresh scratch directory under ``.perfbench/`` that is removed afterwards.

--trace 0: six set-up-only children, then one child that runs whole
    rounds until S seconds of op time have passed; prints the end-to-end
    metrics.  Times are rescaled to a reference host speed (worker.py).
--trace 1: one untraced child for S seconds, then a traced child over the
    same rounds; prints the per-layer metrics, with the traced minus the
    untraced op time as the tracing overhead.  The spans are kept in
    ``.perfbench/traces/``.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only
if every operation passed its check (and, traced, if both runs agree).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("blocks_ladder", "cold_quadrature", "cli_mix")
SETUP_REPS = 6
CHILD_TIMEOUT_S = 150
# Above the ~0.55 GB an R=4096 table needs, so a memory regression fails ops
# with MemoryError instead of getting the process killed.
ADDRESS_SPACE_CAP = 2 * 1024**3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# worst_margin is reported as this floor plus the largest deviation, so its
# 0.1 relative bound is the 1e-12 absolute budget of the acceptance margins.
MARGIN_FLOOR = 1e-11

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "worst_margin": "abs",
}


class ChildError(RuntimeError):
    pass


def _limit_address_space():
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def spawn(workload: str, seed: int, mode: str, workdir: Path, tag: str, **opts) -> dict:
    """Run one worker process to completion and return its result."""
    out = workdir / f"{tag}.json"
    tmp = workdir / tag
    tmp.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.update({v: "1" for v in THREAD_VARS})
    env.pop("BSZ2D_CACHE_DIR", None)
    if workload == "cold_quadrature":
        env["BSZ2D_CACHE_DIR"] = str(tmp / "spill")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--mode", mode, "--tmp", str(tmp), "--out", str(out)]
    for key, val in opts.items():
        cmd += [f"--{key.replace('_', '-')}", str(val)]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            preexec_fn=_limit_address_space,
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"{workload} {mode} child exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise ChildError(f"{workload} {mode} child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    with open(out) as fh:
        res = json.load(fh)
    res["setup_s"] = res["ready"] - started - res["probe_cost_s"]
    res["setup_ref_s"] = worker.rescale(res["setup_s"], res["setup_probe_s"], "loop")
    return res


def end_to_end(main: dict, setups: list[dict]) -> tuple[dict, dict]:
    ops = main["ops"]
    walls = [o["ref_s"] for o in ops]
    deciles = statistics.quantiles(walls, n=10, method="inclusive")
    failed = sum(not o["ok"] for o in ops)
    worst = max((v for o in ops for v in o.get("margins", {}).values()), default=0.0)
    metrics = {
        "ops_per_s": len(ops) / sum(walls),
        "op_p50_ms": deciles[4] * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "setup_s": statistics.median([s["setup_ref_s"] for s in setups + [main]]),
        "peak_rss_mb": main["peak_rss_mb"],
        "ok_frac": (len(ops) - failed) / len(ops),
        "worst_margin": MARGIN_FLOOR + worst,
    }
    raw = [o["wall_s"] for o in ops]
    extra = {
        "samples": len(ops),
        "wall_ops_per_s": len(ops) / sum(raw),
        "wall_op_p50_ms": statistics.median(raw) * 1e3,
        "host_speed": {k: worker.PROBE_REF_S[k] / statistics.median(o["probes"][k] for o in ops) for k in ops[0]["probes"]},
        "samples_above_p90": sum(w > deciles[8] for w in walls),
        "rounds": main["rounds"],
        "fail_frac": failed / len(ops),
        "worst_deviation": worst,
        "setup_samples_s": [s["setup_s"] for s in setups + [main]],
    }
    return metrics, extra


def _failures(ops: list[dict]) -> list[str]:
    return [f"op {k} ({o['kind']} {o['params'].get('id', '')}): {o['problems'][0]}" for k, o in enumerate(ops) if not o["ok"]]


def main() -> int:
    ap = argparse.ArgumentParser(description="bsz2d benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "bsz2d" / "__init__.py").is_file():
        print(f"no bsz2d sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=state))
    try:
        if args.trace == 0:
            setups = [spawn(args.workload, args.seed, "setup", workdir, f"setup{i}") for i in range(SETUP_REPS)]
            run = spawn(args.workload, args.seed, "run", workdir, "run", seconds=args.seconds)
            metrics, extra = end_to_end(run, setups)
            ops, units = run["ops"], E2E_UNITS
            problems = _failures(ops)
        else:
            (state / "traces").mkdir(exist_ok=True)
            spans = state / "traces" / f"{args.workload}-seed{args.seed}.npz"
            run = spawn(args.workload, args.seed, "run", workdir, "run", seconds=args.seconds)
            traced = spawn(args.workload, args.seed, "trace", workdir, "trace", rounds=run["rounds"], spans=spans)
            ops = traced["ops"]
            problems = _failures(run["ops"]) + _failures(ops)
            if [o.get("digest") for o in run["ops"]] != [o.get("digest") for o in ops]:
                problems.append("traced and untraced runs produced different outputs")
            if traced["balance_s"] > 1e-6:
                problems.append(f"self times miss op wall time by {traced['balance_s']:.3e} s")
            metrics = dict(traced["layers"])
            metrics["trace.overhead_s"] = sum(o["ref_s"] for o in ops) - sum(o["ref_s"] for o in run["ops"])
            units = {k: _layer_unit(k) for k in metrics}
            extra = {"samples": len(ops), "rounds": traced["rounds"], "spans": traced["spans"], "span_file": str(spans)}
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not o["ok"] for o in ops)
    correct = not problems
    record = state / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(exist_ok=True)
    with open(record, "w") as fh:
        json.dump({"args": vars(args), "metrics": metrics, "extra": extra, "problems": problems, "ops": ops}, fh)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(ops)} ops in {extra['rounds']} rounds")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {units[name]}")
    for name, value in extra.items():
        if name not in ("rounds",):
            print(f"  {name:44s} {value}")
    print(f"  record: {record}")
    for line in problems[:10]:
        print(f"  FAIL {line}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
