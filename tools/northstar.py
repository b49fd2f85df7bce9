"""North-star timings of bsz2d as a user runs it, written to one JSON file.

On the product weight [0.5, -0.3] it measures:

- ``total_blocks`` at n = 6, 10 and 14, on a fresh oracle and then warm;
- ``bsz2d verify --depth 5`` in process, fresh and then warm;
- ``bsz2d verify --depth 5`` as a process (``python -m bsz2d.cli``, the
  console script's entry point), wall time from spawn to exit;
- the peak RSS of every child process.

Each measurement runs in its own child process, with the checkout's ``src``
first on PYTHONPATH and one BLAS/OpenMP thread.  Every repeat runs the
measurements once, in the opposite order to the repeat before, and the file
holds the median and quartiles of each figure over the repeats, with the host
it ran on.  Only the standard library and numpy are needed.

    python tools/northstar.py --repeats 7 --out BENCH.json
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PRODUCT = [0.5, -0.3]
LEVELS = (6, 10, 14)
DEPTH = "5"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# name -> the child's argv after the interpreter; each is given --weight FILE
MEASUREMENTS = {
    **{f"total_blocks_n{n}": [os.path.abspath(__file__), "--child", "total_blocks", str(n)] for n in LEVELS},
    "verify_in_process": [os.path.abspath(__file__), "--child", "verify", DEPTH],
    "verify_process": ["-m", "bsz2d.cli", "verify", "--depth", DEPTH],
}
# ru_maxrss is in KiB on Linux and in bytes on macOS
RSS_PER_MB = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


def _child(kind: str, arg: str, weight: str) -> dict[str, float]:
    """The fresh and then the warm time of one call, in this process."""
    if kind == "total_blocks":
        from bsz2d.moment_oracle import MomentOracle
        from bsz2d.recurrence import total_blocks
        from bsz2d.weights import product_spec

        spec = product_spec(PRODUCT)
        orc = MomentOracle(spec)

        def call():
            total_blocks(spec, int(arg), oracle=orc)

    else:
        from bsz2d import cli

        def call():
            with redirect_stdout(io.StringIO()):
                cli.main(["verify", "--weight", weight, "--depth", arg], standalone_mode=False)

    out = {}
    for key in ("fresh_ms", "warm_ms"):
        t0 = time.perf_counter()
        call()
        out[key] = _ms(t0)
    return out


def _spawn(name: str, weight: str, env: dict[str, str]) -> dict[str, float]:
    """Run one child to its exit: the timings it prints (the report, for the
    CLI), its wall time from spawn to exit and its own peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *MEASUREMENTS[name], "--weight", weight], env=env, stdout=subprocess.PIPE, text=True)
    with proc.stdout:
        stdout = proc.stdout.read()
    # wait4, not Popen.wait, to read this child's resource usage alone
    _, status, usage = os.wait4(proc.pid, 0)
    wall_ms = _ms(t0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: the child exited with {proc.returncode}")
    out = json.loads(stdout)
    if name == "verify_process":
        if out["ok"] is not True:
            raise SystemExit(f"{name}: the verify report is not ok")
        out = {"wall_ms": wall_ms}
    out["peak_rss_mb"] = usage.ru_maxrss / RSS_PER_MB
    return out


def _summary(runs: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": runs}


def _host() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5, help="runs of every measurement (default 5)")
    ap.add_argument("--out", help="the JSON file to write")
    ap.add_argument("--child", nargs=2, metavar=("KIND", "ARG"), help=argparse.SUPPRESS)
    ap.add_argument("--weight", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(json.dumps(_child(*args.child, args.weight)))
        return
    if args.out is None or args.repeats < 1:
        ap.error("--out is required and --repeats must be at least 1")

    env = {**os.environ, **{v: "1" for v in THREAD_VARS}}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    names = list(MEASUREMENTS)
    runs: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    with tempfile.TemporaryDirectory() as tmp:
        weight = os.path.join(tmp, "weight.json")
        with open(weight, "w") as fh:
            json.dump({"product": PRODUCT}, fh)
        for r in range(args.repeats):
            for name in names if r % 2 == 0 else names[::-1]:
                for key, value in _spawn(name, weight, env).items():
                    runs[name].setdefault(key, []).append(value)
    result = {
        "host": _host(),
        "weight": {"product": PRODUCT},
        "repeats": args.repeats,
        "thread_vars": {v: "1" for v in THREAD_VARS},
        "measurements": {name: {key: _summary(v) for key, v in figures.items()} for name, figures in runs.items()},
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    for name, figures in result["measurements"].items():
        print(name, "  ".join(f"{key} {s['median']:.2f} [{s['q1']:.2f}, {s['q3']:.2f}]" for key, s in figures.items()))


if __name__ == "__main__":
    main()
