"""Seeded inputs, operations and correctness checks of the benchmark workloads.

A workload is a sequence of rounds.  Every round has the same make-up
(spec structures, resolution tiers, command mix), up to a rotation fixed
by the round number and one extra R=4096 request in cold_quadrature's
round 0; the seed only draws the parameters inside a round and the order
of its operations.  A run executes whole rounds, so any two runs see the
same proportions of work.

Only specs that ``is_stable`` certifies are drawn: the measure is defined
only for stable h.  Every oracle uses ``DEFAULT_TOL``.  Operations reach
the library through module attributes, so the traced run's wrappers see
every call.  Checks run outside the timed operation and compare against
references that do not come from the code path under test.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field

import numpy as np

from bsz2d import cli, examples_suite, moment_oracle, ortho, recurrence, total_order, weights
from bsz2d.poly_core import CHEB_U

TOL = moment_oracle.DEFAULT_TOL


@dataclass
class Op:
    kind: str
    params: dict
    spec: object = field(default=None, repr=False)


@dataclass
class Outcome:
    """What a check found: a digest of the outputs, named deviations, problems."""

    digest: str
    margins: dict[str, float]
    problems: list[str]


def _digest(*parts) -> str:
    h = hashlib.sha1()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p, dtype=float).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def _judge(margins: dict[str, tuple[float, float]], problems: list[str] | None = None) -> tuple[dict, list]:
    problems = list(problems or [])
    for name, (dev, tol) in margins.items():
        if not dev <= tol:
            problems.append(f"{name}: deviation {dev:.3e} above {tol:.1e}")
    return {k: float(v[0]) for k, v in margins.items()}, problems


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _product(rng: random.Random, n_f: int, top: tuple[float, float]) -> list[float]:
    """n_f factors: the largest |a| drawn from ``top``, the others below it."""
    lead = rng.uniform(*top)
    mags = [lead] + [rng.uniform(0.2, min(0.6, lead)) for _ in range(n_f - 1)]
    rng.shuffle(mags)
    return [rng.choice((-1.0, 1.0)) * m for m in mags]


def _ex2_rows(a: float, b: float) -> list[list[float]]:
    """z-rows of (1 - 2bz)(1 - 2ayz + a^2 z^2), as y-monomial coefficients."""
    return [[1.0], [-2.0 * b, -2.0 * a], [a * a, 4.0 * a * b], [-2.0 * a * a * b]]


def _generic_rows(rng: random.Random, n_h: int, rho: float) -> list[list[float]]:
    """Random coefficient rows within the degree bounds, rescaled so the
    sampled minimum root modulus is ``rho`` (h_i -> s^i h_i moves roots r -> r/s)."""
    rows = [[1.0]] + [
        [rng.uniform(-1.0, 1.0) for _ in range(int(n_h / 2 - abs(n_h / 2 - i)) + 1)] for i in range(1, n_h + 1)
    ]
    s = weights.is_stable(weights.generic_spec(rows)).min_modulus / rho
    return [[c * s**i for c in row] for i, row in enumerate(rows)]


def _stable_spec(params: dict):
    if "factors" in params:
        spec = weights.product_spec(params["factors"])
    else:
        spec = weights.generic_spec(params["rows"])
    report = weights.is_stable(spec)
    if not report.stable:
        raise ValueError(f"generator drew an unstable spec {params}")
    params["min_modulus"] = report.min_modulus
    params["n_h"] = spec.n_h
    return spec


def _max_abs(m) -> float:
    return float(np.max(np.abs(m), initial=0.0))


def _orthonormality(spec, polys) -> float:
    """max |<p_i, p_j> - delta_ij|, each inner product taken as c_i^T G c_j
    with G the oracle's tensor chebU Gram matrix, so without mul."""
    grids = [p.to_basis(CHEB_U).coeffs for p in polys]
    nx = max(g.shape[0] for g in grids)
    ny = max(g.shape[1] for g in grids)
    C = np.zeros((len(grids), nx, ny))
    for k, g in enumerate(grids):
        C[k, : g.shape[0], : g.shape[1]] = g
    C = C.reshape(len(grids), nx * ny)
    G = moment_oracle.oracle_for(spec, TOL).gram([(i, j) for i in range(nx) for j in range(ny)])
    return _max_abs(C @ G @ C.T - np.eye(len(grids)))


# ---------------------------------------------------------------------------
# blocks_ladder
# ---------------------------------------------------------------------------


class BlocksLadder:
    """Recurrence ladders over a small warm pool: total_blocks at levels
    1..L, then verify_total_structure at the frozen levels."""

    name = "blocks_ladder"
    probes = ("loop",)

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        rng = random.Random(f"{self.name}:{seed}")
        # (family, ladder top): the tops keep each rung under ~0.8 s and put the
        # median and the 90th percentile inside clusters of equal-cost rungs.
        self.pool = []
        for family, levels in (("ex1", 10), ("ex1", 10), ("ex4", 5), ("ex2", 8)):
            if family == "ex1":
                params = {"family": family, "factors": _product(rng, 1, (0.2, 0.6))}
            elif family == "ex4":
                params = {"family": family, "factors": _product(rng, 2, (0.2, 0.6))}
            else:
                a, b = _signed(rng, 0.2, 0.6), _signed(rng, 0.1, 0.3)
                params = {"family": family, "a": a, "b": b, "rows": _ex2_rows(a, b)}
            spec = _stable_spec(params)
            params["levels"] = levels
            self.pool.append((params, spec))
        for _, spec in self.pool:
            moment_oracle.oracle_for(spec, TOL).chebu_table(63)

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        ops = []
        for i in rng.sample(range(len(self.pool)), len(self.pool)):
            params, spec = self.pool[i]
            base = {"pool": i, **{k: v for k, v in params.items() if k != "rows"}}
            ops += [Op("total_blocks", {**base, "level": n}, spec) for n in range(1, params["levels"] + 1)]
            frozen = range(spec.n_h // 2 + 1, spec.n_h // 2 + 3)
            ops += [Op("verify_total_structure", {**base, "level": n}, spec) for n in frozen]
        return ops

    def probe_kind(self, op: Op) -> str:
        return "loop"

    def run(self, op: Op):
        if op.kind == "total_blocks":
            return recurrence.total_blocks(op.spec, op.params["level"])
        return recurrence.verify_total_structure(op.spec, op.params["level"])

    def check(self, op: Op, res) -> Outcome:
        p, n, spec = op.params, op.params["level"], op.spec
        if op.kind == "verify_total_structure":
            margins, problems = _judge(
                {
                    "structure violation": (max((abs(v[3]) for v in res.violations), default=0.0), 1e-8),
                    "three-term residual": (res.blocks.residual, 1e-9),
                },
                [] if res.ok else [f"structure verdict not ok: {res.violations[:3]}"],
            )
            return Outcome(_digest(res.ok, res.violations, sorted(res.seam.items())), margins, problems)
        m = {
            "three-term residual": (res.residual, 1e-9),
            "B symmetric": (max(_max_abs(res.b_x - res.b_x.T), _max_abs(res.b_y - res.b_y.T)), 1e-10),
        }
        if p["family"] == "ex1":
            a = -p["factors"][0]
            m["ex1 A_x"] = (_max_abs(res.a_x - examples_suite.ex1_a_x(a, n)), 1e-8)
            m["ex1 A_y"] = (_max_abs(res.a_y - examples_suite.half_identity(n)), 1e-8)
            m["ex1 B = 0"] = (max(_max_abs(res.b_x), _max_abs(res.b_y)), 1e-8)
        elif p["family"] == "ex2":
            want = np.zeros((n + 1, n + 1))
            want[:2, :2] = examples_suite.ex2_b_x1(p["a"], p["b"])
            m["ex2 B_x"] = (_max_abs(res.b_x - want), 1e-8)
            if n >= 2:
                m["ex2 B_y = 0"] = (_max_abs(res.b_y), 1e-8)
        elif n >= 2:
            # ex4: the k = 0 component of P_n is U_n(y) - a1 a2 U_{n-2}(y), a_i = -factor_i
            c = total_order.build_total_vector(spec, n).poly((0, n)).coeffs[0]
            m["ex4 V-type ratio"] = (abs(c[n - 2] / c[n] + p["factors"][0] * p["factors"][1]), 1e-8)
            m["ex4 V-type parity"] = (abs(c[n - 1] / c[n]), 1e-8)
        if n <= 3:
            m["orthonormality"] = (total_order.gram_deviation(spec, total_order.build_total_vector(spec, n)), 1e-10)
        margins, problems = _judge(m)
        return Outcome(_digest(res.a_x, res.b_x, res.a_y, res.b_y), margins, problems)


# ---------------------------------------------------------------------------
# cold_quadrature
# ---------------------------------------------------------------------------

# Largest |a| per chebU resolution tier, with margin from the tier edges.
TIERS = {256: (0.2, 0.6), 512: (0.72, 0.8), 1024: (0.92, 0.935), 2048: (0.955, 0.965), 4096: (0.975, 0.98)}
# Fresh specs of one round: (family, n_f or n_h, tier).
COLD_ROUND = (
    ("product", 1, 256),
    ("product", 2, 256),
    ("product", 3, 256),
    ("ex2", 3, 256),
    ("generic", 2, 256),
    ("generic", 3, 256),
    ("product", 1, 512),
    ("product", 2, 512),
    ("generic", 2, 512),
    ("product", 1, 1024),
    ("product", 2, 1024),
    ("product", 1, 2048),
)
# One request in four reopens an earlier spec, of these tiers.
REOPEN_TIERS = (256, 256, 512, 1024)
MOMENTS = ((1, 1), (2, 0), (0, 2), (2, 2))
GS_DEGREE = 5


def _moments_from_chebu(m1: np.ndarray) -> list[float]:
    """The MOMENTS from the chebU table: x = U_1/2 and x^2 = (U_2 + U_0)/4."""
    sq = np.array([1.0, 0.0, 1.0]) / 4.0
    lin = np.array([0.0, 0.5, 0.0])
    vec = {1: lin, 2: sq, 0: np.array([1.0, 0.0, 0.0])}
    return [float(vec[i] @ m1[:3, :3] @ vec[j]) for i, j in MOMENTS]


class ColdQuadrature:
    """Oracle requests on specs never seen before in the run, stratified by
    distance to the stability boundary, with a spill directory in use."""

    name = "cold_quadrature"
    probes = ("loop", "array")

    def __init__(self, seed: int, tmp: str):
        if not os.environ.get("BSZ2D_CACHE_DIR"):
            raise RuntimeError("cold_quadrature needs BSZ2D_CACHE_DIR set to a fresh directory")
        self.seed = seed
        self.seen: list[Op] = []
        self._next = self._make(0)

    def _fresh(self, rng: random.Random, family: str, size: int, tier: int) -> Op:
        p: dict = {"family": family, "tier": tier}
        top = TIERS[tier]
        if family == "product":
            p["factors"] = _product(rng, size, top)
        elif family == "ex2":
            p["a"], p["b"] = _signed(rng, *top), _signed(rng, 0.1, 0.3)
            p["rows"] = _ex2_rows(p["a"], p["b"])
        else:
            p["rho"] = 1.0 / rng.uniform(*top)
            p["rows"] = _generic_rows(rng, size, p["rho"])
        spec = _stable_spec(p)
        p["ys"] = [rng.uniform(-0.9, 0.9) for _ in range(3)]
        p["gs_degree"] = GS_DEGREE
        return Op("fresh", p, spec)

    def _make(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        ops = [self._fresh(rng, *slot) for slot in COLD_ROUND]
        rng.shuffle(ops)
        for k, op in enumerate(ops):
            op.params["id"] = f"{r}.{k}"
        for k, tier in enumerate(REOPEN_TIERS):
            # reopen a spec of this tier requested earlier in the run
            fresh = [o for o in ops if o.kind == "fresh"]
            pool = [o for o in self.seen + fresh if o.params["tier"] == tier]
            src = pool[rng.randrange(len(pool))]
            after = next((i + 1 for i, o in enumerate(ops) if o is src), 0)
            reopen = {**src.params, "id": f"{r}.reopen{k}", "reopen_of": src.params["id"]}
            ops.insert(rng.randint(after, len(ops)), Op("reopen", reopen, src.spec))
        if r == 0:
            top = self._fresh(rng, "product", 1, 4096)
            top.params["id"] = f"{r}.top"
            ops.append(top)
        return ops

    def round(self, r: int) -> list[Op]:
        ops = self._next if r == 0 else self._make(r)
        self.seen += [op for op in ops if op.kind == "fresh"]
        return ops

    def probe_kind(self, op: Op) -> str:
        # the weight grids dominate a cold table from R = 1024 on
        return "array" if op.kind == "fresh" and op.params["tier"] >= 1024 else "loop"

    def run(self, op: Op):
        p = op.params
        if op.kind == "fresh":
            orc = moment_oracle.oracle_for(op.spec, TOL)
        else:
            orc = moment_oracle.MomentOracle(op.spec, tol=TOL)
        m1 = orc.chebu_table(12).copy()
        moms = [orc.moment(i, j) for i, j in MOMENTS]
        slices = [[orc.univariate_moment(i, y) for i in (0, 2)] for y in p["ys"]]
        system = orc.gram_schmidt(ortho.TOTAL, p["gs_degree"])
        return m1, moms, slices, system

    def check(self, op: Op, res) -> Outcome:
        m1, moms, slices, system = res
        p = op.params
        m = {
            "chebU mass": (abs(m1[0, 0] - 1.0), 1e-12),
            "monomial vs chebU table": (max(abs(a - b) for a, b in zip(moms, _moments_from_chebu(m1))), 1e-9),
        }
        if p["family"] == "product":
            m["product table symmetric"] = (_max_abs(m1 - m1.T), 1e-9)
        if p["family"] == "ex2":
            ref = [examples_suite.ex2_marginal(p["a"], p["b"], y) for y in p["ys"]]
        elif p["family"] == "product" and len(p["factors"]) <= 2:
            a = [-f for f in p["factors"]] + [0.0]
            ref = [examples_suite.ex4_marginal(a[0], a[1], y) for y in p["ys"]]
        else:
            ref = None
        if ref is not None:
            m["slice mass closed form"] = (max(abs(s[0] - r) / r for s, r in zip(slices, ref)), 1e-9)
        m["orthonormality"] = (_orthonormality(op.spec, [q for _, q in system.entries]), 1e-9)
        margins, problems = _judge(m)
        coeffs = [q.coeffs for _, q in system.entries]
        return Outcome(_digest(m1, moms, slices, *coeffs), margins, problems)


# ---------------------------------------------------------------------------
# cli_mix
# ---------------------------------------------------------------------------

STRUCTURES = ("p1", "p2", "p3", "g2", "g3")
EXAMPLE_IDS = ("ex1", "ex2", "ex4", "remark_n4")
# Every round runs each of these windows once; the window sizes are fixed
# so that the seed changes the parameters, not the amount of work.  A round
# takes ~2.6 s at the reference speed, so a 12 s run stops mid-round.
LEX_WINDOWS = (
    (3, 3), (3, 5), (3, 8), (4, 4), (4, 6), (4, 8), (5, 3), (5, 5), (5, 7),
    (6, 4), (6, 6), (6, 8), (7, 3), (7, 5), (7, 7), (8, 4), (8, 5), (8, 6), (8, 8),
)
RECURRENCE_WINDOWS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4), (3, 3))


class CliMix:
    """The command-line pipeline, dispatched in process, one fresh spec per
    request: verify, lex / revlex windows, lex recurrences and examples."""

    name = "cli_mix"
    probes = ("loop",)

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp
        self._next = self._make(0)

    def _spec(self, rng: random.Random, structure: str, path: str) -> tuple[dict, object]:
        if structure[0] == "p":
            p = {"structure": structure, "factors": _product(rng, int(structure[1]), (0.2, 0.6))}
            cfg = {"product": p["factors"]}
        else:
            p = {"structure": structure, "rho": rng.uniform(1.7, 2.2)}
            p["rows"] = _generic_rows(rng, int(structure[1]), p["rho"])
            cfg = {"generic_h": p["rows"]}
        spec = _stable_spec(p)
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        p["weight"] = path
        return p, spec

    def _example_params(self, rng: random.Random, example_id: str) -> dict:
        if example_id == "ex1":
            return {"a": _signed(rng, 0.2, 0.6)}
        if example_id == "ex2":
            return {"a": _signed(rng, 0.2, 0.6), "b": _signed(rng, 0.1, 0.3)}
        if example_id == "ex4":
            return {"a1": _signed(rng, 0.2, 0.6), "a2": _signed(rng, 0.2, 0.6)}
        return {"b1": _signed(rng, 0.1, 0.4), "b2": _signed(rng, 0.1, 0.4), "a": _signed(rng, 0.2, 0.6)}

    def _make(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        plan = [("verify", STRUCTURES[r % len(STRUCTURES)], None), ("example", None, None)]
        plan += [("lex", STRUCTURES[k % len(STRUCTURES)], w) for k, w in enumerate(LEX_WINDOWS)]
        plan += [("recurrence", STRUCTURES[k % len(STRUCTURES)], w) for k, w in enumerate(RECURRENCE_WINDOWS)]
        ops = []
        for k, (cmd, structure, window) in enumerate(plan):
            report = os.path.join(self.tmp, f"report-{r}-{k}.json")
            if cmd == "example":
                example_id = EXAMPLE_IDS[r % len(EXAMPLE_IDS)]
                p = {"id": example_id, **self._example_params(rng, example_id), "depth": 4}
                args = ["example", "--id", example_id]
                for key, val in p.items():
                    if key not in ("id", "depth"):
                        args += [f"--{key}", repr(val)]
                args += ["--depth", "4"]
                spec = None
            else:
                p, spec = self._spec(rng, structure, os.path.join(self.tmp, f"weight-{r}-{k}.json"))
                args = [cmd, "--weight", p["weight"]]
                if cmd == "verify":
                    p["depth"] = 4 + r % 2
                    args += ["--depth", str(p["depth"])]
                elif cmd == "lex":
                    (p["n"], p["m"]), p["revlex"] = window, k % 2 == 1
                    args += ["--n", str(p["n"]), "--m", str(p["m"])] + (["--revlex"] if p["revlex"] else [])
                else:
                    p["n"], p["m"] = window
                    args += ["--ordering", "lex", "--n", str(p["n"]), "--m", str(p["m"])]
            p["report"] = report
            ops.append(Op(cmd, {**p, "args": args + ["--report", report]}, spec))
        rng.shuffle(ops)
        return ops

    def round(self, r: int) -> list[Op]:
        return self._next if r == 0 else self._make(r)

    def probe_kind(self, op: Op) -> str:
        return "loop"

    def run(self, op: Op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                cli.main(op.params["args"], standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        return code, out.getvalue()

    def check(self, op: Op, res) -> Outcome:
        code, stdout = res
        p = op.params
        with open(p["report"]) as fh:
            text = fh.read()
        problems = [] if code == 0 else [f"exit code {code}"]
        m: dict[str, tuple[float, float]] = {}
        if op.kind in ("verify", "example"):
            rep = json.loads(text)
            if rep["ok"] is not True:
                problems.append(f"{op.kind} report not ok")
            entries = rep["checks"] if op.kind == "verify" else rep["entries"]
            m[f"{op.kind} report margins"] = (max(e["margin"] for e in entries), 1e-7)
        elif op.kind == "lex":
            system = ortho.OrthoSystem.from_dict(json.loads(text))
            want = ortho.index_sequence(system.ordering, p["n"], p["m"])
            if system.indices() != want or system.ordering != ("revlex" if p["revlex"] else "lex"):
                problems.append("lex system has the wrong slots")
            m["orthonormality"] = (_orthonormality(op.spec, [q for _, q in system.entries]), 1e-8)
        else:
            verdict = json.loads(text)
            if verdict.get("ok") is False:
                problems.append("lex structure verdict not ok")
            blocks = _csv_blocks(stdout)
            a, b = blocks.get("A"), blocks.get("B")
            size = p["m"] + 1
            if a is None or b is None or a.shape != (size, size) or b.shape != (size, size):
                problems.append("recurrence blocks missing or misshaped")
            else:
                m["lex A lower triangular"] = (_max_abs(np.triu(a, 1)), 1e-8)
                m["lex B symmetric"] = (_max_abs(b - b.T), 1e-9)
        margins, problems = _judge(m, problems)
        report = json.loads(text)
        if isinstance(report, dict):
            report.pop("weight", None)  # the spec file's path differs between processes
        return Outcome(_digest(code, stdout, json.dumps(report, sort_keys=True)), margins, problems)


def _csv_blocks(text: str) -> dict[str, np.ndarray]:
    """The named matrices of the recurrence command's CSV output."""
    blocks: dict[str, list[list[float]]] = {}
    name = None
    for row in csv.reader(io.StringIO(text)):
        if not row:
            continue
        try:
            values = [float(v) for v in row]
        except ValueError:
            name = row[0]
            blocks[name] = []
            continue
        if name is not None:
            blocks[name].append(values)
    return {k: np.array(v) for k, v in blocks.items()}


WORKLOADS = {w.name: w for w in (BlocksLadder, ColdQuadrature, CliMix)}
