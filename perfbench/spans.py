"""In-memory span recorder for the traced benchmark run.

``install()`` wraps the public functions of every ``bsz2d`` module, plus
the methods that are layers of their own, and rebinds every name another
module imported (``mul`` in ``recurrence``, ``build_total_vector`` in
``cli`` and so on), so that a call reaches the wrapper whichever module
makes it.  A span is (name, start, end, parent span, op id, count); it is
recorded only between ``begin_op`` and ``end_op``, so set-up and the
correctness checks leave no spans.  ``layer_metrics`` turns the spans into
the per-layer metrics; a layer's self time is its span time minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = (
    "weights",
    "poly_core",
    "ortho",
    "szego_core",
    "moment_oracle",
    "total_order",
    "lex_order",
    "recurrence",
    "examples_suite",
    "cli",
)

# Methods traced beside the modules' public functions: the polynomial
# arithmetic, the weight evaluation and every entry point of the oracle.
METHODS = {
    "poly_core": {"BivariatePoly": ("__add__", "scale")},
    "weights": {"WeightSpec": ("h_abs2",)},
    "moment_oracle": {
        "MomentOracle": (
            "__init__",
            "chebu_table",
            "moment_with_error",
            "moment",
            "univariate_moment",
            "univariate_chebu_moments",
            "slice_inner",
            "inner",
            "norm",
            "normalized",
            "gram",
            "gram_schmidt",
        )
    },
}

# oracle_for is a dict lookup; an oracle it builds shows as MomentOracle.__init__.
# Tracing it would give every build_total_vector cache hit a child span.
SKIP = {"moment_oracle.oracle_for"}

MUL = "poly_core.mul"
ADD = ("poly_core.BivariatePoly.__add__", "poly_core.BivariatePoly.scale")
H_ABS2 = "weights.WeightSpec.h_abs2"
INIT = "moment_oracle.MomentOracle.__init__"
TABLE = ("moment_oracle.MomentOracle.chebu_table", "moment_oracle.MomentOracle.moment_with_error")
GRAM = "moment_oracle.MomentOracle.gram"
GS = "moment_oracle.MomentOracle.gram_schmidt"
INNER = "moment_oracle.MomentOracle.inner"
NORMALIZED = "moment_oracle.MomentOracle.normalized"
QK = "szego_core.build_qk"
TOTAL_VECTOR = "total_order.build_total_vector"
LEX_SYSTEM = "lex_order.lex_system"
HIGH_BAND = "lex_order.high_band_coefficients"
TOTAL_BLOCKS = "recurrence.total_blocks"
LEX_BLOCKS = "recurrence.lex_blocks"
VERIFY = ("recurrence.verify_total_structure", "recurrence.verify_lex_structure")
CLI_MAIN = "cli.main"
REGRESSION = "examples_suite.run_regression"


def _mul_pairs(p, q, *_, **__):
    return int(np.count_nonzero(p.coeffs)) * int(np.count_nonzero(q.coeffs))


def _grid_points(_self, theta, y, *_, **__):
    return int(np.broadcast(np.asarray(theta), np.asarray(y)).size)


def _gram_entries(_self, indices, *_, **__):
    return len(indices) ** 2


def _lex_slots(_spec, n, m, *_, **__):
    return (n + 1) * (m + 1)


def _oracle_id(self, *_, **__):
    return id(self)


# Work counted at the span boundary, computed from the call's arguments.
COUNTS = {
    MUL: _mul_pairs,
    H_ABS2: _grid_points,
    GRAM: _gram_entries,
    LEX_SYSTEM: _lex_slots,
    INIT: _oracle_id,
    TABLE[0]: _oracle_id,
    TABLE[1]: _oracle_id,
}


class Recorder:
    """Spans in flat arrays, so a run of a million spans stays small."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.count = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.active = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, op_id: int):
        self.op_id = op_id
        self.stack.clear()
        self.active = True

    def end_op(self):
        self.active = False

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        count = COUNTS.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            i = len(rec.t0)
            rec.name.append(nid)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.op.append(rec.op_id)
            rec.count.append(count(*args, **kwargs) if count else 0)
            rec.t1.append(0.0)
            rec.stack.append(i)
            rec.t0.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.t1[i] = perf_counter()
                rec.stack.pop()

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "count": np.frombuffer(self.count, dtype=np.int64).copy(),
        }

    def save(self, path: str):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def install() -> Recorder:
    """Wrap every traced callable and rebind all names that refer to it."""
    rec = Recorder()
    mods = {m: importlib.import_module(f"bsz2d.{m}") for m in MODULES}
    wrapped: dict[int, object] = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            name = f"{short}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in SKIP
            ):
                wrapped[id(obj)] = rec.wrap(obj, name)
        for cls_name, methods in METHODS.get(short, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                setattr(cls, meth, rec.wrap(getattr(cls, meth), f"{short}.{cls_name}.{meth}"))
    cli = mods["cli"]
    wrapped[id(cli.main)] = rec.wrap(cli.main, CLI_MAIN)
    for mod in (importlib.import_module("bsz2d"), *mods.values()):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
    return rec


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    dur = spans["t1"] - spans["t0"]
    parent = spans["parent"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur - child


def layer_metrics(names: list[str], spans: dict[str, np.ndarray], op_walls: list[float]) -> dict[str, float]:
    """Per-layer totals over the run, named as in BENCHMARK.json."""
    ids = {n: i for i, n in enumerate(names)}
    name, parent, count = spans["name"], spans["parent"], spans["count"]
    own = self_times(spans)

    def mask(*wanted):
        return np.isin(name, [ids[w] for w in wanted if w in ids])

    def calls(*wanted):
        return int(np.count_nonzero(mask(*wanted)))

    def self_s(*wanted):
        return float(np.sum(own[mask(*wanted)]))

    def total(*wanted):
        return int(np.sum(count[mask(*wanted)]))

    def parents_of(*wanted):
        return np.isin(np.arange(len(name)), parent[mask(*wanted)])

    has_child = np.isin(np.arange(len(name)), parent[parent >= 0])
    has_h_abs2 = parents_of(H_ABS2)
    has_gram = parents_of(GRAM)
    table = mask(*TABLE)

    # An oracle read its spill when its first table call computed nothing.
    # Spans are in start order, and an id is only reused after an oracle dies.
    spill_reads = 0
    init = mask(INIT)
    waiting: set[int] = set()
    for i in np.flatnonzero(init | table):
        oid = int(count[i])
        if init[i]:
            waiting.add(oid)
        elif oid in waiting:
            waiting.discard(oid)
            spill_reads += int(not has_h_abs2[i])

    closed = int(np.count_nonzero(mask(NORMALIZED) & np.isin(parent, np.flatnonzero(mask(LEX_SYSTEM)))))
    top = parent < 0
    dur = spans["t1"] - spans["t0"]
    other = float(sum(op_walls)) - float(np.sum(dur[top]))

    return {
        "poly_core.mul.calls": calls(MUL),
        "poly_core.mul.self_s": self_s(MUL),
        "poly_core.mul.pairs": total(MUL),
        "poly_core.add.calls": calls(*ADD),
        "poly_core.add.self_s": self_s(*ADD),
        "weights.h_abs2.calls": calls(H_ABS2),
        "weights.h_abs2.self_s": self_s(H_ABS2),
        "weights.h_abs2.points": total(H_ABS2),
        "moment_oracle.table.calls": calls(*TABLE),
        "moment_oracle.table.misses": int(np.count_nonzero(table & has_h_abs2)),
        "moment_oracle.table.self_s": self_s(*TABLE),
        "moment_oracle.init.self_s": self_s(INIT),
        "moment_oracle.spill.reads": spill_reads,
        "moment_oracle.gram.calls": calls(GRAM),
        "moment_oracle.gram.self_s": self_s(GRAM),
        "moment_oracle.gram.entries": total(GRAM),
        "moment_oracle.gram_schmidt.calls": calls(GS),
        "moment_oracle.gram_schmidt.hits": int(np.count_nonzero(mask(GS) & ~has_gram)),
        "moment_oracle.gram_schmidt.self_s": self_s(GS),
        "moment_oracle.inner.calls": calls(INNER),
        "moment_oracle.inner.self_s": self_s(INNER),
        "szego_core.build_qk.calls": calls(QK),
        "szego_core.build_qk.self_s": self_s(QK),
        "total_order.build_total_vector.calls": calls(TOTAL_VECTOR),
        "total_order.build_total_vector.hits": int(np.count_nonzero(mask(TOTAL_VECTOR) & ~has_child)),
        "total_order.build_total_vector.self_s": self_s(TOTAL_VECTOR),
        "lex_order.lex_system.calls": calls(LEX_SYSTEM),
        "lex_order.lex_system.self_s": self_s(LEX_SYSTEM),
        "lex_order.high_band_coefficients.calls": calls(HIGH_BAND),
        "lex_order.high_band_coefficients.self_s": self_s(HIGH_BAND),
        "lex_order.closed_slots": closed,
        "lex_order.fallback_slots": total(LEX_SYSTEM) - closed,
        "recurrence.total_blocks.self_s": self_s(TOTAL_BLOCKS),
        "recurrence.lex_blocks.self_s": self_s(LEX_BLOCKS),
        "recurrence.verify.self_s": self_s(*VERIFY),
        "cli.main.self_s": self_s(CLI_MAIN),
        "examples_suite.run_regression.self_s": self_s(REGRESSION),
        "other.self_s": other,
    }


def op_balance(spans: dict[str, np.ndarray], op_walls: list[float]) -> float:
    """Largest |sum of self times + unattributed time - op wall| over the ops,
    after checking that every child span lies inside its parent."""
    t0, t1, parent, op = spans["t0"], spans["t1"], spans["parent"], spans["op"]
    nested = parent >= 0
    if np.any(t0[nested] < t0[parent[nested]]) or np.any(t1[nested] > t1[parent[nested]]):
        raise AssertionError("a child span leaves its parent's interval")
    own = self_times(spans)
    worst = 0.0
    for k, wall in enumerate(op_walls):
        in_op = op == k
        top = in_op & ~nested
        unattributed = wall - float(np.sum(t1[top] - t0[top]))
        if unattributed < 0.0:
            raise AssertionError(f"op {k}: spans cover more than the op's wall time")
        worst = max(worst, abs(float(np.sum(own[in_op])) + unattributed - wall))
    return worst
