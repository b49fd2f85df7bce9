"""Command-line front end.

Subcommands: moments, total, lex, recurrence, example, verify.  Matrices
and moment tables are emitted as CSV, polynomials and reports as JSON.
Exit codes: 0 success, 1 assertion failure, 2 usage or config error,
3 numerical failure.  Bad input (a malformed weight config, a negative
degree or window bound, an out-of-range example parameter or depth) exits
2 with a usage message, and so does a request over a size cap
(``ResourceLimitError``).  A ``--tol`` that is not finite and positive
exits 2 with a one-line message.  A quadrature that does not meet the
tolerance below the resolution cap (``AccuracyError``), a Gram matrix too
ill conditioned to factor (``OracleUnreliableError``), or a high-band
solve whose leading combination weight vanishes (``AnomalousSolutionError``)
exits 3 with a one-line message.  Blocks that fail their own consistency
check (``ConstructionInconsistencyError``, such as a three-term residual
above ``RESIDUAL_TOL`` at a loose ``--tol``) exit 1 with a one-line message.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click
import numpy as np

from .examples_suite import EXAMPLES, run_regression
from .lex_order import AnomalousSolutionError, lex_system
from .moment_oracle import (
    DEFAULT_TOL,
    MAX_DEGREE,
    AccuracyError,
    OracleUnreliableError,
    ResourceLimitError,
    oracle_for,
)
from . import recurrence as recurrence_module  # the name recurrence is the command below
from .ortho import LEX, REVLEX, TOTAL
from .recurrence import (
    ConstructionInconsistencyError,
    lex_blocks,
    total_blocks,
    verify_lex_structure,
    verify_total_structure,
)
from .total_order import build_total_vector, gram_deviation
from .weights import WeightSpec, require_stable, spec_from_config


_NONNEG = click.IntRange(min=0)


def _load_spec(path: str) -> WeightSpec:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
        spec = spec_from_config(cfg)
        require_stable(spec)
        return spec
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"cannot load weight config {path}: {exc}")


def _emit(text: str, report_path: str | None):
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _matrix_csv(writer, name: str, mat: np.ndarray):
    writer.writerow([name])
    for row in np.atleast_2d(mat):
        writer.writerow([f"{v:.17g}" for v in row])


class _NumericalFailure(click.ClickException):
    exit_code = 3


class _BadTolerance(click.ClickException):
    exit_code = 2


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ResourceLimitError as exc:
            raise click.UsageError(str(exc), ctx) from exc
        except (AccuracyError, OracleUnreliableError, AnomalousSolutionError) as exc:
            raise _NumericalFailure(f"{type(exc).__name__}: {exc}") from exc
        except ConstructionInconsistencyError as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc


@click.group(cls=_Main)
@click.option("--tol", type=float, default=None, help="Global tolerance override.")
@click.pass_context
def main(ctx, tol):
    """Two-variable Bernstein-Szego orthogonal polynomial toolkit."""
    # click's float type takes nan and inf; the oracle would reject them only once a command builds it
    if tol is not None and not 0.0 < tol < float("inf"):
        raise _BadTolerance(f"--tol must be finite and positive, got {tol}")
    ctx.ensure_object(dict)
    ctx.obj["tol"] = DEFAULT_TOL if tol is None else tol


@main.command()
@click.option("--weight", required=True, type=click.Path())
@click.option("--max-degree", default=6, show_default=True, type=click.IntRange(0, MAX_DEGREE))
@click.option("--report", type=click.Path(), default=None)
@click.pass_context
def moments(ctx, weight, max_degree, report):
    """Monomial moments of the probability-normalized measure, as CSV."""
    spec = _load_spec(weight)
    table = oracle_for(spec, ctx.obj["tol"]).moment_table(max_degree)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["i", "j", "moment"])
    for i in range(max_degree + 1):
        for j in range(max_degree + 1):
            writer.writerow([i, j, f"{table[i, j]:.17g}"])
    _emit(buf.getvalue(), report)


@main.command()
@click.option("--weight", required=True, type=click.Path())
@click.option("--n", required=True, type=_NONNEG)
@click.option("--report", type=click.Path(), default=None)
@click.pass_context
def total(ctx, weight, n, report):
    """The total-degree orthonormal vector P_n, as JSON."""
    spec = _load_spec(weight)
    system = build_total_vector(spec, n, oracle_for(spec, ctx.obj["tol"]))
    _emit(system.to_json() + "\n", report)


@main.command()
@click.option("--weight", required=True, type=click.Path())
@click.option("--n", required=True, type=_NONNEG)
@click.option("--m", required=True, type=_NONNEG)
@click.option("--revlex", is_flag=True, default=False)
@click.option("--report", type=click.Path(), default=None)
@click.pass_context
def lex(ctx, weight, n, m, revlex, report):
    """The full lex (or revlex) system on the n-by-m window, as JSON."""
    spec = _load_spec(weight)
    system = lex_system(spec, n, m, REVLEX if revlex else LEX, oracle_for(spec, ctx.obj["tol"]))
    _emit(system.to_json() + "\n", report)


@main.command()
@click.option("--weight", required=True, type=click.Path())
@click.option("--ordering", type=click.Choice([TOTAL, LEX, REVLEX]), default=TOTAL, show_default=True)
@click.option("--n", required=True, type=_NONNEG)
@click.option("--m", type=_NONNEG, default=None)
@click.option("--report", type=click.Path(), default=None, help="Write the structure verdict JSON here.")
@click.pass_context
def recurrence(ctx, weight, ordering, n, m, report):
    """Recurrence blocks as CSV, plus a structure verdict."""
    spec = _load_spec(weight)
    orc = oracle_for(spec, ctx.obj["tol"])
    buf = io.StringIO()
    writer = csv.writer(buf)
    verdict: dict = {"ordering": ordering}
    # a structure check computes the blocks itself; they are computed here
    # only when the check does not apply to this level or window
    if ordering == TOTAL:
        try:
            srep = verify_total_structure(spec, n, oracle=orc)
            blk = srep.blocks
            verdict.update(ok=srep.ok, sizes=srep.sizes, violations=srep.violations,
                           seam={f"{i},{j}": v for (i, j), v in srep.seam.items()})
        except ValueError as exc:
            blk = total_blocks(spec, n, oracle=orc)
            verdict.update(ok=None, note=str(exc))
        for name, mat in (("A_x", blk.a_x), ("B_x", blk.b_x), ("A_y", blk.a_y), ("B_y", blk.b_y)):
            _matrix_csv(writer, name, mat)
    else:
        if m is None:
            raise click.UsageError("--m is required for lex/revlex recurrences")
        blk = None
        if ordering == LEX:
            try:
                srep = verify_lex_structure(spec, n, m, oracle=orc)
                blk = srep.blocks
                verdict.update(ok=srep.ok, sizes=srep.sizes, violations=srep.violations)
            except ValueError as exc:
                verdict.update(ok=None, note=str(exc))
        if blk is None:
            try:
                blk = lex_blocks(spec, n, m, ordering=ordering, oracle=orc)
            except ValueError as exc:  # a window too small for a block
                raise click.UsageError(str(exc))
        _matrix_csv(writer, "A", blk.a)
        _matrix_csv(writer, "B", blk.b)
    click.echo(buf.getvalue(), nl=False)
    if report:
        with open(report, "w") as fh:
            json.dump(verdict, fh)
    if verdict.get("ok") is False:
        sys.exit(1)


@main.command()
@click.option("--id", "example_id", required=True, type=click.Choice(sorted(EXAMPLES)))
@click.option("--a", type=float, default=None)
@click.option("--b", type=float, default=None)
@click.option("--a1", type=float, default=None)
@click.option("--a2", type=float, default=None)
@click.option("--b1", type=float, default=None)
@click.option("--b2", type=float, default=None)
@click.option("--depth", default=5, show_default=True, type=_NONNEG)
@click.option("--report", type=click.Path(), default=None)
@click.pass_context
def example(ctx, example_id, a, b, a1, a2, b1, b2, depth, report):
    """Run the regression suite for a registered example."""
    given = {k: v for k, v in dict(a=a, b=b, a1=a1, a2=a2, b1=b1, b2=b2).items() if v is not None}
    try:
        rep = run_regression(example_id, depth, tol=ctx.obj["tol"], **given)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"bad parameters for {example_id}: {exc}")
    text = json.dumps(rep.to_dict()) + "\n"
    _emit(text, report)
    if not rep.ok:
        sys.exit(1)


@main.command()
@click.option("--weight", required=True, type=click.Path())
@click.option("--depth", default=5, show_default=True, type=_NONNEG)
@click.option("--report", type=click.Path(), default=None)
@click.pass_context
def verify(ctx, weight, depth, report):
    """Full invariant suite: orthonormality, window consistency, structure."""
    spec = _load_spec(weight)
    orc = oracle_for(spec, ctx.obj["tol"])
    checks: list[dict] = []

    def record(name, margin, bound):
        checks.append({"name": name, "margin": float(margin), "tol": bound, "passed": margin <= bound})

    for n in range(depth + 1):
        record(f"total orthonormality n={n}", gram_deviation(spec, build_total_vector(spec, n, orc), orc), 1e-7)
    # each level's blocks are computed once; the residual and structure checks read them
    levels = {n: total_blocks(spec, n, oracle=orc) for n in range(1, depth)}
    for n, blk in levels.items():
        record(f"three-term residual n={n}", blk.residual, recurrence_module.RESIDUAL_TOL)
    window = min(depth, 4)
    system = lex_system(spec, window, window, oracle=orc)
    record(f"lex orthonormality {window}x{window}", gram_deviation(spec, system, orc), 1e-7)
    n0 = spec.n_h // 2
    for n in range(max(1, n0), min(depth - 1, n0 + 2) + 1):
        srep = verify_total_structure(spec, n, oracle=orc, blocks=levels[n])
        checks.append({"name": f"total structure n={n}", "margin": srep.worst,
                       "tol": recurrence_module.STRUCTURE_TOL, "passed": srep.ok})
    text = json.dumps({"weight": weight, "checks": checks, "ok": all(c["passed"] for c in checks)}) + "\n"
    _emit(text, report)
    if not all(c["passed"] for c in checks):
        sys.exit(1)


if __name__ == "__main__":
    main()
