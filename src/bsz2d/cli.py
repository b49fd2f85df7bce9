"""Command-line front end.

Subcommands: moments, total, lex, recurrence, example, verify.  Matrices
and moment tables are emitted as CSV, polynomials and reports as JSON.
Exit codes: 0 success, 1 assertion failure, 2 usage or config error.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click
import numpy as np

from .examples_suite import EXAMPLES, run_regression
from .lex_order import lex_system
from .moment_oracle import DEFAULT_TOL, oracle_for
from .ortho import LEX, REVLEX, TOTAL
from .recurrence import lex_blocks, total_blocks, verify_lex_structure, verify_total_structure
from .total_order import build_total_vector, gram_deviation
from .weights import InvalidWeightError, WeightSpec, is_stable, spec_from_config


def _load_spec(path: str) -> WeightSpec:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
        spec = spec_from_config(cfg)
        report = is_stable(spec)
        if not report.stable:
            raise InvalidWeightError(f"weight is not stable (min root modulus {report.min_modulus:.6f})")
        return spec
    except (OSError, ValueError, KeyError) as exc:
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


@click.group()
@click.option("--tol", type=float, default=None, help="Global tolerance override.")
@click.pass_context
def main(ctx, tol):
    """Two-variable Bernstein-Szego orthogonal polynomial toolkit."""
    ctx.ensure_object(dict)
    ctx.obj["tol"] = DEFAULT_TOL if tol is None else tol


@main.command()
@click.option("--weight", required=True, type=click.Path())
@click.option("--max-degree", default=6, show_default=True)
@click.option("--report", type=click.Path(), default=None)
@click.pass_context
def moments(ctx, weight, max_degree, report):
    """Monomial moments of the probability-normalized measure, as CSV."""
    spec = _load_spec(weight)
    orc = oracle_for(spec, ctx.obj["tol"])
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["i", "j", "moment"])
    for i in range(max_degree + 1):
        for j in range(max_degree + 1):
            writer.writerow([i, j, f"{orc.moment(i, j):.17g}"])
    _emit(buf.getvalue(), report)


@main.command()
@click.option("--weight", required=True, type=click.Path())
@click.option("--n", required=True, type=int)
@click.option("--report", type=click.Path(), default=None)
@click.pass_context
def total(ctx, weight, n, report):
    """The total-degree orthonormal vector P_n, as JSON."""
    spec = _load_spec(weight)
    system = build_total_vector(spec, n, oracle_for(spec, ctx.obj["tol"]))
    _emit(system.to_json(indent=2) + "\n", report)


@main.command()
@click.option("--weight", required=True, type=click.Path())
@click.option("--n", required=True, type=int)
@click.option("--m", required=True, type=int)
@click.option("--revlex", is_flag=True, default=False)
@click.option("--report", type=click.Path(), default=None)
@click.pass_context
def lex(ctx, weight, n, m, revlex, report):
    """The full lex (or revlex) system on the n-by-m window, as JSON."""
    spec = _load_spec(weight)
    oracle_for(spec, ctx.obj["tol"])
    system = lex_system(spec, n, m, REVLEX if revlex else LEX)
    _emit(system.to_json(indent=2) + "\n", report)


@main.command()
@click.option("--weight", required=True, type=click.Path())
@click.option("--ordering", type=click.Choice([TOTAL, LEX, REVLEX]), default=TOTAL, show_default=True)
@click.option("--n", required=True, type=int)
@click.option("--m", type=int, default=None)
@click.option("--report", type=click.Path(), default=None, help="Write the structure verdict JSON here.")
@click.pass_context
def recurrence(ctx, weight, ordering, n, m, report):
    """Recurrence blocks as CSV, plus a structure verdict."""
    spec = _load_spec(weight)
    oracle_for(spec, ctx.obj["tol"])
    buf = io.StringIO()
    writer = csv.writer(buf)
    verdict: dict = {"ordering": ordering}
    if ordering == TOTAL:
        blk = total_blocks(spec, n)
        for name, mat in (("A_x", blk.a_x), ("B_x", blk.b_x), ("A_y", blk.a_y), ("B_y", blk.b_y)):
            _matrix_csv(writer, name, mat)
        try:
            srep = verify_total_structure(spec, n)
            verdict.update(ok=srep.ok, sizes=srep.sizes, violations=srep.violations,
                           seam={f"{i},{j}": v for (i, j), v in srep.seam.items()})
        except ValueError as exc:
            verdict.update(ok=None, note=str(exc))
    else:
        if m is None:
            raise click.UsageError("--m is required for lex/revlex recurrences")
        blk = lex_blocks(spec, n, m, ordering=ordering)
        _matrix_csv(writer, "A", blk.a)
        _matrix_csv(writer, "B", blk.b)
        try:
            srep = verify_lex_structure(spec, n, m) if ordering == LEX else None
            if srep is not None:
                verdict.update(ok=srep.ok, sizes=srep.sizes, violations=srep.violations)
        except ValueError as exc:
            verdict.update(ok=None, note=str(exc))
    click.echo(buf.getvalue(), nl=False)
    if report:
        with open(report, "w") as fh:
            json.dump(verdict, fh, indent=2)
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
@click.option("--depth", default=5, show_default=True)
@click.option("--report", type=click.Path(), default=None)
def example(example_id, a, b, a1, a2, b1, b2, depth, report):
    """Run the regression suite for a registered example."""
    given = {k: v for k, v in dict(a=a, b=b, a1=a1, a2=a2, b1=b1, b2=b2).items() if v is not None}
    try:
        rep = run_regression(example_id, depth, **given)
    except TypeError as exc:
        raise click.UsageError(f"bad parameters for {example_id}: {exc}")
    text = json.dumps(rep.to_dict(), indent=2) + "\n"
    _emit(text, report)
    if not rep.ok:
        sys.exit(1)


@main.command()
@click.option("--weight", required=True, type=click.Path())
@click.option("--depth", default=5, show_default=True)
@click.option("--report", type=click.Path(), default=None)
@click.pass_context
def verify(ctx, weight, depth, report):
    """Full invariant suite: orthonormality, window consistency, structure."""
    spec = _load_spec(weight)
    oracle_for(spec, ctx.obj["tol"])
    checks: list[dict] = []

    def record(name, margin, tol):
        checks.append({"name": name, "margin": float(margin), "tol": tol, "passed": margin <= tol})

    for n in range(depth + 1):
        record(f"total orthonormality n={n}", gram_deviation(spec, build_total_vector(spec, n)), 1e-7)
    for n in range(1, depth):
        record(f"three-term residual n={n}", total_blocks(spec, n).residual, 1e-7)
    window = min(depth, 4)
    system = lex_system(spec, window, window)
    orc = oracle_for(spec, ctx.obj["tol"])
    polys = [p for _, p in system.entries]
    G = np.array([[orc.inner(p, q) for q in polys] for p in polys])
    record(f"lex orthonormality {window}x{window}", float(np.max(np.abs(G - np.eye(len(polys))))), 1e-7)
    n0 = spec.n_h // 2
    for n in range(max(1, n0), min(depth - 1, n0 + 2) + 1):
        try:
            srep = verify_total_structure(spec, n)
            record(f"total structure n={n}", max((abs(v[3]) for v in srep.violations), default=0.0), 1e-8)
        except ValueError:
            pass
    text = json.dumps({"weight": weight, "checks": checks, "ok": all(c["passed"] for c in checks)}, indent=2) + "\n"
    _emit(text, report)
    if not all(c["passed"] for c in checks):
        sys.exit(1)


if __name__ == "__main__":
    main()
