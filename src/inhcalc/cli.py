"""Command-line front end.

Exit codes: 0 success, 1 divergence / failed verdict, 2 input error,
3 resource limit (input nested too deeply for the recursive evaluator).
``INHCALC_FUEL`` and ``INHCALC_MAX_DEPTH`` override the flag defaults.
"""

from __future__ import annotations

import json
import sys

import click

from . import corpus as corpus_mod
from . import fixtures as fixtures_mod
from .lam import (
    DEFAULT_MAX_DEPTH,
    ORACLE_FUEL,
    FreeVariableError,
    LambdaParseError,
    SyntheticNameCollision,
    anf_transform,
    bohm_prefix,
    bohm_text,
    converges,
    named_to_oracle,
    parse_lambda,
    translate,
)
from .semantics import DEFAULT_FUEL, DivergenceError, EvalContext, ScopeUnderflowError
from .syntax import (
    ParseError,
    ResolutionError,
    parse_path,
    parse_program,
    path_text,
    render,
)

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _fail_input(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_INPUT)


def _load_program(file: str):
    try:
        with open(file, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        _fail_input(str(exc))
    except UnicodeDecodeError as exc:
        _fail_input(f"{file}: {exc}")
    try:
        return parse_program(source)
    except (ParseError, ResolutionError) as exc:
        _fail_input(f"{file}: {exc}")


def fuel_option(default: int = DEFAULT_FUEL, unit: str = "the evaluator's equation body runs"):
    return click.option("--fuel", type=click.IntRange(min=1), default=default,
                        envvar="INHCALC_FUEL", show_default=True, help=f"Step budget, in {unit}.")


max_depth_option = click.option(
    "--max-depth",
    type=click.IntRange(min=1),
    default=DEFAULT_MAX_DEPTH,
    envvar="INHCALC_MAX_DEPTH",
    show_default=True,
    help="Result-chain depth bound for convergence scans.",
)
format_option = click.option(
    "--format",
    "output_format",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
    help="Output format.",
)


class _Main(click.Group):
    """Reports a ``RecursionError`` from any command as a resource limit."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except RecursionError:
            click.echo(
                "error: resource limit: input nested too deeply "
                "(Python recursion limit reached)",
                err=True,
            )
            sys.exit(EXIT_RESOURCE)


@click.group(cls=_Main)
def main():
    """Record-inheritance calculus: queries, lambda bridge, fixtures."""


@main.command()
@click.argument("file", type=click.Path())
@click.option("--path", "path_str", required=True, help="Query path, e.g. A.x ( () is the root).")
@click.option(
    "--op",
    type=click.Choice(["properties", "ancestors", "tree"]),
    default="properties",
    show_default=True,
)
@click.option("--depth", type=click.IntRange(min=0), default=2, show_default=True,
              help="Observation depth for --op tree.")
@fuel_option()
@format_option
def query(file, path_str, op, depth, fuel, output_format):
    """Evaluate a query against a surface-syntax program."""
    program = _load_program(file)
    try:
        path = parse_path(path_str)
    except ValueError as exc:
        _fail_input(str(exc))
    ctx = EvalContext(program, fuel=fuel)
    try:
        if op == "properties":
            labels = sorted(ctx.properties(path))
            if output_format == "json":
                click.echo(json.dumps({"path": path_text(path), "labels": labels}))
            else:
                click.echo(f"{path_text(path)}\t{','.join(labels)}")
        elif op == "ancestors":
            paths = sorted(ctx.ancestors(path))
            if output_format == "json":
                click.echo(json.dumps([path_text(p) for p in paths]))
            else:
                for p in paths:
                    click.echo(path_text(p))
        else:
            tree = ctx.observe(path, depth)
            click.echo(tree.to_json() if output_format == "json" else tree.text())
    except DivergenceError as exc:
        click.echo(f"divergence({exc.kind})", err=True)
        sys.exit(EXIT_DIVERGED)
    except ScopeUnderflowError as exc:
        _fail_input(f"scope underflow: {exc}")


@main.command()
@click.argument("file", type=click.Path())
def check(file):
    """Parse and resolve a program without evaluating it."""
    program = _load_program(file)
    click.echo(f"ok: {len(program.nodes)} paths")


def _parse_term(expr: str):
    try:
        return anf_transform(parse_lambda(expr))
    except (LambdaParseError, FreeVariableError, SyntheticNameCollision) as exc:
        _fail_input(str(exc))


@main.group("lambda")
def lambda_group():
    """Lambda-calculus bridge commands."""


@lambda_group.command(name="translate")
@click.argument("expr")
def translate_cmd(expr):
    """Translate a closed lambda term to a record program."""
    click.echo(render(translate(_parse_term(expr))))


@lambda_group.command(name="converges")
@click.argument("expr")
@fuel_option()
@max_depth_option
@click.option("--expect-converge", is_flag=True,
              help="Exit 1 unless the term converges.")
def converges_cmd(expr, fuel, max_depth, expect_converge):
    """Decide convergence of a closed lambda term via its translation."""
    term = _parse_term(expr)
    report = converges(translate(term), fuel=fuel, max_depth=max_depth)
    click.echo(report.describe())
    if expect_converge and not report.converged:
        sys.exit(EXIT_DIVERGED)


@lambda_group.command(name="bohm")
@click.argument("expr")
@click.option("--depth", type=click.IntRange(min=0), default=2, show_default=True)
@fuel_option(ORACLE_FUEL, "the oracle's beta-steps per Böhm-tree node")
def bohm_cmd(expr, depth, fuel):
    """Print the head-reduction oracle's tree prefix of a closed term."""
    term = _parse_term(expr)
    click.echo(bohm_text(bohm_prefix(named_to_oracle(term), depth, fuel=fuel)))


@main.group("fixtures")
def fixtures_group():
    """Bundled fixture programs and their pinned expectations."""


@fixtures_group.command(name="list")
def fixtures_list():
    for name in fixtures_mod.FIXTURE_NAMES:
        click.echo(name)


@fixtures_group.command(name="run")
@click.argument("name", required=False)
@fuel_option()
def fixtures_run(name, fuel):
    """Evaluate pinned expectations for one fixture, or all of them."""
    if name is not None and name not in fixtures_mod.FIXTURE_NAMES:
        _fail_input(f"unknown fixture {name!r}")
    names = [name] if name else fixtures_mod.FIXTURE_NAMES
    failed = 0
    for n in names:
        for result in fixtures_mod.run_expectations(n, fuel=fuel):
            click.echo(f"{n}\t{result.line()}")
            failed += 0 if result.passed else 1
    if failed:
        click.echo(f"{failed} expectation(s) failed", err=True)
        sys.exit(EXIT_DIVERGED)


@main.command()
@click.option("--size", type=click.IntRange(min=1, max=corpus_mod.MAX_CORPUS_SIZE),
              default=corpus_mod.MAX_CORPUS_SIZE, show_default=True,
              help="Maximum AST size of enumerated closed terms.")
@fuel_option(10_000, "the oracle's beta-steps and each engine's equation body runs, per term")
@max_depth_option
def corpus(size, fuel, max_depth):
    """Sweep the small-term corpus against the oracle; print verdicts.
    Exit 1 if any check of the summary fails: a contradiction, a split
    between the engines, a depth past the oracle's steps, or a multi-path
    scope step."""
    verdicts = corpus_mod.sweep(max_size=size, fuel=fuel, max_depth=max_depth)
    for v in verdicts:
        click.echo(v.row())
    summary = corpus_mod.summarize(verdicts)
    click.echo(json.dumps(summary, sort_keys=True))
    bad = (
        summary["contradictions"] > 0
        or not summary["direct_agrees"]
        or not summary["depth_bounded_by_steps"]
        or summary["single_path_violations"] > 0
    )
    if bad:
        sys.exit(EXIT_DIVERGED)


if __name__ == "__main__":
    main()
