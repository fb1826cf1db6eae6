"""Named fixture corpus.

Each fixture is a surface-syntax program shipped as ``fixtures/NAME.inh``
with a sidecar ``fixtures/NAME.expect`` manifest of pinned expectations.
An expectation line is tab-separated::

    op <TAB> arg ... <TAB> expected <TAB> origin

where ``op`` is one of

* ``properties path expected-labels`` -- comma-joined sorted labels,
  ``-`` for the empty set
* ``ancestors-contains path member-path``
* ``ancestors-excludes path member-path``
* ``this site-paths def-path n expected-paths`` -- ``site-paths`` and
  ``expected-paths`` are ``|``-joined
* ``diverges path kind`` -- evaluating properties raises the given
  divergence kind

and ``origin`` records how the expected value was obtained: ``pinned``
(transcribed from the sources the fixture reproduces), ``derived``
(hand-traced through the equations), or ``sanity`` (trivial).
"""

from __future__ import annotations

from importlib import resources
from typing import NamedTuple

from .semantics import DEFAULT_FUEL, DivergenceError, EvalContext
from .syntax import CoreProgram, parse_path, parse_program, path_text

FIXTURE_NAMES = (
    "p1",
    "p2",
    "multipath",
    "cyclic_a",
    "self_ref",
    "nat",
    "asymmetry",
)


class UnknownFixture(Exception):
    def __init__(self, name: str):
        super().__init__(
            f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}"
        )


class Expectation(NamedTuple):
    op: str
    args: tuple[str, ...]
    expected: str
    origin: str

    def line(self) -> str:
        return "\t".join((self.op, *self.args, self.expected, self.origin))


class Fixture(NamedTuple):
    name: str
    source: str
    expectations: tuple[Expectation, ...]

    def program(self) -> CoreProgram:
        return parse_program(self.source)


_ARITY = {
    "properties": 1,
    "ancestors-contains": 2,
    "ancestors-excludes": 2,
    "this": 3,
    "diverges": 1,
}


def _read(name: str, suffix: str) -> str:
    ref = resources.files(__package__) / "fixtures" / f"{name}.{suffix}"
    return ref.read_text(encoding="utf-8")


def _parse_expectations(text: str) -> tuple[Expectation, ...]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        op = fields[0]
        if op not in _ARITY:
            raise ValueError(f"unknown expectation op {op!r}")
        n = _ARITY[op]
        if len(fields) != n + 3:
            raise ValueError(f"malformed expectation line: {raw!r}")
        out.append(Expectation(op, tuple(fields[1 : 1 + n]), fields[1 + n], fields[2 + n]))
    return tuple(out)


def fixture(name: str) -> Fixture:
    if name not in FIXTURE_NAMES:
        raise UnknownFixture(name)
    return Fixture(name, _read(name, "inh"), _parse_expectations(_read(name, "expect")))


# ---------------------------------------------------------------------------
# Expectation evaluation
# ---------------------------------------------------------------------------

class ExpectationResult(NamedTuple):
    expectation: Expectation
    passed: bool
    actual: str

    def line(self) -> str:
        status = "pass" if self.passed else "fail"
        out = f"{status}\t{self.expectation.line()}"
        if not self.passed:
            out += f"\n  actual: {self.actual}"
        return out


def _labels_text(labels) -> str:
    return ",".join(sorted(labels)) or "-"


def _paths_text(paths) -> str:
    return "|".join(path_text(p) for p in sorted(paths)) or "-"


def _eval_expectation(ctx: EvalContext, exp: Expectation) -> str:
    if exp.op == "properties":
        return _labels_text(ctx.properties(parse_path(exp.args[0])))
    if exp.op in ("ancestors-contains", "ancestors-excludes"):
        member = parse_path(exp.args[1])
        present = member in ctx.ancestors(parse_path(exp.args[0]))
        want = exp.op == "ancestors-contains"
        return "yes" if present == want else "no"
    if exp.op == "this":
        sites = frozenset(parse_path(s) for s in exp.args[0].split("|"))
        return _paths_text(ctx.this(sites, parse_path(exp.args[1]), int(exp.args[2])))
    if exp.op == "diverges":
        try:
            labels = ctx.properties(parse_path(exp.args[0]))
        except DivergenceError as exc:
            return exc.kind
        return f"no divergence: {_labels_text(labels)}"
    raise AssertionError(exp.op)


def run_expectations(name: str, fuel: int = DEFAULT_FUEL) -> list[ExpectationResult]:
    fix = fixture(name)
    program = fix.program()
    out = []
    for exp in fix.expectations:
        ctx = EvalContext(program, fuel=fuel)
        try:
            actual = _eval_expectation(ctx, exp)
        except DivergenceError as exc:
            actual = f"Divergence({exc.kind})"
        out.append(ExpectationResult(exp, actual == exp.expected, actual))
    return out
