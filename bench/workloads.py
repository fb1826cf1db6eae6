"""The benchmark's three workloads.

Each workload is a list of ops (the seed draws the mutations); set-up
checks of the references it needs add to ``problems``.  An op is one closed
call into the program (``call``) plus a check of its output against a
reference that does not come from the engine under test (``check``).
``check`` returns ``(decided, wrong)``: whether the output is a decided
answer, and ``None`` or a ``(layer, reason)`` pair when the output differs
from its reference.

* ``mutation``: every fixture, shuffled and duplicated at every level; the
  observation tree must equal the unmutated fixture's, which set-up checks
  against the fixture's hand-written ``.expect`` pins.
* ``corpus``: every closed de Bruijn term up to size 10 plus the named
  terms, each judged against the head-reduction oracle.
* ``deep``: record nesting and identity chains whose answers are known by
  construction.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

DUPLICATE_SHARE = 0.25
MUTATIONS_PER_FIXTURE = 72
CORPUS_SIZE = 10
CORPUS_FUEL = 10_000
CORPUS_MAX_DEPTH = 64
OBSERVE_DEPTH = 4
NEST_DEPTHS = (25, 50, 100, 1000)
CHAIN_LENGTHS = (30, 60, 120, 1000)
# Rungs timed in every run, fixed by size.  The larger ones raised
# RecursionError when the benchmark was first run and count only as
# failures, so a fix that makes them pass cannot raise a time metric.
TIMED_NEST_DEPTH = 50
TIMED_CHAIN_LENGTH = 120


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], tuple]
    timed: bool = True
    levels: int = 0


# ---------------------------------------------------------------------------
# mutation
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s+|#[^\n]*|[{},=]|[^\s{},=#]+")


def _tokens(source: str) -> list[str]:
    return [t for t in _TOKEN.findall(source) if not t.isspace() and t[0] != "#"]


def _record(tokens: list[str], i: int) -> tuple[list, int]:
    """Elements of the record literal opening at ``tokens[i]``: reference
    texts and ``(label, elements)`` definitions; ``x = r`` reads as
    ``x = {r}``."""
    if tokens[i] != "{":
        raise ValueError(f"expected '{{' at token {i}, found {tokens[i]!r}")
    elements: list = []
    i += 1
    while tokens[i] != "}":
        if tokens[i + 1] == "=":
            label = tokens[i]
            if tokens[i + 2] == "{":
                body, i = _record(tokens, i + 2)
            else:
                body, i = [tokens[i + 2]], i + 3
            elements.append((label, body))
        else:
            elements.append(tokens[i])
            i += 1
        if tokens[i] == ",":
            i += 1
    return elements, i + 1


def surface_elements(source: str) -> list:
    tokens = _tokens(source)
    elements, end = _record(tokens, 0)
    if end != len(tokens):
        raise ValueError("trailing input after the top-level record")
    return elements


def mutated_text(elements: list, rng: random.Random, dup: float = DUPLICATE_SHARE) -> str:
    """Surface text with the elements of every record shuffled and each
    duplicated with probability ``dup``.  Record composition is
    commutative and idempotent, so the text means the same program."""
    parts = [
        e if isinstance(e, str) else f"{e[0]} = {mutated_text(e[1], rng, dup)}"
        for e in elements
    ]
    parts += [p for p in parts if rng.random() < dup]
    rng.shuffle(parts)
    return "{" + ", ".join(parts) + "}" if parts else "{}"


def _tree_node(tree, path):
    for label in path:
        tree = tree.children.get(label)
        if tree is None:
            return None
    return tree


def reference_tree(m, fix, problems: list) -> str:
    """The unmutated fixture's observation tree, checked against every pin
    of its ``.expect`` file: each pin holds on the program (by the
    program's own ``fixtures.run_expectations``), and each ``properties``
    or ``diverges`` pin inside the observed depth holds on the tree itself.
    A pin that does not hold is added to ``problems``."""
    for result in m.fixtures.run_expectations(fix.name):
        if not result.passed:
            problems.append(f"{fix.name}: {result.expectation.line()!r} gives {result.actual!r}")
    tree = _observe(m, fix.source)
    for exp in fix.expectations:
        if exp.op not in ("properties", "diverges"):
            continue
        node = _tree_node(tree, m.syntax.parse_path(exp.args[0]))
        if node is None:
            continue
        if exp.op == "diverges":
            seen = node.divergence
        elif node.divergence is not None:
            seen = "!" + node.divergence
        else:
            seen = ",".join(node.labels) or "-"
        if seen != exp.expected:
            problems.append(f"{fix.name}: tree shows {seen!r} for {exp.line()!r}")
    return tree.text()


def _observe(m, text: str):
    program = m.syntax.resolve_references(m.syntax.parse(text))
    return m.semantics.EvalContext(program).observe(
        (), OBSERVE_DEPTH, record_divergence=True
    )


def _check_tree(expected: str, tree) -> tuple:
    decided = "FuelExhausted" not in {n.divergence for n in _nodes(tree)}
    if tree.text() != expected:
        return decided, ("semantics.observe", "tree differs from the unmutated fixture's")
    return decided, None


def _nodes(tree):
    yield tree
    for child in tree.children.values():
        yield from _nodes(child)


def mutation(m, seed: int, smoke: bool, problems: list) -> list[Op]:
    rng = random.Random(seed)
    per_fixture = 2 if smoke else MUTATIONS_PER_FIXTURE
    ops = []
    for name in m.fixtures.FIXTURE_NAMES:
        fix = m.fixtures.fixture(name)
        expected = reference_tree(m, fix, problems)
        elements = surface_elements(fix.source)
        for i in range(per_fixture):
            text = mutated_text(elements, rng)
            ops.append(
                Op(f"{name}#{i}", partial(_observe, m, text), partial(_check_tree, expected))
            )
    return ops


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def _judge(m, name: str, oterm, named):
    term = named if oterm is None else m.lam.oracle_to_named(oterm)
    return m.corpus.judge(
        name, m.lam.anf_transform(term), fuel=CORPUS_FUEL, max_depth=CORPUS_MAX_DEPTH
    )


def _check_verdict(v) -> tuple:
    oracle, conv, direct = v.oracle, v.convergence, v.direct
    decided = v.decided_both
    if v.contradiction:
        wrong = f"contradiction: oracle {oracle.status}, engine {conv.describe()}"
    elif (direct.converged, direct.depth) != (conv.converged, conv.depth):
        wrong = f"direct engine {direct.describe()}, general {conv.describe()}"
    elif conv.converged and oracle.status == "hnf" and conv.depth > oracle.steps:
        wrong = f"depth {conv.depth} exceeds the oracle's {oracle.steps} steps"
    else:
        return decided, None
    return decided, ("corpus.judge", wrong)


def corpus(m, seed: int, smoke: bool, problems: list) -> list[Op]:
    terms = m.corpus.enumerate_closed_terms(7 if smoke else CORPUS_SIZE)
    ops = [
        Op(f"t{i:04d}", partial(_judge, m, f"t{i:04d}", t, None), _check_verdict)
        for i, t in enumerate(terms)
    ]
    ops += [
        Op(name, partial(_judge, m, name, None, term), _check_verdict)
        for name, term in sorted(m.lam.NAMED_TERMS.items())
    ]
    return ops


# ---------------------------------------------------------------------------
# deep
# ---------------------------------------------------------------------------

def nest_text(d: int) -> str:
    """``{A = {a = ...{}...}, B = {A}}`` with ``d`` nested ``a`` records, so
    ``B.a^(d-1)`` inherits exactly the label ``a``."""
    return "{A = " + "{a = " * d + "{}" + "}" * d + ", B = {A}}"


def chain_text(k: int) -> str:
    """``(\\x0. x0) ((\\x1. x1) (... (\\y. y)))``: ``k`` identity redexes,
    which converge at result depth ``k``."""
    return "".join(f"(\\x{i}. x{i}) (" for i in range(k)) + "\\y. y" + ")" * k


def _nest(m, d: int):
    program = m.syntax.resolve_references(m.syntax.parse(nest_text(d)))
    return m.semantics.EvalContext(program).properties(("B",) + ("a",) * (d - 1))


def _check_nest(labels) -> tuple:
    if labels != frozenset({"a"}):
        return True, ("semantics.properties", f"properties {sorted(labels)}, expected ['a']")
    return True, None


def _chain(m, k: int):
    anf = m.lam.anf_transform(m.lam.parse_lambda(chain_text(k)))
    general = m.lam.converges(m.lam.translate(anf), max_depth=k + 1)
    direct = m.anf_direct.converges_direct(m.anf_direct.extract(anf), max_depth=k + 1)
    return general, direct


def _check_chain(k: int, reports) -> tuple:
    for layer, report in zip(("lam.converges", "anf_direct.converges_direct"), reports):
        if (report.converged, report.depth) != (True, k):
            return report.converged, (layer, f"{report.describe()}, expected depth {k}")
    return True, None


def deep(m, seed: int, smoke: bool, problems: list) -> list[Op]:
    nests = NEST_DEPTHS[:1] if smoke else NEST_DEPTHS
    chains = CHAIN_LENGTHS[:1] if smoke else CHAIN_LENGTHS
    ops = [
        Op(f"d={d}", partial(_nest, m, d), _check_nest, d <= TIMED_NEST_DEPTH, d)
        for d in nests
    ]
    ops += [
        Op(f"k={k}", partial(_chain, m, k), partial(_check_chain, k), k <= TIMED_CHAIN_LENGTH, k)
        for k in chains
    ]
    return ops


WORKLOADS = {"mutation": mutation, "corpus": corpus, "deep": deep}
