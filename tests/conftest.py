"""Shared helpers for the test suite."""

from __future__ import annotations

import random
from collections import defaultdict

from inhcalc.anf_direct import DirectContext
from inhcalc.fixtures import fixture
from inhcalc.lam import Abs, App, Let, Term, Var, is_value
from inhcalc.semantics import DivergenceError, EvalContext
from inhcalc.syntax import (
    CoreProgram,
    NamedRef,
    Reference,
    parse,
    ref_text,
    resolve_references,
)


def ref_str(ref) -> str:
    if isinstance(ref, Reference):
        return ref_text(ref)
    if isinstance(ref, NamedRef):
        return ".".join((f"this@{ref.up}",) + ref.downs)
    return ".".join(ref.downs)  # LexicalRef


def is_path(p) -> bool:
    return isinstance(p, tuple) and all(isinstance(label, str) for label in p)


def sorted_witness(witness: tuple) -> tuple:
    """A divergence witness with each frozenset argument sorted, so its
    repr does not follow the hash seed."""
    return tuple(tuple(sorted(a)) if isinstance(a, frozenset) else a for a in witness)


def mutated_text(surface, rng: random.Random, dup: float = 0.25, i: int = 0) -> str:
    """Surface text of the record of id ``i`` of the surface program
    ``surface`` (as ``parse`` writes it) with elements shuffled and
    randomly duplicated at every nesting level."""
    labels, refs = surface._node[i]
    kids = surface._kids[i]
    parts = [ref_str(r) for r in refs]
    parts += [f"{label} = {mutated_text(surface, rng, dup, kids[label])}" for label in labels]
    parts += [part for part in parts if rng.random() < dup]
    rng.shuffle(parts)
    return "{" + ", ".join(parts) + "}" if parts else "{}"


def properties_struct(ctx: EvalContext, p, depth: int):
    """Finite observation of properties as a comparable tuple; divergence
    collapses to a marker so engines with different budgets still align."""
    try:
        labels = tuple(sorted(ctx.properties(p)))
    except DivergenceError:
        return ("diverged",)
    children = ()
    if depth > 0:
        children = tuple(
            (label, properties_struct(ctx, p + (label,), depth - 1))
            for label in labels
        )
    return (labels, children)


def labels_struct(ctx: DirectContext, p, depth: int):
    """The same observation over the direct ANF engine's labels."""
    try:
        labels = tuple(sorted(ctx.labels(p)))
    except DivergenceError:
        return ("diverged",)
    children = ()
    if depth > 0:
        children = tuple(
            (label, labels_struct(ctx, p + (label,), depth - 1))
            for label in labels
        )
    return (labels, children)


# ---------------------------------------------------------------------------
# Reference engines and term helpers that only tests use
# ---------------------------------------------------------------------------

class _Forgetful(dict):
    """A memo table that stores nothing: every lookup misses."""

    def get(self, key, default=None):
        return default

    def __contains__(self, key):
        return False

    def __setitem__(self, key, value):
        pass

    def __delitem__(self, key):
        pass


class NaiveEvaluator(EvalContext):
    """The same equations over a memo that forgets: no cache and no cycle
    detection, one unit of fuel per call.  Exponentially slower; the
    memoized engine is checked against it on small queries."""

    def __init__(self, program: CoreProgram, fuel: int = 200_000):
        super().__init__(program, fuel)
        self.memo = defaultdict(_Forgetful)


def rebuilt(t: Term) -> Term:
    """t built anew, node by node, with the public constructors."""
    if isinstance(t, Var):
        return Var(t.name)
    if isinstance(t, Abs):
        return Abs(t.param, rebuilt(t.body))
    if isinstance(t, App):
        return App(rebuilt(t.fun), rebuilt(t.arg))
    if isinstance(t, Let):
        return Let(t.name, rebuilt(t.rhs), rebuilt(t.body))
    raise TypeError(t)


def chain_text(k: int) -> str:
    """(\\x0. x0) ((\\x1. x1) (... (\\y. y))): k identity redexes."""
    return "".join(f"(\\x{i}. x{i}) (" for i in range(k)) + "\\y. y" + ")" * k


def spine_text(n: int) -> str:
    """\\f. f f ... f: f applied to n arguments."""
    return "\\f. " + " ".join(["f"] * (n + 1))


def let_chain(n: int) -> Term:
    """\\f. let x0 = f f in let x1 = x0 f in ... in x<n-1>, built by a loop."""
    t = Var(f"x{n - 1}")
    for k in reversed(range(n)):
        t = Let(f"x{k}", App(Var(f"x{k - 1}") if k else Var("f"), Var("f")), t)
    return Abs("f", t)


def zigzag(n: int) -> Term:
    """\\f. \\y. t_n, where t_0 = y and t_k is f (t_{k-1} f) for odd k and
    (f t_{k-1}) f for even k: applications nested n levels deep, in
    argument and function position by turns, built by a loop."""
    t = Var("y")
    for k in range(1, n + 1):
        t = App(Var("f"), App(t, Var("f"))) if k % 2 else App(App(Var("f"), t), Var("f"))
    return Abs("f", Abs("y", t))


def typed(v):
    """v with every tuple in it paired with its type, so that ``==`` on
    the results also compares the type of every node."""
    if isinstance(v, tuple):
        return (type(v), tuple(map(typed, v)))
    return v


def term_text(t: Term) -> str:
    """The text of a term, which ``parse_lambda`` reads back as it."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Abs):
        return f"\\{t.param}. {term_text(t.body)}"
    if isinstance(t, Let):
        return f"let {t.name} = {term_text(t.rhs)} in {term_text(t.body)}"
    if isinstance(t, App):
        fun = term_text(t.fun)
        arg = term_text(t.arg)
        if isinstance(t.fun, (Abs, Let)):
            fun = f"({fun})"
        if not isinstance(t.arg, Var):
            arg = f"({arg})"
        return f"{fun} {arg}"
    raise TypeError(t)


def free_vars(t: Term, bound: frozenset[str] = frozenset()) -> set[str]:
    if isinstance(t, Var):
        return set() if t.name in bound else {t.name}
    if isinstance(t, Abs):
        return free_vars(t.body, bound | {t.param})
    if isinstance(t, App):
        return free_vars(t.fun, bound) | free_vars(t.arg, bound)
    if isinstance(t, Let):
        return free_vars(t.rhs, bound) | free_vars(t.body, bound | {t.name})
    raise TypeError(t)


def is_anf(t: Term) -> bool:
    """Check the ANF grammar: Let binds exactly one application of values;
    tail position is one application of values or a value."""
    if isinstance(t, Let):
        return (
            isinstance(t.rhs, App)
            and is_anf_value(t.rhs.fun)
            and is_anf_value(t.rhs.arg)
            and is_anf(t.body)
        )
    if isinstance(t, App):
        return is_anf_value(t.fun) and is_anf_value(t.arg)
    return is_anf_value(t)


def is_anf_value(t: Term) -> bool:
    if isinstance(t, Var):
        return True
    if isinstance(t, Abs):
        return is_anf(t.body)
    return False


def substitute(t: Term, x: str, v: Term) -> Term:
    """Capture-avoiding substitution t[v/x] for a closed value v.

    Performed at the named-ANF level so let-names are preserved;
    substituting a value for a variable keeps the term in ANF.
    """
    assert is_value(v) and not free_vars(v), "substitute requires a closed value"
    if isinstance(t, Var):
        return v if t.name == x else t
    if isinstance(t, Abs):
        if t.param == x:
            return t
        return Abs(t.param, substitute(t.body, x, v))
    if isinstance(t, App):
        return App(substitute(t.fun, x, v), substitute(t.arg, x, v))
    if isinstance(t, Let):
        rhs = substitute(t.rhs, x, v)
        if t.name == x:
            return Let(t.name, rhs, t.body)
        return Let(t.name, rhs, substitute(t.body, x, v))
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Per-member fragments of the combined nat fixture
# ---------------------------------------------------------------------------
#
# The members of the combined ``nat`` fixture model independent source
# files; ``fragment_program`` rebuilds any subset of them as a standalone
# program so the per-file and combined forms can be compared.

FRAGMENT_DEPS = {
    "NatData": (),
    "NatPlus": ("NatData",),
    "NatVisitor": ("NatData",),
    "BooleanData": (),
    "NatEquality": ("NatVisitor", "BooleanData"),
    "NatConstants": ("NatData",),
    "Test": ("NatConstants", "NatPlus", "NatEquality"),
    "CartesianTest": ("NatConstants", "NatPlus", "NatEquality"),
}


def _fragment_closure(names, out: dict) -> dict:
    for n in names:
        if n not in out:
            _fragment_closure(FRAGMENT_DEPS[n], out)[n] = None
    return out


def fragment_program(*names: str) -> CoreProgram:
    """A standalone program holding the named nat members plus their
    dependency closure, cross-referencing by name as in the combined
    fixture: the nat surface with its root restricted to those members."""
    surface = parse(fixture("nat").source)
    surface._node[0] = (_fragment_closure(names, {}), {})
    return resolve_references(surface)
