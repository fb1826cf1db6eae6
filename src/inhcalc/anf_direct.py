"""Direct set-theoretic semantics of ANF terms.

Instead of translating to a record program and running the general
inheritance equations, this module extracts a node table (``children`` /
``refs``) straight from an ANF term and evaluates the specialized
equations ``labels``, ``grafts``, ``callee``, ``scope``, and
``callee_ctx``.  ``scope`` is single-valued: on images of the translation
the caller at each upward step is unique, and a violation raises
AmbiguousCaller.

The divergence machinery (memo tables, in-flight cycle markers, fuel) is
the general evaluator's ``equation`` kernel.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .lam import (
    Abs,
    App,
    ConvergenceReport,
    Let,
    Term,
    Var,
    free_vars,
    is_anf,
)
from .semantics import (
    ABOVE_ROOT,
    DEFAULT_FUEL,
    DivergenceError,
    ScopeUnderflowError,
    equation,
)
from .syntax import Path, Reference, ROOT


class AmbiguousCaller(Exception):
    """The unique-caller premise of scope resolution failed."""

    def __init__(self, p_site, p_def, candidates):
        super().__init__(
            f"scope step at site {p_site!r} for definition scope {p_def!r} "
            f"found {len(candidates)} caller(s): {sorted(candidates)!r}"
        )
        self.candidates = candidates


@dataclass(frozen=True)
class DirectNode:
    children: frozenset[str] = frozenset()
    refs: frozenset[Reference] = frozenset()


_EMPTY = DirectNode()


class DirectProgram:
    """Per-path ``children`` / ``refs`` table extracted from an ANF term."""

    def __init__(self, nodes: dict[Path, DirectNode]):
        self.nodes = dict(nodes)

    def children(self, p: Path) -> frozenset[str]:
        return self.nodes.get(p, _EMPTY).children

    def refs(self, p: Path) -> frozenset[Reference]:
        return self.nodes.get(p, _EMPTY).refs

    def paths(self) -> list[Path]:
        return sorted(self.nodes)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------
#
# Every node in the table is one scope level, so the level of a node is
# the length of its path, and a reference stored at node p with index n
# targets the node whose path length is len(p) - 1 - n.

_LAM = "lam"
_LET = "let"
_OPAQUE = "opaque"


def _lookup(env: list, name: str):
    for j in range(len(env) - 1, -1, -1):
        kind, bound = env[j]
        if bound == name and kind in (_LAM, _LET):
            return j, kind
    raise ValueError(f"unbound variable {name!r} during extraction")


def _var_ref(v: Var, level: int, env: list) -> Reference:
    j, kind = _lookup(env, v.name)
    if kind == _LAM:
        return Reference(level - 1 - j, ("argument",))
    # let-bound: project x.result from the defining let scope
    return Reference(level - 1 - j, (v.name, "result"))


class _Extractor:
    def __init__(self):
        self.nodes: dict[Path, DirectNode] = {}

    def put(self, p: Path, children=(), refs=()):
        assert p not in self.nodes
        self.nodes[p] = DirectNode(frozenset(children), frozenset(refs))

    def comp(self, m: Term, p: Path, env: list) -> None:
        if isinstance(m, Abs):
            self.put(p, {"argument", "result"})
            self.put(p + ("argument",))
            self.comp(m.body, p + ("result",), env + [(_LAM, m.param)])
            return
        if isinstance(m, Let):
            self.put(p, {m.name, "result"})
            inner = env + [(_LET, m.name)]
            self.application(m.rhs, p + (m.name,), inner)
            self.comp(m.body, p + ("result",), inner)
            return
        if isinstance(m, App):
            self.put(p, {"tailCall", "result"})
            inner = env + [(_OPAQUE, None)]
            self.application(m, p + ("tailCall",), inner)
            self.put(p + ("result",), refs={Reference(0, ("tailCall", "result"))})
            return
        if isinstance(m, Var):
            # bare value in tail position: the node itself carries the ref
            self.put(p, refs={_var_ref(m, len(p), env)})
            return
        raise TypeError(m)

    def application(self, app: App, p: Path, env: list) -> None:
        """An application node at path p (env covers the levels above p)."""
        v1, v2 = app.fun, app.arg
        if isinstance(v1, Abs):
            # the lambda-literal is inlined: this node is the lambda record
            self.put(p, {"argument", "result"})
            self.comp(v1.body, p + ("result",), env + [(_LAM, v1.param)])
        else:
            self.put(p, {"argument"}, {_var_ref(v1, len(p), env)})
        arg_env = env + [(_OPAQUE, None)]
        arg_path = p + ("argument",)
        if isinstance(v2, Abs):
            self.comp(v2, arg_path, arg_env)
        else:
            self.put(arg_path, refs={_var_ref(v2, len(arg_path), env)})


def extract(t: Term) -> DirectProgram:
    if not is_anf(t):
        raise ValueError("extract requires an ANF term")
    free = free_vars(t)
    if free:
        raise ValueError(f"extract requires a closed term: {sorted(free)}")
    ex = _Extractor()
    ex.comp(t, ROOT, [])
    return DirectProgram(ex.nodes)


# ---------------------------------------------------------------------------
# The direct equations
# ---------------------------------------------------------------------------

class DirectContext:
    """Memoized demand-driven evaluation of the direct ANF equations."""

    def __init__(self, program: DirectProgram, fuel: int = DEFAULT_FUEL):
        self.program = program
        self.fuel = fuel
        self.memo: defaultdict = defaultdict(dict)

    @equation("labels")
    def labels(self, p: Path) -> frozenset[str]:
        out = set()
        for p_step in self.callee_star(p):
            for p_graft in self.grafts(p_step):
                out |= self.program.children(p_graft)
        return frozenset(out)

    @equation("grafts")
    def grafts(self, p: Path) -> frozenset[Path]:
        if p == ROOT:
            return frozenset({ROOT})
        out = {p}
        last = p[-1]
        # A graft position of p is any graft of any transitive callee
        # of the parent that locally defines last(p), mirroring how an
        # override of a path arises from any override of any base of
        # the parent.
        for p_step in self.callee_star(p[:-1]):
            for p_graft in self.grafts(p_step):
                if last in self.program.children(p_graft):
                    out.add(p_graft + (last,))
        return frozenset(out)

    @equation("callee*")
    def callee_star(self, p: Path) -> frozenset[Path]:
        seen = {p}
        work = [p]
        while work:
            q = work.pop()
            for c in self.callee(q):
                if c not in seen:
                    seen.add(c)
                    work.append(c)
        return frozenset(seen)

    @equation("callee")
    def callee(self, p: Path) -> frozenset[Path]:
        out = set()
        for p_graft in self.grafts(p):
            for ref in self.program.refs(p_graft):
                if p == ROOT:
                    raise ScopeUnderflowError(
                        "a reference at the root has no enclosing scope"
                    )
                target = self.scope(p[:-1], p_graft[:-1], ref.n)
                out.add(target + ref.downs)
        return frozenset(out)

    @equation("scope")
    def scope(self, p_site: Path, p_def: Path, n: int) -> Path:
        if n == 0:
            return p_site
        if p_def == ROOT:
            raise ScopeUnderflowError(f"scope step above the root (n={n} remaining)")
        callers = {
            context
            for context, p_graft in self.callee_ctx(p_site)
            if p_graft == p_def
        }
        if len(callers) != 1:
            raise AmbiguousCaller(p_site, p_def, callers)
        (caller,) = callers
        assert caller is not ABOVE_ROOT
        return self.scope(caller, p_def[:-1], n - 1)

    @equation("callee_ctx")
    def callee_ctx(self, p: Path) -> frozenset:
        pairs = set()
        for p_step in self.callee_star(p):
            context = ABOVE_ROOT if p_step == ROOT else p_step[:-1]
            for p_graft in self.grafts(p_step):
                pairs.add((context, p_graft))
        return frozenset(pairs)

    def observe_structure(self, p: Path, depth: int):
        """Label-keyed observation structure comparable with the general
        evaluator's ObservationTree.structure()."""
        labels = tuple(sorted(self.labels(p)))
        children = ()
        if depth > 0:
            children = tuple(
                (label, self.observe_structure(p + (label,), depth - 1))
                for label in labels
            )
        return (None, labels, children)


def converges_direct(
    dp: DirectProgram,
    fuel: int = DEFAULT_FUEL,
    max_depth: int = 64,
    ctx: DirectContext | None = None,
) -> ConvergenceReport:
    if ctx is None:
        ctx = DirectContext(dp, fuel=fuel)
    for n in range(max_depth + 1):
        p = ("result",) * n
        try:
            labels = ctx.labels(p)
        except DivergenceError as exc:
            return ConvergenceReport(False, None, exc.kind)
        if "argument" in labels and "result" in labels:
            return ConvergenceReport(True, n, None)
    return ConvergenceReport(False, None, "DepthExceeded")
