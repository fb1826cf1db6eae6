"""The lambda-calculus bridge.

Contains four independent pieces:

* a parser and ANF normalizer for closed lambda-terms;
* the five-rule translation from ANF terms to inheritance records;
* the inheritance-convergence check (scan the ``result`` chain for the
  abstraction shape);
* a head-reduction / Böhm-prefix oracle on de Bruijn terms that shares no
  code with the record semantics: one iterative Krivine machine that goes
  under binders and proves divergence by a repeated state.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

from .semantics import (
    DEFAULT_FUEL,
    DivergenceError,
    EvalContext,
)
from .syntax import (
    CoreProgram,
    Node,
    Path,
    Reference,
    resolve_references,  # noqa: F401  (bench/layers.py traces lam.resolve_references)
)

SYNTHETIC_LABELS = frozenset({"argument", "result", "tailCall"})

DEFAULT_MAX_DEPTH = 64


class LambdaParseError(Exception):
    pass


class FreeVariableError(ValueError):
    pass


class SyntheticNameCollision(ValueError):
    pass


# ---------------------------------------------------------------------------
# Named terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Abs:
    param: str
    body: "Term"


@dataclass(frozen=True)
class App:
    fun: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Let:
    name: str
    rhs: "Term"
    body: "Term"


Term = Var | Abs | App | Let


def is_value(t: Term) -> bool:
    return isinstance(t, (Var, Abs))


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


def term_text(t: Term) -> str:
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


# ---------------------------------------------------------------------------
# Parser: \x. M, left-associative juxtaposition, let x = M in N, parens
# ---------------------------------------------------------------------------

# One match per token or whitespace run; only tokens fill the group.  The
# last alternative takes everything from an unexpected character to the
# end of the input, so only the last token can be one.
_LAM_TOKEN_RE = re.compile(r"\s+|([\\λ().=]|[A-Za-z_][A-Za-z0-9_]*|[\s\S]+)")
_LAM_KIND = {
    "": "eof", "let": "let", "in": "in",
    "\\": "lam", "λ": "lam", "(": "lp", ")": "rp", ".": "dot", "=": "eq",
    **dict.fromkeys(string.ascii_letters + "_", "ident"),
}


def _lam_tokens(text: str) -> tuple[list[str], list[str]]:
    """The kinds and the texts of the tokens, ending with kind ``eof`` and
    text ``""``.  A token's kind comes from its text (``let``, ``in``,
    punctuation and the end of input) or else from its first character."""
    texts = list(filter(None, _LAM_TOKEN_RE.findall(text)))
    if texts and texts[-1][0] not in _LAM_KIND:
        pos = len(text) - len(texts[-1])
        raise LambdaParseError(f"unexpected character {text[pos]!r} at {pos}")
    texts.append("")
    return [_LAM_KIND.get(tok) or _LAM_KIND[tok[0]] for tok in texts], texts


class _LamParser:
    """Recursive descent over the token kinds and texts, read by index."""

    def __init__(self, text: str):
        self.kinds, self.texts = _lam_tokens(text)
        self.i = 0

    def expect(self, kind: str) -> str:
        """The text of the next token, which must be of ``kind``."""
        i = self.i
        if self.kinds[i] != kind:
            raise LambdaParseError(f"expected {kind}, found {self.kinds[i]}")
        self.i = i + 1
        return self.texts[i]

    def parse(self) -> Term:
        t = self.parse_term()
        self.expect("eof")
        return t

    def parse_term(self) -> Term:
        kind = self.kinds[self.i]
        if kind == "lam":
            self.i += 1
            param = self.expect("ident")
            self.expect("dot")
            return Abs(param, self.parse_term())
        if kind == "let":
            self.i += 1
            name = self.expect("ident")
            self.expect("eq")
            rhs = self.parse_term()
            self.expect("in")
            body = self.parse_term()
            return Let(name, rhs, body)
        return self.parse_application()

    def parse_application(self) -> Term:
        t = self.parse_atom()
        while (kind := self.kinds[self.i]) in ("lp", "ident", "lam"):
            if kind == "lam":
                # allow "f \x. M" to consume the trailing abstraction
                return App(t, self.parse_term())
            t = App(t, self.parse_atom())
        return t

    def parse_atom(self) -> Term:
        i = self.i
        kind = self.kinds[i]
        if kind == "ident":
            self.i = i + 1
            return Var(self.texts[i])
        if kind == "lp":
            self.i = i + 1
            t = self.parse_term()
            self.expect("rp")
            return t
        raise LambdaParseError(f"unexpected token {kind}")


def parse_lambda(text: str, allow_free: bool = False) -> Term:
    term = _LamParser(text).parse()
    if not allow_free:
        free = free_vars(term)
        if free:
            raise FreeVariableError(
                f"term is not closed; free variables: {sorted(free)}"
            )
    return term


# ---------------------------------------------------------------------------
# ANF transform
# ---------------------------------------------------------------------------

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


def _names(t: Term, out: set[str]) -> set[str]:
    """Add every name in t to out; a synthetic let-name raises."""
    if isinstance(t, Var):
        out.add(t.name)
    elif isinstance(t, Abs):
        out.add(t.param)
        _names(t.body, out)
    elif isinstance(t, App):
        _names(t.fun, out)
        _names(t.arg, out)
    elif isinstance(t, Let):
        if t.name in SYNTHETIC_LABELS:
            raise SyntheticNameCollision(
                f"let-name {t.name!r} collides with a synthetic label"
            )
        out.add(t.name)
        _names(t.rhs, out)
        _names(t.body, out)
    else:
        raise TypeError(t)
    return out


class _Anf:
    """One ANF normalization: the names in use and the fresh-name counter.
    The helpers are methods, so no closure cell ties them in a cycle and
    reference counting frees the normalizer when it returns."""

    def __init__(self, used: set[str]):
        self.used = used
        self.counter = 0

    def fresh(self) -> str:
        while True:
            name = f"_a{self.counter}"
            self.counter += 1
            if name not in self.used:
                self.used.add(name)
                return name

    def to_value(self, v: Term) -> Term:
        if isinstance(v, Var):
            return v
        if isinstance(v, Abs):
            return Abs(v.param, self.to_comp(v.body))
        raise TypeError(f"not a value: {v!r}")

    def atomize(self, u: Term, lets: list) -> Term:
        if is_value(u):
            return self.to_value(u)
        if isinstance(u, Let):
            return self.atomize(App(Abs(u.name, u.body), u.rhs), lets)
        arg = self.atomize(u.arg, lets)
        fun = self.atomize(u.fun, lets)
        name = self.fresh()
        lets.append((name, fun, arg))
        return Var(name)

    def to_comp(self, u: Term) -> Term:
        if is_value(u):
            return self.to_value(u)
        if isinstance(u, Let):
            rhs = u.rhs
            if isinstance(rhs, App) and is_value(rhs.fun) and is_value(rhs.arg):
                return Let(
                    u.name,
                    App(self.to_value(rhs.fun), self.to_value(rhs.arg)),
                    self.to_comp(u.body),
                )
            return self.to_comp(App(Abs(u.name, u.body), rhs))
        # u is an application spine
        lets: list = []
        arg = self.atomize(u.arg, lets)
        fun = self.atomize(u.fun, lets)
        out: Term = App(fun, arg)
        for name, f, a in reversed(lets):
            out = Let(name, App(f, a), out)
        return out


def anf_transform(t: Term) -> Term:
    """Normalize a term to ANF with deterministic fresh names _a0, _a1, ...

    Intermediate applications are named in evaluation order (arguments
    before the function position, innermost first), matching the shape
    ``let x1 = b false in let x2 = x1 true in let x3 = a b in x3 x2``
    for ``(a b)(b false true)``.  Terms already in ANF pass through with
    their let-names intact.
    """
    return _Anf(_names(t, set())).to_comp(t)


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
# Translation to inheritance records
# ---------------------------------------------------------------------------
#
# One walk over the ANF term writes the core program's trie, one id per
# record literal, in the order the walk meets them.  Every record literal
# is one scope level, so the level of a node is the length of its path,
# and a reference stored at a node of level L with index n targets the
# enclosing node of level L - 1 - n.  A variable bound at level j is read
# from a node of level L as (L - 1 - j, ("argument",)) when a lambda binds
# it, and as (L - 1 - j, (name, "result")) when a let binds it.

_NOT_ANF = "translate requires an ANF term"
_ARGUMENT = ("argument",)
_LAMBDA_NODE = Node(frozenset({"argument", "result"}))
_TAIL_NODE = Node(frozenset({"tailCall", "result"}))
_FORWARD_NODE = Node(inherits=(Reference(0, ("tailCall", "result")),))
_APPLICATION_DEFINES = frozenset(_ARGUMENT)


class _Translation:
    """The core program of one closed ANF term, with the ANF-shape,
    closed-term and let-name checks made on the way."""

    def __init__(self):
        self.program = CoreProgram()
        self.node = self.program._node
        self.add = self.program._add
        # variable in scope -> (binder level, projection that reads it)
        self.scope: dict[str, tuple[int, tuple[str, ...]]] = {}

    def ref(self, v: Var, level: int) -> Reference:
        """The reference to variable v from a node at the given level."""
        try:
            j, downs = self.scope[v.name]
        except KeyError:
            raise FreeVariableError(
                f"translate requires a closed term: {v.name!r} is free"
            ) from None
        return Reference(level - 1 - j, downs)

    def comp(self, m: Term, i: int, level: int) -> None:
        """Translate the computation m into the record of id i, at the
        given level."""
        node, add = self.node, self.add
        if isinstance(m, Var):
            node[i] = Node(inherits=(self.ref(m, level),))
        elif isinstance(m, Abs):
            node[i] = _LAMBDA_NODE
            add(i, "argument")
            self.bound(m.param, level, _ARGUMENT, m.body, add(i, "result"))
        elif isinstance(m, Let):
            name = m.name
            if name in SYNTHETIC_LABELS:
                raise SyntheticNameCollision(
                    f"let-name {name!r} collides with a synthetic label"
                )
            if not isinstance(m.rhs, App):
                raise ValueError(_NOT_ANF)
            node[i] = Node(frozenset({name, "result"}))
            self.application(m.rhs, add(i, name), level + 1)
            self.bound(name, level, (name, "result"), m.body, add(i, "result"))
        elif isinstance(m, App):
            node[i] = _TAIL_NODE
            add(i, "result", _FORWARD_NODE)
            self.application(m, add(i, "tailCall"), level + 1)
        else:
            raise ValueError(_NOT_ANF)

    def bound(self, name: str, level: int, downs: tuple, body: Term, i: int) -> None:
        """Translate body into the record of id i, a child of the binder at
        the given level, with name bound there."""
        scope = self.scope
        outer = scope.get(name)
        scope[name] = (level, downs)
        self.comp(body, i, level + 1)
        if outer is None:
            del scope[name]
        else:
            scope[name] = outer

    def application(self, app: App, i: int, level: int) -> None:
        """The application record { T(V1), argument = T(V2) } of id i.

        A lambda literal in function position is inlined (set union): its
        record is this record.  The argument counts this record as one
        scope level, but the inlined binder is not in scope there.
        """
        fun, arg = app.fun, app.arg
        if isinstance(fun, Var):
            self.node[i] = Node(_APPLICATION_DEFINES, (self.ref(fun, level),))
        elif isinstance(fun, Abs):
            self.node[i] = _LAMBDA_NODE
            self.bound(fun.param, level, _ARGUMENT, fun.body, self.add(i, "result"))
        else:
            raise ValueError(_NOT_ANF)
        if not isinstance(arg, (Var, Abs)):
            raise ValueError(_NOT_ANF)
        self.comp(arg, self.add(i, "argument"), level + 1)


def translate(t: Term) -> CoreProgram:
    """The record program of a closed ANF term.

    Raises a ValueError on every rejected term: a plain one if t is not in
    ANF, FreeVariableError if it is open, and SyntheticNameCollision if a
    let-name is a synthetic label; a term with several faults raises for
    the first one the walk meets.
    """
    translation = _Translation()
    translation.comp(t, 0, 0)
    return translation.program


# ``resolve_references`` reads any program, and a resolved one as an equal
# program, so a translation serves as its own surface program.  The name
# stays because ``bench/layers.py`` traces it.
translate_surface = translate


# ---------------------------------------------------------------------------
# Inheritance-convergence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    converged: bool
    depth: int | None = None
    reason: str | None = None  # Cycle | FuelExhausted | DepthExceeded

    def describe(self) -> str:
        if self.converged:
            return f"converged at depth {self.depth}"
        return f"not converged: {self.reason}"


def _scan_result_chain(labels, max_depth: int, base_path: Path = ()) -> ConvergenceReport:
    """Scan n = 0, 1, ... for the least result-chain depth at which
    ``labels`` of the path has both ``argument`` and ``result`` (the
    abstraction shape)."""
    for n in range(max_depth + 1):
        try:
            found = labels(base_path + ("result",) * n)
        except DivergenceError as exc:
            return ConvergenceReport(False, None, exc.kind)
        if "argument" in found and "result" in found:
            return ConvergenceReport(True, n, None)
    return ConvergenceReport(False, None, "DepthExceeded")


def converges(
    prog: CoreProgram,
    fuel: int = DEFAULT_FUEL,
    max_depth: int = DEFAULT_MAX_DEPTH,
    base_path: Path = (),
    ctx: EvalContext | None = None,
) -> ConvergenceReport:
    """The result-chain scan over the general engine's ``properties``.  A
    given ``ctx`` is evaluated as is, so ``prog`` and ``fuel`` are then unread."""
    if ctx is None:
        ctx = EvalContext(prog, fuel=fuel)
    return _scan_result_chain(ctx.properties, max_depth, base_path)


# ---------------------------------------------------------------------------
# Head-reduction / Boehm-prefix oracle (independent of the record engine)
# ---------------------------------------------------------------------------
#
# Oracle terms are nested tuples over de Bruijn indices:
#   ("var", n) | ("abs", body) | ("app", fun, arg)

OTerm = tuple


def o_var(n: int) -> OTerm:
    return ("var", n)


def o_abs(body: OTerm) -> OTerm:
    return ("abs", body)


def o_app(fun: OTerm, arg: OTerm) -> OTerm:
    return ("app", fun, arg)


def named_to_oracle(t: Term, env: tuple[str, ...] = ()) -> OTerm:
    """Convert a named term to an oracle de Bruijn term.  Let-bindings are
    expanded as beta-redexes: let x = M in N == (\\x. N) M."""
    if isinstance(t, Var):
        for i, name in enumerate(env):
            if name == t.name:
                return o_var(i)
        raise FreeVariableError(f"unbound variable {t.name!r}")
    if isinstance(t, Abs):
        return o_abs(named_to_oracle(t.body, (t.param,) + env))
    if isinstance(t, App):
        return o_app(named_to_oracle(t.fun, env), named_to_oracle(t.arg, env))
    if isinstance(t, Let):
        return o_app(
            o_abs(named_to_oracle(t.body, (t.name,) + env)),
            named_to_oracle(t.rhs, env),
        )
    raise TypeError(t)


def oracle_to_named(t: OTerm, depth: int = 0) -> Term:
    if t[0] == "var":
        index = t[1]
        if index >= depth:
            raise FreeVariableError(f"free de Bruijn index {index}")
        return Var(f"v{depth - 1 - index}")
    if t[0] == "abs":
        return Abs(f"v{depth}", oracle_to_named(t[1], depth + 1))
    return App(oracle_to_named(t[1], depth), oracle_to_named(t[2], depth))


@dataclass(frozen=True)
class HeadResult:
    status: str  # "hnf" | "diverged" | "fuel"
    steps: int

    @property
    def decided(self) -> bool:
        return self.status in ("hnf", "diverged")


def _lookup(env, n: int):
    """The entry of de Bruijn index n in env; free variable m past its end is level -1 - m."""
    while env is not None:
        if n == 0:
            return env[0]
        n -= 1
        env = env[1]
    return -1 - n


def _machine(term: OTerm, env, binders: int, fuel: int):
    """Head-reduce the closure (term, env) on a Krivine machine that goes
    under a binder with a fresh level when no argument waits for it.

    Environments and the argument stack are (head, tail) cons cells ending
    in None.  An environment entry is a (term, env) closure or a level: a
    binder gone under, numbered from ``binders`` on, or a free variable
    when below 0.  Returns (status, beta-steps, hnf), where hnf is (head
    index, level count, argument stack).  Cells are interned by the ids of
    their parts in a table that keeps every part alive, so a state is three
    ids.  The machine is deterministic and no step reads a level's value,
    so a state that repeats after a beta-step proves divergence.
    """
    cells: dict = {}

    def cons(head, tail):
        return cells.setdefault((id(head), id(tail)), (head, tail))

    stack = None
    steps = 0
    seen = set()
    while True:
        tag = term[0]
        if tag == "app":
            arg = term[2]
            # a variable argument pushes the entry its environment holds,
            # not a new closure of it, so Ω's state repeats
            entry = _lookup(env, arg[1]) if arg[0] == "var" else cons(arg, env)
            stack = cons(entry, stack)
            term = term[1]
        elif tag == "var":
            entry = _lookup(env, term[1])
            if isinstance(entry, int):
                return "hnf", steps, (binders - 1 - entry, binders, stack)
            term, env = entry
        elif stack is None:  # no argument waits: go under the binder
            env, binders, term = cons(binders, env), binders + 1, term[1]
        elif steps == fuel:
            return "fuel", steps, None
        else:  # a beta-step binds the waiting argument
            steps += 1
            env, stack, term = cons(stack[0], env), stack[1], term[1]
            state = (id(term), id(env), id(stack))
            if state in seen:
                return "diverged", steps, None
            seen.add(state)


def head_reduce(t: OTerm, fuel: int = 10_000) -> HeadResult:
    """Head-reduce t for at most ``fuel`` beta-steps.  Status "diverged"
    means a repeated machine state proved that t has no head normal form."""
    status, steps, _ = _machine(t, None, 0, fuel)
    return HeadResult(status, steps)


# Boehm prefix nodes

UNEXPANDED = "unexpanded"


@dataclass(frozen=True)
class Bottom:
    proven: bool  # True when divergence was proven by loop detection


@dataclass(frozen=True)
class HnfNode:
    binders: int
    head: int
    children: tuple


BohmNode = Bottom | HnfNode


def bohm_prefix(t: OTerm, depth: int = 2, fuel: int = 10_000) -> BohmNode:
    return _bohm((t, None), 0, depth, fuel)


def _bohm(entry, binders: int, depth: int, fuel: int) -> BohmNode:
    """The Böhm prefix of an environment entry under ``binders`` levels."""
    if isinstance(entry, int):
        return HnfNode(0, binders - 1 - entry, ())
    status, _, hnf = _machine(*entry, binders, fuel)
    if status != "hnf":
        return Bottom(proven=status == "diverged")
    head, levels, args = hnf
    children = []
    while args is not None:
        entry, args = args
        children.append(UNEXPANDED if depth <= 0 else _bohm(entry, levels, depth - 1, fuel))
    return HnfNode(levels - binders, head, tuple(children))


def bohm_text(node: BohmNode, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(node, Bottom):
        mark = "bottom" if node.proven else "bottom?"
        return f"{pad}{mark}"
    lines = [f"{pad}λ^{node.binders}. {node.head}"]
    for child in node.children:
        if child == UNEXPANDED:
            lines.append("  " * (indent + 1) + "...")
        else:
            lines.append(bohm_text(child, indent + 1))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Named fixture terms
# ---------------------------------------------------------------------------

def _church(n: int) -> Term:
    body: Term = Var("x")
    for _ in range(n):
        body = App(Var("f"), body)
    return Abs("f", Abs("x", body))


NAMED_TERMS: dict[str, Term] = {
    "I": parse_lambda("\\x. x"),
    "K": parse_lambda("\\t. \\f. t"),
    "S": parse_lambda("\\x. \\y. \\z. (x z) (y z)"),
    "omega": parse_lambda("(\\x. x x) (\\x. x x)"),
    "true": parse_lambda("\\t. \\f. t"),
    "false": parse_lambda("\\t. \\f. f"),
    "eq": parse_lambda("\\a. \\b. (a b) (b (\\t. \\f. f) (\\t. \\f. t))"),
    "church0": _church(0),
    "church1": _church(1),
    "church2": _church(2),
    "church3": _church(3),
}
