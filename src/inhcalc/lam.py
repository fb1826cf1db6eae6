"""The lambda-calculus bridge.

Contains four independent pieces:

* a parser for closed lambda-terms, on the record parser's reader
  (``syntax._Reader``), and an ANF normalizer;
* the five-rule translation from ANF terms to inheritance records;
* the inheritance-convergence check (scan the ``result`` chain for the
  abstraction shape);
* a head-reduction / Böhm-prefix oracle on de Bruijn terms that shares no
  code with the record semantics: one iterative Krivine machine that goes
  under binders, counts the steps to the weak head normal form it passes
  first, and proves divergence by a repeated state.

Each check on a term is made once, where the term is read:
``parse_lambda`` finds a parse error, free variables and synthetic
let-names in its one pass, and ``anf_transform`` checks nothing.
``translate`` checks hand-built terms again as it walks them.

Terms (``Var``, ``Abs``, ``App``, ``Let``), the reports ``ConvergenceReport``
and ``HeadResult``, and the Böhm nodes are immutable named tuples, like
``syntax.Node``: equal values compare and hash equal, and a field cannot
be set.  As every named tuple does, a value also equals the plain tuple
of its fields: ``Var("x") == ("x",)`` is True.  The passes that build
one value per node (``parse_lambda``, ``oracle_to_named``,
``anf_transform`` and ``translate``'s ``Node``s and references) build
them with ``_new(Cls, fields)``: the body of the generated constructor
without its Python frame, at about half its cost.  A value built once per
call, such as a report, takes its constructor.

The parser, ``anf_transform``, ``translate`` and ``named_to_oracle``
each read a run of binders, λs and lets alike, in one loop: it binds
each name, handles the innermost body, then closes the run from the
inside out.  ``anf_transform`` walks nested applications, in argument or
function position alike, on a work list.  So a binder nest, a long
spine, a zig-zag or a let chain costs these passes no stack frame per
link.  What still costs frames is a term nested inside another: the
parser spends one per parenthesis and per let's right side,
``anf_transform`` and ``translate`` two per abstraction inside an
application, and ``named_to_oracle`` one per nested application.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .semantics import (
    DEFAULT_FUEL,
    DivergenceError,
    EvalContext,
    InternedContext,
)
from .syntax import (
    CoreProgram,
    Node,
    Path,
    Reference,
    _BASE_KINDS,
    _IDENT,
    _Reader,
    resolve_references,  # noqa: F401  (bench/layers.py traces lam.resolve_references)
)

_new = tuple.__new__

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

class Var(NamedTuple):
    name: str


class Abs(NamedTuple):
    param: str
    body: Term


class App(NamedTuple):
    fun: Term
    arg: Term


class Let(NamedTuple):
    name: str
    rhs: Term
    body: Term


Term = Var | Abs | App | Let


def is_value(t: Term) -> bool:
    return isinstance(t, (Var, Abs))


# ---------------------------------------------------------------------------
# Parser: \x. M, left-associative juxtaposition, let x = M in N, parens
# ---------------------------------------------------------------------------

_LAM_TOKEN_RE = re.compile(rf"([\\λ().=]|{_IDENT}|\S[\s\S]*)")
_LAM_KIND = {
    **_BASE_KINDS, "let": "let", "in": "in",
    "\\": "lam", "λ": "lam", "(": "lp", ")": "rp", ".": "dot", "=": "eq",
}


class _LamParser(_Reader):
    """The λ grammar over the shared reader's token kinds and texts.
    ``parse_term`` reads one term in a loop; only a parenthesis and a
    let's right side cost it a stack frame, and a binder costs none.  It
    counts the binders in scope by name and collects the names it reads
    free and the first let-name that is a synthetic label."""

    def __init__(self, text: str):
        super().__init__(text, _LAM_TOKEN_RE, _LAM_KIND)
        self.scope: dict[str, int] = {}
        self.free: set[str] = set()
        self.synthetic: str | None = None

    def error(self, message: str, pos: int | None = None):
        if pos is None:
            pos = self.token_offset(self.i)
        raise LambdaParseError(f"{message} at {pos}")

    def parse(self) -> Term:
        t = self.parse_term()
        self.expect("eof")
        return t

    def parse_term(self) -> Term:
        """Atoms left to right, applied as they come.  A ``\\x.``, or a
        ``let x = M in`` that no atom precedes, opens a binder whose body
        runs to the end of the term: the run keeps (term applied so far,
        name, M or None) and binds the name, and where the term ends it
        closes inside out."""
        kinds, texts, scope = self.kinds, self.texts, self.scope
        run = []
        t = None  # the term applied so far in the innermost body
        while True:
            i = self.i
            kind = kinds[i]
            if kind == "ident":
                self.i = i + 1
                name = texts[i]
                if not scope.get(name):
                    self.free.add(name)
                atom = _new(Var, (name,))
            elif kind == "lp":
                self.i = i + 1
                atom = self.parse_term()
                self.expect("rp")
            elif kind == "lam" or (kind == "let" and t is None):
                self.i = i + 1
                name = self.expect("ident")
                if kind == "lam":
                    self.expect("dot")
                    run.append((t, name, None))
                    t = None
                else:
                    self.expect("eq")
                    if name in SYNTHETIC_LABELS and self.synthetic is None:
                        self.synthetic = name
                    rhs = self.parse_term()  # the let-name is not in scope here
                    self.expect("in")
                    run.append((None, name, rhs))
                scope[name] = scope.get(name, 0) + 1
                continue
            elif t is None:
                self.error(f"unexpected token {kind}")
            else:
                break
            t = atom if t is None else _new(App, (t, atom))
        while run:
            fun, name, rhs = run.pop()
            scope[name] -= 1
            t = _new(Abs, (name, t)) if rhs is None else _new(Let, (name, rhs, t))
            if fun is not None:
                t = _new(App, (fun, t))
        return t


def parse_lambda(text: str) -> Term:
    """Parse a closed term, checking it in the same pass.  A malformed
    text raises ``LambdaParseError``; then a term with free variables
    raises ``FreeVariableError``, naming all of them; then a let-name that
    is a synthetic label raises ``SyntheticNameCollision`` for the first
    one.  The ANF form of what it returns passes ``translate``."""
    parser = _LamParser(text)
    term = parser.parse()
    if parser.free:
        raise FreeVariableError(
            f"term is not closed; free variables: {sorted(parser.free)}"
        )
    if parser.synthetic is not None:
        raise SyntheticNameCollision(
            f"let-name {parser.synthetic!r} collides with a synthetic label"
        )
    return term


# ---------------------------------------------------------------------------
# ANF transform
# ---------------------------------------------------------------------------

class _Anf:
    """One ANF normalization: the binders in scope, counted by name, and
    the fresh-name counter.  The helpers are methods, so no closure cell
    ties them in a cycle and reference counting frees the normalizer when
    it returns.  Each helper returns its input itself when conversion
    changes none of its parts, so only a spine that gains lets is rebuilt.
    A binder costs no stack frame, as ``to_comp`` reads a run of them in
    a loop, and nor does an application nested in argument or function
    position, as ``application`` walks them on a work list.  An
    abstraction inside an application costs two frames, ``application``'s
    and its own ``to_comp``'s."""

    def __init__(self):
        self.scope: dict[str, int] = {}
        self.counter = 0

    def fresh(self) -> str:
        """The next ``_a<k>`` that no binder in scope has.  A spine's lets
        wrap it where it stands, and a closed spine's free names are its
        binders in scope, so the let captures none; abstraction atoms never
        mention the spine's own lets, and the counter never repeats."""
        while True:
            name = f"_a{self.counter}"
            self.counter += 1
            if not self.scope.get(name):
                return name

    def application(self, u: App, lets: list) -> App:
        """u with both parts atomized; the lets they need go to lets.  The
        walk is a post-order on a work list: each application's argument,
        then its function, then the application itself, named unless it is
        u.  A let in either position is read as its redex ``(\\x. N) M``."""
        # None marks the application below it: its atoms are on atoms
        work: list = [u, None, u[0], u[1]]
        atoms: list = []
        while True:
            t = work.pop()
            if t is None:
                link = work.pop()
                new_fun = atoms.pop()
                new_arg = atoms.pop()
                fun, arg = link
                app = link if new_fun is fun and new_arg is arg else _new(App, (new_fun, new_arg))
                if not work:
                    return app
                name = self.fresh()
                lets.append((name, app))
                atoms.append(_new(Var, (name,)))
            elif isinstance(t, Var):
                atoms.append(t)
            elif isinstance(t, App):
                work += (t, None, t[0], t[1])
            elif isinstance(t, Let):
                name, rhs, body = t
                work.append(_new(App, (_new(Abs, (name, body)), rhs)))
            else:
                atoms.append(self.to_comp(t))

    def to_comp(self, u: Term) -> Term:
        """u in ANF.  A run of abstractions and ANF lets, whose right sides
        apply a value to a value, takes one loop: each binder's right side,
        then its name bound over the rest; the innermost body is a variable
        or an application spine, and the run closes inside out."""
        scope = self.scope
        run = []
        while True:
            if isinstance(u, Abs):
                name, body = u
                run.append((u, None))
            elif isinstance(u, Let):
                name, rhs, body = u
                if not (isinstance(rhs, App) and is_value(rhs[0]) and is_value(rhs[1])):
                    u = _new(App, (_new(Abs, (name, body)), rhs))  # its redex
                    break
                fun, arg = rhs
                new_fun, new_arg = self.to_comp(fun), self.to_comp(arg)
                if new_fun is not fun or new_arg is not arg:
                    rhs = _new(App, (new_fun, new_arg))
                run.append((u, rhs))
            else:
                break
            scope[name] = scope.get(name, 0) + 1
            u = body
        if isinstance(u, Var):
            out = u
        elif not isinstance(u, App):
            raise TypeError(f"not a value: {u!r}")
        else:
            lets: list = []
            out = self.application(u, lets)
            for name, app in reversed(lets):
                out = _new(Let, (name, app, out))
        while run:
            binder, rhs = run.pop()
            name, body = binder[0], binder[-1]
            scope[name] -= 1
            if out is not body or rhs is not None and rhs is not binder[1]:
                binder = _new(Abs, (name, out)) if rhs is None else _new(Let, (name, rhs, out))
            out = binder
        return out


def anf_transform(t: Term) -> Term:
    """Normalize a closed term to ANF in one pass.

    Intermediate applications are named in evaluation order (arguments
    before the function position, innermost first), matching the shape
    ``let x1 = b false in let x2 = x1 true in let x3 = a b in x3 x2``
    for ``(a b)(b false true)``.  The fresh names are ``_a<k>``, k counting
    up from 0 over the whole term and skipping a name that a binder in
    scope at the new let has; a user name out of scope there may recur.
    The term must be closed, as ``parse_lambda`` returns it (a free
    ``_a<k>`` may be captured), and no let-name is checked here.  A term
    already in ANF comes back as the same object, let-names intact; so
    does every part of a term that conversion leaves unchanged.
    """
    return _Anf().to_comp(t)


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
_NO_LABELS = frozenset()


class _Translation:
    """The core program of one closed ANF term, with the ANF-shape,
    closed-term and let-name checks made on the way.  A binder costs no
    stack frame, as ``comp`` reads a run of abstractions and lets in a
    loop; an abstraction inside an application record costs two,
    ``application``'s and its own ``comp``'s."""

    def __init__(self):
        self.program = CoreProgram()
        self.node = self.program._node
        self.add = self.program._add
        # variable -> (binder level, projection that reads it), None out of scope
        self.scope: dict[str, tuple[int, tuple[str, ...]] | None] = {}

    def ref(self, v: Var, level: int) -> Reference:
        """The reference to variable v from a node at the given level."""
        (name,) = v
        bound = self.scope.get(name)
        if bound is None:
            raise FreeVariableError(f"translate requires a closed term: {name!r} is free")
        j, downs = bound
        return _new(Reference, (level - 1 - j, downs))  # j < level, so n >= 0

    def comp(self, m: Term, i: int, level: int) -> None:
        """Translate the computation m into the record of id i, at the
        given level.  A run of abstractions and lets takes one loop: each
        binder's record, and a let's right side, then its name bound over
        the rest one level down; run is a cons list of the bindings to
        restore once the innermost body is written."""
        node, add, scope = self.node, self.add, self.scope
        run = None
        while True:
            if isinstance(m, Abs):
                name, body = m
                node[i] = _LAMBDA_NODE
                add(i, "argument")
                downs = _ARGUMENT
            elif isinstance(m, Let):
                name, rhs, body = m
                if name in SYNTHETIC_LABELS:
                    raise SyntheticNameCollision(
                        f"let-name {name!r} collides with a synthetic label"
                    )
                if not isinstance(rhs, App):
                    raise ValueError(_NOT_ANF)
                node[i] = _new(Node, (frozenset((name, "result")), ()))
                self.application(rhs, add(i, name), level + 1)
                downs = (name, "result")
            else:
                break
            i = add(i, "result")
            run = (name, scope.get(name), run)
            scope[name] = (level, downs)
            level += 1
            m = body
        if isinstance(m, Var):
            node[i] = _new(Node, (_NO_LABELS, (self.ref(m, level),)))
        elif isinstance(m, App):
            node[i] = _TAIL_NODE
            add(i, "result", _FORWARD_NODE)
            self.application(m, add(i, "tailCall"), level + 1)
        else:
            raise ValueError(_NOT_ANF)
        while run is not None:
            name, outer, run = run
            scope[name] = outer

    def application(self, app: App, i: int, level: int) -> None:
        """The application record { T(V1), argument = T(V2) } of id i.

        A lambda literal in function position is inlined (set union): its
        record is this record, and its ``result`` child comes before the
        ``argument`` child.  The argument counts this record as one scope
        level, but the inlined binder is not in scope there.
        """
        fun, arg = app
        if isinstance(fun, Var):
            self.node[i] = _new(Node, (_APPLICATION_DEFINES, (self.ref(fun, level),)))
        elif isinstance(fun, Abs):
            param, body = fun
            self.node[i] = _LAMBDA_NODE
            result = self.add(i, "result")
            scope = self.scope
            outer = scope.get(param)
            scope[param] = (level, _ARGUMENT)
            self.comp(body, result, level + 1)
            scope[param] = outer
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

class ConvergenceReport(NamedTuple):
    converged: bool
    depth: int | None = None
    reason: str | None = None  # Cycle | FuelExhausted | DepthExceeded

    def describe(self) -> str:
        if self.converged:
            return f"converged at depth {self.depth}"
        return f"not converged: {self.reason}"


def _scan_result_chain(
    ctx: InternedContext, equation, max_depth: int, base_path: Path = ()
) -> ConvergenceReport:
    """Scan n = 0, 1, ... for the least result-chain depth at which
    ``equation``, the context's per-id ``_properties`` or ``_labels``,
    gives ``base_path`` + ``result``^n both ``argument`` and ``result``
    (the abstraction shape).  The scan interns ``base_path`` once and steps
    to each next level by its ``result`` child, so a level costs one dict
    read and builds no path; it asks the ids in the order, and adds them
    in the order, that interning each path would."""
    kids, add = ctx._kids, ctx._add_child
    i = ctx._intern(base_path)
    for n in range(max_depth + 1):
        if n:
            i = kids[i].get("result") or add(i, "result")
        try:
            found = equation(i)
        except DivergenceError as exc:
            return ConvergenceReport(False, None, exc.kind)
        if "argument" in found and "result" in found:
            return ConvergenceReport(True, n)
    return ConvergenceReport(False, None, "DepthExceeded")


def converges(
    prog: CoreProgram,
    fuel: int = DEFAULT_FUEL,
    max_depth: int = DEFAULT_MAX_DEPTH,
    base_path: Path = (),
    ctx: EvalContext | None = None,
) -> ConvergenceReport:
    """The result-chain scan over the general engine's per-id
    ``properties``, which it asks without the public method.  A given
    ``ctx`` is evaluated as is, so ``prog`` and ``fuel`` are then unread."""
    if ctx is None:
        ctx = EvalContext(prog, fuel=fuel)
    return _scan_result_chain(ctx, ctx._properties, max_depth, base_path)


# ---------------------------------------------------------------------------
# Head-reduction / Boehm-prefix oracle (independent of the record engine)
# ---------------------------------------------------------------------------
#
# Oracle terms are nested tuples over de Bruijn indices:
#   ("var", n) | ("abs", body) | ("app", fun, arg)

OTerm = tuple

ORACLE_FUEL = 10_000  # the oracle's budget: beta-steps per head reduction


def named_to_oracle(t: Term) -> OTerm:
    """Convert a closed named term to an oracle de Bruijn term, or raise
    ``FreeVariableError`` at the first free variable met.  Let-bindings are
    expanded as beta-redexes: let x = M in N == (\\x. N) M."""
    return _to_oracle(t, {}, 0)


def _to_oracle(t: Term, levels: dict, depth: int) -> OTerm:
    """``named_to_oracle`` under ``depth`` binders, where ``levels`` maps each
    bound name to the level of its innermost binder (the outermost is 0).
    A run of λs and lets takes one loop: each binder sets its name's level
    and pushes (name, level it shadows, right side or None for a λ) on
    ``run``, a cons list; once the innermost body is converted, the run
    closes inside out, and each binder's undo restores the map a let's
    right side is converted under.  An unbound name's level is None.  A
    binder costs O(1), and so does a variable."""
    run = None
    while True:
        if isinstance(t, Var):
            (var,) = t
            level = levels.get(var)
            if level is None:
                raise FreeVariableError(f"unbound variable {var!r}")
            out = ("var", depth - 1 - level)
            break
        if isinstance(t, App):
            fun, arg = t
            out = ("app", _to_oracle(fun, levels, depth), _to_oracle(arg, levels, depth))
            break
        if isinstance(t, Abs):
            name, t = t
            rhs = None
        elif isinstance(t, Let):
            name, rhs, t = t
        else:
            raise TypeError(t)
        run = (name, levels.get(name), rhs, run)
        levels[name] = depth
        depth += 1
    while run is not None:
        name, shadowed, rhs, run = run
        depth -= 1
        levels[name] = shadowed
        out = ("abs", out) if rhs is None else ("app", ("abs", out), _to_oracle(rhs, levels, depth))
    return out


_LEVEL_NAMES = tuple(f"v{k}" for k in range(64))  # read, not formatted, below 64


def oracle_to_named(t: OTerm, depth: int = 0) -> Term:
    """The named term of t, under ``depth`` binders: level k is ``v<k>``."""
    tag = t[0]
    if tag == "var":
        index = t[1]
        if index >= depth:
            raise FreeVariableError(f"free de Bruijn index {index}")
        k = depth - 1 - index
        return _new(Var, (_LEVEL_NAMES[k] if k < 64 else f"v{k}",))
    if tag == "abs":
        name = _LEVEL_NAMES[depth] if 0 <= depth < 64 else f"v{depth}"
        return _new(Abs, (name, oracle_to_named(t[1], depth + 1)))
    return _new(App, (oracle_to_named(t[1], depth), oracle_to_named(t[2], depth)))


class HeadResult(NamedTuple):
    status: str  # "hnf" | "diverged" | "fuel"
    steps: int
    whnf: int | None = None  # beta-steps to a weak head normal form, if reached

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
    when below 0.  Returns (status, beta-steps, whnf, hnf), where whnf is
    the beta-step count when the machine first goes under a binder (for a
    closed term, the steps to its weak head normal form), or None, and hnf
    is (head index, level count, argument stack).  Cells are interned by
    the ids of their parts in a table that keeps every part alive, so a
    state is three ids.  The machine is deterministic and no step reads a
    level's value, so a state that repeats after a beta-step proves
    divergence.
    """
    intern = {}.setdefault  # a cell is intern((id(head), id(tail)), (head, tail))
    stack = None
    steps, whnf = 0, None
    seen = set()
    while True:
        tag = term[0]
        if tag == "app":
            arg = term[2]
            # a variable argument pushes the entry its environment holds,
            # not a new closure of it, so Ω's state repeats
            if arg[0] == "var":
                entry = _lookup(env, arg[1])
            else:
                entry = intern((id(arg), id(env)), (arg, env))
            stack = intern((id(entry), id(stack)), (entry, stack))
            term = term[1]
        elif tag == "var":
            entry = _lookup(env, term[1])
            if isinstance(entry, int):
                return "hnf", steps, whnf, (binders - 1 - entry, binders, stack)
            term, env = entry
        elif stack is None:  # no argument waits: go under the binder
            if whnf is None:
                whnf = steps
            env = intern((id(binders), id(env)), (binders, env))
            binders, term = binders + 1, term[1]
        elif steps == fuel:
            return "fuel", steps, whnf, None
        else:  # a beta-step binds the waiting argument
            steps += 1
            entry, stack = stack
            env, term = intern((id(entry), id(env)), (entry, env)), term[1]
            state = (id(term), id(env), id(stack))
            if state in seen:
                return "diverged", steps, whnf, None
            seen.add(state)


def head_reduce(t: OTerm, fuel: int = ORACLE_FUEL) -> HeadResult:
    """Head-reduce t for at most ``fuel`` beta-steps.  Status "diverged"
    means a repeated machine state proved that t has no head normal form."""
    status, steps, whnf, _ = _machine(t, None, 0, fuel)
    return HeadResult(status, steps, whnf)


# Boehm prefix nodes

UNEXPANDED = "unexpanded"


class Bottom(NamedTuple):
    proven: bool  # True when divergence was proven by loop detection


class HnfNode(NamedTuple):
    binders: int
    head: int
    children: tuple


BohmNode = Bottom | HnfNode


def bohm_prefix(t: OTerm, depth: int = 2, fuel: int = ORACLE_FUEL) -> BohmNode:
    """The Böhm prefix of t, ``depth`` levels of children deep, each head
    normal form found in at most ``fuel`` beta-steps.  One loop walks the
    tree on a stack of open head normal forms, each [binders, head, levels,
    arguments left, children so far, depth left]: a child is reduced when
    its parent reaches it, in argument order, and a node closes once its
    last argument is read, so the tree costs no stack frame per level."""
    entry, binders = (t, None), 0
    stack = []
    while True:
        if isinstance(entry, int):
            node = HnfNode(0, binders - 1 - entry, ())
        else:
            status, _, _, hnf = _machine(*entry, binders, fuel)
            if status == "hnf":
                head, levels, args = hnf
                stack.append([binders, head, levels, args, [], depth])
                node = None
            else:
                node = Bottom(proven=status == "diverged")
        while stack:
            frame = stack[-1]
            if node is not None:
                frame[4].append(node)
            outer, head, levels, args, children, left = frame
            if args is None:
                stack.pop()
                node = HnfNode(levels - outer, head, tuple(children))
            elif left <= 0:
                frame[3] = args[1]
                node = UNEXPANDED
            else:
                entry, frame[3] = args
                binders, depth = levels, left - 1
                break
        else:
            return node


def bohm_text(node: BohmNode) -> str:
    """One line per node in preorder, each indented two spaces per level,
    read off an explicit stack, so a tree of any depth prints."""
    lines = []
    stack = [(node, 0)]
    while stack:
        node, indent = stack.pop()
        pad = "  " * indent
        if node == UNEXPANDED:
            lines.append(pad + "...")
        elif isinstance(node, Bottom):
            lines.append(pad + ("bottom" if node.proven else "bottom?"))
        else:
            lines.append(f"{pad}λ^{node.binders}. {node.head}")
            stack.extend((child, indent + 1) for child in reversed(node.children))
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
