"""Demand-driven evaluation of the six set-comprehension equations.

The evaluator answers membership queries (``properties``, ``supers``,
``overrides``, ``bases``, ``resolve``, ``this``, and ``bases*``, the
closure of ``bases``) over a CoreProgram by unfolding the mutually
recursive equations on demand.  The equations run on integer path ids:
a context adopts the program's (parent, label) trie and interns each
further path it meets once, and its public methods take and return
paths.  All but ``resolve`` and ``this`` run under one kernel,
``equation``, one id per query; ``bases`` walks a reference's ``this``
steps in a loop that reads ``supers``.  Each kernel body run spends one
unit of a global fuel budget, which bounds infinite acyclic unfoldings
with ``Divergence(FuelExhausted)``.  ``supers``, ``overrides`` and
``bases`` are memoized per id, and an id that re-enters its own
in-flight evaluation reports ``Divergence(Cycle)``; ``properties`` and
``bases*`` keep no table (see ``equation``).  The equations recurse on
the Python stack; ``EvalContext.observe`` and the printers of its tree
walk the observation tree on explicit stacks.

An evaluation builds no reference cycle, so reference counting alone
frees it, also when an error escapes.  ``EvalContext.observe`` therefore
pauses CPython's automatic cyclic collection, which would walk the
growing memo and find nothing.  The pause is process-wide: while an
``observe`` runs, no other thread's cyclic garbage is collected either,
and a thread that toggles ``gc`` meanwhile can be overridden when it
ends.  Contexts themselves are single-threaded.
"""

from __future__ import annotations

import functools
import gc
import json
from collections import defaultdict
from typing import NamedTuple

from .syntax import CoreProgram, Node, Path, path_text, trie_path

DEFAULT_FUEL = 1_000_000


class _AboveRoot:
    """Sentinel for init(()) in the root's reflexive super pair.

    It can never be selected by a ``this`` step: the only super pair that
    carries it has override ``()``, and stepping with a root definition
    scope underflows first.  ``ABOVE_ROOT`` is its one instance.
    """

    def __repr__(self):
        return "AboveRoot"

    def __lt__(self, other):  # sorts before every real path
        return other is not self

    def __gt__(self, other):  # a real path's reflected __lt__
        return False


ABOVE_ROOT = _AboveRoot()


class DivergenceError(Exception):
    """A query whose recursive evaluation does not terminate."""

    def __init__(self, kind: str, witness):
        super().__init__(kind, witness)
        self.kind = kind  # "Cycle" | "FuelExhausted"
        self.witness = witness

    def __str__(self):
        return f"Divergence({self.kind}) at {self.witness!r}"


class ScopeUnderflowError(Exception):
    """A reference's scope count exceeds the available scope depth."""


class SinglePathViolation(NamedTuple):
    frontier: frozenset
    p_def: Path
    n: int


_MISS = object()  # what a memo probe returns for a key it lacks


def equation(tag: str, table: bool = True):
    """Make a method one equation of a demand-driven evaluator, memoized
    unless ``table`` is false.

    Every equation takes one id per query, its only argument.  The
    instance keeps ``fuel`` and ``memo``, a ``defaultdict(dict)`` that
    holds one table per memoized equation, keyed by id, and a query probes
    its table once.  Each run of an equation's body spends one unit of
    fuel, and a run with no fuel left raises ``Divergence(FuelExhausted)``
    before it starts; a memo hit runs no body.  While a memoized body runs,
    its entry holds ``None``, so re-entering the same query raises
    ``Divergence(Cycle)``, even with no fuel left; results are never
    ``None``.  A body that raises leaves no entry, so a re-query reaches
    the same verdict.  A divergence's witness is what the instance's
    ``_witness(tag, id)`` makes of the query; the kernel calls it only to
    raise.

    A reference's walk of its ``n`` scope steps, in ``bases`` and in the
    direct engine's ``callee``, runs in a loop outside the kernel and
    spends no fuel of its own; ``n`` is written in the program text and
    each miss the walk asks spends fuel, so fuel still bounds all work up
    to a constant of the program.

    An equation keeps a table only where an answer is read again or a
    cycle can pass through it: in the general engine ``supers``,
    ``overrides`` and ``bases``.  ``properties`` and the direct engine's
    ``labels`` are asked only by public callers, so no cycle passes through
    them.  ``bases*(p)`` is asked only by ``supers(p)``, once per run, so
    under a ``supers`` query a re-entry of ``bases*(p)`` first re-enters
    the in-flight ``supers(p)``, which raises the same ``Cycle`` at the
    same id.  These three keep no table, and three things differ from a
    table: a second public query of the same id runs the body again and
    spends one more unit; a public ``bases*`` query reports a cycle at the
    first memoized id it re-enters; and after an error escapes ``supers``,
    asking it again runs ``bases*`` again.

    A call site whose query is almost always answered already reads the
    table first, ``self.memo[tag].get(key) or self._eq(key)``, so a
    completed, non-empty answer costs one dict read.  That read cannot
    add, drop or reorder a miss: it returns only what the kernel would
    return for the key without spending fuel or writing a table, and a
    missing key, an in-flight ``None`` or an empty result still enters the
    kernel, which alone spends fuel, marks keys in flight and builds
    witnesses.  Only the six reads that the benchmark's workloads answer
    from the table most of the time do so; every other call site enters
    the kernel, whose probe answers a hit too.
    """

    def decorate(body):
        def run(self, key):
            if table:
                memo = self.memo[tag]
                value = memo.get(key, _MISS)
                if value is None:
                    raise DivergenceError("Cycle", self._witness(tag, key))
                if value is not _MISS:
                    return value
            if self.fuel <= 0:
                raise DivergenceError("FuelExhausted", self._witness(tag, key))
            self.fuel -= 1
            if not table:
                return body(self, key)
            memo[key] = None
            try:
                value = body(self, key)
            except BaseException:
                del memo[key]
                raise
            memo[key] = value
            return value

        return functools.wraps(body)(run)

    return decorate


def closure(step: str):
    """The body of the reflexive-transitive closure of the equation method
    named ``step``: a membership-checked worklist, so ids that step to each
    other have a finite closure.  Each step is asked through the kernel: its
    table holds the answer on only about one read in five."""

    def body(self, p: int) -> frozenset[int]:
        step_of = getattr(self, step)
        seen = {p}
        work = [p]
        while work:
            r = work.pop()
            for q in step_of(r):
                if q not in seen:
                    seen.add(q)
                    work.append(q)
        return frozenset(seen)

    return body


class InternedContext:
    """A memoized evaluation on interned path ids: the fuel and memo tables
    that the ``equation`` kernel reads, and a (parent, label) trie of the
    paths it meets, whose first ids are the program's own.

    An id's memo key hashes in O(1), a step to a known parent or child
    allocates nothing, and a path costs one dict lookup per label, walked
    from the root; a caller that walks on from an id it holds, as the
    result-chain scan does, steps by child instead.  The context copies
    the program's per-id lists, whose nodes
    are ``Node``s, and copies the children dict of an adopted id (one below
    the program's length) the first time it adds to it; it adds ids with
    ``CoreProgram._add``, each with the empty node, so evaluation never
    changes the program.  The equations
    read a node's fields by index, ``[0]`` its labels and ``[1]`` its
    references: an index read costs less than a named field's.
    Paths are built only on the way out: public methods of a subclass
    intern their arguments and map their results back to paths, and a
    divergence is path-valued where it is raised, by ``_witness``.

    A context is single-threaded; create one context per evaluation.
    Results are immutable frozensets or tuples, safe to share once computed.
    """

    def __init__(self, program: CoreProgram, fuel: int = DEFAULT_FUEL):
        self.program = program
        self.fuel = fuel
        self.memo: defaultdict = defaultdict(dict)
        # The trie: per id, its parent id, last label, children by label
        # and node; the root is id 0, and its parent is ABOVE_ROOT.
        self._parent: list = list(program._parent)
        self._parent[0] = ABOVE_ROOT
        self._label: list = list(program._label)
        self._kids: list[dict[str, int]] = list(program._kids)
        self._node: list[Node] = list(program._node)

    def _add_child(self, i: int, label: str) -> int:
        """Intern the child ``label`` of id ``i``, which has none yet.  No
        child is the root, so a known child's id is nonzero, and a step to
        the child reads ``self._kids[i].get(label) or self._add_child(i, label)``."""
        kids = self._kids
        if i < len(self.program._kids) and kids[i] is self.program._kids[i]:
            kids[i] = dict(kids[i])
        return CoreProgram._add(self, i, label)

    def _intern(self, p: Path) -> int:
        """The id of path ``p``, walked from the root."""
        i, kids = 0, self._kids
        for label in p:
            i = kids[i].get(label) or self._add_child(i, label)
        return i

    def _paths(self, ids):
        """The path of an id, or the paths of a frozenset of ids, read up the
        trie."""
        if isinstance(ids, frozenset):
            return frozenset(map(self._paths, ids))
        return trie_path(self, ids)

    def _witness(self, tag: str, key: int) -> tuple:
        """The path-valued witness of a divergent query on the id ``key``."""
        return (tag, self._paths(key))


class EvalContext(InternedContext):
    """Memoization tables, fuel and interned paths for one program: the
    six equations, run on path ids.  The equations write nothing but the
    memo, the trie and ``_violations``, which the scope walks fill."""

    def __init__(self, program: CoreProgram, fuel: int = DEFAULT_FUEL):
        super().__init__(program, fuel)
        self._violations: dict = {}  # (S, p_def, n) on ids, as an ordered set

    @property
    def single_path_violations(self) -> list[SinglePathViolation]:
        """The ``this`` steps with ``n > 0`` from other than one site, of the
        scope walks that completed, in the order they completed and each
        walk's in step order; a step two walks took is listed once, first."""
        return [
            SinglePathViolation(self._paths(S), self._paths(p_def), n)
            for S, p_def, n in self._violations
        ]

    # -- the equations, on path ids -----------------------------------------

    @equation("properties", table=False)
    def _properties(self, p: int) -> frozenset[str]:
        node = self._node
        out = set()
        for _, overrides in self._supers(p):
            for o in overrides:
                out |= node[o][0]
        return frozenset(out)

    @equation("supers")
    def _supers(self, p: int) -> tuple:
        """The super pairs of ``p``, factored by base: one
        ``(init(b), overrides(b))`` entry per ``b`` in ``bases*(p)``, in its
        iteration order, each overrides set the one its memo holds."""
        parent, done = self._parent, self.memo["overrides"]
        out = []
        for b in self._bases_star(p):
            out.append((parent[b], done.get(b) or self._overrides(b)))
        return tuple(out)

    _bases_star = equation("bases*", table=False)(closure("_bases"))

    @equation("overrides")
    def _overrides(self, p: int) -> frozenset[int]:
        if p == 0:
            return frozenset({0})
        label, node, kids = self._label[p], self._node, self._kids
        parent = self._parent[p]
        out = {p}
        for _, overrides in self.memo["supers"].get(parent) or self._supers(parent):
            for q in overrides:
                if label in node[q][0]:
                    out.add(kids[q].get(label) or self._add_child(q, label))
        return frozenset(out)

    @equation("bases")
    def _bases(self, p: int) -> frozenset[int]:
        out = set()
        site, parent = (self._parent[p],), self._parent
        for p_override in self._overrides(p):
            for n, downs in self._node[p_override][1]:
                if p == 0:
                    raise ScopeUnderflowError("a reference at the root has no enclosing scope")
                out |= self._resolve(site, parent[p_override], n, downs)
        return frozenset(out)

    def _resolve(self, S, p_def: int, n: int, downs: tuple) -> set[int]:
        """``resolve`` and ``this``, not run by the kernel: the set of sites
        ``n`` scope steps up from the ids ``S`` for the definition scope
        ``p_def``, each extended by ``downs``.  A step's frontier is the
        ``p_site`` of each super pair of a site in ``S`` whose overrides
        hold ``p_def``; it costs no frame, table entry or fuel.  A walk
        that completes adds to ``_violations`` its steps from other than
        one site."""
        parent, kids, done = self._parent, self._kids, self.memo["supers"]
        steps = []
        for left in range(n, 0, -1):
            if p_def == 0:
                raise ScopeUnderflowError(f"this step above the root (n={left} remaining)")
            if len(S) != 1:
                steps.append((frozenset(S), p_def, left))
            frontier = set()
            for current in S:
                for p_site, overrides in done.get(current) or self._supers(current):
                    if p_def in overrides:
                        assert p_site is not ABOVE_ROOT, "AboveRoot matched a this step"
                        frontier.add(p_site)
            S, p_def = frontier, parent[p_def]
        if steps:
            self._violations.update(dict.fromkeys(steps))
        out = set()
        for current in S:
            for label in downs:
                current = kids[current].get(label) or self._add_child(current, label)
            out.add(current)
        return out

    # -- the equations, on paths ----------------------------------------------

    def properties(self, p: Path) -> frozenset[str]:
        return self._properties(self._intern(p))

    def supers(self, p: Path) -> frozenset:
        return frozenset(
            (context if context is ABOVE_ROOT else self._paths(context),
             self._paths(p_override))
            for context, overrides in self._supers(self._intern(p))
            for p_override in overrides
        )

    def bases_star(self, p: Path) -> frozenset[Path]:
        return self._paths(self._bases_star(self._intern(p)))

    def overrides(self, p: Path) -> frozenset[Path]:
        return self._paths(self._overrides(self._intern(p)))

    def bases(self, p: Path) -> frozenset[Path]:
        return self._paths(self._bases(self._intern(p)))

    def resolve(
        self, p_site: Path, p_def: Path, n: int, downs: tuple[str, ...]
    ) -> frozenset[Path]:
        site, p_def = self._intern(p_site), self._intern(p_def)
        if p_def == 0:
            raise ScopeUnderflowError("resolve requires a nonempty definition-site path")
        return self._paths(frozenset(self._resolve((site,), self._parent[p_def], n, downs)))

    def this(self, S: frozenset[Path], p_def: Path, n: int) -> frozenset[Path]:
        S, p_def = frozenset(map(self._intern, S)), self._intern(p_def)
        return self._paths(frozenset(self._resolve(S, p_def, n, ())))

    # -- observation helpers -------------------------------------------------

    def ancestors(self, p: Path) -> frozenset[Path]:
        """Override components of supers(p): every path p inherits from."""
        entries = self._supers(self._intern(p))
        return self._paths(frozenset().union(*(overrides for _, overrides in entries)))

    def observe(self, p: Path, depth: int, record_divergence: bool = False) -> "ObservationTree":
        """The tree of ``properties`` below ``p``, ``depth`` levels deep.  A
        node whose query diverges or underflows its scopes raises, or with
        ``record_divergence`` is recorded in the tree, by the divergence's
        kind or as ``ScopeUnderflow``.  Runs with automatic cyclic
        collection off, and on the way out enables only a collector that it
        disabled.  One loop walks a stack of (path, depth left, parent's
        children, label), pushing children in reverse label order: it asks
        in preorder and spends no frame per level.  Each node goes through
        the public ``properties``, so a wrapper around it sees every node and
        every divergence."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            top: dict = {}
            stack = [(p, depth, top, None)]
            while stack:
                p, left, siblings, label = stack.pop()
                try:
                    labels = tuple(sorted(self.properties(p)))
                except (DivergenceError, ScopeUnderflowError) as exc:
                    if not record_divergence:
                        raise
                    stop = exc.kind if isinstance(exc, DivergenceError) else "ScopeUnderflow"
                    siblings[label] = ObservationTree(p, (), {}, stop)
                    continue
                children: dict = {}
                siblings[label] = ObservationTree(p, labels, children, None)
                if left > 0:
                    for child in reversed(labels):
                        stack.append((p + (child,), left - 1, children, child))
            return top[None]
        finally:
            if enabled:
                gc.enable()


class ObservationTree(NamedTuple):
    """Finite-depth tree of properties; the canonical observable output.  Its
    printers read one explicit-stack walk, ``_preorder``, so a tree of any depth
    prints; only ``json``, under ``to_json``, recurses: two dicts per level.
    Its ``children`` dict makes a tree unhashable."""

    path: Path
    labels: tuple[str, ...]
    children: dict[str, ObservationTree]
    divergence: str | None  # Cycle | FuelExhausted | ScopeUnderflow, or None

    def _preorder(self):
        """(node, depth below this one, its label or None here) for each
        node, each before its children, children in label order."""
        stack = [(self, 0, None)]
        while stack:
            node, level, label = stack.pop()
            yield node, level, label
            kids = node.children
            for child in sorted(kids, reverse=True):
                stack.append((kids[child], level + 1, child))

    def lines(self) -> list[str]:
        """Canonical text form: one ``path<TAB>labels`` line per node."""
        return [
            f"{path_text(n.path)}\t"
            + (",".join(n.labels) if n.divergence is None else f"!{n.divergence}")
            for n, _, _ in self._preorder()
        ]

    def text(self) -> str:
        return "\n".join(self.lines())

    def structure(self) -> tuple:
        """Path-independent shape, for comparing observations rooted at
        different absolute paths: one (depth, label, divergence, labels)
        entry per node in preorder, the root's label None."""
        return tuple((level, label, n.divergence, n.labels) for n, level, label in self._preorder())

    def to_json(self) -> str:
        spine: list[dict] = [{"children": {}}]  # a holder, then the last dict per depth
        for node, level, label in self._preorder():
            out = {"path": path_text(node.path), "labels": list(node.labels),
                   "divergence": node.divergence, "children": {}}
            del spine[level + 1 :]
            spine[-1]["children"][label] = out
            spine.append(out)
        return json.dumps(spine[1], indent=2, sort_keys=True)
