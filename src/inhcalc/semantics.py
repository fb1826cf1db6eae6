"""Demand-driven evaluation of the six set-comprehension equations.

The evaluator answers membership queries (``properties``, ``supers``,
``overrides``, ``bases``, ``resolve``, ``this``, and ``bases*``, the
closure of ``bases``) over a CoreProgram by unfolding the mutually
recursive equations on demand.  The equations run on integer path ids:
a context adopts the program's (parent, label) trie and interns each
further path it meets once, and its public methods take and return
paths.  Results are memoized per
query key; a query key that re-enters its own in-flight evaluation
reports ``Divergence(Cycle)``, and a global fuel budget bounds infinite
acyclic unfoldings with ``Divergence(FuelExhausted)``.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from dataclasses import dataclass, field

from .syntax import CoreProgram, Node, Path, path_text, trie_path

DEFAULT_FUEL = 1_000_000


class _AboveRoot:
    """Sentinel for init(()) in the root's reflexive super pair.

    It can never be selected by a ``this`` step: the only super pair that
    carries it has override ``()``, and stepping with a root definition
    scope underflows first.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

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


@dataclass
class SinglePathViolation:
    frontier: frozenset
    p_def: Path
    n: int


def equation(tag: str):
    """Make a method one memoized equation of a demand-driven evaluator.

    Every equation takes one hashable key per query: its only argument, or
    the tuple of its arguments, which the body unpacks.  The instance keeps
    ``fuel`` and ``memo``, a ``defaultdict(dict)`` that holds one table per
    equation, keyed by that key.  A miss spends one unit of fuel.  While the
    body runs, its entry holds ``None``, so re-entering the same query
    raises ``Divergence(Cycle)``; results are never ``None``.  A body that
    raises leaves no entry, so a re-query reaches the same verdict.  A
    divergence's witness is what the instance's ``_witness(tag, key)``
    makes of the query; the kernel calls it only to raise.
    """

    def decorate(body):
        def run(self, key):
            memo = self.memo[tag]
            value = memo.get(key)
            if value is not None:
                return value
            if key in memo:
                raise DivergenceError("Cycle", self._witness(tag, key))
            if self.fuel <= 0:
                raise DivergenceError("FuelExhausted", self._witness(tag, key))
            self.fuel -= 1
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
    other have a finite closure."""

    def body(self, p: int) -> frozenset[int]:
        step_of = getattr(self, step)
        seen = {p}
        work = [p]
        while work:
            for q in step_of(work.pop()):
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
    allocates nothing, and a path that extends the last one interned
    costs one dict lookup per label beyond it; any other path costs one
    per label.  The context copies the program's per-id lists, whose nodes
    are ``Node``s, and copies an adopted id's children dict the first time
    it adds to it; it adds ids with ``CoreProgram._add``, each with the
    empty node, so evaluation never changes the program.
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
        self._adopted = len(self._node)
        self._last: tuple = ((), 0)  # the last path interned, and its id

    def _add_child(self, i: int, label: str) -> int:
        """Intern the child ``label`` of id ``i``, which has none yet."""
        kids = self._kids
        if i < self._adopted and kids[i] is self.program._kids[i]:
            kids[i] = dict(kids[i])
        return CoreProgram._add(self, i, label)

    def _child(self, i: int, label: str) -> int:
        """The id of the child ``label`` of id ``i``.  No child is the
        root, so a known child's id is nonzero."""
        return self._kids[i].get(label) or self._add_child(i, label)

    def _intern(self, p: Path) -> int:
        """The id of path ``p``.  A path that extends the last one interned
        is walked from that path's id, so a scan down a chain takes one
        step per level."""
        last, i = self._last
        n = len(last)
        if p[:n] != last:
            i = n = 0
        kids = self._kids
        for label in p[n:]:
            i = kids[i].get(label) or self._add_child(i, label)
        self._last = (tuple(p), i)
        return i

    def _paths(self, ids):
        """The path of an id, or the paths of a frozenset of ids, read up the
        trie."""
        if isinstance(ids, frozenset):
            return frozenset(map(self._paths, ids))
        return trie_path(self, ids)

    def _witness(self, tag: str, key) -> tuple:
        """The path-valued witness of a divergent query on ids.  A key is
        an id, or a tuple that leads with two ids (or an id set and an id)."""
        if isinstance(key, tuple):
            return (tag, *map(self._paths, key[:2]), *key[2:])
        return (tag, self._paths(key))


class EvalContext(InternedContext):
    """Memoization tables, fuel and interned paths for one program: the
    six equations, run on path ids."""

    def __init__(self, program: CoreProgram, fuel: int = DEFAULT_FUEL):
        super().__init__(program, fuel)
        self.single_path_violations: list[SinglePathViolation] = []

    # -- the equations, on path ids -----------------------------------------

    @equation("properties")
    def _properties(self, p: int) -> frozenset[str]:
        node = self._node
        out = set()
        for _, overrides in self._supers(p):
            for o in overrides:
                out |= node[o].defines
        return frozenset(out)

    @equation("supers")
    def _supers(self, p: int) -> tuple:
        """The super pairs of ``p``, factored by base: one
        ``(init(b), overrides(b))`` entry per ``b`` in ``bases*(p)``, in its
        iteration order, each overrides set the one its memo holds."""
        parent = self._parent
        return tuple((parent[b], self._overrides(b)) for b in self._bases_star(p))

    _bases_star = equation("bases*")(closure("_bases"))

    @equation("overrides")
    def _overrides(self, p: int) -> frozenset[int]:
        if p == 0:
            return frozenset({0})
        label, node = self._label[p], self._node
        out = {p}
        for _, overrides in self._supers(self._parent[p]):
            for q in overrides:
                if label in node[q].defines:
                    out.add(self._child(q, label))
        return frozenset(out)

    @equation("bases")
    def _bases(self, p: int) -> frozenset[int]:
        out = set()
        for p_override in self._overrides(p):
            for ref in self._node[p_override].inherits:
                if p == 0:
                    raise ScopeUnderflowError(
                        "a reference at the root has no enclosing scope"
                    )
                out |= self._resolve((self._parent[p], p_override, ref.n, ref.downs))
        return frozenset(out)

    @equation("resolve")
    def _resolve(self, key: tuple) -> frozenset[int]:
        p_site, p_def, n, downs = key
        if p_def == 0:
            raise ScopeUnderflowError(
                "resolve requires a nonempty definition-site path"
            )
        out = set()
        for current in self._this((frozenset({p_site}), self._parent[p_def], n)):
            for label in downs:
                current = self._child(current, label)
            out.add(current)
        return frozenset(out)

    @equation("this")
    def _this(self, key: tuple) -> frozenset[int]:
        S, p_def, n = key
        if n == 0:
            return S
        if len(S) != 1:
            self.single_path_violations.append(
                SinglePathViolation(self._paths(S), self._paths(p_def), n)
            )
        if p_def == 0:
            raise ScopeUnderflowError(f"this step above the root (n={n} remaining)")
        frontier = set()
        for current in S:
            for p_site, overrides in self._supers(current):
                if p_def in overrides:
                    assert p_site is not ABOVE_ROOT, "AboveRoot matched a this step"
                    frontier.add(p_site)
        return self._this((frozenset(frontier), self._parent[p_def], n - 1))

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
        return self._paths(self._resolve((site, p_def, n, downs)))

    def this(self, S: frozenset[Path], p_def: Path, n: int) -> frozenset[Path]:
        S, p_def = frozenset(map(self._intern, S)), self._intern(p_def)
        return self._paths(self._this((S, p_def, n)))

    # -- observation helpers -------------------------------------------------

    def ancestors(self, p: Path) -> frozenset[Path]:
        """Override components of supers(p): every path p inherits from."""
        entries = self._supers(self._intern(p))
        return self._paths(frozenset().union(*(overrides for _, overrides in entries)))

    def observe(
        self, p: Path, depth: int, record_divergence: bool = False
    ) -> "ObservationTree":
        try:
            labels = tuple(sorted(self.properties(p)))
        except DivergenceError as exc:
            if not record_divergence:
                raise
            return ObservationTree(p, (), {}, exc.kind)
        children = {}
        if depth > 0:
            for label in labels:
                children[label] = self.observe(
                    p + (label,), depth - 1, record_divergence
                )
        return ObservationTree(p, labels, children, None)


@dataclass
class ObservationTree:
    """Finite-depth tree of properties; the canonical observable output."""

    path: Path
    labels: tuple[str, ...]
    children: dict[str, "ObservationTree"] = field(default_factory=dict)
    divergence: str | None = None

    def lines(self) -> list[str]:
        """Canonical text form: one ``path<TAB>labels`` line per node."""
        if self.divergence is not None:
            own = f"{path_text(self.path)}\t!{self.divergence}"
        else:
            own = f"{path_text(self.path)}\t{','.join(self.labels)}"
        out = [own]
        for label in sorted(self.children):
            out.extend(self.children[label].lines())
        return out

    def text(self) -> str:
        return "\n".join(self.lines())

    def structure(self):
        """Path-independent shape: labels plus child structures, for
        comparing observations rooted at different absolute paths."""
        return (
            self.divergence,
            self.labels,
            tuple(
                (label, self.children[label].structure())
                for label in sorted(self.children)
            ),
        )

    def to_json(self) -> str:
        def conv(node: "ObservationTree"):
            return {
                "path": path_text(node.path),
                "labels": list(node.labels),
                "divergence": node.divergence,
                "children": {
                    label: conv(child)
                    for label, child in sorted(node.children.items())
                },
            }

        return json.dumps(conv(self), indent=2, sort_keys=True)


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
