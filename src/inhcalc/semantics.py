"""Demand-driven evaluation of the six set-comprehension equations.

The evaluator answers membership queries (``properties``, ``supers``,
``overrides``, ``bases``, ``resolve``, ``this``) over a CoreProgram by
unfolding the mutually recursive equations on demand.  Results are
memoized per query key; a query key that re-enters its own in-flight
evaluation reports ``Divergence(Cycle)``, and a global fuel budget bounds
infinite acyclic unfoldings with ``Divergence(FuelExhausted)``.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from dataclasses import dataclass, field

from .syntax import CoreProgram, Path, ROOT, path_text

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


ABOVE_ROOT = _AboveRoot()


class DivergenceError(Exception):
    """A query whose recursive evaluation does not terminate."""

    def __init__(self, kind: str, witness):
        super().__init__(f"Divergence({kind}) at {witness!r}")
        self.kind = kind  # "Cycle" | "FuelExhausted"
        self.witness = witness


class ScopeUnderflowError(Exception):
    """A reference's scope count exceeds the available scope depth."""


@dataclass
class SinglePathViolation:
    frontier: frozenset
    p_def: Path
    n: int


def equation(tag: str):
    """Make a method one memoized equation of a demand-driven evaluator.

    The instance keeps ``fuel`` and ``memo``, a ``defaultdict(dict)`` that
    holds one table per equation, keyed by the call's arguments (a single
    argument bare).  A miss spends one unit of fuel.  While the body runs,
    its entry holds ``None``, so re-entering the same query raises
    ``Divergence(Cycle)``; results are never ``None``.  A body that raises
    leaves no entry, so a re-query reaches the same verdict.  Divergence
    witnesses are ``(tag, *args)``.
    """

    def decorate(body):
        if body.__code__.co_argcount == 2:

            def run(self, arg):
                memo = self.memo[tag]
                value = memo.get(arg)
                if value is not None:
                    return value
                if arg in memo:
                    raise DivergenceError("Cycle", (tag, arg))
                if self.fuel <= 0:
                    raise DivergenceError("FuelExhausted", (tag, arg))
                self.fuel -= 1
                memo[arg] = None
                try:
                    value = body(self, arg)
                except BaseException:
                    del memo[arg]
                    raise
                memo[arg] = value
                return value

        else:

            def run(self, *args):
                memo = self.memo[tag]
                value = memo.get(args)
                if value is not None:
                    return value
                if args in memo:
                    raise DivergenceError("Cycle", (tag, *args))
                if self.fuel <= 0:
                    raise DivergenceError("FuelExhausted", (tag, *args))
                self.fuel -= 1
                memo[args] = None
                try:
                    value = body(self, *args)
                except BaseException:
                    del memo[args]
                    raise
                memo[args] = value
                return value

        return functools.wraps(body)(run)

    return decorate


class EvalContext:
    """Memoization tables and fuel for one program.

    A context is single-threaded; create one context per evaluation.
    Results are immutable frozensets, safe to share once computed.
    """

    def __init__(
        self,
        program: CoreProgram,
        fuel: int = DEFAULT_FUEL,
        assert_single_path: bool = False,
    ):
        self.program = program
        self.fuel = fuel
        self.assert_single_path = assert_single_path
        self.single_path_violations: list[SinglePathViolation] = []
        self.memo: defaultdict = defaultdict(dict)

    # -- the six equations --------------------------------------------------

    @equation("properties")
    def properties(self, p: Path) -> frozenset[str]:
        out = set()
        for _, p_override in self.supers(p):
            out |= self.program.defines(p_override)
        return frozenset(out)

    @equation("supers")
    def supers(self, p: Path) -> frozenset:
        pairs = set()
        for p_base in self.bases_star(p):
            context = ABOVE_ROOT if p_base == ROOT else p_base[:-1]
            for p_override in self.overrides(p_base):
                pairs.add((context, p_override))
        return frozenset(pairs)

    @equation("bases*")
    def bases_star(self, p: Path) -> frozenset[Path]:
        """Reflexive-transitive closure of ``bases`` via a membership-checked
        worklist, so mutually referencing siblings have a finite closure."""
        seen = {p}
        work = [p]
        while work:
            q = work.pop()
            for b in self.bases(q):
                if b not in seen:
                    seen.add(b)
                    work.append(b)
        return frozenset(seen)

    @equation("overrides")
    def overrides(self, p: Path) -> frozenset[Path]:
        if p == ROOT:
            return frozenset({ROOT})
        out = {p}
        last = p[-1]
        for _, p_branch in self.supers(p[:-1]):
            if last in self.program.defines(p_branch):
                out.add(p_branch + (last,))
        return frozenset(out)

    @equation("bases")
    def bases(self, p: Path) -> frozenset[Path]:
        out = set()
        for p_override in self.overrides(p):
            for ref in self.program.inherits(p_override):
                if p == ROOT:
                    raise ScopeUnderflowError(
                        "a reference at the root has no enclosing scope"
                    )
                out |= self.resolve(p[:-1], p_override, ref.n, ref.downs)
        return frozenset(out)

    @equation("resolve")
    def resolve(
        self, p_site: Path, p_def: Path, n: int, downs: tuple[str, ...]
    ) -> frozenset[Path]:
        if not p_def:
            raise ScopeUnderflowError(
                "resolve requires a nonempty definition-site path"
            )
        return frozenset(
            current + downs
            for current in self.this(frozenset({p_site}), p_def[:-1], n)
        )

    @equation("this")
    def this(self, S: frozenset[Path], p_def: Path, n: int) -> frozenset[Path]:
        if n == 0:
            return S
        if self.assert_single_path and len(S) != 1:
            self.single_path_violations.append(SinglePathViolation(S, p_def, n))
        if p_def == ROOT:
            raise ScopeUnderflowError(f"this step above the root (n={n} remaining)")
        frontier = set()
        for current in S:
            for p_site, p_override in self.supers(current):
                if p_override == p_def:
                    assert p_site is not ABOVE_ROOT, "AboveRoot matched a this step"
                    frontier.add(p_site)
        return self.this(frozenset(frontier), p_def[:-1], n - 1)

    # -- observation helpers -------------------------------------------------

    def ancestors(self, p: Path) -> frozenset[Path]:
        """Override components of supers(p): every path p inherits from."""
        return frozenset(p_override for _, p_override in self.supers(p))

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
