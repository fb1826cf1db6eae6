"""Direct set-theoretic semantics of ANF terms.

The direct engine reads the node table that ``lam.translate`` writes for
the general engine.  The table is shared; the equations are not.
``labels``, ``grafts``, ``callee``, ``scope`` and ``callee_ctx`` are
specialized to images of the translation and written independently of
the six general equations.  ``scope`` is single-valued: on images of the
translation the caller at each upward step is unique, and a violation
raises AmbiguousCaller.

The divergence machinery (memo tables, in-flight cycle markers, fuel) is
the general evaluator's ``equation`` kernel.
"""

from __future__ import annotations

from collections import defaultdict

from .lam import (
    DEFAULT_MAX_DEPTH,
    ConvergenceReport,
    FreeVariableError,
    SyntheticNameCollision,
    Term,
    _scan_result_chain,
    translate,
)
from .semantics import (
    ABOVE_ROOT,
    DEFAULT_FUEL,
    ScopeUnderflowError,
    equation,
)
from .syntax import ROOT, CoreProgram, Path


class AmbiguousCaller(Exception):
    """The unique-caller premise of scope resolution failed."""

    def __init__(self, p_site, p_def, candidates):
        super().__init__(
            f"scope step at site {p_site!r} for definition scope {p_def!r} "
            f"found {len(candidates)} caller(s): {sorted(candidates)!r}"
        )
        self.candidates = candidates


def extract(t: Term) -> CoreProgram:
    """``translate(t)``; ValueError on any term that ``translate``
    rejects (not ANF, open, or a synthetic let-name)."""
    try:
        return translate(t)
    except (FreeVariableError, SyntheticNameCollision) as exc:
        raise ValueError(str(exc)) from exc


# ---------------------------------------------------------------------------
# The direct equations
# ---------------------------------------------------------------------------

class DirectContext:
    """Memoized demand-driven evaluation of the direct ANF equations."""

    def __init__(self, program: CoreProgram, fuel: int = DEFAULT_FUEL):
        self.program = program
        self.fuel = fuel
        self.memo: defaultdict = defaultdict(dict)

    def _witness(self, tag: str, key) -> tuple:
        """A divergence's witness: the query as it was asked, on paths."""
        return (tag, *key) if tag == "scope" else (tag, key)

    @equation("labels")
    def labels(self, p: Path) -> frozenset[str]:
        out = set()
        for p_step in self.callee_star(p):
            for p_graft in self.grafts(p_step):
                out |= self.program.defines(p_graft)
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
                if last in self.program.defines(p_graft):
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
            for ref in self.program.inherits(p_graft):
                if p == ROOT:
                    raise ScopeUnderflowError(
                        "a reference at the root has no enclosing scope"
                    )
                target = self.scope((p[:-1], p_graft[:-1], ref.n))
                out.add(target + ref.downs)
        return frozenset(out)

    @equation("scope")
    def scope(self, key: tuple) -> Path:
        p_site, p_def, n = key
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
        return self.scope((caller, p_def[:-1], n - 1))

    @equation("callee_ctx")
    def callee_ctx(self, p: Path) -> frozenset:
        pairs = set()
        for p_step in self.callee_star(p):
            context = ABOVE_ROOT if p_step == ROOT else p_step[:-1]
            for p_graft in self.grafts(p_step):
                pairs.add((context, p_graft))
        return frozenset(pairs)


def converges_direct(
    dp: CoreProgram, fuel: int = DEFAULT_FUEL, max_depth: int = DEFAULT_MAX_DEPTH
) -> ConvergenceReport:
    """The result-chain scan over the direct engine's ``labels``."""
    return _scan_result_chain(DirectContext(dp, fuel=fuel).labels, max_depth)
