"""Direct set-theoretic semantics of ANF terms.

The direct engine reads the program that ``lam.translate`` writes for
the general engine (``extract`` is ``translate``).  The program is
shared; the equations are not.  ``labels``, ``grafts``, ``callee``,
``scope`` and ``callee_ctx`` are specialized to images of the
translation and written independently of the six general equations;
they are the direct engine's own code.  ``scope`` is single-valued: on
images of the translation the caller at each upward step is unique, and
a violation raises AmbiguousCaller.

The machinery is shared: the direct equations run on the interned path
ids of the general evaluator's trie (``semantics.InternedContext``), read
back to paths by ``syntax.trie_path``, under its ``equation`` kernel
(memo tables, in-flight cycle markers, fuel); ``callee*`` is the
kernel's ``closure`` body over ``callee``, as ``bases*`` is over
``bases``.  Only ``labels`` is public; it takes a path, and a
divergence's witness is the query as asked, on paths.  No equation asks
``labels``, so, like ``properties``, it keeps no memo table: each query
runs its body and spends one unit of fuel.
"""

from __future__ import annotations

from .lam import (
    DEFAULT_MAX_DEPTH,
    ConvergenceReport,
    _scan_result_chain,
    translate,
)
from .semantics import (
    ABOVE_ROOT,
    DEFAULT_FUEL,
    InternedContext,
    ScopeUnderflowError,
    closure,
    equation,
)
from .syntax import CoreProgram, Path


class AmbiguousCaller(Exception):
    """The unique-caller premise of scope resolution failed."""

    def __init__(self, p_site, p_def, candidates):
        super().__init__(
            f"scope step at site {p_site!r} for definition scope {p_def!r} "
            f"found {len(candidates)} caller(s): {sorted(candidates)!r}"
        )
        self.candidates = candidates


# Every term that translate rejects (not ANF, open, or a synthetic
# let-name) raises a ValueError.
extract = translate


# ---------------------------------------------------------------------------
# The direct equations
# ---------------------------------------------------------------------------

class DirectContext(InternedContext):
    """Memoized demand-driven evaluation of the direct ANF equations, run
    on the interned path ids of the shared trie."""

    def labels(self, p: Path) -> frozenset[str]:
        return self._labels(self._intern(p))

    @equation("labels", table=False)
    def _labels(self, p: int) -> frozenset[str]:
        node = self._node
        out = set()
        for p_step in self._callee_star(p):
            for p_graft in self._grafts(p_step):
                out |= node[p_graft][0]
        return frozenset(out)

    @equation("grafts")
    def _grafts(self, p: int) -> frozenset[int]:
        if p == 0:
            return frozenset({0})
        node, kids, done = self._node, self._kids, self.memo["grafts"]
        parent = self._parent[p]
        out = {p}
        last = self._label[p]
        # A graft position of p is any graft of any transitive callee
        # of the parent that locally defines last(p), mirroring how an
        # override of a path arises from any override of any base of
        # the parent.
        for p_step in self.memo["callee*"].get(parent) or self._callee_star(parent):
            for p_graft in done.get(p_step) or self._grafts(p_step):
                if last in node[p_graft][0]:
                    out.add(kids[p_graft].get(last) or self._add_child(p_graft, last))
        return frozenset(out)

    _callee_star = equation("callee*")(closure("_callee"))

    @equation("callee")
    def _callee(self, p: int) -> frozenset[int]:
        parent, node, kids = self._parent, self._node, self._kids
        out = set()
        for p_graft in self._grafts(p):
            for n, downs in node[p_graft][1]:
                if p == 0:
                    raise ScopeUnderflowError(
                        "a reference at the root has no enclosing scope"
                    )
                target = self._scope((parent[p], parent[p_graft], n))
                for label in downs:
                    target = kids[target].get(label) or self._add_child(target, label)
                out.add(target)
        return frozenset(out)

    @equation("scope")
    def _scope(self, key: tuple) -> int:
        p_site, p_def, n = key
        if n == 0:
            return p_site
        if p_def == 0:
            raise ScopeUnderflowError(f"scope step above the root (n={n} remaining)")
        contexts = self._callee_ctx(p_site)
        callers = {context for context, grafts in contexts if p_def in grafts}
        if len(callers) != 1:
            path = self._paths
            raise AmbiguousCaller(
                path(p_site), path(p_def), {path(c) for c in callers}
            )
        (caller,) = callers
        assert caller is not ABOVE_ROOT
        return self._scope((caller, self._parent[p_def], n - 1))

    @equation("callee_ctx")
    def _callee_ctx(self, p: int) -> tuple:
        """The callee contexts of ``p``, factored by callee: one
        ``(parent(s), grafts(s))`` entry per ``s`` in ``callee*(p)``, in its
        iteration order, each grafts set the one its memo holds."""
        parent, done = self._parent, self.memo["grafts"]
        out = []
        for s in self._callee_star(p):
            out.append((parent[s], done.get(s) or self._grafts(s)))
        return tuple(out)


def converges_direct(
    dp: CoreProgram, fuel: int = DEFAULT_FUEL, max_depth: int = DEFAULT_MAX_DEPTH
) -> ConvergenceReport:
    """The result-chain scan over the direct engine's per-id ``labels``."""
    ctx = DirectContext(dp, fuel=fuel)
    return _scan_result_chain(ctx, ctx._labels, max_depth)
