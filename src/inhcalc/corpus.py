"""Small-term corpus: exhaustive closed de Bruijn terms plus named
fixtures, and the verdict sweep comparing the head-reduction oracle with
both convergence engines.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .anf_direct import (
    converges_direct,
    extract,  # noqa: F401  (bench/layers.py traces corpus.extract)
)
from .lam import (
    DEFAULT_MAX_DEPTH,
    ConvergenceReport,
    HeadResult,
    NAMED_TERMS,
    OTerm,
    Term,
    anf_transform,
    converges,
    head_reduce,
    named_to_oracle,
    oracle_to_named,
    translate,
)
from .semantics import EvalContext

MAX_CORPUS_SIZE = 7


@lru_cache(maxsize=None)
def _terms(size: int, depth: int) -> tuple[OTerm, ...]:
    """All de Bruijn terms of exactly `size` AST nodes with free indices
    below `depth`."""
    out: list[OTerm] = []
    if size == 1:
        out.extend(("var", i) for i in range(depth))
    if size >= 2:
        out.extend(("abs", b) for b in _terms(size - 1, depth + 1))
    for left in range(1, size - 1):
        for f in _terms(left, depth):
            for a in _terms(size - 1 - left, depth):
                out.append(("app", f, a))
    return tuple(out)


def enumerate_closed_terms(max_size: int = MAX_CORPUS_SIZE) -> list[OTerm]:
    """All closed de Bruijn terms with AST size at most max_size, smallest
    first, deterministic order."""
    out: list[OTerm] = []
    for size in range(1, max_size + 1):
        out.extend(_terms(size, 0))
    return out


class Verdict(NamedTuple):
    name: str
    term: Term  # named ANF form
    oracle: HeadResult
    convergence: ConvergenceReport
    direct: ConvergenceReport
    single_path_violations: int

    @property
    def contradiction(self) -> bool:
        if self.oracle.status == "hnf" and self.convergence.reason == "Cycle":
            return True
        if self.oracle.status == "diverged" and self.convergence.converged:
            return True
        return False

    @property
    def decided_both(self) -> bool:
        core_decided = self.convergence.converged or self.convergence.reason == "Cycle"
        return self.oracle.decided and core_decided

    def row(self) -> str:
        oracle = {
            "hnf": f"hnf@{self.oracle.steps}",
            "diverged": "diverged",
            "fuel": "fuel",
        }[self.oracle.status]
        return "\t".join(
            [
                self.name,
                oracle,
                self.convergence.describe(),
                self.direct.describe(),
                str(self.single_path_violations),
            ]
        )


def corpus_terms(max_size: int = MAX_CORPUS_SIZE) -> list[tuple[str, Term]]:
    """Named ANF terms of the sweep corpus: the exhaustive enumeration
    plus the named fixture terms."""
    out = []
    for i, ot in enumerate(enumerate_closed_terms(max_size)):
        out.append((f"t{i:04d}", anf_transform(oracle_to_named(ot))))
    for name, named in sorted(NAMED_TERMS.items()):
        out.append((name, anf_transform(named)))
    return out


def judge(
    name: str, anf_term: Term, fuel: int = 10_000, max_depth: int = DEFAULT_MAX_DEPTH
) -> Verdict:
    oracle = head_reduce(named_to_oracle(anf_term), fuel)
    prog = translate(anf_term)  # one table, read by both engines
    ctx = EvalContext(prog, fuel=fuel)
    conv = converges(prog, max_depth=max_depth, ctx=ctx)
    direct = converges_direct(prog, fuel=fuel, max_depth=max_depth)
    # Verdict(...) without the generated constructor's frame
    return tuple.__new__(
        Verdict, (name, anf_term, oracle, conv, direct, len(ctx.single_path_violations))
    )


def sweep(
    max_size: int = MAX_CORPUS_SIZE, fuel: int = 10_000, max_depth: int = DEFAULT_MAX_DEPTH
) -> list[Verdict]:
    return [judge(name, t, fuel, max_depth) for name, t in corpus_terms(max_size)]


def summarize(verdicts: list[Verdict]) -> dict:
    contradictions = [v for v in verdicts if v.contradiction]
    decided = [v for v in verdicts if v.decided_both]
    depth_ok = all(
        v.convergence.depth <= v.oracle.steps
        for v in verdicts
        if v.convergence.converged and v.oracle.status == "hnf"
    )
    direct_agrees = all(
        (v.direct.converged, v.direct.depth) == (v.convergence.converged, v.convergence.depth)
        for v in verdicts
    )
    violations = sum(v.single_path_violations for v in verdicts)
    return {
        "total": len(verdicts),
        "contradictions": len(contradictions),
        "decided_both": len(decided),
        "decided_fraction": len(decided) / len(verdicts) if verdicts else 1.0,
        "depth_bounded_by_steps": depth_ok,
        "direct_agrees": direct_agrees,
        "single_path_violations": violations,
    }
