"""The cyclic collector and evaluation.

``EvalContext.observe`` runs with automatic cyclic collection paused.
That is sound only because evaluation builds no reference cycle, so
reference counting alone frees what it allocates.  These tests check that
invariant on each kind of evaluation, the result-chain scans included,
and that the pause covers ``observe`` and ends with it, however it ends.
"""

import gc

import pytest

from conftest import chain_text, let_chain, spine_text, zigzag
from inhcalc.anf_direct import converges_direct
from inhcalc.corpus import corpus_terms, judge
from inhcalc.fixtures import FIXTURE_NAMES, fixture
from inhcalc.lam import (
    NAMED_TERMS,
    anf_transform,
    bohm_prefix,
    converges,
    named_to_oracle,
    parse_lambda,
    translate,
)
from inhcalc.semantics import DivergenceError, EvalContext
from inhcalc.syntax import parse_program

NEST = 200  # past the 123 levels `properties` answers on the Python stack
DEEP = ("B",) + ("a",) * (NEST - 1)


def _nest():
    return parse_program("{A = " + "{a = " * NEST + "{}" + "}" * NEST + ", B = {A}}")


def _chain(k: int = 120):
    return translate(anf_transform(parse_lambda(chain_text(k))))


def _omega():
    return translate(anf_transform(NAMED_TERMS["omega"]))


def _escaped(run):
    """The type of the divergence or ``RecursionError`` that ``run()``
    raised, or None."""
    try:
        run()
    except (DivergenceError, RecursionError) as exc:
        return type(exc)
    return None


def _judge_all(terms):
    for name, anf in terms:
        judge(name, anf)


def _cases():
    for name in FIXTURE_NAMES:
        prog = fixture(name).program()
        yield (
            f"observe-{name}",
            lambda prog=prog: EvalContext(prog).observe((), 4, record_divergence=True),
            None,
        )
    cyclic = fixture("cyclic_a").program()
    yield "observe-cyclic_a-raises", lambda: EvalContext(cyclic).observe((), 4), DivergenceError
    nest = _nest()
    yield "properties-nest", lambda: EvalContext(nest).properties(DEEP), RecursionError
    s_term = named_to_oracle(NAMED_TERMS["S"])
    yield "bohm_prefix-S", lambda: bohm_prefix(s_term, depth=3), None
    terms = corpus_terms(7)
    yield "judge-corpus-7", lambda: _judge_all(terms), None
    chain = _chain()
    yield "converges-chain", lambda: converges(chain, max_depth=121), None
    yield "converges_direct-chain", lambda: converges_direct(chain, max_depth=121), None
    # 2,000 links: each stage walks a spine or a let run in a loop
    spine = parse_lambda(spine_text(2_000))
    yield "anf_translate-spine", lambda: translate(anf_transform(spine)), None
    lets = let_chain(2_000)
    yield "anf_translate-let-chain", lambda: translate(anf_transform(lets)), None
    # 3,000 levels of applications nested in argument and function position
    # by turns: ANF conversion walks them on a work list
    zig = zigzag(3_000)
    yield "anf_translate-zigzag", lambda: translate(anf_transform(zig)), None
    omega = _omega()
    yield "converges-omega", lambda: converges(omega, fuel=50), None
    yield "converges_direct-omega", lambda: converges_direct(omega, fuel=50), None


_CASES = list(_cases())


@pytest.mark.parametrize("run, escapes", [c[1:] for c in _CASES], ids=[c[0] for c in _CASES])
def test_evaluation_leaves_no_cyclic_garbage(run, escapes):
    gc.collect()
    gc.disable()
    try:
        assert _escaped(run) is escapes
        assert gc.collect() == 0
    finally:
        gc.enable()


def _probe(monkeypatch):
    """Record ``gc.isenabled()`` at each call of ``EvalContext.properties``."""
    seen = []
    properties = EvalContext.properties

    def probed(self, p):
        seen.append(gc.isenabled())
        return properties(self, p)

    monkeypatch.setattr(EvalContext, "properties", probed)
    return seen


_OBSERVE = {
    "returns": (lambda: EvalContext(fixture("p1").program()).observe((), 4), None),
    "diverges": (
        lambda: EvalContext(fixture("cyclic_a").program()).observe((), 4),
        DivergenceError,
    ),
    "overflows": (lambda: EvalContext(_nest()).observe(DEEP, 0), RecursionError),
}


@pytest.mark.parametrize("case", sorted(_OBSERVE))
def test_observe_pauses_the_collector_and_restores_it(monkeypatch, case):
    run, escapes = _OBSERVE[case]
    seen = _probe(monkeypatch)
    assert gc.isenabled()
    assert _escaped(run) is escapes
    assert gc.isenabled()
    assert seen and not any(seen)


def test_pause_leaves_a_disabled_collector_disabled():
    gc.disable()
    try:
        EvalContext(fixture("p1").program()).observe((), 4)
        assert _escaped(lambda: EvalContext(fixture("cyclic_a").program()).observe((), 4))
        assert _escaped(lambda: EvalContext(_nest()).observe(DEEP, 0)) is RecursionError
        assert not gc.isenabled()
    finally:
        gc.enable()
