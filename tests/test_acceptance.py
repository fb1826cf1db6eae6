"""End-to-end acceptance checks, each with an explicit runtime budget."""

import functools
import random
import time
from contextlib import contextmanager

import pytest

from conftest import (
    NaiveEvaluator,
    labels_struct,
    mutated_text,
    properties_struct,
    substitute,
)
from inhcalc.anf_direct import DirectContext, extract
from inhcalc.corpus import _terms, corpus_terms, summarize, sweep
from inhcalc.fixtures import FIXTURE_NAMES, fixture
from inhcalc.lam import (
    Abs,
    App,
    anf_transform,
    converges,
    oracle_to_named,
    translate,
)
from inhcalc.semantics import DivergenceError, EvalContext
from inhcalc.syntax import parse, parse_path, parse_program


@contextmanager
def budget(seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeds budget {seconds}s"


@functools.lru_cache(maxsize=None)
def _sweep():
    return sweep(max_size=10)


ZERO = parse_path("NatData.NatFactory.Zero")
SUCCESSOR = parse_path("NatData.NatFactory.Successor")
TRUE = parse_path("BooleanData.BooleanFactory.True")
FALSE = parse_path("BooleanData.BooleanFactory.False")


def test_criterion_1_nat_arithmetic():
    with budget(5):
        ctx = EvalContext(fixture("nat").program())
        ancestors = ctx.ancestors(parse_path("Test.Test2plus3.equal"))
        assert TRUE in ancestors
        assert FALSE not in ancestors


def test_criterion_2_cartesian_trie():
    with budget(30):
        ctx = EvalContext(fixture("nat").program())
        base = parse_path("CartesianTest.Result.sum")
        zero_depths = set()
        successor_depths = set()
        for k in range(7):
            ancestors = ctx.ancestors(base + ("predecessor",) * k)
            if ZERO in ancestors:
                zero_depths.add(k)
            if SUCCESSOR in ancestors:
                successor_depths.add(k)
        assert zero_depths == {4, 5, 6}
        assert successor_depths == {0, 1, 2, 3, 4, 5}
        check = ctx.ancestors(parse_path("CartesianTest.Check.equal"))
        assert TRUE in check
        assert FALSE in check


def test_criterion_3_multipath():
    with budget(1):
        ctx = EvalContext(fixture("multipath").program())
        assert ctx.properties(parse_path("HasMultipleOuters.outer")) == {"MyInner"}
        sites = frozenset({parse_path("HasMultipleOuters")})
        assert ctx.this(sites, parse_path("MyOuter.MyInner"), 1) == {
            ("Object1",),
            ("Object2",),
        }


def test_criterion_4_adequacy_sweep():
    with budget(60):
        summary = summarize(_sweep())
        assert summary["contradictions"] == 0
        assert summary["decided_fraction"] >= 0.95
        assert summary["depth_bounded_by_steps"]


def test_criterion_5_direct_engine_agreement():
    with budget(60):
        assert summarize(_sweep())["direct_agrees"]
        rng = random.Random(0)
        for _, anf in rng.sample(corpus_terms(), 100):
            general = EvalContext(translate(anf), fuel=20_000)
            direct = DirectContext(extract(anf), fuel=20_000)
            assert properties_struct(general, (), 3) == labels_struct(direct, (), 3)


def test_criterion_6_substitution_and_step_laws():
    with budget(60):
        # substitution and result-step: a redex (\x. M) V, its reduct, and
        # the redex's own result chain all present the same observations
        bodies = [b for s in range(1, 6) for b in _terms(s, 1)]
        values = [v for s in range(2, 5) for v in _terms(s, 0) if v[0] == "abs"]
        rng = random.Random(1)
        checked = 0
        for _ in range(220):
            redex_o = ("app", ("abs", rng.choice(bodies)), rng.choice(values))
            redex = anf_transform(oracle_to_named(redex_o))
            if not (isinstance(redex, App) and isinstance(redex.fun, Abs)):
                continue
            reduct = substitute(redex.fun.body, redex.fun.param, redex.arg)
            p_redex = translate(redex)
            p_reduct = translate(reduct)
            want = properties_struct(EvalContext(p_reduct, fuel=10_000), (), 3)
            at_body = properties_struct(
                EvalContext(p_redex, fuel=10_000), ("tailCall", "result"), 3
            )
            at_result = properties_struct(
                EvalContext(p_redex, fuel=10_000), ("result",), 3
            )
            assert at_body == want
            assert at_result == want
            checked += 1
        assert checked >= 200
        # single-path property: no scope step over a translation image ever
        # sees more than one caller
        assert summarize(_sweep())["single_path_violations"] == 0


def test_criterion_7_asymmetry():
    with budget(5):
        prog = fixture("asymmetry").program()
        ctx = EvalContext(prog)
        r1 = converges(prog, base_path=("S", "e1"), ctx=ctx)
        r2 = converges(prog, base_path=("S", "e2"), ctx=ctx)
        assert r1.converged and r2.converged and r1.depth == r2.depth
        v1 = ("S", "e1") + ("result",) * r1.depth
        v2 = ("S", "e2") + ("result",) * r2.depth
        assert ctx.observe(v1, 3).structure() == ctx.observe(v2, 3).structure()
        # composing the repr mixin and applying marker probes tells them apart
        assert ctx.properties(parse_path("ProbeE1.App2.result")) == {"isSecond"}
        assert ctx.properties(parse_path("ProbeE2.App2.result")) == {"isFirst"}


def test_criterion_8_algebraic_laws():
    with budget(60):
        rng = random.Random(42)
        per_fixture = -(-500 // len(FIXTURE_NAMES))  # ceil
        total = 0
        for name in FIXTURE_NAMES:
            src = fixture(name).source
            rec = parse(src)
            base = (
                EvalContext(parse_program(src))
                .observe((), 4, record_divergence=True)
                .text()
            )
            for _ in range(per_fixture):
                mutated = parse_program(mutated_text(rec, rng))
                tree = (
                    EvalContext(mutated)
                    .observe((), 4, record_divergence=True)
                    .text()
                )
                assert tree == base, name
                total += 1
        assert total >= 500

        # associativity surrogate: inheriting {A, B, C} flat equals
        # inheriting through an intermediate {A, B} record
        labels = "abcde"

        def rand_record(r, depth):
            n = r.randint(0, 3 if depth else 0)
            return {lab: rand_record(r, depth - 1) for lab in r.sample(labels, n)}

        def rec_text(d):
            return "{" + ", ".join(f"{l} = {rec_text(b)}" for l, b in d.items()) + "}"

        for i in range(100):
            r = random.Random(1000 + i)
            a, b, c = (rec_text(rand_record(r, 3)) for _ in range(3))
            flat = f"{{A = {a}, B = {b}, C = {c}, Q = {{A, B, C}}}}"
            nested = f"{{A = {a}, B = {b}, C = {c}, AB = {{A, B}}, Q = {{AB, C}}}}"
            s_flat = EvalContext(parse_program(flat)).observe(("Q",), 4).structure()
            s_nested = EvalContext(parse_program(nested)).observe(("Q",), 4).structure()
            assert s_flat == s_nested


def test_criterion_9_well_definedness():
    with budget(30):
        compared = 0
        for name in FIXTURE_NAMES:
            prog = fixture(name).program()
            # large fixtures make plain recursion exponential; queries the
            # naive engine cannot finish within its budget are skipped as
            # non-terminating for it
            naive_fuel = 100_000
            for p in prog.paths():
                ctx = EvalContext(prog)
                naive = NaiveEvaluator(prog, fuel=naive_fuel)
                try:
                    expected = ctx.properties(p)
                except DivergenceError:
                    # the memoized engine diverges: the naive one must not
                    # produce an answer either
                    with pytest.raises((DivergenceError, RecursionError)):
                        naive.properties(p)
                    continue
                try:
                    actual = naive.properties(p)
                except DivergenceError as exc:
                    assert exc.kind == "FuelExhausted"
                    continue
                except RecursionError:
                    # plain recursion can exceed the interpreter stack long
                    # before it exhausts its fuel; equally a skipped query
                    continue
                assert actual == expected, p
                compared += 1
        assert compared >= 50

        # the cyclic fixture reports a cycle, never an answer
        cyclic = fixture("cyclic_a").program()
        with pytest.raises(DivergenceError) as exc:
            EvalContext(cyclic).properties(("a",))
        assert exc.value.kind == "Cycle"
        # the naive engine has no cycle detection: a small budget makes it
        # report exhaustion before its unbounded recursion overflows the
        # interpreter stack
        with pytest.raises(DivergenceError) as exc:
            NaiveEvaluator(cyclic, fuel=500).properties(("a",))
        assert exc.value.kind == "FuelExhausted"
