import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_path, labels_struct, properties_struct, sorted_witness
from inhcalc.anf_direct import (
    AmbiguousCaller,
    DirectContext,
    converges_direct,
    extract,
)
from inhcalc.corpus import corpus_terms
from inhcalc.fixtures import FIXTURE_NAMES, fixture
from inhcalc.lam import (
    DEFAULT_MAX_DEPTH,
    NAMED_TERMS,
    Abs,
    App,
    FreeVariableError,
    Let,
    SyntheticNameCollision,
    Var,
    anf_transform,
    converges,
    _scan_result_chain,
    parse_lambda,
    translate,
    translate_surface,
)
from inhcalc.semantics import (
    DEFAULT_FUEL,
    DivergenceError,
    EvalContext,
    InternedContext,
    ScopeUnderflowError,
)
from inhcalc.syntax import Reference, parse_program, render, resolve_references

# sha256 of one "name, converged, depth, reason, fuel left" line per term
# of corpus_terms(8), scanned by the direct engine at fuel 10,000
DIRECT_CORPUS_8_FUEL_SHA256 = (
    "e113782dcefc7eed8554bffec987a802927b22c1d64ebe871b0ce3009027a6d1"
)
# the same, scanned by the general engine's properties
GENERAL_CORPUS_8_FUEL_SHA256 = (
    "727ea1623643614e3ee8d391c1e48686ed4148b618487e8a140a475cea080649"
)

# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def test_extract_identity_table():
    dp = extract(parse_lambda(r"\x. x"))
    assert dp.defines(()) == {"argument", "result"}
    assert dp.defines(("argument",)) == frozenset()
    assert dp.inherits(("result",)) == {Reference(0, ("argument",))}
    assert dp.paths() == [(), ("argument",), ("result",)]


def test_extract_let_table():
    dp = extract(anf_transform(parse_lambda(r"\f. let r = f f in r")))
    assert dp.defines(("result",)) == {"r", "result"}
    # the let binding is an application node: callee f, argument f
    assert dp.inherits(("result", "r")) == {Reference(1, ("argument",))}
    assert dp.defines(("result", "r")) == {"argument"}
    assert dp.inherits(("result", "r", "argument")) == {Reference(2, ("argument",))}
    # the let body projects the binding's result
    assert dp.inherits(("result", "result")) == {Reference(0, ("r", "result"))}


def test_extract_tail_application_table():
    dp = extract(anf_transform(parse_lambda(r"(\x. x) (\y. y)")))
    assert dp.defines(()) == {"tailCall", "result"}
    assert dp.inherits(("result",)) == {Reference(0, ("tailCall", "result"))}
    # the lambda literal is inlined as the application record itself
    assert dp.defines(("tailCall",)) == {"argument", "result"}
    assert dp.inherits(("tailCall", "result")) == {Reference(0, ("argument",))}


def test_extract_rejects_non_anf_and_open_terms():
    with pytest.raises(ValueError):
        extract(parse_lambda(r"(\x. x x) (\y. y) (\z. z)"))
    with pytest.raises(ValueError):
        extract(Var("x"))
    with pytest.raises(ValueError):
        extract(Abs("x", Let("result", App(Var("x"), Var("x")), Var("result"))))


# One term per rejection of translate: not ANF, open, a synthetic let-name.
_REJECTED = {
    "not ANF": (parse_lambda(r"(\x. x x) (\y. y) (\z. z)"), ValueError),
    "open": (Var("x"), FreeVariableError),
    "synthetic": (
        Abs("x", Let("result", App(Var("x"), Var("x")), Var("result"))),
        SyntheticNameCollision,
    ),
}


@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_extract_raises_what_translate_raises(name):
    term, kind = _REJECTED[name]
    assert issubclass(kind, ValueError)
    with pytest.raises(ValueError) as by_translate:
        translate(term)
    with pytest.raises(ValueError) as by_extract:
        extract(term)
    assert type(by_extract.value) is type(by_translate.value) is kind
    assert str(by_extract.value) == str(by_translate.value)


def test_extract_views_the_translate_table():
    for _, anf in corpus_terms(6):
        assert extract(anf) == translate(anf)


# ---------------------------------------------------------------------------
# Convergence agreement
# ---------------------------------------------------------------------------

def test_direct_identity_redex_depth_one():
    anf = anf_transform(parse_lambda(r"(\x. x) (\y. y)"))
    report = converges_direct(extract(anf), fuel=10_000)
    assert (report.converged, report.depth) == (True, 1)


def test_direct_self_application_redex_depth_two():
    # regression: the graft closure must include grafts of callees,
    # otherwise this term wrongly exceeds the depth bound
    anf = anf_transform(parse_lambda(r"(\v. v v) (\v. v)"))
    direct = converges_direct(extract(anf), fuel=10_000)
    general = converges(translate(anf), fuel=10_000)
    assert (direct.converged, direct.depth) == (True, 2)
    assert (general.converged, general.depth) == (True, 2)


def test_direct_omega_undecided():
    report = converges_direct(extract(anf_transform(NAMED_TERMS["omega"])), fuel=10_000)
    assert not report.converged
    assert report.reason in ("Cycle", "FuelExhausted", "DepthExceeded")


def test_direct_scan_reports_fuel_exhausted():
    omega = extract(anf_transform(NAMED_TERMS["omega"]))
    assert converges_direct(omega, fuel=3).describe() == "not converged: FuelExhausted"


def test_direct_agrees_with_general_on_sample():
    rng = random.Random(11)
    terms = corpus_terms()
    for _, anf in rng.sample(terms, 60):
        a = converges(translate(anf), fuel=5_000)
        b = converges_direct(extract(anf), fuel=5_000)
        if "FuelExhausted" in (a.reason, b.reason):
            continue
        assert (a.converged, a.depth) == (b.converged, b.depth)


@pytest.mark.parametrize(
    "engine, method, pinned",
    [
        (DirectContext, "labels", DIRECT_CORPUS_8_FUEL_SHA256),
        (EvalContext, "properties", GENERAL_CORPUS_8_FUEL_SHA256),
    ],
    ids=["direct", "general"],
)
def test_direct_fuel_pinned_on_corpus(engine, method, pinned):
    # Fuel left is the count of equation bodies a scan ran, so it changes
    # with any change to what the equations ask, and it must not change
    # with the hash seed.
    rows = []
    for name, anf in corpus_terms(8):
        ctx = engine(extract(anf), fuel=10_000)
        report = _scan_result_chain(ctx, getattr(ctx, "_" + method), DEFAULT_MAX_DEPTH)
        rows.append(
            f"{name}\t{report.converged}\t{report.depth}\t{report.reason}\t{ctx.fuel}"
        )
    assert len(rows) == 718
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == pinned


def identity_chain(k: int) -> str:
    """``(\\x0. x0) ((\\x1. x1) (... (\\y. y)))``: ``k`` identity redexes."""
    return "".join(f"(\\x{i}. x{i}) (" for i in range(k)) + "\\y. y" + ")" * k


# sha256 of one row per result-chain scan, n < 40: the general engine's
# properties, then the direct engine's labels, over the 30-redex identity
# chain and then NAMED_TERMS in their order, at fuel budgets 0, 3, ...,
# 399.  A row is "method, term, budget, outcome, fuel left", where the
# outcome is the depth the scan converged at, DepthExceeded, or the kind
# and witness of the divergence that stopped it, each frozenset argument
# sorted.  As with the observe digest in test_semantics.py, that query is
# where each engine's misses stand at the budget, so an added or dropped
# miss moves the digest; on these terms few reorderings show in it.
SCAN_MISS_ORDER_SHA256 = (
    "b7e19ff025c856501104e8cdbf20afafd5e68655275d96500870e90e2f153585"
)


def test_scan_miss_order_is_pinned():
    terms = {"chain30": parse_lambda(identity_chain(30)), **NAMED_TERMS}
    rows = []
    for engine, method in ((EvalContext, "properties"), (DirectContext, "labels")):
        for name, term in terms.items():
            prog = translate(anf_transform(term))
            for budget in range(0, 400, 3):
                ctx = engine(prog, fuel=budget)
                ask = getattr(ctx, method)
                for n in range(40):
                    try:
                        found = ask(("result",) * n)
                    except DivergenceError as exc:
                        outcome = f"{exc.kind}\t{sorted_witness(exc.witness)!r}"
                        break
                    if "argument" in found and "result" in found:
                        outcome = f"converged\t{n}"
                        break
                else:
                    outcome = "DepthExceeded"
                rows.append(f"{method}\t{name}\t{budget}\t{outcome}\t{ctx.fuel}")
    assert len(rows) == 3216
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == SCAN_MISS_ORDER_SHA256


# The equations that keep no memo table, per engine.
_TABLELESS = {
    EvalContext: ("_properties", "_bases_star"),
    DirectContext: ("_labels",),
}


def _counting(engine):
    """A subclass of ``engine`` that counts, in ``asked``, the (method,
    key) pairs its table-less equations are asked."""

    def counted(name):
        inner = getattr(engine, name)

        def method(self, key):
            self.asked[name, key] += 1
            return inner(self, key)

        return method

    def __init__(self, *args, **kwargs):
        engine.__init__(self, *args, **kwargs)
        self.asked = Counter()

    methods = {name: counted(name) for name in _TABLELESS[engine]}
    return type(f"Counting{engine.__name__}", (engine,), {"__init__": __init__, **methods})


def test_no_key_of_a_tableless_equation_is_asked_twice():
    # A table-less equation spends a unit of fuel per call, so the fuel
    # pins hold only while no context asks one of its keys again: each
    # is asked once per run of its memoized caller, or once per public
    # query, and observe and the scans ask each path once.
    general, direct = _counting(EvalContext), _counting(DirectContext)
    contexts = []
    for name in FIXTURE_NAMES:
        ctx = general(fixture(name).program())
        ctx.observe((), 4, record_divergence=True)
        contexts.append(ctx)
    chain = translate(anf_transform(parse_lambda(identity_chain(120))))
    scans = [(extract(anf), 10_000, DEFAULT_MAX_DEPTH) for _, anf in corpus_terms(8)]
    for prog, fuel, max_depth in scans + [(chain, DEFAULT_FUEL, 121)]:
        for engine, method in ((general, "properties"), (direct, "labels")):
            ctx = engine(prog, fuel=fuel)
            _scan_result_chain(ctx, getattr(ctx, "_" + method), max_depth)
            contexts.append(ctx)
    seen = set()
    for ctx in contexts:
        assert max(ctx.asked.values()) == 1
        seen.update(name for name, _ in ctx.asked)
    assert seen == {"_properties", "_bases_star", "_labels"}


def test_a_second_labels_query_spends_one_more_unit():
    ctx = DirectContext(extract(anf_transform(parse_lambda(identity_chain(3)))))
    path = ("result",) * 3
    first = ctx.labels(path)
    left = ctx.fuel
    assert ctx.labels(path) == first == {"argument", "result"}
    assert left - ctx.fuel == 1


@pytest.mark.parametrize("k", [120, 240])
def test_deep_identity_chain_converges_at_depth_k(k):
    anf = anf_transform(parse_lambda(identity_chain(k)))
    general = converges(translate(anf), max_depth=k + 1)
    direct = converges_direct(extract(anf), max_depth=k + 1)
    assert (general.converged, general.depth) == (True, k)
    assert (direct.converged, direct.depth) == (True, k)


def test_scans_of_a_120_redex_chain_intern_no_new_id():
    # The chain's result^n paths are the let records translate wrote, so
    # neither scan adds an id to the program's 483.
    k = 120
    prog = translate(anf_transform(parse_lambda(identity_chain(k))))
    general, direct = EvalContext(prog), DirectContext(prog)
    assert converges(prog, ctx=general, max_depth=k + 1).depth == k
    assert _scan_result_chain(direct, direct._labels, k + 1).depth == k
    assert len(prog._node) == len(general._node) == len(direct._node) == 483
    assert (DEFAULT_FUEL - general.fuel, DEFAULT_FUEL - direct.fuel) == (1565, 1324)


def test_a_300_redex_chain_keeps_ten_memo_entries_a_level_in_each_engine():
    # The general engine walks its scope steps in a loop outside the
    # kernel, so its memo holds only supers, overrides and bases, as many
    # entries as the direct engine's callee*, callee and grafts.
    k = 300
    prog = translate(anf_transform(parse_lambda(identity_chain(k))))
    general, direct = EvalContext(prog), DirectContext(prog)
    assert _scan_result_chain(general, general._properties, k + 1).depth == k
    assert _scan_result_chain(direct, direct._labels, k + 1).depth == k
    sizes = {tag: len(table) for tag, table in general.memo.items()}
    assert sizes == {"supers": 601, "overrides": 1201, "bases": 1201}
    assert sum(sizes.values()) == sum(map(len, direct.memo.values())) == 3003


def test_each_scan_interns_one_path(monkeypatch):
    # A scan interns its base path and steps down the chain by child ids,
    # so neither engine interns a path per level.
    k = 120
    anf = anf_transform(parse_lambda(identity_chain(k)))
    interned = []
    intern = InternedContext._intern

    def counted(self, p):
        interned.append(tuple(p))
        return intern(self, p)

    monkeypatch.setattr(InternedContext, "_intern", counted)
    assert converges(translate(anf), max_depth=k + 1).depth == k
    assert interned == [()]
    assert converges_direct(extract(anf), max_depth=k + 1).depth == k
    assert interned == [(), ()]
    assert converges(translate(anf), max_depth=k, base_path=("result",)).depth == k - 1
    assert interned == [(), (), ("result",)]


_LABELS = st.sampled_from(("result", "argument", "tailCall", "_a0", "x"))
_MOVES = st.one_of(
    st.tuples(st.just("extend"), st.lists(_LABELS, min_size=1, max_size=3)),
    st.tuples(st.just("sibling"), _LABELS),
    st.tuples(st.just("prefix"), st.integers(0, 6)),
    st.tuples(st.just("repeat"), st.none()),
    st.tuples(st.just("root"), st.none()),
    st.tuples(st.just("list"), st.lists(_LABELS, min_size=1, max_size=3)),
    st.tuples(st.just("evaluate"), st.none()),
)


def _evaluate(query, p):
    try:
        query(p)
    except (DivergenceError, ScopeUnderflowError, AmbiguousCaller):
        pass


@pytest.mark.parametrize(
    "engine, query", [(EvalContext, "properties"), (DirectContext, "labels")]
)
@settings(max_examples=150, deadline=None)
@given(moves=st.lists(_MOVES, max_size=25))
def test_an_interned_path_round_trips(engine, query, moves):
    # Extensions, siblings, prefixes, repeats, the root, and a list path
    # mutated after it was interned, with evaluations adding ids between.
    prog = translate(anf_transform(NAMED_TERMS["S"]))
    ctx = engine(prog, fuel=200)
    cur: tuple = ()

    def check(p):
        i = ctx._intern(p)
        assert ctx._paths(i) == tuple(p)
        assert ctx._intern(ctx._paths(i)) == i

    for move, arg in moves:
        if move == "extend":
            cur += tuple(arg)
        elif move == "sibling":
            cur = cur[:-1] + (arg,)
        elif move == "prefix":
            cur = cur[:arg]
        elif move == "root":
            cur = ()
        elif move == "list":
            path = list(cur) + arg
            check(path)
            path.append(arg[0])
            check(path)
            path[0] = "argument" if path[0] != "argument" else "result"
            check(path)
            check(cur + tuple(arg))
        elif move == "evaluate":
            _evaluate(getattr(ctx, query), cur)
        check(cur)  # after "repeat", the path the last move checked


def test_scope_step_with_two_callers_raises_ambiguous_caller():
    # X.b inherits Y.b and Y inherits X, so X.b is a graft of both X.b and
    # Y.b: the scope step of the reference ^1 in X.b.c finds two callers.
    prog = parse_program("{X = {b = {Y.b, c = ^1}}, Y = X}")
    with pytest.raises(AmbiguousCaller) as info:
        DirectContext(prog, fuel=1_000).labels(("X", "b", "c"))
    assert info.value.candidates == {("X",), ("Y",)}
    assert str(info.value) == (
        "scope step at site ('X', 'b') for definition scope ('X', 'b') "
        "found 2 caller(s): [('X',), ('Y',)]"
    )


def test_labels_match_properties_on_sample():
    rng = random.Random(13)
    terms = corpus_terms()
    for _, anf in rng.sample(terms, 40):
        general = EvalContext(translate(anf), fuel=20_000)
        direct = DirectContext(extract(anf), fuel=20_000)
        assert properties_struct(general, (), 3) == labels_struct(direct, (), 3)


def test_fuel_exhausted_witnesses_are_path_queries():
    # Cutting the result-chain scan short at every third fuel unit stops
    # it inside each of the direct equations; the witness is the query
    # as asked, on paths.
    tags = set()
    for name in ("omega", "S", "eq"):
        prog = extract(anf_transform(NAMED_TERMS[name]))
        for fuel in range(0, 120, 3):
            ctx = DirectContext(prog, fuel=fuel)
            try:
                for n in range(8):
                    ctx.labels(("result",) * n)
                continue
            except DivergenceError as exc:
                assert exc.kind == "FuelExhausted"
                assert exc.args == (exc.kind, exc.witness)
                assert repr(exc.witness) in str(exc)
                tag, *args = exc.witness
            tags.add(tag)
            assert len(args) == 1 and is_path(args[0])
    assert tags == {"labels", "grafts", "callee*", "callee"}


# ---------------------------------------------------------------------------
# One program, read by both engines
# ---------------------------------------------------------------------------

def _scan_outcome(engine, prog, fuel: int):
    """The least abstraction depth on the result chain, or the divergence
    that stops the scan with its witness, and the fuel left."""
    ctx = engine(prog, fuel=fuel)
    labels = ctx.properties if engine is EvalContext else ctx.labels
    try:
        for n in range(DEFAULT_MAX_DEPTH + 1):
            if {"argument", "result"} <= labels(("result",) * n):
                return n, ctx.fuel
    except DivergenceError as exc:
        return (exc.kind, exc.witness), ctx.fuel
    return "DepthExceeded", ctx.fuel


_PROGRAMS = {
    **{
        name: lambda name=name: translate(anf_transform(NAMED_TERMS[name]))
        for name in ("omega", "S", "eq", "church2")
    },
    "asymmetry": lambda: fixture("asymmetry").program(),
}


@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_evaluation_leaves_the_program_as_it_was(name):
    # Contexts adopt the program's path ids and add their own after them;
    # the program must read as new afterwards, to a third context too.
    prog, fresh = _PROGRAMS[name](), _PROGRAMS[name]()
    general = EvalContext(prog, fuel=10_000)  # as corpus.judge runs them
    converges(prog, ctx=general)
    converges_direct(prog, fuel=10_000)
    properties_struct(general, (), 3)
    labels_struct(DirectContext(prog, fuel=10_000), (), 3)
    assert len(prog.nodes) == len(fresh.nodes)
    assert dict(prog.nodes) == dict(fresh.nodes)
    assert prog == fresh and hash(prog) == hash(fresh)
    assert render(prog) == render(fresh)
    for engine in (EvalContext, DirectContext):
        for fuel in (0, 3, 10, 30, 100, 10_000):
            want = _scan_outcome(engine, fresh, fuel)
            assert _scan_outcome(engine, prog, fuel) == want, (engine, fuel)


def test_translate_writes_the_program_its_table_interns():
    # translate numbers ids in the order its walk meets the nodes, and
    # resolve_references in sorted path order: the programs are equal, and
    # the ids do not change what either scan finds or spends.
    for name, t in corpus_terms(8):
        written = translate(t)
        interned = resolve_references(translate_surface(t))
        assert interned == written and render(interned) == render(written), name
        for engine in (EvalContext, DirectContext):
            for fuel in (5, 17, 40, 100, 10_000):
                want = _scan_outcome(engine, written, fuel)
                assert _scan_outcome(engine, interned, fuel) == want, (name, engine, fuel)
