import hashlib
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NaiveEvaluator,
    is_path,
    mutated_text,
    properties_struct,
    sorted_witness,
)
from inhcalc.fixtures import FIXTURE_NAMES, fixture
from inhcalc.semantics import (
    ABOVE_ROOT,
    DEFAULT_FUEL,
    DivergenceError,
    EvalContext,
    ObservationTree,
    ScopeUnderflowError,
    SinglePathViolation,
)
from inhcalc.syntax import parse, parse_program, path_text

P1 = "{A = {x = {}}, B = {A, x = {y = {}}}}"
P2 = "{Outer = {Inner = {r = this@Outer}}, Obj = {Outer}}"


def test_basic_override():
    ctx = EvalContext(parse_program(P1))
    assert ctx.bases(("B",)) == {("A",)}
    assert ctx.supers(("B",)) == {((), ("B",)), ((), ("A",))}
    assert ctx.overrides(("B", "x")) == {("B", "x"), ("A", "x")}
    assert ctx.properties(("B",)) == {"x"}
    assert ctx.properties(("B", "x")) == {"y"}
    assert ctx.ancestors(("B", "x")) == {("B", "x"), ("A", "x")}


def test_scope_reference_late_binding():
    ctx = EvalContext(parse_program(P2))
    assert ctx.this(frozenset({("Obj", "Inner")}), ("Outer", "Inner"), 1) == {("Obj",)}
    # r inherits the object that instantiated Inner, not Outer statically
    assert ctx.properties(("Obj", "Inner", "r")) == {"Inner"}
    assert ctx.properties(("Outer", "Inner", "r")) == {"Inner"}


def test_this_step_with_two_sites():
    # H.outer's scope reference steps out of MyInner to Mid, which H reaches
    # through both objects: one step whose frontier holds two sites, each
    # then stepping out to its own object.
    prog = parse_program(
        "{MyOuter = {Mid = {MyInner = {outer = this@MyOuter}}},"
        " Object1 = {MyOuter}, Object2 = {MyOuter},"
        " H = {Object1.Mid.MyInner, Object2.Mid.MyInner}}"
    )
    ctx = EvalContext(prog)
    ctx.observe((), 5, record_divergence=True)
    assert ctx.single_path_violations == [
        SinglePathViolation(
            frozenset({("Object1", "Mid"), ("Object2", "Mid")}), ("MyOuter", "Mid"), 1
        )
    ]
    assert ctx.ancestors(("H", "outer")) == {
        ("H", "outer"),
        ("MyOuter",),
        ("MyOuter", "Mid", "MyInner", "outer"),
        ("Object1",),
        ("Object2",),
    }
    assert DEFAULT_FUEL - ctx.fuel == 130


def test_single_path_violations_are_the_completed_this_steps():
    # A this step logs nothing itself: the violations are the memo's
    # completed keys with a frontier of other than one path.
    prog = parse_program("{a = {}, b = {}, x = {y = {}}}")
    ab = frozenset({("a",), ("b",)})
    ctx = EvalContext(prog)
    with pytest.raises(ScopeUnderflowError):
        ctx.this(ab, ("x",), 2)
    assert ctx.single_path_violations == []
    ctx = EvalContext(prog)
    assert ctx.this(ab, ("x", "y"), 1) == frozenset()
    assert ctx.single_path_violations == [SinglePathViolation(ab, ("x", "y"), 1)]


def test_no_this_query_reads_no_violations_and_adds_no_this_table():
    ctx = EvalContext(parse_program("{a = {b = {}}, c = {}}"))
    ctx.observe((), 3)
    assert ctx.single_path_violations == []
    assert "this" not in ctx.memo


def test_root_supers_uses_above_root_sentinel():
    ctx = EvalContext(parse_program("{a = {}}"))
    assert ctx.supers(()) == {(ABOVE_ROOT, ())}
    assert ctx.properties(()) == {"a"}


def test_above_root_sorts_before_every_real_path():
    assert sorted([ABOVE_ROOT, ("a",)]) == [ABOVE_ROOT, ("a",)]
    assert sorted([("a",), ABOVE_ROOT]) == [ABOVE_ROOT, ("a",)]
    # the root-context pair sorts first whatever the set's iteration order
    pairs = [(ABOVE_ROOT, ()), ((), ("a",))]
    assert EvalContext(parse_program("{a = {^0}}")).supers(("a",)) == set(pairs)
    assert sorted(pairs) == sorted(pairs[::-1]) == pairs


def test_self_inheritance_infinite_tree():
    ctx = EvalContext(parse_program("{a = {^0}}"))
    tree = ctx.observe((), 3)
    assert tree.lines() == [
        "()\ta",
        "a\ta",
        "a.a\ta",
        "a.a.a\ta",
    ]


def test_cycle_detection():
    ctx = EvalContext(parse_program("{a = {a.b}}"))
    with pytest.raises(DivergenceError) as exc:
        ctx.properties(("a",))
    assert exc.value.kind == "Cycle"
    assert exc.value.witness == ("supers", ("a",))
    # the verdict is stable on re-query
    with pytest.raises(DivergenceError) as exc2:
        ctx.properties(("a",))
    assert exc2.value.kind == "Cycle"
    assert exc2.value.witness == ("supers", ("a",))


def test_a_reentered_query_is_a_cycle_before_the_fuel_runs_out():
    """The kernel checks a query's in-flight marker before the fuel: with
    13 units the tank is empty when properties(a) re-enters supers(a), and
    with 12 it runs out on a fresh query first."""
    ctx = EvalContext(fixture("cyclic_a").program(), fuel=13)
    with pytest.raises(DivergenceError) as exc:
        ctx.properties(("a",))
    assert (exc.value.kind, exc.value.witness) == ("Cycle", ("supers", ("a",)))
    assert ctx.fuel == 0
    ctx = EvalContext(fixture("cyclic_a").program(), fuel=12)
    with pytest.raises(DivergenceError) as exc:
        ctx.properties(("a",))
    assert (exc.value.kind, exc.value.witness) == (
        "FuelExhausted", ("overrides", ("a", "b"))
    )


def test_a_second_properties_query_spends_one_more_unit():
    # properties keeps no table: asking it again runs its body again,
    # whose supers query is a memo hit.
    ctx = EvalContext(fixture("nat").program())
    path = ("CartesianTest", "Five", "Plus")
    first = ctx.properties(path)
    left = ctx.fuel
    assert ctx.properties(path) == first == {
        "_increasedAddend", "_recursiveAddition", "addend", "sum"
    }
    assert left - ctx.fuel == 1


def test_a_cycle_through_bases_star_is_reported_at_bases():
    # bases* keeps no table.  Its closure from a reaches bases(a.b),
    # whose overrides ask supers(a), which runs bases*(a) anew; that
    # closure reads the completed bases(a) and re-enters the in-flight
    # bases(a.b).  A memoized bases*(a) was itself the re-entered query,
    # one unit of fuel sooner, after 12.
    ctx = EvalContext(fixture("cyclic_a").program())
    with pytest.raises(DivergenceError) as exc:
        ctx.bases_star(("a",))
    assert (exc.value.kind, exc.value.witness) == ("Cycle", ("bases", ("a", "b")))
    assert DEFAULT_FUEL - ctx.fuel == 13


def test_sibling_mutual_inheritance_terminates():
    ctx = EvalContext(parse_program("{a = {b, x = {}}, b = {a, y = {}}}"))
    assert ctx.properties(("a",)) == {"x", "y"}
    assert ctx.bases_star(("a",)) == {("a",), ("b",)}


# Fuel spent by observe((), 4): exactly one unit per equation body run.
_OBSERVE_FUEL = {
    "p1": 32,
    "p2": 53,
    "multipath": 105,
    "cyclic_a": 14,
    "self_ref": 33,
    "nat": 5040,
    "asymmetry": 612,
}


@pytest.mark.parametrize("name", sorted(_OBSERVE_FUEL))
def test_observe_fuel_is_one_per_memo_miss(name):
    ctx = EvalContext(fixture(name).program())
    ctx.observe((), 4, record_divergence=True)
    assert DEFAULT_FUEL - ctx.fuel == _OBSERVE_FUEL[name]


# The public method that answers each equation's witness.
_WITNESS_METHODS = {
    "properties": "properties",
    "supers": "supers",
    "bases*": "bases_star",
    "overrides": "overrides",
    "bases": "bases",
    "resolve": "resolve",
    "this": "this",
}


@pytest.mark.parametrize("engine", [EvalContext, NaiveEvaluator])
def test_fuel_exhausted_witnesses_are_replayable_paths(engine):
    # Cutting observe((), 4) short at every seventh fuel unit stops it
    # inside each of the equations.  Only the witnesses' form is checked
    # here; their sequence is pinned by the miss-order digest below.
    tags = set()
    for name in ("p2", "nat", "asymmetry"):
        prog = fixture(name).program()
        for fuel in range(0, 401, 7):
            try:
                engine(prog, fuel=fuel).observe((), 4)
                continue
            except DivergenceError as exc:
                assert exc.kind == "FuelExhausted"
                assert exc.args == (exc.kind, exc.witness)
                tag, *args = exc.witness
                assert repr(exc.witness) in str(exc)
            tags.add(tag)
            if tag == "this":
                assert isinstance(args[0], frozenset)
                assert all(is_path(p) for p in args[0])
                assert is_path(args[1])
            elif tag == "resolve":
                assert is_path(args[0]) and is_path(args[1])
                assert is_path(args[3])
            else:
                assert len(args) == 1 and is_path(args[0])
            getattr(EvalContext(prog), _WITNESS_METHODS[tag])(*args)
    assert tags == set(_WITNESS_METHODS)


# sha256 of one row per fuel budget 0..699 of observe((), 4) on p2,
# asymmetry and nat: "name, budget, ok, fuel left", or "name, budget, kind,
# witness, fuel left" with each frozenset argument of the witness sorted.
# The query that runs out of fuel at each budget is the order of the first
# 700 misses, so adding, dropping or reordering one of them moves the digest.
OBSERVE_MISS_ORDER_SHA256 = (
    "423a56b0f0d7ec08d4a112ccd35f2fd2711638bf0a4a93f3e72bff9422e84ef3"
)


def test_observe_miss_order_is_pinned():
    rows = []
    for name in ("p2", "asymmetry", "nat"):
        prog = fixture(name).program()
        for budget in range(700):
            ctx = EvalContext(prog, fuel=budget)
            try:
                ctx.observe((), 4)
                rows.append(f"{name}\t{budget}\tok\t{ctx.fuel}")
            except DivergenceError as exc:
                witness = sorted_witness(exc.witness)
                rows.append(f"{name}\t{budget}\t{exc.kind}\t{witness!r}\t{ctx.fuel}")
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == OBSERVE_MISS_ORDER_SHA256


def _answer(method, p):
    try:
        return method(p)
    except DivergenceError as exc:
        return exc.kind
    except ScopeUnderflowError:
        return "underflow"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_shared_context_answers_like_fresh_ones(name):
    # One context answers every query in a shuffled order, so its path
    # ids come from earlier queries; each answer must match a fresh
    # context's.
    prog = fixture(name).program()
    queries = set()
    for p in prog.paths():
        queries.add(p)
        queries.update(p + (label,) for label in prog.defines(p))
        labels = _answer(EvalContext(prog).properties, p)
        if isinstance(labels, frozenset):
            queries.update(p + (label,) for label in labels)
    queries = sorted(queries)
    random.Random(7).shuffle(queries)
    shared = EvalContext(prog)
    for p in queries:
        for method in ("properties", "ancestors"):
            want = _answer(getattr(EvalContext(prog), method), p)
            assert _answer(getattr(shared, method), p) == want, (method, p)


def test_deep_nesting():
    # {A = {a = ...{}...}, B = {A}} with d nested records: B.a^(d-1)
    # inherits exactly the label a.  Each nesting level costs a fixed
    # number of interpreter frames, so this depth bounds that number.
    d = 75
    prog = parse_program("{A = " + "{a = " * d + "{}" + "}" * d + ", B = {A}}")
    assert EvalContext(prog).properties(("B",) + ("a",) * (d - 1)) == {"a"}


def test_fuel_before_an_underflow_does_not_follow_the_hash_seed():
    # a has two references, and ^2.c underflows: the fuel spent before
    # the error is the same whichever the hash seed, because the
    # references are followed in sorted order
    prog = parse_program("{a = {c = {}, b = {}, ^2.c, ^0}, c = {}}")
    for engine, spent in ((EvalContext, 13), (NaiveEvaluator, 14)):
        ctx = engine(prog, fuel=20_000)
        with pytest.raises(ScopeUnderflowError):
            ctx.properties(("a",))
        assert 20_000 - ctx.fuel == spent, engine.__name__


def _observe_outcome(prog, fuel: int, record_divergence: bool):
    ctx = EvalContext(prog, fuel=fuel)
    try:
        out = ctx.observe((), 4, record_divergence).text()
    except DivergenceError as exc:
        out = (exc.kind, exc.witness)
    return out, ctx.fuel


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_source_element_order_does_not_reach_evaluation(name):
    # A program interns its paths in sorted order, so shuffled and
    # duplicated elements give the same path ids: the same tree and fuel,
    # and at every small budget the same divergence, witness and fuel left.
    source = fixture(name).source
    rng = random.Random(5)
    texts = [source] + [mutated_text(parse(source), rng) for _ in range(4)]
    programs = [parse_program(text) for text in texts]
    runs = [(DEFAULT_FUEL, True)] + [(fuel, False) for fuel in range(0, 300, 13)]
    for fuel, record_divergence in runs:
        outcomes = {_observe_outcome(p, fuel, record_divergence) for p in programs}
        assert len(outcomes) == 1, (fuel, outcomes)


def test_fuel_exhaustion():
    ctx = EvalContext(parse_program(P2), fuel=3)
    with pytest.raises(DivergenceError) as exc:
        ctx.properties(("Obj", "Inner", "r"))
    assert exc.value.kind == "FuelExhausted"


def test_scope_underflow_at_root():
    ctx = EvalContext(parse_program("{^0, a = {}}"))
    with pytest.raises(ScopeUnderflowError):
        ctx.properties(())


def test_scope_underflow_above_root():
    # ^5 climbs past every enclosing scope
    ctx = EvalContext(parse_program("{a = {b = {^5}}}"))
    with pytest.raises(ScopeUnderflowError):
        ctx.properties(("a", "b"))


def test_resolve_with_the_root_as_definition_path():
    ctx = EvalContext(parse_program("{a = {}}"))
    with pytest.raises(ScopeUnderflowError, match="nonempty definition-site path"):
        ctx.resolve(("a",), (), 0, ())


def test_observe_structure_is_path_independent():
    prog = parse_program("{A = {x = {y = {}}}, B = {A}}")
    ctx = EvalContext(prog)
    assert ctx.observe(("A",), 2).structure() == ctx.observe(("B",), 2).structure()


def test_observe_json():
    ctx = EvalContext(parse_program(P1))
    data = json.loads(ctx.observe(("B",), 1).to_json())
    assert data["path"] == "B"
    assert data["labels"] == ["x"]
    assert data["children"]["x"]["labels"] == ["y"]


def test_observe_records_divergence():
    ctx = EvalContext(parse_program("{a = {a.b}}"))
    tree = ctx.observe((), 1, record_divergence=True)
    assert tree.labels == ("a",)
    assert tree.children["a"].divergence == "Cycle"
    assert "a\t!Cycle" in tree.text()


def test_observe_structure_tells_apart_one_label_or_one_divergence():
    # A.x and C.x differ in one label below them; b and c in one
    # divergence, Cycle against no labels
    ctx = EvalContext(parse_program("{A = {x = {y = {}}}, C = {x = {z = {}}}}"))
    assert ctx.observe(("A",), 2).structure() != ctx.observe(("C",), 2).structure()
    ctx = EvalContext(parse_program("{b = {a = {a.b}}, c = {a = {}}}"))
    b, c = (ctx.observe((r,), 1, record_divergence=True) for r in "bc")
    assert b.children["a"].divergence == "Cycle" and c.children["a"].divergence is None
    assert b.structure() != c.structure()
    # the same labels in preorder, b a sibling of a or a's child
    b_leaf = ObservationTree(("b",), (), {}, None)
    a_leaf = ObservationTree(("a",), ("b",), {}, None)
    siblings = ObservationTree((), ("a", "b"), {"a": a_leaf, "b": b_leaf}, None)
    a_node = ObservationTree(("a",), ("b",), {"b": b_leaf}, None)
    nested = ObservationTree((), ("a", "b"), {"a": a_node}, None)
    assert siblings.structure() != nested.structure()


def test_printers_read_children_in_label_order():
    # children added out of label order print in label order
    leaf = {label: ObservationTree((label,), (), {}, None) for label in "ab"}
    tree = ObservationTree((), ("a", "b"), {"b": leaf["b"], "a": leaf["a"]}, None)
    assert tree.lines() == _reference_lines(tree) == ["()\ta,b", "a\t", "b\t"]
    assert tree.to_json() == _reference_json(tree)
    assert [label for _, label, _, _ in tree.structure()] == [None, "a", "b"]


# The recursive walks that observe, lines and to_json were before they
# read one explicit stack: the reference of the differential tests below.

def _reference_observe(ctx, p, depth, record_divergence):
    try:
        labels = tuple(sorted(ctx.properties(p)))
    except DivergenceError as exc:
        if not record_divergence:
            raise
        return ObservationTree(p, (), {}, exc.kind)
    children = {}
    if depth > 0:
        for label in labels:
            children[label] = _reference_observe(ctx, p + (label,), depth - 1, record_divergence)
    return ObservationTree(p, labels, children, None)


def _reference_lines(tree):
    if tree.divergence is not None:
        own = f"{path_text(tree.path)}\t!{tree.divergence}"
    else:
        own = f"{path_text(tree.path)}\t{','.join(tree.labels)}"
    out = [own]
    for label in sorted(tree.children):
        out.extend(_reference_lines(tree.children[label]))
    return out


def _reference_json(tree):
    def conv(node):
        return {
            "path": path_text(node.path),
            "labels": list(node.labels),
            "divergence": node.divergence,
            "children": {label: conv(child) for label, child in sorted(node.children.items())},
        }

    return json.dumps(conv(tree), indent=2, sort_keys=True)


def _reference_structure(tree):
    return (
        tree.divergence,
        tree.labels,
        tuple((label, _reference_structure(tree.children[label])) for label in sorted(tree.children)),
    )


def _observation(prog, fuel, walk):
    """What ``walk(ctx)`` prints, or the error it raises, with the fuel
    left and every path it asked ``properties`` for, in order."""
    ctx = EvalContext(prog, fuel=fuel)
    asked, properties = [], ctx.properties

    def recorded(p):
        asked.append(p)
        return properties(p)

    ctx.properties = recorded
    try:
        out = walk(ctx)
    except DivergenceError as exc:
        out = (DivergenceError, exc.kind, exc.witness)
    except ScopeUnderflowError as exc:
        out = (ScopeUnderflowError, str(exc))
    return out, ctx.fuel, asked


def _both_observations(prog, p, depth, record_divergence, fuel):
    def loop(ctx):
        tree = ctx.observe(p, depth, record_divergence)
        return tree.text(), tree.to_json()

    def recursion(ctx):
        tree = _reference_observe(ctx, p, depth, record_divergence)
        return "\n".join(_reference_lines(tree)), _reference_json(tree)

    return _observation(prog, fuel, loop), _observation(prog, fuel, recursion)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_observe_and_its_printers_match_the_recursive_walk(name):
    # at every depth up to 4, recording divergences or raising them, and
    # at budgets that stop the walk inside the tree
    prog = fixture(name).program()
    stops = 0
    for depth in range(5):
        for record_divergence in (False, True):
            for fuel in (DEFAULT_FUEL, 0, 3, 11, 30, 90, 250, 700):
                new, old = _both_observations(prog, (), depth, record_divergence, fuel)
                assert new == old, (depth, record_divergence, fuel)
                stops += new[0][0] is DivergenceError and new[0][1] == "FuelExhausted"
    assert stops


def test_structure_compares_equal_exactly_when_the_nested_form_did():
    # every subtree of every fixture's depth-4 tree, and of a few roots'
    trees = []
    for name in FIXTURE_NAMES:
        ctx = EvalContext(fixture(name).program())
        for p in [()] + sorted(fixture(name).program().paths())[:20]:
            work = [ctx.observe(p, 4, record_divergence=True)]
            while work:
                tree = work.pop()
                trees.append(tree)
                work.extend(tree.children.values())
    pairs = {(tree.structure(), _reference_structure(tree)) for tree in trees}
    assert len({new for new, _ in pairs}) == len({old for _, old in pairs}) == len(pairs)
    assert len(pairs) > 50


def test_observe_and_its_printers_take_a_tree_of_any_depth():
    # {A = {next = A}} has a tree of unbounded depth; the walk and the text
    # and shape printers spend no stack frame per level, and only the json
    # encoder recurses, two dicts per level
    assert sys.getrecursionlimit() <= 1000
    prog = parse_program("{A = {next = A}}")
    tree = EvalContext(prog).observe(("A",), 5000)
    lines = tree.lines()
    assert len(lines) == len(tree.structure()) == 5001
    assert lines[-1] == "A" + ".next" * 5000 + "\tnext"
    data = json.loads(EvalContext(prog).observe(("A",), 400).to_json())
    nodes = 0
    while data is not None:
        nodes += 1
        data = data["children"].get("next")
    assert nodes == 401


def test_determinism_across_contexts():
    prog = parse_program(P2)
    queries = [(), ("Obj",), ("Obj", "Inner"), ("Obj", "Inner", "r")]
    first = [EvalContext(prog).properties(q) for q in queries]
    second = [EvalContext(prog).properties(q) for q in queries]
    assert first == second


def test_memoized_matches_naive_on_micro_programs():
    # the naive engine spends one unit of fuel per equation call, so its
    # total pins the call tree of the loop below
    for src, naive_fuel in (
        (P1, 576),
        (P2, 427),
        ("{a = {^0}}", 52),
        ("{a = {b, x = {}}, b = {a, y = {}}}", 419),
    ):
        prog = parse_program(src)
        ctx = EvalContext(prog)
        naive = NaiveEvaluator(prog, fuel=100_000)
        for p in prog.paths():
            assert ctx.properties(p) == naive.properties(p)
            assert ctx.supers(p) == naive.supers(p)
        assert 100_000 - naive.fuel == naive_fuel, src


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

_LABELS = st.sampled_from(["a", "b", "c"])


@st.composite
def _program_texts(draw, depth=2):
    n = draw(st.integers(1, 3))
    labels = draw(st.lists(_LABELS, min_size=n, max_size=n, unique=True))
    parts = []
    for label in labels:
        if depth > 0 and draw(st.booleans()):
            parts.append(f"{label} = {draw(_program_texts(depth=depth - 1))}")
        else:
            parts.append(f"{label} = {{}}")
    for _ in range(draw(st.integers(0, 2))):
        m = draw(st.integers(0, 1))
        downs = draw(st.lists(_LABELS, min_size=m, max_size=m))
        suffix = "." + ".".join(downs) if downs else ""
        parts.append(f"^{draw(st.integers(0, 2))}{suffix}")
    return "{" + ", ".join(parts) + "}"


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except DivergenceError:
        return ("diverged",)
    except ScopeUnderflowError:
        return ("underflow",)


@settings(max_examples=150, deadline=None)
@given(_program_texts())
def test_memoized_equals_naive(src):
    prog = parse_program(src)
    for p in prog.paths():
        memo = _outcome(EvalContext(prog, fuel=50_000).properties, p)
        naive = _outcome(NaiveEvaluator(prog, fuel=50_000).properties, p)
        if memo[0] == "ok" and naive[0] == "ok":
            assert memo == naive
        elif memo[0] == "ok" or naive[0] == "ok":
            # a decided-vs-diverged split can only come from the budget:
            # the naive engine burns fuel exponentially faster
            assert "diverged" in (memo[0], naive[0])
        else:
            assert memo[0] == naive[0] or "diverged" in (memo[0], naive[0])


@settings(max_examples=150, deadline=None)
@given(_program_texts())
def test_supers_is_the_comprehension_over_bases_star_and_overrides(src):
    # supers(p) = {(init(b), o) | b in bases*(p), o in overrides(b)}, with
    # ABOVE_ROOT as init of the root; ancestors(p) are its overrides, and
    # properties(p) is what they define.
    prog = parse_program(src)
    for p in prog.paths():
        ctx = EvalContext(prog, fuel=50_000)
        try:
            supers = ctx.supers(p)
            expected = {
                (b[:-1] if b else ABOVE_ROOT, o)
                for b in ctx.bases_star(p)
                for o in ctx.overrides(b)
            }
            ancestors, properties = ctx.ancestors(p), ctx.properties(p)
        except (DivergenceError, ScopeUnderflowError):
            continue
        assert supers == expected
        assert ancestors == {o for _, o in supers}
        assert properties == set().union(*map(prog.defines, ancestors))


@settings(max_examples=100, deadline=None)
@given(_program_texts(), st.integers(0, 2**32))
def test_query_results_are_reproducible(src, seed):
    prog = parse_program(src)
    paths = list(prog.paths())
    random.Random(seed).shuffle(paths)
    shuffled_ctx = EvalContext(prog, fuel=50_000)
    plain_ctx = EvalContext(prog, fuel=50_000)
    shuffled = {p: _outcome(shuffled_ctx.properties, p) for p in paths}
    plain = {p: _outcome(plain_ctx.properties, p) for p in prog.paths()}
    assert shuffled == plain


@settings(max_examples=100, deadline=None)
@given(_program_texts())
def test_observation_depth_monotone(src):
    prog = parse_program(src)
    ctx = EvalContext(prog, fuel=50_000)
    try:
        shallow = properties_struct(ctx, (), 1)
        deep = properties_struct(ctx, (), 2)
    except ScopeUnderflowError:
        return  # programs that underflow at the root have no observation
    if shallow == ("diverged",):
        return
    # the depth-1 labels are a prefix of the depth-2 observation
    assert shallow[0] == deep[0]


@pytest.mark.parametrize("name, nodes", [("nat", 514), ("cyclic_a", 2)])
def test_observe_asks_each_node_through_the_public_properties(monkeypatch, name, nodes):
    # A tracer that wraps the public method counts calls and divergences
    # there, so observe must not bypass it below the root.
    calls, divergences = [], []
    properties = EvalContext.properties

    def counted(self, p):
        calls.append(p)
        try:
            return properties(self, p)
        except DivergenceError as exc:
            divergences.append((p, exc.kind))
            raise

    monkeypatch.setattr(EvalContext, "properties", counted)
    tree = EvalContext(fixture(name).program()).observe((), 4, record_divergence=True)
    assert len(calls) == len(set(calls)) == len(tree.lines()) == nodes
    expected = [(("a",), "Cycle")] if name == "cyclic_a" else []
    assert divergences == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_program_texts(), st.integers(0, 4), st.booleans(), st.sampled_from([DEFAULT_FUEL, 4, 15, 40]))
def test_observe_matches_the_recursive_walk_on_generated_programs(src, depth, record, fuel):
    prog = parse_program(src)
    for p in [()] + sorted(prog.paths())[:3]:
        new, old = _both_observations(prog, p, depth, record, fuel)
        assert new == old, p
