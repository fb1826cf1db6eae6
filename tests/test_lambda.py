import gc
import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    binder_nest,
    chain_text,
    free_vars,
    is_anf,
    let_chain,
    rebuilt,
    spine_text,
    substitute,
    term_text,
    typed,
    zigzag,
)
from inhcalc.anf_direct import converges_direct
from inhcalc.corpus import (
    Verdict,
    _terms,
    corpus_terms,
    enumerate_closed_terms,
    judge,
    summarize,
)
from inhcalc.fixtures import fixture
from inhcalc.lam import (
    Abs,
    App,
    Bottom,
    ConvergenceReport,
    DEFAULT_MAX_DEPTH,
    FreeVariableError,
    HeadResult,
    HnfNode,
    LambdaParseError,
    Let,
    NAMED_TERMS,
    ORACLE_FUEL,
    SYNTHETIC_LABELS,
    SyntheticNameCollision,
    UNEXPANDED,
    Var,
    _LamParser,
    anf_transform,
    bohm_prefix,
    bohm_text,
    converges,
    head_reduce,
    named_to_oracle,
    oracle_to_named,
    parse_lambda,
    translate,
    translate_surface,
)
from inhcalc.semantics import EvalContext
from inhcalc.syntax import Node, Reference, parse_program, render, resolve_references

# ---------------------------------------------------------------------------
# Parsing and ANF
# ---------------------------------------------------------------------------

def test_parse_lambda_shapes():
    t = parse_lambda(r"\x. \y. x y")
    assert t == Abs("x", Abs("y", App(Var("x"), Var("y"))))
    assert parse_lambda(r"(\x. x) (\y. y)") == App(
        Abs("x", Var("x")), Abs("y", Var("y"))
    )


def test_parse_lambda_application_is_left_associative():
    t = parse_lambda(r"\a. \b. \c. a b c")
    body = t.body.body.body
    assert body == App(App(Var("a"), Var("b")), Var("c"))


def test_parse_lambda_let():
    t = parse_lambda(r"\f. let r = f f in r")
    assert t == Abs("f", Let("r", App(Var("f"), Var("f")), Var("r")))


def test_parse_lambda_errors():
    with pytest.raises(LambdaParseError):
        parse_lambda(r"\x. (x")
    with pytest.raises(LambdaParseError):
        parse_lambda(r"\f. let x' = f f in x'")
    with pytest.raises(FreeVariableError):
        parse_lambda("x y")


@pytest.mark.parametrize(
    "text, message",
    [
        ("#", "unexpected character '#' at 0"),
        ("\\x. x $", "unexpected character '$' at 6"),
        ("\\x.\n x ~ y", "unexpected character '~' at 7"),
        ("(\\x. x) 1", "unexpected character '1' at 8"),
        ("λx. x·x", "unexpected character '·' at 5"),
    ],
)
def test_parse_lambda_unexpected_character(text, message):
    with pytest.raises(LambdaParseError) as info:
        parse_lambda(text)
    assert str(info.value) == message


# The offset that each parse error of the table below ends with.
_PARSE_ERROR_OFFSETS = {
    "\\x. (x": 6, ")": 0, "": 0, "\\. x": 1, "let = x in x": 4, "\\x x": 3,
    "let x = \\y. y in": 16, "\\x. x)": 5, "\\x. let result = x x in (": 25,
}


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("\\x. (x", LambdaParseError, "expected rp, found eof"),
        (")", LambdaParseError, "unexpected token rp"),
        ("", LambdaParseError, "unexpected token eof"),
        ("\\. x", LambdaParseError, "expected ident, found dot"),
        ("let = x in x", LambdaParseError, "expected ident, found eq"),
        ("\\x x", LambdaParseError, "expected dot, found ident"),
        ("let x = \\y. y in", LambdaParseError, "unexpected token eof"),
        ("\\x. x)", LambdaParseError, "expected eof, found rp"),
        ("x y", FreeVariableError, "term is not closed; free variables: ['x', 'y']"),
        ("y (\\z. x)", FreeVariableError, "term is not closed; free variables: ['x', 'y']"),
        # a let's name is not in scope in its right side
        ("let x = x in x", FreeVariableError, "term is not closed; free variables: ['x']"),
        ("(\\x. x) x", FreeVariableError, "term is not closed; free variables: ['x']"),
        ("\\x. (\\y. y) y", FreeVariableError, "term is not closed; free variables: ['y']"),
        # parse errors, then free variables, then synthetic let-names
        ("let result = y in y", FreeVariableError, "term is not closed; free variables: ['y']"),
        ("\\x. let result = x x in (", LambdaParseError, "unexpected token eof"),
        (
            "let tailCall = (\\x. x) (\\y. y) in tailCall",
            SyntheticNameCollision,
            "let-name 'tailCall' collides with a synthetic label",
        ),
    ],
)
def test_parse_lambda_error_messages(text, error, message):
    with pytest.raises(error) as info:
        parse_lambda(text)
    if error is LambdaParseError:
        message += f" at {_PARSE_ERROR_OFFSETS[text]}"
    assert str(info.value) == message


# Every token of the λ grammar, plus characters it does not read.
_LAMBDA_PIECES = [
    "\\", "λ", "(", ")", ".", "=", "let", "in", "x", "y", "f_1", " ", "\n",
    "$", "@", "é", "·", "'", "0", "7",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_LAMBDA_PIECES), max_size=50).map("".join))
def test_parse_lambda_raises_only_its_own_errors(text):
    try:
        parse_lambda(text)
    except (LambdaParseError, FreeVariableError):
        pass


class _RecursiveLamParser(_LamParser):
    """The λ parser as it was before its binder loop: recursive descent,
    one stack frame per binder and three per parenthesis."""

    def parse_term(self):
        kind = self.kinds[self.i]
        if kind == "lam":
            self.i += 1
            name = self.expect("ident")
            self.expect("dot")
            rhs = None
        elif kind == "let":
            self.i += 1
            name = self.expect("ident")
            self.expect("eq")
            if name in SYNTHETIC_LABELS and self.synthetic is None:
                self.synthetic = name
            rhs = self.parse_term()  # the let-name is not in scope here
            self.expect("in")
        else:
            return self.parse_application()
        scope = self.scope
        scope[name] = scope.get(name, 0) + 1
        body = self.parse_term()
        scope[name] -= 1
        return Abs(name, body) if rhs is None else Let(name, rhs, body)

    def parse_application(self):
        t = self.parse_atom()
        while (kind := self.kinds[self.i]) in ("lp", "ident", "lam"):
            if kind == "lam":
                # allow "f \x. M" to consume the trailing abstraction
                return App(t, self.parse_term())
            t = App(t, self.parse_atom())
        return t

    def parse_atom(self):
        i = self.i
        kind = self.kinds[i]
        if kind == "ident":
            self.i = i + 1
            name = self.texts[i]
            if not self.scope.get(name):
                self.free.add(name)
            return Var(name)
        if kind == "lp":
            self.i = i + 1
            t = self.parse_term()
            self.expect("rp")
            return t
        self.error(f"unexpected token {kind}")


def _parsed(parser_class, text):
    """The typed term, free names and first synthetic let-name that a
    parser reads in text, or its error's type and text."""
    try:
        parser = parser_class(text)
        term = parser.parse()
    except LambdaParseError as exc:
        return type(exc), str(exc)
    return typed(term), parser.free, parser.synthetic


_DIFFERENTIAL_PIECES = [
    "\\", "λ", ".", "(", ")", "=", "let", "in", "x", "y", "result", "_a0",
    "$", " ", "\n",
]


_NAMES = st.sampled_from(["x", "y", "result", "_a0"])
# Strings over the pieces, which seldom parse, and terms of the grammar,
# which are well formed but may be open or use a synthetic let-name.
_DIFFERENTIAL_TEXTS = st.one_of(
    st.lists(st.sampled_from(_DIFFERENTIAL_PIECES), max_size=40).map("".join),
    st.recursive(
        _NAMES,
        lambda inner: st.one_of(
            st.builds("\\{}. {}".format, _NAMES, inner),
            st.builds("λ{}.{}".format, _NAMES, inner),
            st.builds("let {} = {} in {}".format, _NAMES, inner, inner),
            st.builds("({}) {}".format, inner, inner),
            st.builds("{} ({})".format, inner, inner),
            st.builds("{}\n{}".format, inner, _NAMES),
        ),
        max_leaves=12,
    ),
)


@settings(max_examples=700, deadline=None, derandomize=True)
@given(_DIFFERENTIAL_TEXTS)
def test_parse_lambda_reads_like_its_recursive_reference(text):
    assert _parsed(_LamParser, text) == _parsed(_RecursiveLamParser, text)


def _lam_tokens(text):
    reader = _LamParser(text)
    return reader.kinds, reader.texts


def test_lambda_tokens_of_every_kind():
    assert list(zip(*_lam_tokens("let f = λx. x_1 in (\\y.f\ty)"))) == [
        ("let", "let"), ("ident", "f"), ("eq", "="), ("lam", "λ"),
        ("ident", "x"), ("dot", "."), ("ident", "x_1"), ("in", "in"),
        ("lp", "("), ("lam", "\\"), ("ident", "y"), ("dot", "."),
        ("ident", "f"), ("ident", "y"), ("rp", ")"), ("eof", ""),
    ]
    assert list(zip(*_lam_tokens(" letx inn "))) == [
        ("ident", "letx"), ("ident", "inn"), ("eof", ""),
    ]
    assert _lam_tokens("") == (["eof"], [""])


def test_term_text_round_trip():
    for name, t in NAMED_TERMS.items():
        assert parse_lambda(term_text(t)) == t


def test_anf_of_nested_application():
    # every intermediate application is named, arguments first
    anf = anf_transform(NAMED_TERMS["eq"])
    assert term_text(anf) == (
        r"\a. \b. let _a0 = b (\t. \f. f) in"
        r" let _a1 = _a0 (\t. \f. t) in let _a2 = a b in _a2 _a1"
    )
    assert is_anf(anf)


# SHA-256 of the term_text of anf_transform(t), one line per term, over the
# named forms of enumerate_closed_terms(10), NAMED_TERMS in name order, the
# 30- and 120-redex identity chains and a 50-argument spine: pins the ANF
# shape and the order in which fresh names are drawn.
ANF_TEXT_SHA256 = "359d836e4437fabc0be9752393075379b4551bc1b5964b863a85f61c85e5fde6"


def test_anf_text_pinned():
    terms = [oracle_to_named(t) for t in enumerate_closed_terms(10)]
    terms += [NAMED_TERMS[name] for name in sorted(NAMED_TERMS)]
    terms += [parse_lambda(chain_text(k)) for k in (30, 120)]
    terms.append(parse_lambda(spine_text(50)))
    text = "\n".join(term_text(anf_transform(t)) for t in terms)
    assert hashlib.sha256(text.encode()).hexdigest() == ANF_TEXT_SHA256


def test_anf_is_idempotent_on_anf_terms():
    anf = anf_transform(NAMED_TERMS["eq"])
    assert anf_transform(anf) == anf


def test_anf_transform_leaves_no_cyclic_garbage():
    # Reference counting alone must free what one normalization allocates.
    gc.collect()
    gc.disable()
    try:
        for name, t in NAMED_TERMS.items():
            anf_transform(t)
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def _same_term(a, b):
    """a == b for terms of any depth, compared link by link: tuple ``==``
    recurses in C once per level."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if type(a) is not type(b):
            return False
        for x, y in zip(a, b):
            if isinstance(x, str):
                if x != y:
                    return False
            else:
                pairs.append((x, y))
    return True


def test_same_term_compares_every_link():
    t = parse_lambda(r"\x. let y = x x in \z. y (\w. w)")
    assert _same_term(t, rebuilt(t))
    for other in [r"\x. let y = x x in \z. y (\v. v)", r"\x. let y = x x in \z. y z",
                  r"\x. let y = x x in (\z. y) (\w. w)", r"\x. (\y. \z. y (\w. w)) (x x)"]:
        assert not _same_term(t, parse_lambda(other)), other


def test_lambda_front_end_takes_deep_binder_nests():
    # a binder costs parse_lambda, anf_transform and translate no stack
    # frame, and render and parse_program walk the records in loops
    assert sys.getrecursionlimit() <= 1000
    n = 10_000
    t = parse_lambda("".join(f"\\x{i}. " for i in range(n)) + "x0")
    assert _same_term(t, binder_nest(n))
    assert anf_transform(t) is t
    prog = translate(t)
    assert len(prog.nodes) == len(parse_program(render(prog)).nodes) == 20_001


def test_lambda_front_end_takes_deep_nests_of_lambdas_and_lets():
    # \x0. let y0 = x0 x0 in \x1. let y1 = x1 x1 in ... in y0 x<n-1>: one
    # binder loop per pass reads λs and lets alike
    assert sys.getrecursionlimit() <= 1000
    n = 10_000
    text = "".join(f"\\x{i}. let y{i} = x{i} x{i} in " for i in range(n))
    t = parse_lambda(text + f"y0 x{n - 1}")
    expected = App(Var("y0"), Var(f"x{n - 1}"))
    for i in reversed(range(n)):
        expected = Abs(f"x{i}", Let(f"y{i}", App(Var(f"x{i}"), Var(f"x{i}")), expected))
    assert _same_term(t, expected)
    assert anf_transform(t) is t
    prog = translate(t)
    assert len(prog.nodes) == len(parse_program(render(prog)).nodes) == 50_004


def test_parse_lambda_takes_an_800_redex_chain():
    # a parenthesis costs the parser one stack frame, and the chain's
    # result^n paths are scanned one by one
    assert sys.getrecursionlimit() <= 1000
    k = 800
    t = parse_lambda(chain_text(k))
    expected = Abs("y", Var("y"))
    for i in reversed(range(k)):
        expected = App(Abs(f"x{i}", Var(f"x{i}")), expected)
    assert _same_term(t, expected)
    report = converges(translate(anf_transform(t)), max_depth=k + 1)
    assert (report.converged, report.depth) == (True, k)


def test_anf_transform_and_translate_walk_a_long_function_spine():
    # f applied to 9,999 arguments: each stage walks the spine in a loop,
    # so it takes no stack frame per application
    assert sys.getrecursionlimit() <= 1000
    anf = anf_transform(parse_lambda(spine_text(9_999)))
    t = anf.body
    for k in range(9_998):
        assert t[:2] == (f"_a{k}", App(Var(f"_a{k - 1}") if k else Var("f"), Var("f")))
        t = t.body
    assert t == App(Var("_a9997"), Var("f"))
    assert len(translate(anf).nodes) == 30_000


def test_anf_transform_and_translate_walk_a_long_argument_chain():
    # (\x0. x0) ((\x1. x1) (... (\y. y))) with 10,000 redexes, built by a
    # loop: the parser still recurses on it
    assert sys.getrecursionlimit() <= 1000
    t = Abs("y", Var("y"))
    for i in reversed(range(10_000)):
        t = App(Abs(f"x{i}", Var(f"x{i}")), t)
    anf = anf_transform(t)
    let, arg = anf, Abs("y", Var("y"))
    for k in range(9_999):
        assert let[:2] == (f"_a{k}", App(Abs(f"x{9_999 - k}", Var(f"x{9_999 - k}")), arg))
        let, arg = let.body, Var(f"_a{k}")
    assert let == App(Abs("x0", Var("x0")), Var("_a9998"))
    assert len(translate(anf).nodes) == 40_003


def test_anf_transform_and_translate_walk_a_deep_zigzag():
    # applications nested 3,000 levels deep, in argument and function
    # position by turns: ANF conversion walks them on a work list
    assert sys.getrecursionlimit() <= 1000
    anf = anf_transform(zigzag(3_000))
    t = anf.body.body
    for k in range(5_999):
        name, rhs, t = t
        assert name == f"_a{k}"
        assert isinstance(rhs, App) and all(isinstance(v, Var) for v in rhs)
    assert t == App(Var("_a5998"), Var("f"))
    assert len(translate(anf).nodes) == 18_005


def test_translate_walks_a_long_let_chain():
    # a run of 10,000 lets takes translate one loop step per let
    assert sys.getrecursionlimit() <= 1000
    t = let_chain(10_000)
    assert anf_transform(t) is t
    assert len(translate(t).nodes) == 30_003


def test_anf_fresh_names_skip_only_binders_in_scope():
    in_scope = anf_transform(parse_lambda(r"\_a0. _a0 ((\x. x) _a0)"))
    assert term_text(in_scope) == r"\_a0. let _a1 = (\x. x) _a0 in _a0 _a1"
    out_of_scope = anf_transform(parse_lambda(r"(\_a0. _a0) ((\x. x) (\y. y))"))
    assert term_text(out_of_scope) == r"let _a0 = (\x. x) (\y. y) in (\_a0. _a0) _a0"


def test_anf_rejects_synthetic_name_collisions():
    with pytest.raises(SyntheticNameCollision):
        anf_transform(parse_lambda(r"\x. let result = x x in result"))


@pytest.mark.parametrize("text, anf_text, steps", [
    # a let in function position, then in argument position, read as its redex
    (r"\f. (let x = f f in x) f", r"\f. let _a0 = f f in let _a1 = (\x. x) _a0 in _a1 f", 3),
    (r"\f. f (let x = f f in x)", r"\f. let _a0 = f f in let _a1 = (\x. x) _a0 in f _a1", 2),
])
def test_anf_of_a_let_inside_an_application(text, anf_text, steps):
    anf = anf_transform(parse_lambda(text))
    assert term_text(anf) == anf_text
    assert head_reduce(named_to_oracle(anf)) == HeadResult("hnf", steps, 0)
    assert converges(translate(anf)) == converges_direct(translate(anf)) == (True, 0, None)


def test_anf_rebuilds_a_let_s_right_side():
    # the right side applies a value to a value, but the λ in it is not in ANF
    t = parse_lambda(r"\w. let x = (\y. (\z. z) (y y)) w in x")
    anf = anf_transform(t)
    assert term_text(anf) == r"\w. let x = (\y. let _a0 = y y in (\z. z) _a0) w in x"
    assert anf.body.rhs.arg is t.body.rhs.arg and anf.body.body is t.body.body


def test_source_let_desugars_to_redex():
    # a let whose right side is not a one-application of values becomes a beta redex
    t = parse_lambda(r"let id = \x. x in id id")
    anf = anf_transform(t)
    assert is_anf(anf)
    assert head_reduce(named_to_oracle(anf)).status == "hnf"


# ---------------------------------------------------------------------------
# Translation
# ---------------------------------------------------------------------------

def test_translate_identity():
    prog = translate(anf_transform(parse_lambda(r"\x. x")))
    assert render(prog) == "{argument = {}, result = ^0.argument}"


def test_translate_true():
    prog = translate(anf_transform(NAMED_TERMS["true"]))
    assert render(prog) == (
        "{argument = {}, result = {argument = {}, result = ^1.argument}}"
    )


def test_translate_rejects_open_terms():
    with pytest.raises(FreeVariableError):
        translate(Var("x"))


def test_translate_requires_anf():
    with pytest.raises(ValueError):
        translate(parse_lambda(r"(\x. x x) (\y. y) (\z. z)"))


# SHA-256 of "name<TAB>render(translate(t))" over corpus_terms(10), one line
# per term: pins every translation table of the size-10 sweep.
CORPUS_10_TABLES_SHA256 = (
    "ac559cf41a7c422bf6e5d5116a08735232b5e6c2b1c6e6c7784761cfe15c3c97"
)


def test_translate_tables_pinned_on_corpus():
    terms = corpus_terms(10)
    assert len(terms) == 10_191
    text = "\n".join(f"{name}\t{render(translate(t))}" for name, t in terms)
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_10_TABLES_SHA256


def test_rendered_translation_reparses():
    terms = corpus_terms(8)
    assert len(terms) == 718
    for _, anf in terms:
        prog = translate(anf)
        assert parse_program(render(prog)) == prog


def test_translate_surface_resolves_to_translate():
    rng = random.Random(5)
    for _, anf in rng.sample(corpus_terms(8), 200):
        assert resolve_references(translate_surface(anf)) == translate(anf)


@pytest.mark.parametrize(
    "term, error",
    [
        # not ANF: an application in function position
        (parse_lambda(r"(\x. x x) (\y. y) (\z. z)"), ValueError),
        # not ANF: a let whose right side is not an application
        (Let("r", Abs("x", Var("x")), Var("r")), ValueError),
        # not ANF: an application nested in an argument, under a binder
        (Abs("f", App(Var("f"), App(Var("f"), Var("f")))), ValueError),
        # open: free in tail position, in an argument, in a let's right side
        (Var("x"), FreeVariableError),
        (Abs("y", App(Var("y"), Var("x"))), FreeVariableError),
        (Let("r", App(Abs("y", Var("y")), Var("x")), Var("r")), FreeVariableError),
        # let-names that collide with the synthetic labels
        (Abs("x", Let("result", App(Var("x"), Var("x")), Var("result"))),
         SyntheticNameCollision),
        (Abs("x", Let("argument", App(Var("x"), Var("x")), Var("x"))),
         SyntheticNameCollision),
        (Abs("x", Let("tailCall", App(Var("x"), Var("x")), Var("x"))),
         SyntheticNameCollision),
    ],
)
def test_translate_single_fault_errors(term, error):
    with pytest.raises(error):
        translate(term)
    with pytest.raises(error):
        translate_surface(term)


def test_let_right_side_sees_the_outer_binding():
    # a let-name is in scope in the let's body only, as in named_to_oracle:
    # the q on the right of "let q = q q" is the outer q
    for text in (
        r"(\q. let q = q q in q) (\x. x)",
        r"let q = (\x. x) (\x. x) in let q = q q in q",
    ):
        anf = anf_transform(parse_lambda(text))
        assert head_reduce(named_to_oracle(anf)).status == "hnf"
        report = converges(translate(anf), fuel=10_000)
        assert (report.converged, report.depth) == (True, 2)


def test_translate_scopes_a_lambda_to_its_body():
    # a λ's parameter name is not written to the records, so renaming one
    # changes nothing; the last x is the outer one, after an inlined λ in
    # function position and after a λ in argument position alike
    for text in (r"\x. let y = (\x. x) (\z. z) in x", r"\x. let y = x (\x. x) in x"):
        renamed = text.replace(r"\x. x", r"\w. w")
        assert render(translate(parse_lambda(text))) == render(translate(parse_lambda(renamed)))


# ---------------------------------------------------------------------------
# Convergence
# ---------------------------------------------------------------------------

def test_converges_value_at_depth_zero():
    report = converges(translate(anf_transform(parse_lambda(r"\x. x"))))
    assert (report.converged, report.depth) == (True, 0)


def test_converges_single_redex_at_depth_one():
    prog = translate(anf_transform(parse_lambda(r"(\x. x) (\y. y)")))
    report = converges(prog)
    assert (report.converged, report.depth) == (True, 1)


def test_omega_does_not_converge():
    prog = translate(anf_transform(NAMED_TERMS["omega"]))
    report = converges(prog, fuel=10_000)
    assert not report.converged
    assert report.reason in ("Cycle", "FuelExhausted", "DepthExceeded")


def test_scan_reports_the_divergence_that_stops_it():
    omega = translate(anf_transform(NAMED_TERMS["omega"]))
    assert converges(omega, fuel=3).describe() == "not converged: FuelExhausted"
    cyclic_a = parse_program(fixture("cyclic_a").source)
    assert converges(cyclic_a, base_path=("a",)).describe() == "not converged: Cycle"


def test_verdict_contradiction():
    """Head reduction and the scan contradict each other when the oracle
    finds a head normal form and the scan a cycle, or the oracle proves
    divergence and the scan converges."""
    reports = [
        ConvergenceReport(True, 1),
        ConvergenceReport(False, None, "Cycle"),
        ConvergenceReport(False, None, "FuelExhausted"),
        ConvergenceReport(False, None, "DepthExceeded"),
    ]
    for status in ("hnf", "diverged", "fuel"):
        for report in reports:
            verdict = Verdict("t", NAMED_TERMS["I"], HeadResult(status, 0), report, report, 0)
            expected = (status, report.reason) in (("hnf", "Cycle"), ("diverged", None))
            assert verdict.contradiction == expected, (status, report)


def test_verdict_contradiction_is_two_sided():
    """With the weak head normal form the oracle passed, the scan also
    contradicts it by running past its depth bound with the weak head
    normal form within it, and a convergence contradicts only a
    divergence proven before any weak head normal form."""
    def verdict(oracle, report, max_depth=DEFAULT_MAX_DEPTH):
        v = Verdict("t", NAMED_TERMS["I"], oracle, report, report, 0, max_depth)
        return v.contradiction

    depth_exceeded = ConvergenceReport(False, None, "DepthExceeded")
    assert verdict(HeadResult("fuel", 10_000, 2), depth_exceeded)
    assert verdict(HeadResult("diverged", 7, 2), depth_exceeded)
    assert verdict(HeadResult("hnf", 2, 2), depth_exceeded, max_depth=2)
    assert not verdict(HeadResult("hnf", 3, 3), depth_exceeded, max_depth=2)
    assert not verdict(HeadResult("diverged", 3), depth_exceeded)
    assert verdict(HeadResult("diverged", 9, 2), ConvergenceReport(False, None, "Cycle"))
    assert not verdict(HeadResult("hnf", 2, 2), ConvergenceReport(False, None, "FuelExhausted"))
    assert not verdict(HeadResult("diverged", 5, 1), ConvergenceReport(True, 1))
    assert verdict(HeadResult("diverged", 5), ConvergenceReport(True, 1))
    assert not verdict(HeadResult("hnf", 2, 2), ConvergenceReport(True, 2))


def test_convergence_depth_is_bounded_by_the_weak_head_steps():
    # The bound is the oracle's WHNF step count, on every converged verdict
    # with a WHNF: a term with a WHNF at step 2 but no head normal form that
    # converged at depth 3 breaks it, though no head step count bounds it.
    def bounded(oracle, depth):
        report = ConvergenceReport(True, depth)
        v = Verdict("t", NAMED_TERMS["I"], oracle, report, report, 0)
        return summarize([v])["depth_bounded_by_steps"]

    assert not bounded(HeadResult("diverged", 9, 2), 3)
    assert not bounded(HeadResult("fuel", 10_000, 2), 3)
    assert not bounded(HeadResult("hnf", 5, 2), 3)
    assert bounded(HeadResult("diverged", 9, 2), 2)
    assert bounded(HeadResult("diverged", 9), 3)


def test_converges_church_arithmetic():
    # (\n. \f. \x. f (n f x)) church2 is a value after one step
    succ = r"(\n. \f. \x. f (n f x)) (\f. \x. f (f x))"
    report = converges(translate(anf_transform(parse_lambda(succ))), fuel=10_000)
    assert report.converged


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def test_named_to_oracle_reads_the_innermost_binder():
    assert named_to_oracle(Abs("x", Abs("x", Var("x")))) == ("abs", ("abs", ("var", 0)))
    assert named_to_oracle(Abs("x", Abs("y", Var("x")))) == ("abs", ("abs", ("var", 1)))
    with pytest.raises(FreeVariableError) as info:
        named_to_oracle(Abs("x", App(Var("x"), Var("z"))))
    assert str(info.value) == "unbound variable 'z'"


def _reference_named_to_oracle(t, env=()):
    """named_to_oracle as plain recursion, one frame per term node."""
    if isinstance(t, Var):
        if t.name not in env:
            raise FreeVariableError(f"unbound variable {t.name!r}")
        return ("var", env.index(t.name))
    if isinstance(t, Abs):
        return ("abs", _reference_named_to_oracle(t.body, (t.param,) + env))
    if isinstance(t, App):
        return ("app", _reference_named_to_oracle(t.fun, env), _reference_named_to_oracle(t.arg, env))
    body = _reference_named_to_oracle(t.body, (t.name,) + env)
    return ("app", ("abs", body), _reference_named_to_oracle(t.rhs, env))


def _conversion(convert, t):
    try:
        return convert(t)
    except FreeVariableError as exc:
        return str(exc)


_TERM_NAMES = st.sampled_from(["x", "y", "z"])
_NAMED_TERMS = st.recursive(
    _TERM_NAMES.map(Var),
    lambda inner: st.one_of(
        st.builds(Abs, _TERM_NAMES, inner),
        st.builds(App, inner, inner),
        st.builds(Let, _TERM_NAMES, inner, inner),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_NAMED_TERMS)
def test_named_to_oracle_matches_the_recursion(t):
    # open terms too: the first unbound variable met is the recursion's
    assert _conversion(named_to_oracle, t) == _conversion(_reference_named_to_oracle, t)


def test_named_to_oracle_matches_the_recursion_on_the_corpus():
    for name, anf in corpus_terms(7):
        assert named_to_oracle(anf) == _reference_named_to_oracle(anf), name


def test_named_to_oracle_takes_deep_nests_of_lambdas_and_lets():
    # a run of binders, λs and lets alike, costs named_to_oracle no frame
    assert sys.getrecursionlimit() <= 1000
    n = 10_000
    t = named_to_oracle(binder_nest(n))
    for _ in range(n):
        tag, t = t
        assert tag == "abs"
    assert t == ("var", n - 1)
    n = 5_000  # and 10,000 binders again, a let after each λ
    nest = App(Var("y0"), Var(f"x{n - 1}"))
    for i in reversed(range(n)):
        nest = Abs(f"x{i}", Let(f"y{i}", App(Var(f"x{i}"), Var(f"x{i}")), nest))
    t = named_to_oracle(nest)
    for i in range(n):
        # \x<i>. (\y<i>. ...) (x<i> x<i>)
        tag, (app, (abs_, t), rhs) = t
        assert (tag, app, abs_, rhs) == ("abs", "app", "abs", ("app", ("var", 0), ("var", 0)))
    assert t == ("app", ("var", 2 * n - 2), ("var", 1))


def test_oracle_to_named_names_levels_past_its_name_table():
    # 80 binders: the first 64 names are read from a table, the rest
    # formatted, all as v<level>
    k = 80
    t = ("app", ("var", 0), ("var", k - 1))
    named = App(Var(f"v{k - 1}"), Var("v0"))
    for level in reversed(range(k)):
        t, named = ("abs", t), Abs(f"v{level}", named)
    assert oracle_to_named(t) == named
    assert named_to_oracle(oracle_to_named(t)) == t


def test_head_reduce_value_is_hnf_in_zero_steps():
    result = head_reduce(named_to_oracle(NAMED_TERMS["I"]))
    assert (result.status, result.steps) == ("hnf", 0)


def test_head_reduce_proves_omega_divergent():
    result = head_reduce(named_to_oracle(NAMED_TERMS["omega"]), fuel=10_000)
    assert result.status == "diverged"


def test_head_reduce_proves_corpus_t9899_divergent():
    # The term copies itself under a binder, so no term repeats; the
    # machine's state does.
    t = enumerate_closed_terms(10)[9899]
    assert t == named_to_oracle(parse_lambda(r"(\x. x x) (\x. \y. x x)"))
    assert head_reduce(t).status == "diverged"
    assert bohm_text(bohm_prefix(t)) == "bottom"


def _whnf_steps(t, fuel=ORACLE_FUEL):
    """The β-steps a call-by-name Krivine machine takes to a weak head
    normal form of the closed oracle term t, or None past ``fuel``: it
    stops at an abstraction with no argument waiting and never goes under
    a binder.  An ANF let is a β-redex in its oracle form, so it counts as
    a step.  Environments and the stack are (head, tail) cons cells, and a
    variable argument pushes the closure its environment holds, as the
    head machine does, so no step walks a chain of closures."""

    def lookup(env, n):
        for _ in range(n):
            env = env[1]
        return env[0]

    env, stack, steps = None, None, 0
    while True:
        if t[0] == "app":
            arg = t[2]
            entry = lookup(env, arg[1]) if arg[0] == "var" else (arg, env)
            stack = (entry, stack)
            t = t[1]
        elif t[0] == "var":
            t, env = lookup(env, t[1])
        elif stack is None:
            return steps
        elif steps == fuel:
            return None
        else:
            steps += 1
            closure, stack = stack
            env, t = (closure, env), t[1]


@pytest.mark.parametrize("index, steps", [(8668, 0), (9899, 2), (9936, 1)])
def test_corpus_terms_with_a_whnf_but_no_hnf(index, steps):
    # The lazy bridge converges on these three in as many steps as a
    # weak-head machine takes, while head reduction proves them divergent.
    anf = anf_transform(oracle_to_named(enumerate_closed_terms(10)[index]))
    assert _whnf_steps(named_to_oracle(anf)) == steps
    v = judge(f"t{index}", anf)
    assert v.convergence == v.direct == ConvergenceReport(True, steps)
    assert v.oracle.status == "diverged"
    assert head_reduce(named_to_oracle(anf)).status == "diverged"


def test_the_head_machine_counts_the_weak_steps_of_the_corpus():
    # The head machine first goes under a binder where the weak-head
    # machine stops.  Only omega and t2553 pass no weak head normal form:
    # the head machine proves them divergent, and the weak-head machine
    # runs out of its ORACLE_FUEL steps.
    none = []
    for name, anf in corpus_terms(10):
        t = named_to_oracle(anf)
        whnf = head_reduce(t).whnf
        assert whnf == _whnf_steps(t), name
        if whnf is None:
            none.append(name)
    assert none == ["t2553", "omega"]


@pytest.mark.parametrize("k", [1_000, 10_000])
def test_oracle_reduces_long_identity_chains(k):
    # (\x. x) ((\x. x) (... (\y. y))), built by a loop: the parser and
    # named_to_oracle still recurse, the machine does not.
    t = ("abs", ("var", 0))
    for _ in range(k):
        t = ("app", ("abs", ("var", 0)), t)
    result = head_reduce(t, fuel=2 * k)
    assert (result.status, result.steps) == ("hnf", k)
    assert bohm_text(bohm_prefix(t, fuel=2 * k)) == "λ^1. 0"
    # a head normal form exactly `fuel` steps away is reached
    assert head_reduce(t, fuel=k).status == "hnf"


def test_head_reduce_runs_out_of_fuel_on_a_growing_stack():
    # every step leaves one more argument waiting, so no state repeats
    t = named_to_oracle(parse_lambda(r"(\x. x x x) (\x. x x x)"))
    result = head_reduce(t, fuel=10_000)
    assert (result.status, result.steps) == ("fuel", 10_000)


def test_bohm_prefix_of_true():
    node = bohm_prefix(named_to_oracle(NAMED_TERMS["true"]), depth=1)
    assert isinstance(node, HnfNode)
    assert (node.binders, node.head) == (2, 1)
    assert bohm_text(node) == "λ^2. 1"


def test_bohm_prefix_of_omega_is_proven_bottom():
    node = bohm_prefix(named_to_oracle(NAMED_TERMS["omega"]), depth=1)
    assert node == Bottom(proven=True)
    assert bohm_text(node) == "bottom"


def test_bohm_prefix_truncation():
    # at depth 0 the children are unexpanded markers
    t = named_to_oracle(anf_transform(parse_lambda(r"\f. f (f f)")))
    node = bohm_prefix(t, depth=0)
    assert all(child is UNEXPANDED for child in node.children)


def test_bohm_prefix_of_a_fixed_point_combinator_at_depth_2000():
    # Y's tree is f (f (f ...)): one level per unfolding, walked and
    # printed on explicit stacks
    depth = 2_000
    y = named_to_oracle(parse_lambda(r"\f. (\x. f (x x)) (\x. f (x x))"))
    node = root = bohm_prefix(y, depth)
    assert (node.binders, node.head) == (1, 0)
    for _ in range(depth):
        (node,) = node.children
        assert (node.binders, node.head) == (0, 0)
    assert node.children == (UNEXPANDED,)
    lines = bohm_text(root).split("\n")
    assert len(lines) == depth + 2
    assert lines[0] == "λ^1. 0"
    assert lines[1:-1] == ["  " * k + "λ^0. 0" for k in range(1, depth + 1)]
    assert lines[-1] == "  " * (depth + 1) + "..."


# SHA-256 of "name<TAB>status<TAB>steps" of head_reduce over corpus_terms(9),
# one line per term, with the steps of "hnf" verdicts only: how many steps
# a proof of divergence takes depends on the reducer, not on the term.
CORPUS_9_HEAD_SHA256 = (
    "a9b92d5a4538abd1f256f0e0c7b047870380b3d08e3e3a4526f18d773d702283"
)

# SHA-256 of "name<TAB>bohm_text" over corpus_terms(8), one line per term,
# at Böhm depths 2 and 3.
CORPUS_8_BOHM_SHA256 = {
    2: "d4b07ed7e95970844097eaf818215aaf096bf97da7cc74ef0c2514c9f9a9cb4c",
    3: "b5b649e5b6f156b64b70dac28b5e74d682b23a4d9e7aecd2ea137cc084be0da0",
}

# SHA-256 of the bohm_text lines at depth 2 of every term of size at most 6
# with free indices 0 and 1: an open head prints its free index.
OPEN_6_BOHM_SHA256 = (
    "874911a2f78424933ab9297bcabcf7dc57f242b18c3a651f18a10363886044de"
)


def test_head_reduce_pinned_on_corpus():
    rows = []
    for name, anf in corpus_terms(9):
        result = head_reduce(named_to_oracle(anf))
        steps = result.steps if result.status == "hnf" else ""
        rows.append(f"{name}\t{result.status}\t{steps}")
    assert len(rows) == 2_633
    digest = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digest == CORPUS_9_HEAD_SHA256


@pytest.mark.parametrize("depth", [2, 3])
def test_bohm_text_pinned_on_corpus(depth):
    terms = corpus_terms(8)
    assert len(terms) == 718
    text = "\n".join(
        f"{name}\t{bohm_text(bohm_prefix(named_to_oracle(anf), depth))}"
        for name, anf in terms
    )
    assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_8_BOHM_SHA256[depth]


def test_bohm_text_pinned_on_open_terms():
    terms = [t for size in range(1, 7) for t in _terms(size, 2)]
    assert len(terms) == 450
    text = "\n".join(bohm_text(bohm_prefix(t, 2)) for t in terms)
    assert hashlib.sha256(text.encode()).hexdigest() == OPEN_6_BOHM_SHA256


def test_oracle_named_round_trip():
    for t in enumerate_closed_terms(5):
        assert named_to_oracle(oracle_to_named(t)) == t


def test_values_built_as_tuples_are_the_classes_own():
    """The per-node passes build terms, nodes and references with
    ``tuple.__new__``; each value equals, node for node and type for type,
    what the public constructors build.  Reports and verdicts, built with
    their constructors, are checked for their types."""
    for ot in enumerate_closed_terms(8):
        named = oracle_to_named(ot)
        assert typed(rebuilt(named)) == typed(named)
    for name, anf in corpus_terms(8):
        assert typed(rebuilt(anf)) == typed(anf), name
        nodes = translate(anf)._node
        assert all(type(n) is Node and Node(*n) == n for n in nodes)
        assert all(type(r) is Reference and Reference(*r) == r for n in nodes for r in n[1])
        v = judge(name, anf)
        assert type(v) is Verdict and type(v.oracle) is HeadResult, name
        assert type(v.convergence) is type(v.direct) is ConvergenceReport, name


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------

def test_substitute_respects_shadowing():
    t = Abs("x", App(Var("x"), Var("y")))
    out = substitute(t, "y", NAMED_TERMS["I"])
    assert out == Abs("x", App(Var("x"), NAMED_TERMS["I"]))
    # x under its own binder is untouched
    assert substitute(t, "x", NAMED_TERMS["I"]) == t


def test_substitute_closes_terms():
    t = App(Var("f"), Var("f"))
    out = substitute(t, "f", NAMED_TERMS["K"])
    assert not free_vars(out)


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------

def _bohm_struct(node):
    if isinstance(node, Bottom):
        return ("bottom", node.proven)
    return (
        node.binders,
        node.head,
        tuple(
            "..." if child is UNEXPANDED else _bohm_struct(child)
            for child in node.children
        ),
    )


def test_anf_preserves_bohm_prefixes():
    # binders named v<k>, and again named _a<k> like the fresh let-names
    for ot in enumerate_closed_terms(6):
        before = bohm_prefix(ot, depth=2, fuel=5_000)
        if isinstance(before, Bottom) and not before.proven:
            continue  # fuel verdicts are not comparable
        named = oracle_to_named(ot)
        for t in (named, parse_lambda(term_text(named).replace("v", "_a"))):
            after = bohm_prefix(named_to_oracle(anf_transform(t)), depth=2, fuel=5_000)
            assert _bohm_struct(before) == _bohm_struct(after)


def _corpus_redexes():
    """Closed beta redexes (\\x. M) V built from small corpus bodies and
    values, in named ANF form."""
    bodies = [t for size in range(1, 6) for t in _terms(size, 1)]
    values = [t for size in range(2, 5) for t in _terms(size, 0) if t[0] == "abs"]
    out = []
    for body in bodies:
        for value in values:
            redex = anf_transform(oracle_to_named(("app", ("abs", body), value)))
            if isinstance(redex, App) and isinstance(redex.fun, Abs):
                out.append(redex)
    return out


def test_convergence_preserved_across_head_step():
    # for every corpus redex (\x. M) V, the redex and its reduct agree
    checked = 0
    for redex in _corpus_redexes():
        reduct = substitute(redex.fun.body, redex.fun.param, redex.arg)
        a = converges(translate(redex), fuel=5_000)
        b = converges(translate(anf_transform(reduct)), fuel=5_000)
        if a.reason == "FuelExhausted" or b.reason == "FuelExhausted":
            continue
        assert a.converged == b.converged
        checked += 1
    assert checked >= 50


def test_bohm_agreement_under_beta_expansion():
    # M = (\z. N) V with z fresh reduces to N; the two must be
    # indistinguishable to the oracle and under applicative contexts
    values = [NAMED_TERMS[n] for n in ("I", "K", "true", "false")]
    contexts = [
        (),
        ("I",),
        ("K", "I"),
        ("true", "I"),
        ("false", "K"),
        ("I", "I"),
        ("K", "K", "I"),
        ("true", "I", "K"),
        ("I", "K"),
        ("church1", "I"),
    ]
    rng = random.Random(7)
    terms = enumerate_closed_terms(5)
    for _ in range(10):
        n_named = oracle_to_named(rng.choice(terms))
        v = rng.choice(values)
        m_named = App(Abs("zfresh", n_named), v)
        b1 = bohm_prefix(named_to_oracle(anf_transform(m_named)), depth=2, fuel=5_000)
        b2 = bohm_prefix(named_to_oracle(anf_transform(n_named)), depth=2, fuel=5_000)
        if not (isinstance(b1, Bottom) and not b1.proven):
            assert _bohm_struct(b1) == _bohm_struct(b2)
        for ctx_names in contexts:
            args = [NAMED_TERMS[c] for c in ctx_names]
            cm, cn = m_named, n_named
            for a in args:
                cm, cn = App(cm, a), App(cn, a)
            ra = converges(translate(anf_transform(cm)), fuel=5_000)
            rb = converges(translate(anf_transform(cn)), fuel=5_000)
            if "FuelExhausted" in (ra.reason, rb.reason):
                continue
            assert ra.converged == rb.converged


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_anf_transform_always_yields_anf(seed):
    rng = random.Random(seed)
    terms = enumerate_closed_terms(7)
    t = oracle_to_named(rng.choice(terms))
    anf = anf_transform(t)
    assert is_anf(anf)
    assert not free_vars(anf)


def test_anf_transform_returns_anf_input_itself():
    # corpus_terms ends with the ANF forms of NAMED_TERMS
    for name, anf in corpus_terms(8):
        assert anf_transform(anf) is anf, name


def test_anf_transform_keeps_the_parts_it_does_not_change():
    t = parse_lambda(r"(\a. a a) ((\b. b) (\c. c))")
    anf = anf_transform(t)
    assert term_text(anf) == r"let _a0 = (\b. b) (\c. c) in (\a. a a) _a0"
    assert anf.rhs is t.arg
    assert anf.body.fun is t.fun
