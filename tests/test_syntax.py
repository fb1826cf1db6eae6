import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutated_text
from test_semantics import _program_texts
from inhcalc.corpus import corpus_terms
from inhcalc.fixtures import FIXTURE_NAMES, FRAGMENT_DEPS, fixture, fragment_program
from inhcalc.lam import translate
from inhcalc.syntax import (
    Node,
    ParseError,
    Reference,
    ResolutionError,
    parse,
    parse_path,
    parse_program,
    path_text,
    render,
    resolve_references,
)

# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_empty_record():
    prog = parse_program("{}")
    assert prog.defines(()) == frozenset()
    assert prog.inherits(()) == frozenset()


def test_definitions_and_refs():
    prog = parse_program("{A = {x = {}}, B = {A, ^1.z, c = {this@B.w}}}")
    assert prog.defines(()) == {"A", "B"}
    assert prog.defines(("A",)) == {"x"}
    assert prog.inherits(("B",)) == {Reference(0, ("A",)), Reference(1, ("z",))}
    assert prog.inherits(("B", "c")) == {Reference(0, ("w",))}


def test_named_ref_to_own_label_is_not_enclosing():
    with pytest.raises(ResolutionError) as exc:
        parse_program("{B = {this@B.w}}")
    assert exc.value.kind == "NamedNotFound"


def test_definition_reference_sugar():
    # "x = r" abbreviates "x = { r }"
    assert parse_program("{a = {}, x = a}") == parse_program("{a = {}, x = {a}}")


def test_trailing_comma_and_comments():
    src = """
    # leading comment
    {
      a = {},  # trailing comment
      b = {a},
    }
    """
    prog = parse_program(src)
    assert prog.defines(()) == {"a", "b"}


def test_duplicate_definitions_merge():
    merged = parse_program("{x = {a = {}}, x = {b = {}}}")
    direct = parse_program("{x = {a = {}, b = {}}}")
    assert merged == direct


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse("{a = }")
    assert exc.value.line == 1
    assert exc.value.column == 6


def test_unexpected_character():
    with pytest.raises(ParseError):
        parse("{a = $}")


@pytest.mark.parametrize(
    "src, line, column, message",
    [
        ("{\n  a = {},  # a comment\n  b = @\n}", 3, 7, "unexpected character '@'"),
        ("{a = {\u00e9}}", 1, 7, "unexpected character '\u00e9'"),
        ("{a = @}", 1, 6, "unexpected character '@'"),
        ("{a = {}", 1, 8, "expected rb, found eof"),
        ("{a = ^x}", 1, 7, "expected nat, found ident"),
        ("{a = ^}", 1, 7, "expected nat, found rb"),
    ],
)
def test_parse_error_line_and_column(src, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"{line}:{column}: {message}"


def test_named_not_found():
    with pytest.raises(ResolutionError) as exc:
        parse_program("{a = {r = this@Missing}}")
    assert exc.value.kind == "NamedNotFound"
    # Of several unresolvable references, the one at the path that appears
    # first in the source is reported (the first there in source order),
    # also when a later duplicate definition adds one, and also when the
    # path sorts after another that fails.
    for src, where in [
        ("{c = {}, a = {this@X}, c = {b = {this@Y}}}", "this@X at path a"),
        ("{a = {this@X, this@Y}}", "this@X at path a"),
        ("{b = {this@X}, a = {this@Y}}", "this@X at path b"),
    ]:
        with pytest.raises(ResolutionError) as exc:
            parse_program(src)
        assert str(exc.value) == (
            f"NamedNotFound: {where}: label does not name an enclosing scope"
        )


def test_lexical_not_found():
    with pytest.raises(ResolutionError) as exc:
        parse_program("{a = {nowhere.b}}")
    assert exc.value.kind == "LexicalNotFound"
    # The first unresolvable reference in source order is reported, not
    # the first in sorted path order.
    for src, where, head in [
        ("{b = {x.y}, a = {z}}", "x.y at path b", "x"),
        ("{b = {c = {q}}, a = {c = {r}}}", "q at path b.c", "q"),
    ]:
        with pytest.raises(ResolutionError) as exc:
            parse_program(src)
        assert str(exc.value) == (
            f"LexicalNotFound: {where}: no enclosing scope defines {head!r}"
        )


# ---------------------------------------------------------------------------
# Desugaring
# ---------------------------------------------------------------------------

def test_named_desugars_by_last_occurrence():
    # At path A.B.A.r, this@A targets the innermost A: n = 4 - 3 - 1 = 0.
    prog = parse_program("{A = {B = {A = {r = this@A}}}}")
    assert prog.inherits(("A", "B", "A", "r")) == {Reference(0)}
    # At path A.B.r, this@A targets the outer A: n = 3 - 1 - 1 = 1.
    prog2 = parse_program("{A = {B = {r = this@A}}}")
    assert prog2.inherits(("A", "B", "r")) == {Reference(1)}


def test_named_equals_explicit_indexed():
    named = parse_program("{Outer = {Inner = {r = this@Outer.x}}}")
    indexed = parse_program("{Outer = {Inner = {r = ^1.x}}}")
    assert named == indexed


def test_lexical_equals_explicit_indexed():
    # sibling reference: nearest proper prefix defining the head
    lexical = parse_program("{a = {}, b = {a.c}}")
    indexed = parse_program("{a = {}, b = {^0.a.c}}")
    assert lexical == indexed
    # reference across one level
    lexical2 = parse_program("{a = {}, b = {c = {a}}}")
    indexed2 = parse_program("{a = {}, b = {c = {^1.a}}}")
    assert lexical2 == indexed2


def test_resolution_at_depth():
    # 400 levels of a under A: named and lexical lookups walk up the whole
    # nest to the root, or stop one level up.
    src = "{A = " + "{a = " * 400 + "{r = A.x, s = this@A.x, t = a}" + "}" * 400 + ", x = {}}"
    prog = parse_program(src)
    inner = ("A",) + ("a",) * 400
    assert prog.inherits(inner + ("r",)) == {Reference(401, ("A", "x"))}
    assert prog.inherits(inner + ("s",)) == {Reference(400, ("x",))}
    assert prog.inherits(inner + ("t",)) == {Reference(1, ("a",))}
    assert len(prog.nodes) == 406


def test_lexical_skips_own_scope():
    # the head label is searched in proper prefixes only, so a record
    # defining x can still reference an outer x-sibling
    prog = parse_program("{x = {}, b = {x = {}, r = {x}}}")
    # r's scope is b, which defines x: n = 3 - 1 - 1 = 1 ... prefix (b,)
    assert prog.inherits(("b", "r")) == {Reference(0, ("x",))}


# ---------------------------------------------------------------------------
# Paths and rendering
# ---------------------------------------------------------------------------

def test_path_text_round_trip():
    for p in ((), ("a",), ("a", "b", "c")):
        assert parse_path(path_text(p)) == p
    with pytest.raises(ValueError):
        parse_path("a..b")


def test_render_round_trip_simple():
    src = "{A = {x = {}}, B = {A, x = {y = {}}}}"
    prog = parse_program(src)
    assert parse_program(render(prog)) == prog


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

_LABELS = st.sampled_from(["a", "b", "c", "x", "y"])


@st.composite
def _record_texts(draw, depth=3):
    n = draw(st.integers(0, 3))
    labels = draw(st.lists(_LABELS, min_size=n, max_size=n, unique=True))
    parts = []
    for label in labels:
        if depth > 0 and draw(st.booleans()):
            parts.append(f"{label} = {draw(_record_texts(depth=depth - 1))}")
        else:
            parts.append(f"{label} = {{}}")
    for _ in range(draw(st.integers(0, 2))):
        m = draw(st.integers(0, 2))
        downs = draw(st.lists(_LABELS, min_size=m, max_size=m))
        suffix = "." + ".".join(downs) if downs else ""
        parts.append(f"^{draw(st.integers(0, 3))}{suffix}")
    return "{" + ", ".join(parts) + "}" if parts else "{}"


@settings(max_examples=200, deadline=None)
@given(_record_texts(), st.integers(0, 2**32))
def test_permutation_and_duplication_invariance(src, seed):
    rec = parse(src)
    base = parse_program(src)
    assert parse_program(mutated_text(rec, random.Random(seed))) == base
    # The ids are numbered in sorted path order, whatever the source order.
    assert list(base.nodes) == sorted(base.nodes)


@settings(max_examples=200, deadline=None)
@given(_record_texts())
def test_render_parse_round_trip(src):
    prog = parse_program(src)
    again = parse_program(render(prog))
    assert again == prog
    # rendering is a fixpoint after one pass
    assert render(again) == render(prog)


# ---------------------------------------------------------------------------
# The resolved node format
# ---------------------------------------------------------------------------

def _assert_resolved_nodes(prog):
    """Every node is a ``Node`` of a frozenset of labels and a sorted tuple
    of references with no duplicates."""
    for i, node in enumerate(prog._node):
        assert type(node) is Node, i
        defines, inherits = node
        assert type(defines) is frozenset, i
        assert type(inherits) is tuple and list(inherits) == sorted(set(inherits)), i


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_resolved_fixture_nodes_are_one_format(name):
    _assert_resolved_nodes(fixture(name).program())


@settings(max_examples=150, deadline=None)
@given(_program_texts())
def test_resolved_nodes_are_one_format(src):
    _assert_resolved_nodes(parse_program(src))


def test_translated_nodes_are_one_format():
    for _, t in corpus_terms(8):
        _assert_resolved_nodes(translate(t))


@pytest.mark.parametrize(
    "kind, name",
    [("fixture", name) for name in FIXTURE_NAMES]
    + [("fragment", name) for name in FRAGMENT_DEPS],
)
def test_resolve_references_reads_a_resolved_program_as_itself(kind, name):
    prog = fixture(name).program() if kind == "fixture" else fragment_program(name)
    again = resolve_references(prog)
    assert again == prog and render(again) == render(prog)
    assert again._parent == prog._parent and again._label == prog._label
    assert again._node == prog._node
