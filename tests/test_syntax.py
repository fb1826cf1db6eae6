import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FRAGMENT_DEPS, fragment_program, mutated_text
from test_semantics import _program_texts
from inhcalc.corpus import corpus_terms
from inhcalc.fixtures import FIXTURE_NAMES, fixture
from inhcalc.lam import _LAM_KIND, _LAM_TOKEN_RE, translate
from inhcalc.syntax import (
    CoreProgram,
    LexicalRef,
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
    _IDENT,
    _KIND,
    _Reader,
    _TOKEN_RE,
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
    # after a closed record, and inside a nested one
    assert parse("{a = {},}") == parse("{a = {}}")
    assert parse("{a = {b,}}") == parse("{a = {b}}")


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
        ("{a b}", 1, 4, "expected rb, found ident"),
        ("{,}", 1, 2, "expected an element (definition or reference)"),
        ("{a,,}", 1, 4, "expected an element (definition or reference)"),
        ("{a = {} b}", 1, 9, "expected rb, found ident"),
        ("{a = {b = {}},, c}", 1, 15, "expected an element (definition or reference)"),
        ("{} x", 1, 4, "trailing input after top-level record"),
        ("{a = {b = {}}", 1, 14, "expected rb, found eof"),
    ],
)
def test_parse_error_line_and_column(src, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse(src)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"{line}:{column}: {message}"


# Every token of the record grammar, a comment, and characters it does not
# read.
_RECORD_PIECES = [
    "{", "}", "=", ",", ".", "^", "this@", "a", "b", "x_1", "0", "12", "# c\n",
    " ", "\n", "$", "@", "é", "·", "'", "7",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_RECORD_PIECES), max_size=50).map("".join))
def test_parse_raises_only_parse_error_inside_the_source(source):
    try:
        parse(source)
    except ParseError as exc:
        lines = source.split("\n")
        assert 1 <= exc.line <= len(lines)
        assert 1 <= exc.column <= len(lines[exc.line - 1]) + 1


# Each grammar's tokenizer next to its reference, the pattern it had when
# every whitespace run was a match of its own, and the grammar's token
# kinds.
_TOKENIZERS = {
    "record": (
        _TOKEN_RE,
        re.compile(rf"\s+|#[^\n]*|(this@|{_IDENT}|[0-9]+|[{{}}=,.^]|[\s\S]+)"),
        _KIND,
    ),
    "lambda": (
        _LAM_TOKEN_RE,
        re.compile(rf"\s+|([\\λ().=]|{_IDENT}|[\s\S]+)"),
        _LAM_KIND,
    ),
}
# Each grammar's own pieces, then those both draw from: a comment's "#",
# two characters neither grammar reads, whitespace other than a space, and
# each grammar's keywords.
_SHARED_PIECES = ["#", "$", "é", "\t", "\n", "this@", "let", "in", "λ"]
_TOKENIZER_PIECES = {
    "record": ["{", "}", "=", ",", ".", "^", "a", "x_1", "0", "12", " "],
    "lambda": ["\\", "(", ")", ".", "=", "a", "x_1", "0", " "],
}


class _Tokens(_Reader):
    def error(self, message, pos=None):
        raise ValueError(message, pos)


def _tokens(source, pattern, kinds):
    """The texts and kinds a reader makes of ``source``, or its error's
    text and position."""
    try:
        reader = _Tokens(source, pattern, kinds)
    except ValueError as exc:
        return exc.args
    return reader.texts, reader.kinds


@pytest.mark.parametrize("grammar", sorted(_TOKENIZERS))
@settings(max_examples=250, deadline=None, derandomize=True)
@given(data=st.data())
def test_tokenizer_reads_like_its_reference(grammar, data):
    pattern, reference, kinds = _TOKENIZERS[grammar]
    pieces = st.sampled_from(_TOKENIZER_PIECES[grammar] + _SHARED_PIECES)
    source = data.draw(st.lists(pieces, max_size=40).map("".join))
    read = _tokens(source, pattern, kinds)
    assert read == _tokens(source, reference, kinds)
    if isinstance(read[0], list):
        # A parse error past the first token is placed by token_offset.
        reader = _Tokens(source, pattern, kinds)
        offsets = [m.start() for m in reference.finditer(source) if m.group(1)]
        assert [reader.token_offset(i) for i in range(len(read[0]))] == [
            *offsets,
            len(source),
        ]


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


def test_parse_resolve_and_render_a_deep_nest():
    # parse, resolve_references and render each walk the nesting in a
    # loop, so a 10,000-level nest takes no stack frame per level
    assert sys.getrecursionlimit() <= 1000
    depth = 10_000
    nest = "{a = " * depth + "{}" + "}" * depth
    prog = parse_program("{A = " + nest + ", B = {A}}")
    assert len(prog.nodes) == depth + 3
    text = render(prog)
    assert text == "{A = " + nest + ", B = ^0.A}"
    # the texts, not the programs: == reads each id's path up the trie
    assert render(parse_program(text)) == text


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


def test_surface_program_reads_like_its_resolution():
    for name in FIXTURE_NAMES:
        source = fixture(name).source
        surface, resolved = parse(source), parse_program(source)
        for p in surface.paths():
            assert surface.defines(p) == resolved.defines(p), (name, p)
    surface = parse("{a = {b = {}}, c = a}")
    assert surface.defines(()) == {"a", "c"}
    assert surface.inherits(("c",)) == {LexicalRef(("a",))}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_render_and_hash_read_a_surface_program(name):
    source = fixture(name).source
    surface = parse(source)
    assert render(surface) == render(parse_program(source))
    shuffled = parse(mutated_text(surface, random.Random(0)))
    assert shuffled == surface and hash(shuffled) == hash(surface)


def test_render_and_hash_read_lexical_references():
    surface = parse("{a = {b = {}}, c = a}")
    assert render(surface) == "{a = {b = {}}, c = ^0.a}"
    assert hash(surface) == hash(parse("{c = a, a = {}, a = {b = {}}}"))


def _table(prog):
    """The program's nodes as a path-keyed dict in id order, built from its
    per-id lists, not through ``nodes``."""
    paths = [()]
    for i in range(1, len(prog._node)):
        paths.append(paths[prog._parent[i]] + (prog._label[i],))
    return dict(zip(paths, prog._node))


def _trie_programs():
    for name in FIXTURE_NAMES:
        source = fixture(name).source
        yield f"{name} parsed", parse(source)
        yield f"{name} resolved", parse_program(source)
    for name, t in corpus_terms(7):
        yield name, translate(t)


def test_nodes_view_reads_the_trie():
    for name, prog in _trie_programs():
        table = _table(prog)
        assert list(prog.nodes) == list(table), name
        assert dict(prog.nodes) == table and len(prog.nodes) == len(table), name
        deepest = max(table, key=len)
        for missing in (("no such label",), deepest + ("missing",)):
            with pytest.raises(KeyError):
                prog.nodes[missing]
            assert prog.nodes.get(missing, "default") == "default", name
            assert missing not in prog.nodes
        assert prog.paths() == sorted(table), name
        assert hash(prog) == hash(
            frozenset((p, frozenset(d), frozenset(r)) for p, (d, r) in table.items())
        ), name
        # The same nodes under other ids, added level by level.
        copy, ids = CoreProgram(), {(): 0}
        copy._node[0] = table[()]
        for p in sorted(table, key=lambda p: (len(p), p))[1:]:
            ids[p] = copy._add(ids[p[:-1]], p[-1], table[p])
        assert copy == prog and hash(copy) == hash(prog), name
        assert prog != CoreProgram(), name


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
