"""Surface syntax: parsing, reference desugaring, and the core program.

A program is a single record literal.  Records contain two kinds of
elements: definitions (``label = body``) and inheritance references.
References come in three surface forms:

* named      -- ``this@Outer.a.b`` names an enclosing scope by label
* indexed    -- ``^2.a.b`` carries an explicit de Bruijn scope count
* lexical    -- ``a.b`` names a sibling (or outer) definition by its head

``parse`` writes the surface program, a ``CoreProgram`` trie whose ids
follow the order of first appearance and whose nodes are ``(labels,
references)`` pairs: each record literal adds its labels and references
to the node of its path, so repeated definitions of a label share one id
and compose by union.  Both are insertion-ordered dicts, kept in order
of first appearance.  Indexed references parse straight to their
desugared form, a ``Reference(n, downs)``: ``n`` counts enclosing scope
levels upward (``n = 0`` is the scope enclosing the record that contains
the reference) and ``downs`` is a list of downward projections.
``resolve_references`` desugars the named and lexical forms to the same
representation and writes the program anew in sorted path order, so the
source's order does not reach evaluation.
"""

from __future__ import annotations

import re
import string
from collections.abc import Mapping
from dataclasses import dataclass

Label = str
Path = tuple[str, ...]

ROOT: Path = ()

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class ParseError(Exception):
    """Raised on malformed surface syntax; carries line/column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ResolutionError(Exception):
    """A named or lexical reference that does not resolve."""

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind  # "NamedNotFound" | "LexicalNotFound"


@dataclass(frozen=True, order=True)
class Reference:
    """A desugared reference: ``n`` scope levels up, then ``downs`` down."""

    n: int
    downs: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("reference index must be nonnegative")


# ---------------------------------------------------------------------------
# Surface AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NamedRef:
    up: str
    downs: tuple[str, ...] = ()


@dataclass(frozen=True)
class LexicalRef:
    downs: tuple[str, ...]  # nonempty; downs[0] is the head label


SurfaceRef = NamedRef | LexicalRef | Reference


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# One match per token, whitespace run or comment; only tokens fill the
# group.  Names and numbers are ASCII; whitespace is any ``\s``.  The last
# alternative takes everything from an unexpected character to the end of
# the input, so only the last token can be one.
_TOKEN_RE = re.compile(
    r"\s+|#[^\n]*|(this@|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[{}=,.^]|[\s\S]+)"
)
_KIND = {
    "": "eof",
    "this@": "thisat",
    "{": "lb",
    "}": "rb",
    "=": "eq",
    ",": "comma",
    ".": "dot",
    "^": "caret",
    **dict.fromkeys("0123456789", "nat"),
    **dict.fromkeys(string.ascii_letters + "_", "ident"),
}


def _kind(token: str) -> str:
    """A token's kind: ``this@`` and the end of input by their text, any
    other token by its first character."""
    return _KIND.get(token) or _KIND[token[0]]


# The parser tests a token's kind without ``_kind``, which names kinds in
# error messages: a fixed-text kind by its text, ``ident`` and ``nat`` by
# ``str`` methods that hold for exactly those of the tokenizer's tokens
# (``this@`` is no identifier).
_IS_KIND = {
    "lb": "{".__eq__,
    "rb": "}".__eq__,
    "ident": str.isidentifier,
    "nat": str.isdigit,
}


def _tokenize(source: str) -> list[str]:
    """Token texts, ending with ``""`` for the end of input."""
    tokens = list(filter(None, _TOKEN_RE.findall(source)))
    if tokens and tokens[-1][0] not in _KIND:
        pos = len(source) - len(tokens[-1])
        raise ParseError(
            f"unexpected character {source[pos]!r}", *_line_column(source, pos)
        )
    tokens.append("")
    return tokens


def _line_column(source: str, pos: int) -> tuple[int, int]:
    return source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos)


def _token_offset(source: str, index: int) -> int:
    """Offset of token ``index`` in ``source``; the end for the eof token."""
    for m in _TOKEN_RE.finditer(source):
        if m.group(1):
            if index == 0:
                return m.start()
            index -= 1
    return len(source)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0
        program = self.program = CoreProgram()
        self.node, self.kids, self.add = program._node, program._kids, program._add
        self.node[0] = ({}, {})

    def error(self, message: str):
        pos = _token_offset(self.source, self.i)
        raise ParseError(message, *_line_column(self.source, pos))

    def expect(self, kind: str) -> str:
        token = self.tokens[self.i]
        if not _IS_KIND[kind](token):
            self.error(f"expected {kind}, found {_kind(token)}")
        self.i += 1
        return token

    def parse_program(self) -> CoreProgram:
        self.parse_record(0)
        if self.tokens[self.i]:
            self.error("trailing input after top-level record")
        return self.program

    def parse_record(self, p: int) -> None:
        """Add the record literal at the cursor to the node of id ``p``."""
        self.expect("lb")
        tokens = self.tokens
        if tokens[self.i] == "}":
            self.i += 1
            return
        while True:
            self.parse_element(p)
            if tokens[self.i] == ",":
                self.i += 1
                if tokens[self.i] == "}":  # trailing comma
                    self.i += 1
                    return
                continue
            self.expect("rb")
            return

    def parse_element(self, p: int) -> None:
        tokens, i, node = self.tokens, self.i, self.node
        if tokens[i].isidentifier() and tokens[i + 1] == "=":
            self.i = i + 2
            label = tokens[i]
            node[p][0][label] = None
            child = self.kids[p].get(label) or self.add(p, label, ({}, {}))
            if tokens[i + 2] == "{":
                self.parse_record(child)
            else:
                # "x = r" sugars to "x = { r }"
                node[child][1][self.parse_reference()] = None
        else:
            node[p][1][self.parse_reference()] = None

    def parse_reference(self) -> SurfaceRef:
        token = self.tokens[self.i]
        if token == "this@":
            self.i += 1
            up = self.expect("ident")
            return NamedRef(up, self.parse_downs())
        if token == "^":
            self.i += 1
            n = int(self.expect("nat"))
            return Reference(n, self.parse_downs())
        if token.isidentifier():
            self.i += 1
            return LexicalRef((token,) + self.parse_downs())
        self.error("expected an element (definition or reference)")

    def parse_downs(self) -> tuple[str, ...]:
        downs = []
        while self.tokens[self.i] == ".":
            self.i += 1
            downs.append(self.expect("ident"))
        return tuple(downs)


def parse(source: str) -> CoreProgram:
    """Parse surface text into its surface program: a trie with ids in order
    of first appearance and ``(labels, references)`` nodes."""
    return _Parser(source).parse_program()


# ---------------------------------------------------------------------------
# Core program and reference resolution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    defines: frozenset[str] = frozenset()
    inherits: frozenset[Reference] = frozenset()


EMPTY_NODE = Node()


def trie_path(trie, i: int) -> Path:
    """The path of id ``i`` in the (parent, label) trie of ``trie``, a
    ``CoreProgram`` or an evaluation context that adopts one, read up the
    trie."""
    parent, label, labels = trie._parent, trie._label, []
    while i:
        labels.append(label[i])
        i = parent[i]
    return tuple(reversed(labels))


class CoreProgram:
    """A program, stored as a (parent, label) trie of integer path ids: per
    id its parent id, last label, children by label and node.  The root
    is id 0 and every id is larger than its parent's.  ``CoreProgram()``
    is one empty root record, which a writer extends with ``_add``:
    ``parse`` with ``(labels, references)`` surface nodes, and
    ``resolve_references`` and ``lam.translate`` with ``Node``s.  A node
    with several references holds them as a sorted tuple, so the order
    the equations follow them in, and with it the fuel spent before an
    error, does not depend on the hash seed; ``lam.translate`` writes
    each single reference as a 1-tuple too, so it hashes no reference.
    Evaluation contexts adopt these ids as their first ids and never
    change them.

    ``nodes`` is a read-only path-keyed view of a program of ``Node``s
    (a surface program is read by id), with every reference tuple read
    back as a frozenset.  Lookups on paths never mentioned
    in the source return empty sets.
    """

    def __init__(self):
        self._parent: list = [None]
        self._label: list = [None]
        self._kids: list[dict[str, int]] = [{}]
        self._node: list = [EMPTY_NODE]
        self._table: dict[Path, Node] | None = None

    def _add(self, i: int, label: str, node=EMPTY_NODE) -> int:
        """Add the child ``label`` of id ``i``, which has none yet, with its
        node."""
        j = self._kids[i][label] = len(self._node)
        self._parent.append(i)
        self._label.append(label)
        self._kids.append({})
        self._node.append(node)
        return j

    @property
    def nodes(self) -> Mapping[Path, Node]:
        return _NodeView(self)

    def _nodes(self) -> dict[Path, Node]:
        """The path-keyed table, in id order, built on first use."""
        if self._table is None:
            paths: list[Path] = [ROOT]
            for i in range(1, len(self._node)):
                paths.append(paths[self._parent[i]] + (self._label[i],))
            self._table = {
                paths[i]: Node(node.defines, frozenset(node.inherits))
                if type(node.inherits) is tuple else node
                for i, node in enumerate(self._node)
            }
        return self._table

    def defines(self, p: Path) -> frozenset[str]:
        return self._nodes().get(p, EMPTY_NODE).defines

    def inherits(self, p: Path) -> frozenset[Reference]:
        return self._nodes().get(p, EMPTY_NODE).inherits

    def paths(self) -> list[Path]:
        return sorted(self._nodes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoreProgram):
            return NotImplemented
        return self._nodes() == other._nodes()

    def __hash__(self):
        return hash(frozenset(self._nodes().items()))

    def __repr__(self):
        return f"CoreProgram({len(self.nodes)} paths)"


class _NodeView(Mapping):
    """A program's nodes by path, read-only.  The length is known at once;
    the path-keyed table behind the rest is built on first use."""

    def __init__(self, program: CoreProgram):
        self._program = program

    def __len__(self) -> int:
        return len(self._program._node)

    def __getitem__(self, p: Path) -> Node:
        return self._program._nodes()[p]

    def __iter__(self):
        return iter(self._program._nodes())


def resolve_references(surface: CoreProgram) -> CoreProgram:
    """Desugar all references of a surface program to de Bruijn pairs,
    writing the program anew in sorted path order.

    * named ``this@L.downs`` at path p: target the last occurrence of L
      among the labels of p; ``n = |p| - |p_target| - 1``.
    * lexical ``l1.l2...`` at path p: target the nearest proper prefix p'
      with ``l1`` among the labels of p'; ``n = |p| - |p'| - 1``.
    * indexed references are already desugared.

    Only the ids the root reaches through the labels are written.  Of
    several unresolvable references, the first in the surface's order
    (ids in order of first appearance, then source order) is reported.
    """
    parent, label, node = surface._parent, surface._label, surface._node
    program = CoreProgram()
    # Sorted path order is a preorder walk with children sorted by label.
    new: list = [0] + [None] * (len(node) - 1)
    stack = [0]
    while stack:
        i = stack.pop()
        if i:
            new[i] = program._add(new[parent[i]], label[i])
        kids = surface._kids[i]
        stack += [kids[k] for k in sorted(node[i][0], reverse=True)]
    for i, j in enumerate(new):
        if j is not None:
            labels, refs = node[i]
            inherits = frozenset(_resolve_one(ref, i, surface) for ref in refs)
            if len(inherits) > 1:
                inherits = tuple(sorted(inherits))
            program._node[j] = Node(frozenset(labels), inherits)
    return program


def _resolve_one(ref: SurfaceRef, i: int, surface: CoreProgram) -> Reference:
    if isinstance(ref, Reference):
        return ref
    parent, n = surface._parent, 0
    j = parent[i]
    if isinstance(ref, NamedRef):
        # Only proper ancestors of i are enclosing scopes of a reference
        # stored there, so the record's own final label is not a target.
        while j:
            if surface._label[j] == ref.up:
                return Reference(n, ref.downs)
            j, n = parent[j], n + 1
        raise ResolutionError(
            "NamedNotFound",
            f"this@{ref.up} at path {path_text(trie_path(surface, i))}: "
            "label does not name an enclosing scope",
        )
    if isinstance(ref, LexicalRef):
        head = ref.downs[0]
        while j is not None:
            if head in surface._node[j][0]:
                return Reference(n, ref.downs)
            j, n = parent[j], n + 1
        raise ResolutionError(
            "LexicalNotFound",
            f"{'.'.join(ref.downs)} at path {path_text(trie_path(surface, i))}: "
            f"no enclosing scope defines {head!r}",
        )
    raise TypeError(f"unknown reference form: {ref!r}")


def parse_program(source: str) -> CoreProgram:
    """Convenience: parse + resolve in one step."""
    return resolve_references(parse(source))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def path_text(p: Path) -> str:
    """Canonical textual form of a path; the root renders as ``()``."""
    return ".".join(p) if p else "()"


def parse_path(text: str) -> Path:
    """Inverse of path_text for user-supplied query paths."""
    if text in ("", "()"):
        return ROOT
    parts = tuple(text.split("."))
    for part in parts:
        if not IDENT_RE.match(part):
            raise ValueError(f"invalid path component: {part!r}")
    return parts


def ref_text(ref: Reference) -> str:
    out = f"^{ref.n}"
    if ref.downs:
        out += "." + ".".join(ref.downs)
    return out


def render(prog: CoreProgram) -> str:
    """Deterministic surface text that re-parses to an equal CoreProgram.

    References render in indexed form only and are sorted; definitions
    are sorted lexicographically.  A definition whose body is a single
    reference with no sub-definitions uses the ``x = r`` sugar.
    """

    def render_body(p: Path) -> str:
        node = prog.nodes.get(p, EMPTY_NODE)
        parts = [ref_text(r) for r in sorted(node.inherits)]
        for label in sorted(node.defines):
            child = p + (label,)
            cnode = prog.nodes.get(child, EMPTY_NODE)
            if not cnode.defines and len(cnode.inherits) == 1:
                (only,) = cnode.inherits
                parts.append(f"{label} = {ref_text(only)}")
            else:
                parts.append(f"{label} = {render_body(child)}")
        if not parts:
            return "{}"
        return "{" + ", ".join(parts) + "}"

    return render_body(ROOT)
