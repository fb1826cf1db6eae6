"""Surface syntax: parsing, reference desugaring, and the core program.

A program is a single record literal.  Records contain two kinds of
elements: definitions (``label = body``) and inheritance references.
References come in three surface forms:

* named      -- ``this@Outer.a.b`` names an enclosing scope by label
* indexed    -- ``^2.a.b`` carries an explicit de Bruijn scope count
* lexical    -- ``a.b`` names a sibling (or outer) definition by its head

One reader, ``_Reader``, tokenizes and walks both surface grammars, this
one and ``lam``'s λ-terms; each parser subclasses it with its grammar and
its error type.

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
representation and writes the program anew in sorted path order, with
``Node`` nodes, so the source's order does not reach evaluation.

References (``Reference``, ``NamedRef``, ``LexicalRef``) are immutable
named tuples, like ``Node``, and a ``Reference`` built by its public
constructors checks ``n >= 0``.  Like ``lam``'s terms, where ``Var("x") ==
("x",)`` is True, a reference equals the plain tuple of its fields:
``Reference(0) == (0, ())``.
"""

from __future__ import annotations

import re
import string
from collections.abc import Mapping
from typing import NamedTuple

Path = tuple[str, ...]

ROOT: Path = ()


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


class _ReferenceFields(NamedTuple):
    n: int
    downs: tuple[str, ...] = ()


class Reference(_ReferenceFields):
    """A desugared reference: ``n`` scope levels up, then ``downs`` down.
    The constructor, ``_make`` and ``_replace`` check ``n >= 0``.
    ``lam``'s translation builds one with ``tuple.__new__``, unchecked,
    where n >= 0 holds by construction."""

    __slots__ = ()

    def __new__(cls, n: int, downs: tuple[str, ...] = ()):
        if n < 0:
            raise ValueError("reference index must be nonnegative")
        return tuple.__new__(cls, (n, downs))

    @classmethod
    def _make(cls, iterable) -> Reference:
        return cls(*iterable)


# ---------------------------------------------------------------------------
# Surface AST
# ---------------------------------------------------------------------------

class NamedRef(NamedTuple):
    up: str
    downs: tuple[str, ...] = ()


class LexicalRef(NamedTuple):
    downs: tuple[str, ...]  # nonempty; downs[0] is the head label


SurfaceRef = NamedRef | LexicalRef | Reference


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# The identifier pattern of both grammars and of query paths: ASCII.
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
IDENT_RE = re.compile(_IDENT + r"\Z")

# Kinds that both grammars share: the end of input, and any token that
# starts like a name.
_BASE_KINDS = {"": "eof", **dict.fromkeys(string.ascii_letters + "_", "ident")}


class _Reader:
    """The tokenizer and cursor of both grammars.

    ``pattern`` makes one match per token or comment, and only tokens fill
    its group; no alternative matches whitespace, so the search skips it.
    Its last alternative takes everything from an unexpected character to
    the end of the input, so only the last token can be one.  ``kinds``
    names a token's kind by its text, or else by its first character.
    ``texts`` and ``kinds`` end with the end of input, text ``""`` and kind
    ``eof``, and ``i`` is the cursor.  A subclass raises its own errors in
    ``error(message, pos=None)``, where ``pos`` is an offset into the
    source if known, and ``token_offset(self.i)`` if not.
    """

    def __init__(self, source: str, pattern: re.Pattern, kinds: dict[str, str]):
        self.source = source
        self.pattern = pattern
        texts = list(filter(None, pattern.findall(source)))
        if texts and texts[-1][0] not in kinds:
            self.error(
                f"unexpected character {texts[-1][0]!r}", len(source) - len(texts[-1])
            )
        texts.append("")
        self.texts = texts
        self.kinds = [kinds.get(t) or kinds[t[0]] for t in texts]
        self.i = 0

    def expect(self, kind: str) -> str:
        """The text of the next token, which must be of ``kind``."""
        i = self.i
        if self.kinds[i] != kind:
            self.error(f"expected {kind}, found {self.kinds[i]}")
        self.i = i + 1
        return self.texts[i]

    def token_offset(self, index: int) -> int:
        """Offset of token ``index`` in the source; the end for the eof token."""
        for m in self.pattern.finditer(self.source):
            if m.group(1):
                if index == 0:
                    return m.start()
                index -= 1
        return len(self.source)


# Whitespace is any ``\s``; a comment runs from ``#`` to the end of the line.
_TOKEN_RE = re.compile(rf"#[^\n]*|(this@|{_IDENT}|[0-9]+|[{{}}=,.^]|[^\s#][\s\S]*)")
_KIND = {
    **_BASE_KINDS,
    "this@": "thisat",
    "{": "lb",
    "}": "rb",
    "=": "eq",
    ",": "comma",
    ".": "dot",
    "^": "caret",
    **dict.fromkeys("0123456789", "nat"),
}


def _line_column(source: str, pos: int) -> tuple[int, int]:
    return source.count("\n", 0, pos) + 1, pos - source.rfind("\n", 0, pos)


class _Parser(_Reader):
    def error(self, message: str, pos: int | None = None):
        if pos is None:
            pos = self.token_offset(self.i)
        raise ParseError(message, *_line_column(self.source, pos))

    def parse_program(self) -> CoreProgram:
        """Add each record literal to the node of its path.  A stack holds
        the ids of the records still open; each turn reads an element, or
        the close after ``{`` or a trailing comma, and then the comma or
        closes that follow it."""
        kinds, texts = self.kinds, self.texts
        program = CoreProgram()
        node, kids, add = program._node, program._kids, program._add
        node[0] = ({}, {})
        self.expect("lb")
        open_ids = [0]
        while open_ids:
            i = self.i
            p = open_ids[-1]
            if kinds[i] == "rb":
                self.i = i + 1
                open_ids.pop()
            elif kinds[i] == "ident" and kinds[i + 1] == "eq":
                label = texts[i]
                node[p][0][label] = None
                child = kids[p].get(label) or add(p, label, ({}, {}))
                if kinds[i + 2] == "lb":
                    self.i = i + 3
                    open_ids.append(child)
                    continue
                # "x = r" sugars to "x = { r }"
                self.i = i + 2
                node[child][1][self.parse_reference()] = None
            else:
                node[p][1][self.parse_reference()] = None
            # A closed record is an element of the record it is in.
            while open_ids:
                if kinds[self.i] == "comma":
                    self.i += 1
                    break
                self.expect("rb")
                open_ids.pop()
        if kinds[self.i] != "eof":
            self.error("trailing input after top-level record")
        return program

    def parse_reference(self) -> SurfaceRef:
        i = self.i
        kind = self.kinds[i]
        if kind == "thisat":
            self.i = i + 1
            up = self.expect("ident")
            return NamedRef(up, self.parse_downs())
        if kind == "caret":
            self.i = i + 1
            n = int(self.expect("nat"))
            return Reference(n, self.parse_downs())
        if kind == "ident":
            self.i = i + 1
            return LexicalRef((self.texts[i],) + self.parse_downs())
        self.error("expected an element (definition or reference)")

    def parse_downs(self) -> tuple[str, ...]:
        downs = []
        while self.kinds[self.i] == "dot":
            self.i += 1
            downs.append(self.expect("ident"))
        return tuple(downs)


def parse(source: str) -> CoreProgram:
    """Parse surface text into its surface program: a trie with ids in order
    of first appearance and ``(labels, references)`` nodes."""
    return _Parser(source, _TOKEN_RE, _KIND).parse_program()


# ---------------------------------------------------------------------------
# Core program and reference resolution
# ---------------------------------------------------------------------------

class Node(NamedTuple):
    """A resolved record node: its labels, and its references as a sorted
    tuple with no duplicates, so the equations follow them in an order
    that does not depend on the hash seed.  It unpacks like the
    ``(labels, references)`` pairs that ``parse`` writes."""

    defines: frozenset[str] = frozenset()
    inherits: tuple[Reference, ...] = ()


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
    ``parse`` with ``(labels, references)`` pairs of dicts, and
    ``resolve_references`` and ``lam.translate`` with ``Node``s.
    Evaluation contexts adopt these ids as their first ids, add their own
    with ``_add`` on their copies of the lists, and never change the
    program's.

    ``nodes`` is a read-only path-keyed view of the program's own nodes,
    read off the trie: a path is looked up by walking the children from
    the root, and the paths iterate in id order.  ``defines`` and
    ``inherits`` read a path's labels and references as frozensets, empty
    on paths never mentioned in the source, from either kind of node.
    """

    def __init__(self):
        self._parent: list = [None]
        self._label: list = [None]
        self._kids: list[dict[str, int]] = [{}]
        self._node: list = [EMPTY_NODE]

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

    def defines(self, p: Path) -> frozenset[str]:
        return frozenset(self.nodes.get(p, EMPTY_NODE)[0])

    def inherits(self, p: Path) -> frozenset[Reference]:
        return frozenset(self.nodes.get(p, EMPTY_NODE)[1])

    def paths(self) -> list[Path]:
        return sorted(self.nodes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoreProgram):
            return NotImplemented
        return self.nodes == other.nodes

    def __hash__(self):
        return hash(frozenset((p, self.defines(p), self.inherits(p)) for p in self.nodes))

    def __repr__(self):
        return f"CoreProgram({len(self.nodes)} paths)"


class _NodeView(Mapping):
    """A program's nodes by path, read-only, read off its trie."""

    def __init__(self, program: CoreProgram):
        self._program = program

    def __len__(self) -> int:
        return len(self._program._node)

    def __getitem__(self, p: Path) -> Node:
        kids, i = self._program._kids, 0
        for label in p:
            i = kids[i][label]
        return self._program._node[i]

    def __iter__(self):
        program = self._program
        return (trie_path(program, i) for i in range(len(program._node)))


def resolve_references(surface: CoreProgram) -> CoreProgram:
    """Desugar all references of a program to de Bruijn pairs, writing it
    anew in sorted path order with ``Node`` nodes.  Any program reads: a
    surface one, or a resolved one, whose references are desugared
    already, so a resolved program in sorted path order reads as itself.

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
            inherits = {_resolve_one(ref, i, surface) for ref in refs}
            program._node[j] = Node(frozenset(labels), tuple(sorted(inherits)))
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
    """Deterministic surface text of any program, surface or resolved,
    that re-parses to its resolved program.

    References render in indexed form only and are sorted; definitions
    are sorted lexicographically.  A definition whose body is a single
    reference with no sub-definitions uses the ``x = r`` sugar.  The
    resolved program's ids are in sorted path order, so they are taken in
    id order, and a stack holds the ids of the records still open.
    """
    prog = resolve_references(prog)
    parent, label, node = prog._parent, prog._label, prog._node
    out = ["{", ", ".join(map(ref_text, node[0][1]))]
    open_ids = [0]
    for i in range(1, len(node)):
        p = parent[i]
        while open_ids[-1] != p:
            open_ids.pop()
            out.append("}")
        if node[p][1] or i != p + 1:  # p has references or an earlier child
            out.append(", ")
        defines, inherits = node[i]
        if not defines and len(inherits) == 1:
            out.append(f"{label[i]} = {ref_text(inherits[0])}")
        else:
            out.append(f"{label[i]} = {{" + ", ".join(map(ref_text, inherits)))
            open_ids.append(i)
    out.append("}" * len(open_ids))
    return "".join(out)
