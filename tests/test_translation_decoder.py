"""A strict decoder reads ``translate``'s records back to an ANF term.

It shares nothing with either engine: it reads the trie of a translated
``CoreProgram`` and accepts only the image grammar of ``lam._Translation``.
Every record literal is one scope level, so a record's level is its path's
length, and a reference ``(n, downs)`` read at level L names the binder at
level ``L - 1 - n``; ``downs`` is ``("argument",)`` for a λ's parameter and
``(name, "result")`` for a let's name.  A record at level L is:

* a λ ``{argument, result}``, whose ``argument`` record is empty and whose
  ``result`` is its body, one level down, with the λ bound at L;
* a let ``{name, result}``, with ``name`` an application record and
  ``result`` the body, with the let bound at L (the right side does not
  see it);
* a tail call ``{tailCall, result}``, whose ``result`` inherits
  ``^0.tailCall.result`` and nothing else, and whose ``tailCall`` is an
  application record;
* a variable: no label and one reference;

and an application record is ``{argument}`` with one reference, the
function, or an inlined λ ``{argument, result}``; its ``argument`` is a
variable or λ record, which does not see the inlined binder.

The decoder names the binder at level j ``v<j>``: along one scope path
each level holds at most one binder, so no name is captured, and the
decoded term equals the original up to α-renaming.  The round trip checks
the structure of each translation, not its meaning: a translation that is
well formed but evaluates to the wrong answer, such as a let-bound callee
whose body is a computation (ROADMAP item 4), decodes exactly and passes.
"""

import re
import sys

import pytest

from conftest import binder_nest, spine_text
from inhcalc.corpus import corpus_terms
from inhcalc.lam import (
    SYNTHETIC_LABELS,
    Abs,
    App,
    Let,
    Var,
    anf_transform,
    parse_lambda,
    translate,
)
from inhcalc.syntax import CoreProgram, Node, Reference, trie_path

_LAMBDA = frozenset({"argument", "result"})
_TAIL = frozenset({"tailCall", "result"})
_FORWARD = Node(inherits=(Reference(0, ("tailCall", "result")),))
_EMPTY = Node()


class NotAnImage(ValueError):
    """A record outside the image grammar of the translation."""


def decode(prog: CoreProgram):
    """The ANF term whose translation ``prog`` is, binders named by level.
    Walks the records on an explicit stack in preorder.  ``binder[j]`` holds
    the projection that reads the binder at level j, or None where no
    binder is in scope: each record, when it is reached, sets the entry of
    its parent's level to what it sees there, and in preorder every level
    below it was set last by its own ancestor there.  Built terms go on
    ``out`` and are assembled by ("build", ...) entries."""
    kids, node = prog._kids, prog._node

    def reject(i, why):
        raise NotAnImage(f"{why} at {trie_path(prog, i)!r}")

    def var(i, level, ref):
        n, downs = ref
        j = level - 1 - n
        if n < 0 or j < 0 or binder[j] != downs:
            reject(i, f"reference {ref!r} names no binder in scope")
        return Var(f"v{j}")

    binder: list = [None] * (len(node) + 1)
    out: list = []
    stack = [("comp", 0, 0, None)]
    while stack:
        kind, i, level, seen = stack.pop()
        if kind == "build":
            if i == "abs":
                out.append(Abs(f"v{level}", out.pop()))
            elif i == "let":
                body, rhs = out.pop(), out.pop()
                out.append(Let(f"v{level}", rhs, body))
            elif i == "app":
                arg, fun = out.pop(), out.pop()
                out.append(App(fun, arg))
            else:  # an inlined λ: its body, then the argument
                arg, body = out.pop(), out.pop()
                out.append(App(Abs(f"v{level}", body), arg))
            continue
        if level:
            binder[level - 1] = seen
        labels, refs = node[i]
        here = kids[i]
        if kind == "app":
            if labels == {"argument"} and len(refs) == 1 and here.keys() == {"argument"}:
                out.append(var(i, level, refs[0]))
                stack += [("build", "app", level, None),
                          ("value", here["argument"], level + 1, None)]
            elif labels == _LAMBDA and not refs and here.keys() == _LAMBDA:
                stack += [("build", "inlined", level, None),
                          ("value", here["argument"], level + 1, None),
                          ("comp", here["result"], level + 1, ("argument",))]
            else:
                reject(i, "not an application record")
        elif not labels and len(refs) == 1 and not here:
            out.append(var(i, level, refs[0]))
        elif (labels == _LAMBDA and not refs and here.keys() == _LAMBDA
              and node[here["argument"]] == _EMPTY and not kids[here["argument"]]):
            stack += [("build", "abs", level, None),
                      ("comp", here["result"], level + 1, ("argument",))]
        elif kind == "value":
            reject(i, "not a variable or λ record")
        elif (labels == _TAIL and not refs and here.keys() == _TAIL
              and node[here["result"]] == _FORWARD and not kids[here["result"]]):
            stack.append(("app", here["tailCall"], level + 1, None))
        elif len(labels) == 2 and "result" in labels and not refs and here.keys() == labels:
            (name,) = labels - {"result"}
            if name in SYNTHETIC_LABELS:
                reject(i, f"let-name {name!r} is a synthetic label")
            stack += [("build", "let", level, None),
                      ("comp", here["result"], level + 1, (name, "result")),
                      ("app", here[name], level + 1, None)]
        else:
            reject(i, "not a computation record")
    (term,) = out
    return term


def alpha_equal(a, b) -> bool:
    """a and b are the same term up to the names of their binders,
    compared link by link on an explicit stack: each side maps a name to
    the depth of its innermost binder, and an ("undo", ...) entry restores
    a binder's outer meaning once its scope is walked."""
    env_a: dict = {}
    env_b: dict = {}
    stack = [(a, b, 0)]
    while stack:
        a, b, depth = stack.pop()
        if a == "undo":
            (name_a, old_a), (name_b, old_b) = b
            env_a[name_a] = old_a
            env_b[name_b] = old_b
            continue
        if type(a) is not type(b):
            return False
        if isinstance(a, Var):
            if env_a.get(a.name) != env_b.get(b.name):
                return False
            if env_a.get(a.name) is None and a.name != b.name:  # free
                return False
        elif isinstance(a, App):
            stack += [(a.arg, b.arg, depth), (a.fun, b.fun, depth)]
        else:
            if isinstance(a, Let):
                stack.append((a.rhs, b.rhs, depth))  # the let-name is not in scope there
            name_a, name_b = a[0], b[0]
            stack.append(("undo", ((name_a, env_a.get(name_a)), (name_b, env_b.get(name_b))), 0))
            stack.append((a[-1], b[-1], depth + 1))
            env_a[name_a] = env_b[name_b] = depth
    return True


def test_translations_decode_back_to_their_terms():
    assert sys.getrecursionlimit() <= 1000
    terms = [anf for _, anf in corpus_terms(10)]
    assert len(terms) == 10_191  # corpus_terms(10) ends with the named terms
    terms += [anf_transform(binder_nest(10_000)),
              anf_transform(parse_lambda(spine_text(2_000)))]
    for t in terms:
        assert alpha_equal(decode(translate(t)), t)


@pytest.mark.parametrize("a, b, equal", [
    (r"\x. x", r"\y. y", True),
    (r"\x. \y. x", r"\y. \x. y", True),
    (r"\x. \y. x", r"\x. \y. y", False),
    (r"\f. let a = f f in a", r"\g. let b = g g in b", True),
    (r"\f. let a = f f in a", r"\f. let a = f f in f", False),
    (r"\f. let f = f f in f", r"\f. let g = f f in g", True),
    (r"\f. let f = f f in f", r"\f. let g = f f in f", False),
    (r"\f. f (\x. x)", r"\f. f (\x. f)", False),
])
def test_alpha_equal(a, b, equal):
    assert alpha_equal(parse_lambda(a), parse_lambda(b)) is equal


def _rejected(prog, where):
    with pytest.raises(NotAnImage, match=re.escape(f"at {where!r}")):
        decode(prog)


def test_decoder_rejects_records_outside_the_image():
    prog = translate(parse_lambda(r"\x. x"))
    prog._node[2] = Node(inherits=(Reference(1, ("argument",)),))  # past the λ
    _rejected(prog, ("result",))

    prog = translate(parse_lambda(r"\x. x"))
    prog._add(1, "extra")  # the λ's argument record is not empty
    _rejected(prog, ())

    prog = translate(anf_transform(parse_lambda(r"\f. f f")))
    tail = prog._kids[prog._kids[0]["result"]]["result"]
    prog._node[tail] = Node(inherits=(Reference(0, ("tailCall",)),))  # forwards tailCall
    _rejected(prog, ("result",))

    prog = translate(anf_transform(parse_lambda(r"\f. let y = f f in y")))
    body = prog._kids[prog._kids[0]["result"]]["result"]
    prog._node[body] = Node(inherits=(Reference(0, ("z", "result")),))  # no let named z
    _rejected(prog, ("result", "result"))

    prog = translate(anf_transform(parse_lambda(r"\f. let y = f f in y")))
    arg = prog._kids[prog._kids[prog._kids[0]["result"]]["y"]]["argument"]
    prog._node[arg] = Node(frozenset({"tailCall", "result"}))  # an argument that is no value
    _rejected(prog, ("result", "y", "argument"))
