"""The immutable value types are named tuples, like ``syntax.Node``.

They keep the contract of the frozen dataclasses they replaced: the same
``repr``, value equality with the same hash (a frozen dataclass hashes
its field tuple, as a tuple does), and no assignment.  ``Reference``
checks ``n >= 0`` on every way to build one."""

import pytest

from inhcalc.corpus import Verdict
from inhcalc.lam import (
    Abs,
    App,
    Bottom,
    ConvergenceReport,
    HeadResult,
    HnfNode,
    Let,
    Var,
)
from inhcalc.syntax import LexicalRef, NamedRef, Reference

_VALUES = [
    (Var("x"), "Var(name='x')"),
    (Abs("x", Var("x")), "Abs(param='x', body=Var(name='x'))"),
    (App(Var("f"), Var("x")), "App(fun=Var(name='f'), arg=Var(name='x'))"),
    (
        Let("y", App(Var("f"), Var("x")), Var("y")),
        "Let(name='y', rhs=App(fun=Var(name='f'), arg=Var(name='x')), body=Var(name='y'))",
    ),
    (ConvergenceReport(True, 0), "ConvergenceReport(converged=True, depth=0, reason=None)"),
    (ConvergenceReport(False, reason="Cycle"), "ConvergenceReport(converged=False, depth=None, reason='Cycle')"),
    (HeadResult("hnf", 3), "HeadResult(status='hnf', steps=3)"),
    (Bottom(True), "Bottom(proven=True)"),
    (HnfNode(1, 0, ()), "HnfNode(binders=1, head=0, children=())"),
    (Reference(0, ("a",)), "Reference(n=0, downs=('a',))"),
    (Reference(2), "Reference(n=2, downs=())"),
    (NamedRef("Outer", ("a",)), "NamedRef(up='Outer', downs=('a',))"),
    (LexicalRef(("a", "b")), "LexicalRef(downs=('a', 'b'))"),
    (
        Verdict(
            "I", Abs("x", Var("x")), HeadResult("hnf", 0),
            ConvergenceReport(True, 0), ConvergenceReport(True, 0), 0,
        ),
        "Verdict(name='I', term=Abs(param='x', body=Var(name='x')),"
        " oracle=HeadResult(status='hnf', steps=0),"
        " convergence=ConvergenceReport(converged=True, depth=0, reason=None),"
        " direct=ConvergenceReport(converged=True, depth=0, reason=None),"
        " single_path_violations=0)",
    ),
]


@pytest.mark.parametrize("value, text", _VALUES, ids=[text.split("(")[0] for _, text in _VALUES])
def test_value_contract(value, text):
    assert repr(value) == text
    equal = eval(text)  # a value built anew from its repr
    assert equal is not value
    assert equal == value and hash(equal) == hash(value)
    assert hash(value) == hash(tuple(value))
    # The one behaviour the frozen dataclasses did not have: a value
    # equals the plain tuple of its fields.
    assert value == tuple(value)
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = None


def test_values_of_different_types_differ():
    assert Var("x") != LexicalRef(("x",))
    assert Abs("x", Var("x")) != App(Var("x"), Var("x"))
    assert ConvergenceReport(True, 0) != ConvergenceReport(True, 1)


def test_reference_order_is_field_order():
    refs = [Reference(1), Reference(0, ("b",)), Reference(0, ("a", "z")), Reference(0)]
    assert sorted(refs) == [
        Reference(0), Reference(0, ("a", "z")), Reference(0, ("b",)), Reference(1)
    ]


@pytest.mark.parametrize(
    "build",
    [
        lambda: Reference(-1),
        lambda: Reference(n=-1),
        lambda: Reference(0)._replace(n=-1),
        lambda: Reference._make((-1, ())),
    ],
    ids=["positional", "keyword", "_replace", "_make"],
)
def test_reference_index_must_be_nonnegative(build):
    with pytest.raises(ValueError, match="nonnegative"):
        build()


def test_reference_replace_and_make_build_references():
    ref = Reference(0)._replace(downs=("a",))
    assert type(ref) is Reference and ref == Reference(0, ("a",))
    assert Reference._make((3, ("b",))) == Reference(3, ("b",))
