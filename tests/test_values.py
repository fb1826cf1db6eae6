"""Every value type of the package is a named tuple, like ``syntax.Node``.

Terms, references, reports, verdicts, single-path violations, fixtures,
expectations and their results share one contract: a ``repr`` that
builds an equal value, value equality with a hash equal to the field
tuple's, and no assignment.  ``ObservationTree`` keeps all of it but the
hash, since it holds a children dict.  ``Reference`` checks ``n >= 0`` on
every public way to build one."""

import pytest

from inhcalc.corpus import Verdict
from inhcalc.fixtures import Expectation, ExpectationResult, Fixture
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
from inhcalc.semantics import ObservationTree, SinglePathViolation
from inhcalc.syntax import LexicalRef, NamedRef, Reference

_EXPECTATION = Expectation("properties", ("a",), "-", "sanity")
_EXPECTATION_TEXT = "Expectation(op='properties', args=('a',), expected='-', origin='sanity')"

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
    # one frontier path, so the frozenset's repr does not follow the hash seed
    (
        SinglePathViolation(frozenset({("a",)}), ("x", "y"), 1),
        "SinglePathViolation(frontier=frozenset({('a',)}), p_def=('x', 'y'), n=1)",
    ),
    (_EXPECTATION, _EXPECTATION_TEXT),
    (
        Fixture("f", "{a = {}}", (_EXPECTATION,)),
        f"Fixture(name='f', source='{{a = {{}}}}', expectations=({_EXPECTATION_TEXT},))",
    ),
    (
        ExpectationResult(_EXPECTATION, True, "-"),
        f"ExpectationResult(expectation={_EXPECTATION_TEXT}, passed=True, actual='-')",
    ),
]


@pytest.mark.parametrize("value, text", _VALUES, ids=[text.split("(")[0] for _, text in _VALUES])
def test_value_contract(value, text):
    assert repr(value) == text
    equal = eval(text)  # a value built anew from its repr
    assert equal is not value
    assert equal == value and hash(equal) == hash(value)
    assert hash(value) == hash(tuple(value))
    # As every named tuple does, a value equals the plain tuple of its fields.
    assert value == tuple(value)
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = None


def test_observation_tree_is_a_named_tuple_without_a_hash():
    leaf = ObservationTree(("a",), (), {}, None)
    tree = ObservationTree((), ("a",), {"a": leaf}, None)
    assert repr(tree) == (
        "ObservationTree(path=(), labels=('a',), children={'a': ObservationTree("
        "path=('a',), labels=(), children={}, divergence=None)}, divergence=None)"
    )
    assert tree == ((), ("a",), {"a": (("a",), (), {}, None)}, None)
    with pytest.raises(AttributeError):
        tree.divergence = "Cycle"
    with pytest.raises(TypeError):
        hash(tree)


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
