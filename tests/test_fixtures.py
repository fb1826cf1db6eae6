import hashlib

import pytest

from conftest import FRAGMENT_DEPS, fragment_program
from inhcalc.fixtures import (
    FIXTURE_NAMES,
    UnknownFixture,
    _parse_expectations,
    fixture,
    run_expectations,
)
from inhcalc.lam import bohm_prefix, converges, named_to_oracle, parse_lambda
from inhcalc.semantics import EvalContext
from inhcalc.syntax import parse_path


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_all_expectations_pass(name):
    results = run_expectations(name)
    assert results, f"fixture {name} has no expectations"
    failures = [r.line() for r in results if not r.passed]
    assert not failures, "\n".join(failures)


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        fixture("nonesuch")


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_origin_tags_are_valid(name):
    for exp in fixture(name).expectations:
        assert exp.origin in ("pinned", "derived", "sanity"), exp.line()


def test_malformed_expectation_lines_rejected():
    with pytest.raises(ValueError):
        _parse_expectations("frobnicate\ta\tb\tpinned")
    with pytest.raises(ValueError):
        _parse_expectations("properties\t()\ta")  # missing origin field


# ---------------------------------------------------------------------------
# Snapshots: depth-4 observation trees, pinned byte-for-byte by hash
# ---------------------------------------------------------------------------

_SNAPSHOTS = {
    "p1": ("7f0f132c7f57a0b787d287492016b08ebcc6fb474690e615df27721c781cdcf3", 6),
    "p2": ("44c9072922e521bf7c5d977edcb374c4bc4496b3ed23a0237cd76f696d6806cc", 9),
    "multipath": ("23f767f9b12ca414b8f4b20761a0deb78e58c4b2ce1ecfc889a4dd147da08c82", 17),
    "cyclic_a": ("e471e8e466ba5b7d677dcb862a5a273f3e605368a901483fe92f077efd0e32db", 2),
    "self_ref": ("1c63a2cf1560e6343ece62e712076aebd6d30e262c969559f4ab6280b89990d2", 5),
    "nat": ("249d0eb55ba7cd14db7e2bf5de22b3e05c793fb1211891fcd7a0f25f2386a0dc", 514),
    "asymmetry": ("68cb5fc3922ba22b3037f69e727698fb1f76d06baa00c0c9b49061beab4bdaa4", 104),
}


@pytest.mark.parametrize("name", sorted(_SNAPSHOTS))
def test_depth4_observation_snapshot(name):
    prog = fixture(name).program()
    text = EvalContext(prog).observe((), 4, record_divergence=True).text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (digest, len(text.splitlines())) == _SNAPSHOTS[name]


# ---------------------------------------------------------------------------
# Fragment composition of the combined nat fixture
# ---------------------------------------------------------------------------

def test_fragments_compose_to_combined_program():
    assert fragment_program(*FRAGMENT_DEPS) == fixture("nat").program()


def test_fragment_closure_is_self_contained():
    # the smallest fragment containing Test still adds 2 + 3 = 5
    prog = fragment_program("Test")
    ctx = EvalContext(prog)
    true_path = parse_path("BooleanData.BooleanFactory.True")
    ancestors = ctx.ancestors(parse_path("Test.Test2plus3.equal"))
    assert true_path in ancestors
    assert parse_path("BooleanData.BooleanFactory.False") not in ancestors


def test_fragment_unknown_member():
    with pytest.raises(KeyError):
        fragment_program("NoSuchMember")


# ---------------------------------------------------------------------------
# The asymmetry fixture is a faithful image of its lambda-terms
# ---------------------------------------------------------------------------

def test_asymmetry_terms_converge_with_equal_prefixes():
    prog = fixture("asymmetry").program()
    ctx = EvalContext(prog)
    r1 = converges(prog, base_path=("S", "e1"), ctx=ctx)
    r2 = converges(prog, base_path=("S", "e2"), ctx=ctx)
    assert (r1.converged, r1.depth) == (True, 5)
    assert (r2.converged, r2.depth) == (True, 5)
    v1 = ("S", "e1") + ("result",) * 5
    v2 = ("S", "e2") + ("result",) * 5
    assert ctx.observe(v1, 3).structure() == ctx.observe(v2, 3).structure()


def test_asymmetry_matches_oracle():
    # eq false false and eq true true have identical depth-3 Boehm trees
    eq = r"\a. \b. let _a0 = b (\t. \f. f) in let _a1 = _a0 (\t. \f. t) in let _a2 = a b in _a2 _a1"
    t = parse_lambda(f"({eq}) (\\t. \\f. f) (\\t. \\f. f)")
    f = parse_lambda(f"({eq}) (\\t. \\f. t) (\\t. \\f. t)")
    b1 = bohm_prefix(named_to_oracle(t), depth=3)
    b2 = bohm_prefix(named_to_oracle(f), depth=3)
    assert b1 == b2
