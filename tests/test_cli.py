import hashlib
import inspect
import json

import pytest
from click.testing import CliRunner

from inhcalc import cli, lam
from inhcalc import corpus as corpus_mod
from inhcalc.cli import main
from inhcalc.fixtures import FIXTURE_NAMES


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.inh"
    path.write_text("{A = {x = {}}, B = {A, x = {y = {}}}}")
    return str(path)


@pytest.fixture
def cyclic_file(tmp_path):
    path = tmp_path / "cyclic.inh"
    path.write_text("{a = {a.b}}")
    return str(path)


# ---------------------------------------------------------------------------
# query / check
# ---------------------------------------------------------------------------

def test_query_properties_text(runner, program_file):
    result = runner.invoke(main, ["query", program_file, "--path", "B"])
    assert result.exit_code == 0
    assert result.output == "B\tx\n"


def test_query_properties_json(runner, program_file):
    result = runner.invoke(
        main, ["query", program_file, "--path", "B.x", "--format", "json"]
    )
    assert result.exit_code == 0
    assert json.loads(result.output) == {"path": "B.x", "labels": ["y"]}


def test_query_ancestors(runner, program_file):
    result = runner.invoke(
        main, ["query", program_file, "--path", "B.x", "--op", "ancestors"]
    )
    assert result.exit_code == 0
    assert result.output.splitlines() == ["A.x", "B.x"]


def test_query_tree(runner, program_file):
    result = runner.invoke(
        main, ["query", program_file, "--path", "B", "--op", "tree", "--depth", "2"]
    )
    assert result.exit_code == 0
    assert result.output.splitlines() == ["B\tx", "B.x\ty", "B.x.y\t"]


def test_query_divergence_exit_code(runner, cyclic_file):
    result = runner.invoke(main, ["query", cyclic_file, "--path", "a"])
    assert result.exit_code == 1
    assert "divergence(Cycle)" in result.output


def test_query_missing_file_is_input_error(runner, tmp_path):
    result = runner.invoke(main, ["query", str(tmp_path / "nope.inh"), "--path", "a"])
    assert result.exit_code == 2


def test_query_parse_error_is_input_error(runner, tmp_path):
    path = tmp_path / "bad.inh"
    path.write_text("{a = }")
    result = runner.invoke(main, ["query", str(path), "--path", "a"])
    assert result.exit_code == 2
    assert "error:" in result.output


def test_query_ancestors_json(runner):
    path = "src/inhcalc/fixtures/multipath.inh"
    args = ["query", path, "--path", "HasMultipleOuters.outer", "--op", "ancestors"]
    result = runner.invoke(main, args + ["--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output) == [
        "HasMultipleOuters.outer", "MyOuter", "MyOuter.MyInner.outer", "Object1", "Object2"
    ]


def test_query_malformed_path_is_input_error(runner, program_file):
    result = runner.invoke(main, ["query", program_file, "--path", "a..b"])
    assert result.exit_code == 2
    assert result.stderr == "error: invalid path component: ''\n"


def test_query_scope_underflow_is_input_error(runner, tmp_path):
    path = tmp_path / "under.inh"
    path.write_text("{a = {^3}}")
    result = runner.invoke(main, ["query", str(path), "--path", "a"])
    assert result.exit_code == 2
    assert result.stderr == "error: scope underflow: this step above the root (n=3 remaining)\n"


def _assert_resource_limit(result):
    assert result.exit_code == 3
    assert result.stderr.startswith("error: resource limit")
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.output


def test_query_too_deep_nest_is_resource_limit(runner, tmp_path):
    # properties overflows the Python stack on a 200-level nest
    depth = 200
    path = tmp_path / "nest.inh"
    path.write_text("{A = " + "{a = " * depth + "{}" + "}" * depth + ", B = {A}}")
    result = runner.invoke(
        main, ["query", str(path), "--path", "B" + ".a" * (depth - 1)]
    )
    _assert_resource_limit(result)


def test_query_tree_of_any_depth_prints(runner, tmp_path):
    # observe and the text printer walk the tree on explicit stacks; the
    # json encoder recurses, two dicts per tree level
    path = tmp_path / "self.inh"
    path.write_text("{A = {next = A}}")
    args = ["query", str(path), "--path", "A", "--op", "tree", "--depth", "2000"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert len(result.output.splitlines()) == 2_001
    _assert_resource_limit(runner.invoke(main, args + ["--format", "json"]))


def test_check(runner, program_file):
    result = runner.invoke(main, ["check", program_file])
    assert result.exit_code == 0
    assert result.output.startswith("ok: ")


def test_check_non_utf8_file_is_input_error(runner, tmp_path):
    path = tmp_path / "latin1.inh"
    path.write_bytes("{caf\xe9 = {}}".encode("latin-1"))
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"error: {path}: 'utf-8' codec")


# ---------------------------------------------------------------------------
# lambda bridge
# ---------------------------------------------------------------------------

def test_lambda_translate(runner):
    result = runner.invoke(main, ["lambda", "translate", r"\x. x"])
    assert result.exit_code == 0
    assert result.output == "{argument = {}, result = ^0.argument}\n"


def test_lambda_converges(runner):
    result = runner.invoke(main, ["lambda", "converges", r"(\x. x) (\y. y)"])
    assert result.exit_code == 0
    assert result.output == "converged at depth 1\n"


def test_lambda_converges_expect_flag(runner):
    result = runner.invoke(
        main,
        ["lambda", "converges", r"(\x. x x) (\x. x x)", "--fuel", "5000",
         "--expect-converge"],
    )
    assert result.exit_code == 1
    assert result.output.startswith("not converged:")


def test_lambda_converges_long_chain_is_resource_limit(runner):
    # 1,000 chained identity redexes overflow the lambda parser's stack
    chain = "".join(f"(\\x{i}. x{i}) (" for i in range(1000)) + "\\y. y" + ")" * 1000
    result = runner.invoke(main, ["lambda", "converges", chain])
    _assert_resource_limit(result)


# f applied to 2,000 arguments is a long spine, not a deep nest: every
# stage walks it, or the let run ANF makes of it, in a loop
_SPINE = "(\\f. " + " ".join(["f"] * 2_001) + ") (\\x. x)"


def test_lambda_converges_long_spine_is_not_nested(runner):
    result = runner.invoke(main, ["lambda", "converges", _SPINE, "--max-depth", "4"])
    assert result.exit_code == 0
    assert result.output == "not converged: DepthExceeded\n"


def test_lambda_translate_long_spine_is_not_nested(runner):
    result = runner.invoke(main, ["lambda", "translate", _SPINE])
    assert result.exit_code == 0
    # the output of the recursive renderer under a raised recursion limit
    assert len(result.output) == 130_795
    assert hashlib.sha256(result.output.encode()).hexdigest() == (
        "cf5759f9cfc374ed91078ea08023d2c8c31042f899061c3d9046151113096503"
    )


def test_check_reads_back_the_translation_of_a_long_spine(runner, tmp_path):
    # each let of the spine's ANF nests two records deeper in the output
    path = tmp_path / "spine.inh"
    path.write_text(runner.invoke(main, ["lambda", "translate", _SPINE]).output)
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 0
    assert result.output == "ok: 6007 paths\n"


def test_lambda_bohm_long_spine_is_not_nested(runner):
    result = runner.invoke(main, ["lambda", "bohm", _SPINE])
    assert result.exit_code == 0
    assert result.output == "λ^1. 0\n"


def test_lambda_bohm(runner):
    result = runner.invoke(main, ["lambda", "bohm", r"\t. \f. t", "--depth", "1"])
    assert result.exit_code == 0
    assert result.output == "λ^2. 1\n"


def test_lambda_bohm_takes_a_deep_binder_nest(runner):
    # a binder costs named_to_oracle no stack frame
    nest = "".join(f"\\x{i}. " for i in range(10_000)) + "x0"
    result = runner.invoke(main, ["lambda", "bohm", nest])
    assert result.exit_code == 0
    assert result.output == "λ^10000. 9999\n"


def test_lambda_bohm_prints_a_1000_level_tree(runner):
    # the Böhm tree of Y, f (f (f ...)), built and printed on explicit stacks
    y = r"\f. (\x. f (x x)) (\x. f (x x))"
    result = runner.invoke(main, ["lambda", "bohm", y, "--depth", "1000"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 1_002
    assert lines[0] == "λ^1. 0"
    assert lines[1000] == "  " * 1000 + "λ^0. 0"
    assert lines[-1] == "  " * 1001 + "..."


def test_lambda_bohm_budget_defaults_to_the_oracle_s(runner, monkeypatch):
    # --fuel counts the oracle's beta-steps, not the evaluator's equation body runs
    budgets = []

    def recorded(t, depth, fuel):
        budgets.append(fuel)
        return lam.bohm_prefix(t, depth, fuel)

    monkeypatch.setattr(cli, "bohm_prefix", recorded)
    result = runner.invoke(main, ["lambda", "bohm", r"\x. x"])
    assert result.exit_code == 0
    assert budgets == [inspect.signature(lam.bohm_prefix).parameters["fuel"].default]
    assert budgets == [inspect.signature(lam.head_reduce).parameters["fuel"].default]


def test_lambda_parse_error(runner):
    result = runner.invoke(main, ["lambda", "translate", r"\x. ("])
    assert result.exit_code == 2


def test_lambda_free_variable_error(runner):
    result = runner.invoke(main, ["lambda", "converges", "x y"])
    assert result.exit_code == 2


@pytest.mark.parametrize("command", ["translate", "converges", "bohm"])
def test_lambda_synthetic_let_name_is_input_error(runner, command):
    term = r"let argument = (\x. x) (\y. y) in argument"
    result = runner.invoke(main, ["lambda", command, term])
    assert result.exit_code == 2
    assert result.stderr == (
        "error: let-name 'argument' collides with a synthetic label\n"
    )


def test_lambda_primed_identifier_is_input_error(runner):
    # record labels cannot contain a prime, so neither can lambda names
    result = runner.invoke(main, ["lambda", "translate", r"\f. let x' = f f in x'"])
    assert result.exit_code == 2


@pytest.mark.parametrize("command", ["translate", "converges", "bohm"])
def test_lambda_open_term_is_input_error(runner, command):
    # FreeVariableError is a ValueError, as SyntheticNameCollision is; the
    # CLI still reports each as one input error.
    result = runner.invoke(main, ["lambda", command, "x y"])
    assert result.exit_code == 2
    assert result.stderr == "error: term is not closed; free variables: ['x', 'y']\n"


def test_lambda_non_anf_term_is_transformed_first(runner):
    # Every command ANF-transforms its term, so translate's not-ANF
    # rejection never reaches the CLI.
    result = runner.invoke(main, ["lambda", "translate", r"(\x. x x) (\y. y) (\z. z)"])
    assert result.exit_code == 0


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

def test_fixtures_list(runner):
    result = runner.invoke(main, ["fixtures", "list"])
    assert result.exit_code == 0
    assert tuple(result.output.split()) == FIXTURE_NAMES


def test_fixtures_run_single(runner):
    result = runner.invoke(main, ["fixtures", "run", "p1"])
    assert result.exit_code == 0
    assert all(line.startswith("p1\tpass\t") for line in result.output.splitlines())


def test_fixtures_run_unknown(runner):
    result = runner.invoke(main, ["fixtures", "run", "nonesuch"])
    assert result.exit_code == 2


def test_fixtures_run_all(runner):
    result = runner.invoke(main, ["fixtures", "run"])
    assert result.exit_code == 0
    names = {line.split("\t", 1)[0] for line in result.output.splitlines()}
    assert names == set(FIXTURE_NAMES)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

def test_corpus_small_sweep(runner):
    result = runner.invoke(main, ["corpus", "--size", "4", "--fuel", "2000"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    summary = json.loads(lines[-1])
    assert summary["contradictions"] == 0
    assert summary["total"] == len(lines) - 1


def test_corpus_assert_single_path(runner):
    result = runner.invoke(
        main,
        ["corpus", "--size", "4", "--fuel", "2000"],
    )
    assert result.exit_code == 0
    assert json.loads(result.output.splitlines()[-1])["single_path_violations"] == 0


_PASSING_SUMMARY = {
    "contradictions": 0,
    "direct_agrees": True,
    "depth_bounded_by_steps": True,
    "single_path_violations": 0,
}


@pytest.mark.parametrize(
    "failed",
    [
        None,
        {"contradictions": 1},
        {"direct_agrees": False},
        {"depth_bounded_by_steps": False},
        {"single_path_violations": 2},
    ],
    ids=["passing", "contradiction", "engines-split", "depth-past-steps", "multi-path"],
)
def test_corpus_exits_1_on_any_failed_check(runner, monkeypatch, failed):
    summary = {**_PASSING_SUMMARY, **(failed or {})}
    monkeypatch.setattr(corpus_mod, "summarize", lambda verdicts: summary)
    result = runner.invoke(main, ["corpus", "--size", "1"])
    assert result.exit_code == (0 if failed is None else 1), failed
    assert json.loads(result.output.splitlines()[-1]) == summary


# ---------------------------------------------------------------------------
# budgets and determinism
# ---------------------------------------------------------------------------

def test_fuel_env_override_forces_divergence(runner, program_file):
    # The environment sets no budget; only the flag does.
    ok = runner.invoke(
        main, ["query", program_file, "--path", "B"], env={"INHCALC_FUEL": "1"}
    )
    assert ok.exit_code == 0
    starved = runner.invoke(main, ["query", program_file, "--path", "B", "--fuel", "1"])
    assert starved.exit_code == 1
    assert "divergence(FuelExhausted)" in starved.output


def test_output_is_deterministic(runner, program_file):
    args_sets = [
        ["query", program_file, "--path", "B", "--op", "tree", "--depth", "3"],
        ["fixtures", "run", "nat"],
        ["lambda", "translate", r"\a. \b. a b"],
    ]
    for args in args_sets:
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output
