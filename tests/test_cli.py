import ast
import contextlib
import csv
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import conftest as strat
from sheffer import (
    FAMILY_LABELS,
    DomainError,
    ParseError,
    ShefferError,
    ShefferPair,
    TruncatedSeries,
    arctan_series,
    cos_series,
    exp_series,
    family,
    fock,
    sequence_via_egf,
    sheffer_coeffs,
    sin_series,
    sqrt_series,
    tan_series,
)
from sheffer import cli, suites
from sheffer.cli import (
    _FUNCTION_EVAL,
    _SETTINGS,
    _SUITE_NAMES,
    RunConfig,
    _emit,
    build_parser,
    config_from,
    main,
    parse_series,
)

CATALOG_SPECS = {
    "hermite": ("x/2", "exp(x^2/4)"),
    "laguerre": ("x/(x-1)", "1/(1-x)"),
    "bessel": ("x - x^2/2", "1"),
    "bell": ("log(1+x)", "1"),
    "lower_factorial": ("exp(x)-1", "1"),
    "hahn": ("tan(x)", "1/cos(x)"),
    "idempotent": ("inv(x*exp(x))", "1"),
}


# -- expression grammar ---------------------------------------------------------


def test_parse_polynomial_literal():
    assert parse_series("x - x^2/2", 4) == TruncatedSeries.from_coeffs([0, 1, F(-1, 2)], 4)


def test_parse_rational_literals():
    assert parse_series("3/4 + x", 2) == TruncatedSeries.from_coeffs([F(3, 4), 1], 2)


def test_parse_compositional_inverse():
    series = parse_series("inv(x*exp(x))", 5)
    # round-trip oracle: composing back gives the identity
    base = parse_series("x*exp(x)", 5)
    assert base.compose(series) == TruncatedSeries.x(5)


def test_parse_negative_powers_and_unary_minus():
    assert parse_series("(1-x)^-1", 3) == TruncatedSeries.from_coeffs([1, 1, 1, 1], 3)
    assert parse_series("-x", 2) == TruncatedSeries.from_coeffs([0, -1], 2)


def test_parse_domain_errors_carry_positions():
    with pytest.raises(DomainError) as info:
        parse_series("log(x)", 4)
    assert info.value.position == 0
    with pytest.raises(DomainError):
        parse_series("1/x", 4)
    with pytest.raises(DomainError):
        parse_series("inv(1+x)", 4)


def test_parse_syntax_errors():
    with pytest.raises(ParseError):
        parse_series("x +", 4)
    with pytest.raises(ParseError):
        parse_series("y + 1", 4)
    with pytest.raises(ParseError) as info:
        parse_series("1.5*x", 4)
    assert info.value.position == 1
    with pytest.raises(ParseError):
        parse_series("x^x", 4)


_X = TruncatedSeries.x(6)
_ONE = TruncatedSeries.one(6)
# each hand spec with its series built through the series API
HAND_SPECS = {
    "x - x^2/2": _X - _X * _X * F(1, 2),
    "exp(x^2/4)": exp_series(_X * _X * F(1, 4)),
    "1/(1-x)": (_ONE - _X).reciprocal(),
    "inv(x*exp(x))": (_X * exp_series(_X)).comp_inverse(),
    "-(x + 3/4)^2 * tan(x)": -((_X + _ONE * F(3, 4)) * (_X + _ONE * F(3, 4))) * tan_series(_X),
    "arctan(x) - sqrt(1+x)/2": arctan_series(_X) - sqrt_series(_ONE + _X) * F(1, 2),
    "sin(x)*cos(x) + 2^3": sin_series(_X) * cos_series(_X) + _ONE * 8,
}


@pytest.mark.parametrize("text", HAND_SPECS)
def test_hand_specs_equal_the_series_built_directly(text):
    assert parse_series(text, 6) == HAND_SPECS[text]


# A test-local tree: ("num", k), ("x",), ("neg", t), (op, t, t) for op in "+-*/",
# ("^", t, n) or ("call", name, t).
def _trees():
    leaves = st.one_of(st.integers(0, 99).map(lambda k: ("num", k)), st.just(("x",)))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children),
            children.map(lambda t: ("neg", t)),
            st.tuples(st.just("^"), children, st.integers(-3, 5)),
            st.tuples(st.just("call"), st.sampled_from(list(_FUNCTION_EVAL)), children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _evaluate(tree, order: int) -> TruncatedSeries:
    """The tree's series through the series API alone; a refusal raises its ShefferError."""
    kind = tree[0]
    if kind == "num":
        return TruncatedSeries.constant(tree[1], order)
    if kind == "x":
        return TruncatedSeries.x(order)
    if kind == "neg":
        return -_evaluate(tree[1], order)
    if kind == "call":
        return _FUNCTION_EVAL[tree[1]](_evaluate(tree[2], order))
    left = _evaluate(tree[1], order)
    if kind == "^":
        base = left.reciprocal() if tree[2] < 0 else left
        out = TruncatedSeries.one(order)
        for _ in range(abs(tree[2])):
            out = out * base
        return out
    right = _evaluate(tree[2], order)
    if kind == "+":
        return left + right
    if kind == "-":
        return left - right
    if kind == "*":
        return left * right
    return left * right.reciprocal()


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _render(tree, minimal: bool, context: int = 0, right: bool = False) -> str:
    """The tree as spec text: every operation in parentheses, or (``minimal``) only
    those that precedence and left associativity need.

    ``context`` is the precedence of the operation around the tree and
    ``right`` tells whether the tree is its right operand.
    """
    kind = tree[0]
    if kind == "num":
        return str(tree[1])
    if kind == "x":
        return "x"
    if kind == "call":
        return f"{tree[1]}({_render(tree[2], minimal)})"
    level = _PRECEDENCE[kind]
    if kind == "neg":
        text = "-" + _render(tree[1], minimal, level)
    elif kind == "^":
        text = f"{_render(tree[1], minimal, level)}^{tree[2]}"
    else:
        text = (f"{_render(tree[1], minimal, level)} {kind} "
                f"{_render(tree[2], minimal, level, right=True)}")
    if not minimal or level < context or (right and level == context):
        return f"({text})"
    return text


@settings(max_examples=80, deadline=None)
@given(_trees())
def test_rendered_trees_parse_to_their_series(tree):
    try:
        expected = _evaluate(tree, 5)
    except ShefferError:
        expected = None
    for minimal in (False, True):
        text = _render(tree, minimal)
        if expected is None:
            with pytest.raises(DomainError):
                parse_series(text, 5)
        else:
            assert parse_series(text, 5) == expected, text


@pytest.mark.parametrize("label", sorted(CATALOG_SPECS))
def test_grammar_expresses_every_catalog_pair(label):
    f_spec, g_spec = CATALOG_SPECS[label]
    entry = family(label, 12)
    assert parse_series(f_spec, 12) == entry.pair.f
    assert parse_series(g_spec, 12) == entry.pair.g


# -- configuration ----------------------------------------------------------------


def test_config_env_overrides(monkeypatch):
    monkeypatch.setenv("SHEFFER_ORDER", "20")
    monkeypatch.setenv("SHEFFER_TOL", "1e-6")
    args = build_parser().parse_args(["verify"])
    cfg = config_from(args)
    assert cfg.order == 20
    assert cfg.tol == 1e-6


def test_config_flag_beats_env(monkeypatch):
    monkeypatch.setenv("SHEFFER_ORDER", "20")
    args = build_parser().parse_args(["list", "--order", "8"])
    assert config_from(args).order == 8


_MATRIX_ELEMENT = ("matrix-element", "--family", "hermite", "--z", "0.1", "--zp", "0.1",
                   "--lambda", "0.05")
# the setting flags each subcommand takes; every other setting flag is refused
SUBCOMMAND_SETTINGS = {
    ("list",): {"--order", "--format"},
    ("gen", "--family", "hermite", "--n", "2"): {"--format"},
    ("normal-order", "--family", "bell"): {"--lambda-order", "--a-order", "--format"},
    _MATRIX_ELEMENT: {"--order", "--cutoff", "--tol", "--format"},
    ("verify",): {"--order", "--lambda-order", "--a-order", "--cutoff", "--tol", "--format",
                  "--draws", "--seed"},
}
SETTING_VALUES = {"--order": "12", "--lambda-order": "4", "--a-order": "5", "--cutoff": "48",
                  "--tol": "1e-6", "--format": "csv", "--draws": "3", "--seed": "11"}


@pytest.mark.parametrize("argv", SUBCOMMAND_SETTINGS, ids=lambda argv: argv[0])
def test_each_subcommand_takes_only_the_settings_it_reads(capsys, argv):
    accepted = set()
    for flag, value in SETTING_VALUES.items():
        try:
            build_parser().parse_args([*argv, flag, value])
        except SystemExit as exc:
            assert exc.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        else:
            accepted.add(flag)
    assert accepted == SUBCOMMAND_SETTINGS[argv]


def test_a_setting_flag_the_subcommand_does_not_read_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["gen", "--family", "hermite", "--n", "2", "--cutoff", "64"])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [("list",), ("gen", "--family", "hermite", "--n", "2"),
     ("normal-order", "--family", "bell", "--lambda-order", "2", "--a-order", "2"),
     _MATRIX_ELEMENT],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("env", ["SHEFFER_CUTOFF=16", "SHEFFER_TOL=5", "SHEFFER_DRAWS=0"])
def test_a_variable_the_subcommand_does_not_read_is_ignored(capsys, monkeypatch, argv, env):
    monkeypatch.setenv(*env.split("="))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)


@pytest.mark.parametrize("env", ["SHEFFER_CUTOFF=16", "SHEFFER_TOL=5"])
def test_matrix_element_fock_check_reads_the_fock_variables(capsys, monkeypatch, env):
    # without --fock-check they are ignored (the test above)
    monkeypatch.setenv(*env.split("="))
    code, out, err = run_cli(capsys, *_MATRIX_ELEMENT, "--fock-check")
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("flag, env", [(("--seed", "-1"), None), ((), "SHEFFER_SEED=-3")],
                         ids=["flag", "variable"])
def test_negative_seed_is_a_usage_error(capsys, monkeypatch, flag, env):
    if env:
        monkeypatch.setenv(*env.split("="))
    code, out, err = run_cli(capsys, "verify", "commutator", *flag)
    assert (code, out) == (2, "")
    assert err.startswith("error: seed must be non-negative")


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(order=0)
    with pytest.raises(ValueError):
        RunConfig(tol=2.0)
    assert RunConfig(cutoff=1024).cutoff == 1024
    with pytest.raises(ValueError, match="at most 1024"):
        RunConfig(cutoff=1025)


@pytest.mark.parametrize(
    "argv",
    (
        ("list", "--order", "100000000"),
        ("gen", "--family", "hermite", "--n", "100000000"),
        ("normal-order", "--family", "hermite", "--lambda-order", "100000000"),
        ("verify", "--lambda-order", "100000000"),
    ),
    ids=" ".join,
)
def test_a_huge_order_is_a_usage_error(capsys, argv):
    # refused before any series is allocated, not as a MemoryError
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "512" in err
    assert err.count("\n") == 1


def test_order_bound_admits_its_limit():
    assert RunConfig(order=512, lam_order=512, a_order=512).order == 512
    with pytest.raises(ValueError, match="a_order must be at most 512"):
        RunConfig(a_order=513)


# -- commands ----------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_in_process(*argv):
    """(exit code, stdout, stderr) of ``main``, a usage error from the parser included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_gen_family_hermite(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "hermite", "--n", "3", "--coeffs")
    assert code == 0
    rows = json.loads(out)
    assert rows[3]["coeffs"] == ["0", "-12", "0", "8"]
    assert rows[3]["poly"] == "8*x^3 - 12*x"


def test_gen_custom_monomials(capsys):
    code, out, _ = run_cli(capsys, "gen", "--f", "x", "--g", "1", "--n", "4")
    assert code == 0
    rows = json.loads(out)
    assert [r["poly"] for r in rows] == ["1", "x", "x^2", "x^3", "x^4"]


def test_gen_warns_when_rescaling_g(capsys):
    code, out, err = run_cli(capsys, "gen", "--f", "x", "--g", "2+x", "--n", "1")
    assert code == 0
    assert "rescaled" in err


def test_gen_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "gen", "--family", "bell", "--n", "2", "--coeffs", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["family", "n", "poly", "coeffs"]
    assert rows[3][1] == "2"


def test_list_schema(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    entries = json.loads(out)
    assert [e["label"] for e in entries] == [
        "hermite", "laguerre", "bessel", "bell", "lower_factorial", "hahn", "idempotent"
    ]
    for entry in entries:
        assert set(entry) == {
            "label", "f_coeffs", "g_coeffs", "guard_radius", "z_guard", "lam_guard", "notes"
        }
    bessel = entries[2]
    assert bessel["f_coeffs"][1] == "1" and bessel["f_coeffs"][2] == "-1/2"
    assert bessel["guard_radius"] == 0.5


def test_normal_order_dump(capsys):
    code, out, _ = run_cli(
        capsys, "normal-order", "--family", "bell", "--lambda-order", "2", "--a-order", "3"
    )
    assert code == 0
    rows = json.loads(out)
    assert {"adag": 1, "a": 1, "lambda_poly": ["0", "1", "1/2"]} in rows
    assert all(set(r) == {"adag", "a", "lambda_poly"} for r in rows)


def test_verify_single_suite_exits_zero(capsys):
    code, out, err = run_cli(capsys, "verify", "monomiality", "--family", "hermite")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["failed"] == 0
    assert all(row["suite"] == "monomiality" for row in payload["rows"])


def _suite_calls():
    """(builder, names of the arguments it gets) for each suite builder ``cli._SUITES`` calls."""
    tree = ast.parse(Path(cli.__file__).read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "_SUITES" for t in node.targets))
    for node in ast.walk(table):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and getattr(node.func.value, "id", None) == "suites"):
            args = [getattr(arg, "attr", getattr(arg, "id", None)) for arg in node.args]
            yield node.func.attr, args + [kw.arg for kw in node.keywords]


def test_each_suite_builder_takes_exactly_what_the_cli_passes():
    calls = dict(_suite_calls())
    assert len(calls) == 10
    for name, args in calls.items():
        parameters = inspect.signature(getattr(suites, name)).parameters
        assert list(parameters) == args, name
        # a default would be a second copy of RunConfig's
        assert all(p.default is inspect.Parameter.empty for p in parameters.values()), name


def test_verify_summary_reports_suite_seconds_on_stderr(capsys):
    code, out, err = run_cli(capsys, "verify", "evolution")
    assert code == 0
    assert re.fullmatch(r"verify: \d+ checks, 0 failed \(evolution \d+\.\d\d s\)\n", err)
    assert "checks," not in out
    assert set(json.loads(out)) == {"suites", "families", "rows", "checked", "failed", "pass"}


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "evolution", "--format", "csv"
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header.split(",")[:3] == ["suite", "family", "identity"]


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    from sheffer import suites as suites_mod

    def broken(label, order=16, depth=12):
        return [{"family": label, "identity": "raise", "n": 0, "pass": False}]

    monkeypatch.setattr(suites_mod, "monomiality_rows", broken)
    code, out, _ = run_cli(capsys, "verify", "monomiality", "--family", "hermite")
    assert code == 1
    assert json.loads(out)["failed"] > 0


def test_verify_family_and_all_together_are_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "heat", "--family", "bell", "--all"])
    assert info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_verify_unknown_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "monomiality", "--family", "nosuch"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "nosuch" in err
    assert "hermite" in err  # the usage error lists the known labels


def test_gen_domain_error_exit_three(capsys):
    code, _, err = run_cli(capsys, "gen", "--f", "log(x)", "--g", "1", "--n", "2")
    assert code == 3
    assert "log" in err


def test_gen_syntax_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "gen", "--f", "x +", "--g", "1", "--n", "2")
    assert code == 2


@pytest.mark.parametrize("text, position, message", [
    ("", 0, "unexpected end of input"),
    ("(x", 2, "expected ')', found end of input"),
    ("x +", 3, "unexpected end of input"),
    ("exp", 3, "expected '(', found end of input"),
    ("x^", 2, "expected an integer exponent, found end of input"),
    ("x^-", 3, "expected an integer exponent, found end of input"),
    ("2 3", 2, "unexpected trailing input '3'"),
    ("x^²", 2, "unexpected character '²'"),
    ("9" * 5_000, 0, "integer literal of 5000 digits is too long"),
    ("exp(" * 101 + "x" + ")" * 101, 400, "expression nested more than 100 levels deep"),
], ids=["empty", "open", "plus", "exp", "caret", "caret-minus", "two-numbers", "superscript",
        "long-literal", "nested-101"])
def test_malformed_spec_is_one_positioned_usage_error(capsys, text, position, message):
    code, out, err = run_cli(capsys, "gen", "--f", text, "--g", "1", "--n", "2")
    assert (code, out) == (2, "")
    assert err == f"error: at position {position}: {message}\n"


@pytest.mark.parametrize("depth", [200, 10_000])
def test_deeply_nested_spec_is_a_positioned_parse_error(capsys, depth):
    text = "(" * depth + "x" + ")" * depth
    with pytest.raises(ParseError) as info:
        parse_series(text, 4)
    assert 0 < info.value.position < depth
    code, out, err = run_cli(capsys, "gen", "--f", text, "--g", "1", "--n", "2")
    assert code == 2
    assert out == ""
    assert "nested" in err and "position" in err


@pytest.mark.parametrize("text, expected", [
    ("+".join(["x"] * 5_000), TruncatedSeries.x(4) * 5_000),
    ("-" * 10_000 + "x", TruncatedSeries.x(4)),
    ("x" + "^1" * 5_000, TruncatedSeries.x(4)),
], ids=["sum", "signs", "powers"])
def test_long_chains_without_parentheses_parse(text, expected):
    # chains, sign runs and power runs are read in loops: only nesting is bounded
    assert parse_series(text, 4) == expected


def test_calls_nested_past_the_limit_are_parse_errors():
    with pytest.raises(ParseError, match="nested more than 100 levels deep"):
        parse_series("exp(" * 300 + "x" + ")" * 300, 4)


def _nested_calls(depth: int) -> str:
    return "inv(" * depth + "x" + ")" * depth


def _nested_parentheses(depth: int) -> str:
    return "(" * depth + "x" + ")" * depth


def test_nesting_within_the_limit_parses():
    x = TruncatedSeries.x(3)
    assert parse_series(_nested_parentheses(90), 3) == x
    assert parse_series("-" * 99 + "x", 3) == -x
    assert parse_series("-+-x", 3) == parse_series("-(-x)", 3) == x
    # the limit counts parentheses and calls: 100 of either parse, 101 do not
    assert parse_series(_nested_calls(100), 3) == x
    assert parse_series(_nested_parentheses(100), 3) == x
    for text, innermost in ((_nested_calls(101), 400), (_nested_parentheses(101), 100)):
        with pytest.raises(ParseError, match="nested") as info:
            parse_series(text, 3)
        assert info.value.position == innermost


def test_gen_negative_degree_exit_two(capsys):
    code, out, err = run_cli(capsys, "gen", "--family", "hermite", "--n", "-1")
    assert code == 2
    assert out == ""
    assert "--n" in err


def test_bad_env_value_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("SHEFFER_ORDER", "abc")
    code, out, err = run_cli(capsys, "list")
    assert code == 2
    assert out == ""
    assert "SHEFFER_ORDER" in err
    assert "abc" in err


@pytest.fixture
def refuse_fock_space(monkeypatch):
    """Fail any FockSpace construction, so a missing cutoff ceiling allocates nothing."""

    def refuse(self, dim):
        raise AssertionError(f"FockSpace({dim}) was built")

    monkeypatch.setattr(fock.FockSpace, "__init__", refuse)


def test_cutoff_above_the_ceiling_is_a_usage_error(capsys, monkeypatch, refuse_fock_space):
    code, out, err = run_cli(
        capsys, "verify", "coherent", "--family", "hermite", "--draws", "1", "--cutoff", "100000"
    )
    assert (code, out) == (2, "")
    assert "cutoff must be at most 1024" in err
    monkeypatch.setenv("SHEFFER_CUTOFF", "100000")
    code, out, err = run_cli(
        capsys, "matrix-element", "--family", "hermite", "--z", "0.1", "--zp", "0.1",
        "--lambda", "0.05", "--fock-check",
    )
    assert (code, out) == (2, "")
    assert "cutoff must be at most 1024" in err


@pytest.mark.parametrize("flag, env", [(("--draws", "100000000"), None),
                                       ((), "SHEFFER_DRAWS=1001")], ids=["flag", "variable"])
def test_draws_above_the_ceiling_is_a_usage_error(capsys, monkeypatch, refuse_fock_space,
                                                  flag, env):
    # refused before any draw: every draw's rows are held until the end
    if env:
        monkeypatch.setenv(*env.split("="))
    code, out, err = run_cli(capsys, "verify", "coherent", "--family", "hermite", *flag)
    assert (code, out) == (2, "")
    assert err.startswith("error: draws must be at most 1000")
    assert err.count("\n") == 1


def test_draws_bound_admits_the_default_and_the_held_out_count():
    assert RunConfig().draws == 10
    assert RunConfig(draws=100).draws == 100
    assert RunConfig(draws=1000).draws == 1000


def test_cutoff_below_the_floor_is_a_usage_error(capsys, refuse_fock_space):
    code, out, err = run_cli(
        capsys, "verify", "coherent", "--family", "hermite", "--draws", "1", "--cutoff", "16"
    )
    assert (code, out) == (2, "")
    assert "cutoff must be at least 32" in err
    code, out, err = run_cli(
        capsys, "matrix-element", "--family", "hermite", "--z", "0.1", "--zp", "0.1",
        "--lambda", "0.05", "--fock-check", "--cutoff", "16",
    )
    assert (code, out) == (2, "")
    assert "cutoff must be at least 32" in err


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["gen", "--family", "nosuch", "--n", "2"])
    assert info.value.code == 2


def test_matrix_element_closed_value(capsys):
    code, out, _ = run_cli(
        capsys,
        "matrix-element", "--family", "hermite",
        "--z", "0.3,0", "--zp", "0,0.2", "--lambda", "0.1,0",
    )
    assert code == 0
    payload = json.loads(out)
    import cmath

    z, zp, lam = 0.3, 0.2j, 0.1
    expected = cmath.exp(lam * (2 * z.conjugate() - zp) - lam**2) * cmath.exp(
        z.conjugate() * zp - abs(z) ** 2 / 2 - abs(zp) ** 2 / 2
    )
    got = complex(*payload["exp_element"])
    assert abs(got - expected) < 1e-12


def test_matrix_element_applies_the_family_guards(capsys):
    # bessel's finv has a branch point at w = 1/2: lambda + f(z') = 0.5 + 0.495
    # lies past it, and z' = 0.9, lambda = 0.5 lie past the family guards
    code, out, err = run_cli(
        capsys,
        "matrix-element", "--family", "bessel",
        "--z", "0.1,0", "--zp", "0.9,0", "--lambda", "0.5,0",
    )
    assert code == 3
    assert out == ""
    assert "guard" in err
    code, out, err = run_cli(
        capsys,
        "matrix-element", "--family", "bessel",
        "--z", "0.1,0", "--zp", "0.1,0", "--lambda", "0.5,0",
    )
    assert code == 3
    assert "|lambda|" in err


@pytest.mark.parametrize("value", ("nan", "inf", "0,nan"))
@pytest.mark.parametrize("flag", ("--z", "--zp", "--lambda"))
def test_matrix_element_rejects_non_finite_arguments(capsys, flag, value):
    args = {"--z": "0.1", "--zp": "0.1", "--lambda": "0.05", flag: value}
    with pytest.raises(SystemExit) as info:
        main(["matrix-element", "--family", "hermite", *(t for kv in args.items() for t in kv)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("z", ("1e200", "1e10,1e10"))
def test_matrix_element_overflow_is_a_guard_error(capsys, z):
    code, out, err = run_cli(
        capsys,
        "matrix-element", "--family", "hermite", "--z", z, "--zp", "0.1", "--lambda", "0.01",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", (
    ("verify", "coherent", "--family", "laguerre", "--order", "170", "--draws", "1"),
    ("matrix-element", "--family", "laguerre", "--z", "0.1", "--zp", "0.1",
     "--lambda", "0.05", "--order", "170", "--fock-check"),
), ids=" ".join)
def test_exact_data_past_float_range_is_a_guard_error(capsys, argv):
    # at order 170 laguerre's chains M^k x^l have coefficients past 1.8e308,
    # so rounding them to complex overflows inside the closed forms
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


_VERIFY_SUITES = ("monomiality", "commutator", "normal-order", "coherent", "heat", "hkdf",
                  "evolution")


@pytest.mark.parametrize("suite", _VERIFY_SUITES)
def test_every_suite_raises_a_low_order_to_its_floor(capsys, suite):
    # each suite builds its pairs at no less than the order its checks need,
    # so a lower --order prints the default's bytes
    argv = ("verify", suite, "--family", "hermite", "--draws", "1")
    default = run_cli(capsys, *argv)
    low = run_cli(capsys, *argv, "--order", "4")
    assert default[0] == low[0] == 0
    assert low[1] == default[1]


_DEFAULT_ORDER_RUNS = {
    "gen": ("gen", "--family", "laguerre", "--n", "5", "--coeffs"),
    "normal-order": ("normal-order", "--family", "bell", "--lambda-order", "2", "--a-order", "3"),
    "matrix-element": _MATRIX_ELEMENT,
}


@pytest.mark.parametrize("argv", _DEFAULT_ORDER_RUNS.values(), ids=list(_DEFAULT_ORDER_RUNS))
def test_a_command_whose_output_has_no_truncation_ignores_the_order_variable(
    capsys, monkeypatch, argv
):
    default = run_cli(capsys, *argv)
    monkeypatch.setenv("SHEFFER_ORDER", "abc")
    assert run_cli(capsys, *argv) == default
    assert default[0] == 0


@pytest.mark.parametrize("argv", [("list",), ("verify", "evolution"),
                                  (*_MATRIX_ELEMENT, "--fock-check")], ids=" ".join)
def test_a_command_that_truncates_at_the_order_reads_its_variable(capsys, monkeypatch, argv):
    monkeypatch.setenv("SHEFFER_ORDER", "abc")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: SHEFFER_ORDER='abc'")


@pytest.fixture
def built_orders(monkeypatch):
    """The orders of every catalog pair built, through each module that builds one."""
    from sheffer import catalog, suites

    orders = []
    build = catalog.family

    def recording(label, order=16):
        orders.append(order)
        return build(label, order)

    monkeypatch.setattr(catalog, "family", recording)
    monkeypatch.setattr(suites, "family", recording)
    return orders


@pytest.mark.parametrize("argv, top", [
    (("verify", "monomiality"), 16),
    (("verify", "commutator"), 16),
    (("verify", "heat"), 16),
    (("verify", "hkdf"), 16),
    (("verify", "normal-order", "--lambda-order", "12", "--a-order", "16"), 29),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else str(value))
def test_an_exact_suite_builds_at_the_order_its_checks_need(capsys, built_orders, argv, top):
    default = run_cli(capsys, *argv)
    high = run_cli(capsys, *argv, "--order", "128")
    assert built_orders and max(built_orders) == top
    assert high[:2] == default[:2]
    assert default[0] == 0


@settings(max_examples=20, deadline=None)
@given(st.one_of(st.sampled_from(FAMILY_LABELS), strat.sheffer_pairs(6)), st.integers(0, 8))
def test_gen_rows_are_the_sequence_at_any_higher_order(source, n):
    def spec(series):
        return " + ".join(f"({c.numerator}/{c.denominator})*x^{k}"
                          for k, c in enumerate(series.coeffs) if c)

    def at(series, order):
        return TruncatedSeries.from_coeffs(series.coeffs, order)

    if isinstance(source, str):
        argv = ("--family", source)
        pair = family(source, n + 17).pair
    else:
        argv = ("--f", spec(source.f), "--g", spec(source.g))
        pair = ShefferPair(at(source.f, n + 17), at(source.g, n + 17))
    code, out, _ = run_in_process("gen", *argv, "--n", str(n), "--coeffs")
    assert code == 0
    seq = sequence_via_egf(pair, n)
    assert [(row["poly"], row["coeffs"]) for row in json.loads(out)] == [
        (str(seq.poly(k)), [str(c) for c in sheffer_coeffs(seq, k)]) for k in range(n + 1)
    ]


# -- the exit-code contract --------------------------------------------------------

# text of each setting's value: valid ones, kept small, and ones RunConfig refuses
_GOOD_SETTING = {
    "order": st.integers(1, 20).map(str),
    "lam_order": st.integers(1, 4).map(str),
    "a_order": st.integers(1, 5).map(str),
    "cutoff": st.integers(32, 64).map(str),
    "tol": st.sampled_from(["1e-8", "1e-6", "0.5"]),
    "fmt": st.sampled_from(["json", "csv"]),
    "draws": st.integers(1, 2).map(str),
    "seed": st.integers(0, 2**64).map(str),
}
_BAD_ORDERS = ("0", "-3", "513", "100000000")
_BAD_SETTING = {
    "order": _BAD_ORDERS, "lam_order": _BAD_ORDERS, "a_order": _BAD_ORDERS,
    "cutoff": ("16", "1025"), "tol": ("0", "1", "nan", "inf"), "fmt": ("xml",),
    "draws": ("0", "1001"), "seed": ("-1",),
}
_POINT = st.one_of(
    st.complex_numbers(max_magnitude=1.2).map(lambda c: f"{c.real!r},{c.imag!r}"),
    st.sampled_from(("2", "1e10,1e10", "1e308", "-1e-320", "nan", "0,inf", "1,2,3", "abc")),
)


def _subcommand_settings() -> dict:
    """Each subcommand's setting names, read off the parser it builds."""
    (subcommands,) = build_parser()._subparsers._group_actions
    return {
        name: [action.dest for action in sub._actions if action.dest in _SETTINGS]
        for name, sub in subcommands.choices.items()
    }


def _flag(flag: str, values):
    """``flag`` and a value drawn from ``values``, written ``--flag=value`` or as two words."""
    return st.tuples(values, st.booleans()).map(
        lambda t: [f"{flag}={t[0]}"] if t[1] else [flag, t[0]])


def _settings(names, good_only: bool):
    def value(name):
        good = _GOOD_SETTING[name]
        return good if good_only else st.one_of(good, st.sampled_from(_BAD_SETTING[name]))

    return st.lists(st.sampled_from(names), unique=True).flatmap(
        lambda chosen: st.tuples(*(_flag(_SETTINGS[name][0], value(name)) for name in chosen))
    ).map(lambda words: [word for pair in words for word in pair])


def _expressions(depth: int = 3):
    """Series-spec text over the whole grammar, nested at most ``depth`` levels."""
    leaf = st.one_of(st.integers(0, 9).map(str), st.just("x"))
    if not depth:
        return leaf
    inner = _expressions(depth - 1)
    return st.one_of(
        leaf,
        # chains longer than the nesting limit, which counts only parentheses and calls
        st.tuples(st.sampled_from("+-*/"), st.integers(101, 400)).map(
            lambda t: f" {t[0]} ".join(["x"] * t[1])),
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda text: f"-{text}"),
        st.tuples(inner, st.integers(-2, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(list(_FUNCTION_EVAL)), inner).map(lambda t: f"{t[0]}({t[1]})"),
    )


_SOURCE = st.one_of(
    st.sampled_from(FAMILY_LABELS).map(lambda label: ["--family", label]),
    st.tuples(
        _flag("--f", st.one_of(
            st.sampled_from(("x", "log(1+x)", "x - x^2/2", "inv(x*exp(x))")), _expressions())),
        _flag("--g", st.one_of(st.sampled_from(("1", "exp(x)", "(1-x)^-2")), _expressions())),
    ).map(lambda fg: [*fg[0], *fg[1]]),
)


def _argv(command: str, names: list):
    # a value is written --flag=value or as its own word, also one starting with "-"
    flags = st.booleans().flatmap(lambda good: _settings(names, good or command == "verify"))
    if command == "list":
        head = st.just([])
    elif command == "gen":
        degree = st.integers(-1, 9).map(lambda n: str(100_000_000 if n == 9 else n))
        head = st.tuples(_SOURCE, _flag("--n", degree), st.booleans()).map(
            lambda t: [*t[0], *t[1], *(["--coeffs"] if t[2] else [])])
    elif command == "normal-order":
        head = _SOURCE
    elif command == "matrix-element":
        head = st.tuples(st.sampled_from(FAMILY_LABELS), _flag("--z", _POINT),
                         _flag("--zp", _POINT), _flag("--lambda", _POINT), st.booleans()).map(
            lambda t: ["--family", t[0], *t[1], *t[2], *t[3],
                       *(["--fock-check"] if t[4] else [])])
    else:  # one suite on one family keeps a draw short
        head = st.tuples(st.sampled_from(_SUITE_NAMES), st.sampled_from(FAMILY_LABELS)).map(
            lambda t: [t[0], "--family", t[1]])
    return st.tuples(head, flags).map(lambda t: [command, *t[0], *t[1]])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_subcommand_settings().items())).flatmap(lambda item: _argv(*item)))
def test_every_command_keeps_the_exit_code_contract(argv):
    # valid settings only for verify, whose exit 1 means a failed check
    code, out, err = run_in_process(*argv)
    assert code in ({0, 1, 3} if argv[0] == "verify" else {0, 2, 3})
    errors = [line for line in err.splitlines() if "error:" in line]
    if code in (2, 3):
        assert out == ""
        assert len(errors) == 1
    else:
        assert not errors


def test_a_value_that_starts_with_a_minus_sign_is_the_flags_value(capsys):
    # argparse alone reads "-0.2,0.1" and "-x" as flags and leaves --zp and --f without a value
    code, out, err = run_cli(capsys, "matrix-element", "--family", "hermite", "--z", "0.1",
                             "--zp", "-0.2,0.1", "--lambda", "0.05")
    assert code == 0, err
    assert json.loads(out)["zp"] == [-0.2, 0.1]
    code, out, err = run_cli(capsys, "gen", "--f", "-x", "--g", "1", "--n", "2")
    assert code == 0, err
    assert [row["poly"] for row in json.loads(out)] == ["1", "-x", "x^2"]


@pytest.mark.parametrize("argv", [
    ("verify", "coherent", "--family", "hahn", "--tol", "0.5", "--draws", "1"),
    ("verify", "coherent", "--family", "laguerre", "--tol=0.5", "--seed=403584"),
], ids=" ".join)
def test_the_adjudication_does_not_hang_on_the_tolerance(capsys, argv):
    # at --tol 0.5 both printed variants lie within the tolerance of the Fock value
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    (row,) = [row for row in json.loads(out)["rows"] if "decision" in row]
    assert row["decision"] in ("arctan_lambda_plus_tan", "n_factorial_L_n")


def test_matrix_element_fock_check(capsys):
    code, out, _ = run_cli(
        capsys,
        "matrix-element", "--family", "bell",
        "--z", "0.4,0.1", "--zp", "0.2,-0.3", "--lambda", "0.05,0.02",
        "--fock-check",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fock"]["pass"] is True
    assert payload["fock"]["max_rel_err"] <= 1e-8


# stdout sha256 of commands whose bytes must not change when the code is
# reorganised; recorded before the sparse-container refactor
# The six pins that run the Fock verifier (the coherent suite, ``verify``
# and ``matrix-element --fock-check``) were re-recorded when each family's
# draws became one block: only the float fields max_abs_err, max_rel_err and
# tail_estimate moved, max_rel_err by at most 2.6e-13.
GOLDEN_STDOUT = {
    ("gen", "--family", "hahn", "--n", "12", "--coeffs"):
        "e3f172e815aa5847e2f95a2155e7431a551bba1847ff41a6ce88922c4013a496",
    ("normal-order", "--family", "bell", "--lambda-order", "4", "--a-order", "6"):
        "879e11be9de90f3e1e074b247bf02241223afcd321ce478c110af7519dab99b9",
    ("verify", "heat", "--family", "laguerre"):
        "540a128b55e856d775c901f00e172d3147a59d5223badbf4f01c6c8e72a7d89c",
    ("verify", "hkdf", "--family", "bessel"):
        "aba62b97c5b53543619f3458ceeb8dcd5292326dbabf5801a0f90561431a823b",
    # below every suite's order floor: the same bytes as the default order
    ("verify", "hkdf", "--family", "bessel", "--order", "4"):
        "aba62b97c5b53543619f3458ceeb8dcd5292326dbabf5801a0f90561431a823b",
    # recorded before the swap oracle was memoised and normal_order_lhs
    # became the X-linear right product
    ("verify", "commutator", "--seed", "7"):
        "bd747e9b3ae5e3ccfde9d1febf54082f73ff281f773ca6bc2dcf8590347c82da",
    ("verify", "normal-order", "--family", "idempotent", "--lambda-order", "12", "--a-order", "16"):
        "531ef5a62aa7abf979ad0dc28cd6fe5439f9598ba0ef42badd78744cc17c4cbe",
    # recorded before the two-variable operators took the one Weyl product
    ("verify", "hkdf", "--seed", "7"):
        "e172dd6e18e401cc2812224523028204eb4a8b7e4a9f571ef782ad3feeac89e1",
    ("verify", "evolution", "--seed", "7"):
        "c255fc0c56033b7ac0599c5ddf1cb967ded04e7016d51ff2a79668bb6dc63fa0",
    # recorded before the run settings and the verify suites became tables
    ("list",):
        "074c8de467953b6e98e4ec3933932f38ffa56df3b9197724e79e43a6a97e7b71",
    ("list", "--format", "csv"):
        "1bb9da6ab4bc379188676a0db91f085c7096e1c089a12fbf50c5b429456958ca",
    ("verify", "monomiality", "--seed", "7"):
        "941f70f5df71dd6e8cd616b77fafede4973b47c28c33d3b9d5a56ff6c5e2ba1c",
    ("verify", "heat", "--seed", "7"):
        "30f3c62720ebafddb71f3b69938247a93026113c6e94ccdfcfe5a000bec2a317",
    ("verify", "evolution", "--format", "csv"):
        "050b412df3411ff20889849ff0b75c531d087c7820a40c8a1e552eb324fbfc8f",
    ("gen", "--f", "x + (1/3)*x^2", "--g", "exp((1/2)*x)", "--n", "8", "--coeffs"):
        "868e9f9e8cdd825d63e93d88ad6acefc581e4e5375622f77c6a5ab4c02101966",
    # recorded before the catalog families became one record each; the second
    # runs the Lambert W map
    ("verify", "coherent", "--seed", "7"):
        "d64cfa4ff94cc9fb7a240456e0f12883b35e449b61d733169db529e21c96ebeb",
    ("matrix-element", "--family", "idempotent", "--z", "0.3,0.1", "--zp", "0,0.1",
     "--lambda", "0.1,0", "--fock-check"):
        "440276179fcf17c6b7d26a242e722d77b486e6195b1f9d4f75bd63fb5d3823ea",
    # recorded before both normal-ordering routes moved onto packed integer
    # rows; the last runs the CLI's Fraction route at depth
    ("verify", "normal-order", "--seed", "7"):
        "38606b4dc989fd1cbc9e5aad9f6590e9d7762f57026040d101eb88779e213af2",
    ("verify", "normal-order", "--family", "lower_factorial", "--lambda-order", "12",
     "--a-order", "16"):
        "5181862b60bc141f6729142bcdac0f2d42e59b99bacb2431f1b6ce0c47c37055",
    ("normal-order", "--family", "hahn", "--lambda-order", "12", "--a-order", "16"):
        "0e2b706f07fc74ffe1a7ef9a60c4a47ff7ba319172f91c5dc85403f673fc4b38",
    # recorded before the closed route, the series route and egf_eval became
    # one ClosedMaps evaluator: a non-default order, and hahn's closed maps
    ("verify", "coherent", "--seed", "20050429", "--order", "20"):
        "a84a2a08a567141f4f364cf1bcb4fee0077d4bccc3ea3daf79656568c235950e",
    ("matrix-element", "--family", "hahn", "--z", "0.4,0.1", "--zp", "0.2,-0.3",
     "--lambda", "0.05,0.02", "--fock-check"):
        "d028dfbe5ba98825a0154be408eab00b944d1b3e982b2aae14db3b1011d112b8",
    # recorded while the draws came from numpy.random; bell's seed 2^32 + 3
    # takes two 32-bit words
    ("verify", "coherent", "--family", "bell", "--seed", "4294967296", "--draws", "3"):
        "579b5544446e252d3123a76756c49c25469b50c9257726039c3bcbe999256136",
    # recorded while json.dump wrote the JSON: all seven suites, the largest payload
    ("verify", "--seed", "7"):
        "24f2a55d7f799c51db231fe38a613e8c311063d5fb9c543ff702242950b5534e",
}


@pytest.mark.parametrize("argv", GOLDEN_STDOUT, ids=" ".join)
def test_stdout_bytes_are_pinned(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


# -- the JSON writer ---------------------------------------------------------------

_JSON_LEAVES = st.one_of(
    st.text(),  # non-ASCII and control characters included
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.floats(),  # nan and the infinities included
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan")]),
    st.booleans(),
    st.none(),
    st.fractions(),  # these two go through default=str
    st.complex_numbers(),
)
_JSON_KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_KEYS, inner, max_size=4),
    ),
    max_leaves=20,
)


def _emitted(payload) -> str:
    out = io.StringIO()
    _emit(payload, "json", out=out)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_the_json_writer_writes_what_json_writes(payload):
    assert _emitted(payload) == json.dumps(payload, indent=2, default=str) + "\n"


@pytest.mark.parametrize("payload", [{(1, 2): 3}, [{"a": {(): 0}}]], ids=repr)
def test_the_json_writer_refuses_a_key_json_refuses(payload):
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
        json.dumps(payload, indent=2, default=str)
    with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
        _emitted(payload)


class _CountedWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_the_json_writer_streams_a_row_at_a_time():
    # a writer that builds the whole text first raised the peak resident set
    out = _CountedWrites()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["verify", "coherent", "--draws", "2"]) == 0
    rows = json.loads(out.getvalue())["rows"]
    # a row's text in the payload: its separator, then the row two levels deep
    longest = max(len(",\n    " + json.dumps(row, indent=2).replace("\n", "\n    "))
                  for row in rows)
    assert len(out.sizes) > len(rows) > 1
    assert max(out.sizes) <= longest


def test_blas_thread_count_changes_no_stdout_byte():
    # one child pinned to one OpenBLAS thread, one at the library default
    src = str(Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONHASHSEED"] = "0"
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for env in ({**base, "OPENBLAS_NUM_THREADS": "1"}, base):
        result = subprocess.run(
            [sys.executable, "-m", "sheffer", "verify", "coherent", "--seed", "7"],
            env=env, capture_output=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
