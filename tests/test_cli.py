import csv
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from sheffer import DomainError, ParseError, TruncatedSeries, family
from sheffer.cli import (
    RunConfig,
    build_parser,
    config_from,
    main,
    parse_series,
    parse_spec,
    pretty,
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


@pytest.mark.parametrize(
    "text",
    [
        "x - x^2/2",
        "exp(x^2/4)",
        "1/(1-x)",
        "inv(x*exp(x))",
        "-(x + 3/4)^2 * tan(x)",
        "arctan(x) - sqrt(1+x)/2",
        "sin(x)*cos(x) + 2^3",
    ],
)
def test_pretty_round_trip(text):
    tree = parse_spec(text)
    assert parse_spec(pretty(tree)) == tree


def _ast_trees():
    import hypothesis.strategies as st

    from sheffer.cli import _FUNCTIONS, BinOp, Call, Neg, Num, Pow, Var

    leaves = st.one_of(st.integers(0, 99).map(Num), st.just(Var()))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/"), children, children).map(
                lambda t: BinOp(t[0], t[1], t[2])
            ),
            children.map(Neg),
            st.tuples(children, st.integers(-3, 5)).map(lambda t: Pow(t[0], t[1])),
            st.tuples(st.sampled_from(_FUNCTIONS), children).map(
                lambda t: Call(t[0], t[1])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=60)
@given(_ast_trees())
def test_pretty_round_trip_random_trees(tree):
    assert parse_spec(pretty(tree)) == tree


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
    args = build_parser().parse_args(["list"])
    cfg = config_from(args)
    assert cfg.order == 20
    assert cfg.tol == 1e-6


def test_config_flag_beats_env(monkeypatch):
    monkeypatch.setenv("SHEFFER_ORDER", "20")
    args = build_parser().parse_args(["list", "--order", "8"])
    assert config_from(args).order == 8


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(order=0)
    with pytest.raises(ValueError):
        RunConfig(tol=2.0)


# -- commands ----------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_verify_unknown_family_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "monomiality", "--family", "nosuch")
    assert code == 2
    assert "nosuch" in err


def test_gen_domain_error_exit_three(capsys):
    code, _, err = run_cli(capsys, "gen", "--f", "log(x)", "--g", "1", "--n", "2")
    assert code == 3
    assert "log" in err


def test_gen_syntax_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "gen", "--f", "x +", "--g", "1", "--n", "2")
    assert code == 2


def test_gen_negative_degree_exit_two(capsys):
    code, out, err = run_cli(capsys, "gen", "--family", "hermite", "--n", "-1")
    assert code == 2
    assert out == ""
    assert "--n" in err


def test_bad_env_value_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("SHEFFER_ORDER", "abc")
    code, out, err = run_cli(capsys, "gen", "--family", "hermite", "--n", "2")
    assert code == 2
    assert out == ""
    assert "SHEFFER_ORDER" in err
    assert "abc" in err


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
