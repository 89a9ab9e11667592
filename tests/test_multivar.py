from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import conftest as strat
from bivar_reference import ref_bivar_apply, ref_umbral_S

from sheffer import (
    BivariatePolynomial,
    Polynomial,
    ShefferPair,
    TruncatedSeries,
    evolution_solution,
    family,
    heat_check,
    hkdf,
    hkdf_egf_check,
    hkdf_ladder_check,
    pi_recursion,
    theta_pi_check,
    umbral_S,
)
from sheffer import multivar
from sheffer.cli import main
from sheffer.multivar import BivarOperator
from sheffer.sequences import build_M, build_P
from sheffer.suites import rows_pass
from sheffer.weyl import WeylElement, weyl_mul

ALL_LABELS = ("hermite", "laguerre", "bessel", "bell", "lower_factorial", "hahn", "idempotent")


def B(terms):
    return BivariatePolynomial(terms)


def trivial_pair(order=12):
    return ShefferPair(TruncatedSeries.x(order), TruncatedSeries.one(order))


def test_hkdf_values():
    assert hkdf(2, 0) == B({(0, 0): 1})
    assert hkdf(3, 0) == B({(0, 0): 1})
    assert hkdf(2, 2) == B({(2, 0): 1, (0, 1): 2})
    assert hkdf(2, 3) == B({(3, 0): 1, (1, 1): 6})
    assert hkdf(2, 4) == B({(4, 0): 1, (2, 1): 12, (0, 2): 12})


def test_hkdf_validation():
    with pytest.raises(ValueError):
        hkdf(0, 3)
    with pytest.raises(ValueError):
        hkdf(2, -1)


@pytest.mark.parametrize("m", (1, 2, 3))
def test_hkdf_ladder_and_egf(m):
    assert rows_pass(hkdf_ladder_check(m, 10))
    assert rows_pass(hkdf_egf_check(m, 10))


def test_hkdf_m1_collapses_to_binomial():
    rows = hkdf_ladder_check(1, 6)
    oracle_rows = [r for r in rows if r["identity"] == "hkdf_binomial_oracle"]
    assert oracle_rows and all(r["pass"] for r in oracle_rows)


def test_umbral_s_trivial_pair_reduces_to_quadratic_family():
    pair = trivial_pair()
    for n in range(11):
        assert umbral_S(pair, n) == hkdf(2, n)


def test_umbral_s_low_values():
    pair = family("bell", 12).pair
    assert umbral_S(pair, 0) == B({(0, 0): 1})
    assert umbral_S(pair, 2) == B({(2, 0): 1, (1, 0): 1, (0, 1): 2})


def test_heat_equation_by_hand_for_quadratic_family():
    # D_y H_4 = D_x^2 H_4 for H_4 = x^4 + 12 x^2 y + 12 y^2
    h4 = hkdf(2, 4)
    assert h4.derivative("y") == B({(2, 0): 12, (0, 1): 24})
    assert h4.derivative("x").derivative("x") == B({(2, 0): 12, (0, 1): 24})
    assert heat_check(trivial_pair(), 4)["pass"]


def test_heat_equation_degenerate_degrees():
    pair = family("bell", 12).pair
    assert heat_check(pair, 0)["pass"]
    assert heat_check(pair, 1)["pass"]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_heat_equation_all_families(label):
    pair = family(label, 12).pair
    for n in range(9):
        assert heat_check(pair, n)["pass"], (label, n)


def test_commuting_pair_on_monomial_by_hand():
    # trivial pair: Pi = D_x, Theta = x + 2 y D_y; [Pi, Theta] x^2 y = x^2 y
    pair = trivial_pair()
    rows = theta_pi_check(pair, 3)
    comm_rows = [r for r in rows if r["identity"] == "pi_theta_commutator"]
    assert all(r["pass"] for r in comm_rows)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_theta_pi_commutator_all_families(label):
    rows = theta_pi_check(family(label, 12).pair, 4)
    assert rows_pass(rows)
    ladder = [r for r in rows if r["identity"] == "theta_ladder_recorded"]
    assert ladder and all("holds" in r for r in ladder)


def test_theta_pi_check_builds_its_composites_from_one_sequence(monkeypatch):
    calls = []
    original = multivar.sequence_via_egf

    def counted(pair, n):
        calls.append(n)
        return original(pair, n)

    monkeypatch.setattr(multivar, "sequence_via_egf", counted)
    assert rows_pass(theta_pi_check(family("bell", 12).pair, 4))
    assert calls == [5]


def _bivar_operators(pair, depth):
    """The operators the heat and Theta/Pi checks apply: f(D_x), f(D_y), Pi, Theta."""
    f_op = WeylElement.from_series(pair.f.truncate(depth))
    m_op, p_op = build_M(pair, depth), build_P(pair, depth)
    return [
        BivarOperator.in_x(f_op),
        BivarOperator.in_y(f_op),
        BivarOperator.in_x(p_op),
        BivarOperator.in_x(m_op) + BivarOperator.in_y(weyl_mul(m_op, p_op)).scale(2),
    ]


def _assert_integer_kernels_match(pair, n_max, depth):
    ops = _bivar_operators(pair, depth)
    for op in ops:
        assert op.apply(B({})) == B({})
    for n in range(n_max + 1):
        s_n = umbral_S(pair, n)
        assert s_n == ref_umbral_S(pair, n)
        for op in ops:
            assert op.apply(s_n) == ref_bivar_apply(op, s_n)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_integer_bivariate_kernels_match_the_fraction_loops(label):
    _assert_integer_kernels_match(family(label, 12).pair, 8, 8)


@settings(max_examples=25, deadline=None)
@given(strat.sheffer_pairs(8), st.integers(0, 8))
def test_integer_bivariate_kernels_match_on_random_pairs(pair, n_max):
    _assert_integer_kernels_match(pair, n_max, 6)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_heat_rows_from_one_table_are_the_heat_checks(label):
    pair = family(label, 12).pair
    assert multivar._heat_rows(pair, 8) == [heat_check(pair, n) for n in range(9)]


def test_verify_heat_builds_one_sequence_per_family(monkeypatch, capsys):
    calls = []
    original = multivar.sequence_via_egf

    def counted(pair, n):
        calls.append(n)
        return original(pair, n)

    monkeypatch.setattr(multivar, "sequence_via_egf", counted)
    assert main(["verify", "heat", "--seed", "7"]) == 0
    assert calls == [8] * 7


def test_theta_ladder_status_is_recorded_not_asserted():
    # with the literal Theta = M_x + 2 M_y f(D_y) even the trivial pair
    # fails the raising relation on the composites; the rows must record
    # that without failing
    rows = theta_pi_check(trivial_pair(), 3)
    ladder = [r for r in rows if r["identity"] == "theta_ladder_recorded"]
    assert any(not r["holds"] for r in ladder)
    assert all(r["pass"] for r in ladder)


def test_pi_recursion_examples():
    one = Polynomial.one()
    assert pi_recursion(one, 1) == Polynomial.x()
    assert pi_recursion(one, 2) == Polynomial.from_coeffs([0, 1, 1])
    assert pi_recursion(one, 0) == one


@pytest.mark.parametrize(
    "q",
    (
        Polynomial.one(),
        Polynomial.from_coeffs([1, 2]),
        Polynomial.from_coeffs([0, 0, 1, 0, F(1, 3)]),
    ),
)
def test_pi_recursion_matches_operator_powers(q):
    depth = q.degree + 7
    geom = TruncatedSeries.from_coeffs([1] * (depth + 1), depth)
    m_op = weyl_mul(WeylElement.x(), WeylElement.from_series(geom))
    poly = q
    for n in range(1, 7):
        poly = m_op.apply(poly)
        assert pi_recursion(q, n) == poly, n


def test_evolution_solution_low_orders():
    coeffs, agree = evolution_solution(Polynomial.one(), 2)
    assert agree
    assert coeffs[0] == Polynomial.one()
    assert coeffs[1] == Polynomial.x()
    assert coeffs[2] == Polynomial.from_coeffs([F(1, 2), F(1, 2), F(1, 2)])


def test_evolution_solution_zero_order():
    q = Polynomial.from_coeffs([2, 0, 1])
    coeffs, agree = evolution_solution(q, 0)
    assert agree
    assert coeffs == (q,)


@pytest.mark.parametrize(
    "q", (Polynomial.one(), Polynomial.x(), Polynomial.from_coeffs([1, 0, 0, 1]))
)
def test_evolution_routes_agree_to_order_8(q):
    _, agree = evolution_solution(q, 8)
    assert agree


def test_bivar_operator_composition():
    op = BivarOperator({(0, 1, 0, 0): 1})  # D_x
    theta = BivarOperator({(1, 0, 0, 0): 1, (0, 0, 1, 1): 2})  # x + 2 y D_y
    comm = op.commutator(theta)
    mono = BivariatePolynomial.monomial(2, 1)
    assert comm.apply(mono) == mono
