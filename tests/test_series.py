import cmath
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import conftest as strat
from sheffer import (
    BadConstantTerm,
    BivariatePolynomial,
    GuardExceeded,
    IndexOutOfRange,
    NonzeroInnerConstant,
    NotInvertible,
    Polynomial,
    TruncatedSeries,
    WeylElement,
    ZeroConstantTerm,
    exp_series,
    log_series,
    sqrt_series,
    tan_series,
)
from sheffer.multivar import BivarOperator


def S(coeffs, order=None):
    return TruncatedSeries.from_coeffs(coeffs, order)


def test_add_mul_basics():
    one_plus = S([1, 1], 3)
    one_minus = S([1, -1], 3)
    assert (one_plus * one_minus).coeffs == (F(1), F(0), F(-1), F(0))
    assert S([0, 0, F(1, 2)], 2).derivative().coeffs == (F(0), F(1))


def test_geometric_times_one_minus_x_is_one():
    geom = S([1] * 6, 5)
    assert (geom * S([1, -1], 5)).coeffs == (F(1),) + (F(0),) * 5


def test_result_order_is_min_of_operands():
    a = S([1, 2, 3], 2)
    b = S([1, 1, 1, 1, 1], 4)
    assert (a + b).order == 2
    assert (a * b).order == 2


def test_scale_and_scalar_mul():
    a = S([1, 2], 3)
    assert a.scale(F(1, 2)).coeffs == (F(1, 2), F(1), F(0), F(0))
    assert (a * 3).coeffs == (F(3), F(6), F(0), F(0))
    assert (F(1, 2) * a) == a.scale(F(1, 2))


def test_floats_rejected_in_symbolic_paths():
    with pytest.raises(TypeError):
        S([0.5, 1])


def test_reciprocal_basics():
    assert TruncatedSeries.one(4).reciprocal().coeffs == (F(1), F(0), F(0), F(0), F(0))
    assert S([1, -1], 4).reciprocal().coeffs == (F(1),) * 5
    with pytest.raises(ZeroConstantTerm):
        TruncatedSeries.x(4).reciprocal()


@settings(max_examples=40)
@given(strat.invertible_series())
def test_reciprocal_multiplies_back_to_one(a):
    product = a * a.reciprocal()
    assert product.coeffs == (F(1),) + (F(0),) * a.order


def test_compose_identity_inner():
    e = exp_series(TruncatedSeries.x(8))
    assert e.compose(TruncatedSeries.x(8)) == e


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(NonzeroInnerConstant):
        TruncatedSeries.x(3).compose(S([1, 1], 3))


def test_compose_geometric_with_moebius():
    # 1/(1-t) composed with x/(x-1) collapses to 1 - x
    outer = S([1, -1], 5).reciprocal()
    inner = TruncatedSeries.x(5) * S([-1, 1], 5).reciprocal()
    assert outer.compose(inner).coeffs == (F(1), F(-1), F(0), F(0), F(0), F(0))


@settings(max_examples=25)
@given(strat.series(6), strat.composable_series(6), strat.composable_series(6))
def test_compose_is_associative(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_comp_inverse_examples():
    assert TruncatedSeries.x(4).comp_inverse() == TruncatedSeries.x(4)
    bessel_f = S([0, 1, F(-1, 2)], 4)
    assert bessel_f.comp_inverse().coeffs == (F(0), F(1), F(1, 2), F(1, 2), F(5, 8))
    lambert = (TruncatedSeries.x(4) * exp_series(TruncatedSeries.x(4))).comp_inverse()
    assert lambert.coeffs == (F(0), F(1), F(-1), F(3, 2), F(-8, 3))


def test_comp_inverse_rejects_bad_leading_terms():
    with pytest.raises(NotInvertible):
        S([1, 1], 3).comp_inverse()
    with pytest.raises(NotInvertible):
        S([0, 0, 1], 3).comp_inverse()


@settings(max_examples=30)
@given(strat.unit_lead_series(8))
def test_comp_inverse_round_trips(a):
    inv = a.comp_inverse()
    x = TruncatedSeries.x(a.order)
    assert a.compose(inv) == x
    assert inv.compose(a) == x


def test_exp_log_sqrt_examples():
    assert exp_series(TruncatedSeries.zero(3)).coeffs == (F(1), F(0), F(0), F(0))
    assert log_series(S([1, 1], 3)).coeffs == (F(0), F(1), F(-1, 2), F(1, 3))
    assert sqrt_series(S([1, -2], 2)).coeffs == (F(1), F(-1), F(-1, 2))


def test_exp_log_constant_term_guards():
    with pytest.raises(BadConstantTerm):
        exp_series(S([1, 1], 3))
    with pytest.raises(BadConstantTerm):
        log_series(S([0, 1], 3))
    with pytest.raises(BadConstantTerm):
        sqrt_series(S([4, 1], 3))


@settings(max_examples=30)
@given(strat.composable_series(8))
def test_exp_log_round_trip(a):
    assert log_series(exp_series(a)) == a
    assert exp_series(log_series(a + 1)) == a + 1


@settings(max_examples=30)
@given(strat.composable_series(8))
def test_sqrt_squares_back(a):
    b = a + 1  # constant term 1
    root = sqrt_series(b)
    assert root * root == b


def test_tan_is_sin_over_cos():
    x = TruncatedSeries.x(7)
    t = tan_series(x)
    assert t.coeffs[:6] == (F(0), F(1), F(0), F(1, 3), F(0), F(2, 15))


def test_eval_complex():
    e = exp_series(TruncatedSeries.x(20))
    assert e.eval_complex(0, 1.0).value == 1
    value, tail = e.eval_complex(0.1, 1.0)
    assert abs(value - cmath.exp(0.1)) < 1e-12
    assert tail < 1e-12
    with pytest.raises(GuardExceeded):
        e.eval_complex(2.0, 1.0)
    with pytest.raises(GuardExceeded):
        e.eval_complex(complex(math.nan, 0.1), 1.0)


# -- polynomials --------------------------------------------------------------


def test_polynomial_canonical_form():
    p = Polynomial.from_coeffs([1, 2, 0, 0])
    assert p.coeffs == (F(1), F(2))
    assert Polynomial.zero().degree == -1
    assert Polynomial.zero().coeffs == ()


def test_polynomial_degree_law():
    p = Polynomial.from_coeffs([1, 2])
    q = Polynomial.from_coeffs([0, 0, F(1, 3)])
    assert (p * q).degree == p.degree + q.degree


def test_polynomial_eval_and_derivative():
    p = Polynomial.from_coeffs([-2, 0, 4])
    assert p(F(1, 2)) == F(-1)
    assert p(1 + 1j) == -2 + 4 * (1 + 1j) ** 2
    assert p.derivative() == Polynomial.from_coeffs([0, 8])


def test_polynomial_padded_row():
    p = Polynomial.from_coeffs([0, 1, 3, 1])
    assert p.padded(3) == (F(0), F(1), F(3), F(1))
    with pytest.raises(Exception):
        p.padded(2)


# -- sparse sums of monomials ------------------------------------------------------


def test_negative_exponents_are_refused():
    # each of these once gave a wrong answer or a raw IndexError
    with pytest.raises(IndexOutOfRange):
        Polynomial.monomial(-1)
    with pytest.raises(IndexOutOfRange):
        WeylElement({(-1, 0): 1}).apply(Polynomial.x())
    with pytest.raises(IndexOutOfRange):
        WeylElement({(0, -1): 1}).apply(Polynomial.x())
    with pytest.raises(IndexOutOfRange):
        BivariatePolynomial({(-1, 2): 1})
    with pytest.raises(IndexOutOfRange):
        BivarOperator({(0, 0, -1, 0): 1})


def test_sparse_containers_reject_floats():
    # a float would be stored as its binary expansion, silently inexact
    for cls, key in (
        (WeylElement, (0, 1)),
        (BivariatePolynomial, (0, 1)),
        (BivarOperator, (0, 1, 0, 0)),
    ):
        with pytest.raises(TypeError):
            cls({key: 0.1})
        with pytest.raises(TypeError):
            cls({key: 1}).scale(0.5)
        assert cls({key: "1/10"}).scale(F(1, 2)) == cls({key: F(1, 20)})
