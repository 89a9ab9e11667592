from collections import Counter
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import conftest as strat
from sheffer import Polynomial, TruncatedSeries, WeylElement, weyl_mul
from sheffer.suites import reorder_by_swaps

X = WeylElement.x()
D = WeylElement.d()


def test_single_commutator():
    assert weyl_mul(D, X) == WeylElement({(1, 1): 1, (0, 0): 1})


def test_d2_x2_reordering():
    assert weyl_mul(WeylElement.monomial(0, 2), WeylElement.monomial(2, 0)) == WeylElement(
        {(2, 2): 1, (1, 1): 4, (0, 0): 2}
    )


def test_hermite_ladder_commutator():
    m = X.scale(2) - D
    p = D.scale(F(1, 2))
    assert m.commutator(p) == WeylElement({(0, 0): -1})
    assert p.commutator(m) == WeylElement.identity()


def test_commuting_powers():
    assert X.commutator(WeylElement.monomial(2, 0)).is_zero()
    assert D.commutator(X) == WeylElement.identity()


def test_apply_monomial_actions():
    cube = Polynomial.monomial(3)
    assert X.apply(cube) == Polynomial.monomial(4)
    assert D.apply(cube) == Polynomial.monomial(2, 3)
    number = weyl_mul(X, D)
    for n in range(6):
        assert number.apply(Polynomial.monomial(n)) == Polynomial.monomial(n, n)


def test_from_series():
    assert WeylElement.from_series(TruncatedSeries.x(3)) == WeylElement(
        {(0, 0): 0, (0, 1): 1}
    )
    geom = TruncatedSeries.from_coeffs([1, -1], 3).reciprocal()
    assert WeylElement.from_series(geom) == WeylElement(
        {(0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1}
    )
    assert WeylElement.from_series(TruncatedSeries.zero(3)).is_zero()


@pytest.mark.parametrize("m", range(7))
@pytest.mark.parametrize("n", range(7))
def test_reordering_matches_swap_oracle(m, n):
    closed = weyl_mul(WeylElement.monomial(0, m), WeylElement.monomial(n, 0))
    assert closed == reorder_by_swaps(m, n)


def ref_reorder_by_swaps(m, n):
    """The unmemoised rewriting loop: every word path is walked separately."""
    words = Counter({("D",) * m + ("X",) * n: F(1)})
    result = {}
    while words:
        word, coeff = words.popitem()
        for idx in range(len(word) - 1):
            if word[idx] == "D" and word[idx + 1] == "X":
                swapped = word[:idx] + ("X", "D") + word[idx + 2 :]
                words[swapped] += coeff
                dropped = word[:idx] + word[idx + 2 :]
                words[dropped] += coeff
                break
        else:
            key = (word.count("X"), word.count("D"))
            result[key] = result.get(key, F(0)) + coeff
    return WeylElement(result)


def test_memoised_swap_oracle_matches_the_unmemoised_loop():
    shared = {}
    for m in range(7):
        for n in range(7):
            ref = ref_reorder_by_swaps(m, n)
            assert reorder_by_swaps(m, n, shared) == ref
            assert reorder_by_swaps(m, n) == ref


def test_memoised_swap_oracle_keeps_integer_coefficients():
    memo = {}
    reorder_by_swaps(5, 4, memo)
    assert "DDDDDXXXX" in memo and "D" in memo
    assert all(type(c) is int for form in memo.values() for c in form.values())


def test_swap_oracle_matches_closed_form_up_to_degree_10():
    memo = {}
    for m in range(11):
        for n in range(11):
            closed = weyl_mul(WeylElement.monomial(0, m), WeylElement.monomial(n, 0))
            assert reorder_by_swaps(m, n, memo) == closed


_small_weyl = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    strat.rationals,
    max_size=4,
).map(WeylElement)


@settings(max_examples=30)
@given(_small_weyl, _small_weyl, _small_weyl)
def test_weyl_mul_associative(u, v, w):
    assert weyl_mul(weyl_mul(u, v), w) == weyl_mul(u, weyl_mul(v, w))


_small_poly = st.lists(strat.rationals, max_size=5).map(Polynomial.from_coeffs)


@settings(max_examples=30)
@given(_small_weyl, _small_weyl, _small_poly)
def test_apply_is_algebra_action(u, v, p):
    assert weyl_mul(u, v).apply(p) == u.apply(v.apply(p))
