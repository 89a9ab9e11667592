"""Fraction-free product kernels against the plain Fraction loops they replace.

Each reference below is the straightforward loop that builds and reduces a
`Fraction` per multiply-add term. The kernels must agree with it exactly
(``==``), including dict key order for Weyl products, on zero, negative and
large-denominator coefficients and on operands shorter than the truncation.
"""

from fractions import Fraction as F
from math import comb, factorial

import hypothesis.strategies as st
from hypothesis import given, settings

import conftest as strat
from sheffer import Polynomial, ShefferSequence, TruncatedSeries, WeylElement, family, weyl_mul
from sheffer.normord import _Bivar
from sheffer.sequences import sequence_via_egf
from sheffer.series import _kcompose, _kinverse, _kmul, _krecip

_ZERO = F(0)

# zeros, small signed rationals and rationals with ~100-bit denominators
coefficients = st.one_of(
    st.just(_ZERO),
    strat.rationals,
    st.builds(F, st.integers(-(2**80), 2**80), st.integers(1, 2**100)),
)


def ref_kmul(a, b, n, zero):
    out = [zero] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: n + 1 - i]):
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def ref_kcompose(outer, inner, n, zero):
    out = [zero] * (n + 1)
    for c in reversed(outer[: n + 1]):
        out = ref_kmul(out, inner, n, zero)
        out[0] = out[0] + c
    return out


def ref_weyl_mul(u, v):
    out = {}
    for (i1, j1), c1 in u.terms.items():
        for (i2, j2), c2 in v.terms.items():
            c = c1 * c2
            for k in range(min(j1, i2) + 1):
                w = c * (factorial(k) * comb(j1, k) * comb(i2, k))
                key = (i1 + i2 - k, j1 + j2 - k)
                s = out.get(key, _ZERO) + w
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return WeylElement(out)


def ref_bivar_mul(x, y):
    out = _Bivar.zeros(x.k, x.j)
    for p1 in range(x.k + 1):
        row = x.grid[p1]
        for q1 in range(x.j + 1):
            c = row[q1]
            if not c:
                continue
            for p2 in range(x.k + 1 - p1):
                orow = y.grid[p2]
                target = out.grid[p1 + p2]
                for q2 in range(x.j + 1 - q1):
                    if orow[q2]:
                        target[q1 + q2] = target[q1 + q2] + c * orow[q2]
    return out


def ref_sequence_via_egf(pair, n_max):
    h = pair.f.comp_inverse()
    prefactor = pair.g.compose(h).reciprocal()
    expansion = [Polynomial.one()]
    for m in range(1, n_max + 1):
        acc = Polynomial.zero()
        for k in range(1, m + 1):
            hk = h.coeffs[k]
            if hk:
                acc = acc + Polynomial.monomial(1, hk * k) * expansion[m - k]
        expansion.append(acc.scale(F(1, m)))
    polys = []
    for n in range(n_max + 1):
        gn = Polynomial.zero()
        for k in range(n + 1):
            rk = prefactor.coeffs[k]
            if rk:
                gn = gn + expansion[n - k].scale(rk)
        polys.append(gn.scale(factorial(n)))
    return ShefferSequence(tuple(polys), pair)


# -- univariate product and what is built on it -----------------------------------


@settings(max_examples=150, deadline=None)
@given(
    st.lists(coefficients, max_size=12),
    st.lists(coefficients, max_size=12),
    st.integers(0, 10),
)
def test_kmul_matches_fraction_loop(a, b, n):
    out = _kmul(a, b, n, _ZERO)
    assert out == ref_kmul(a, b, n, _ZERO)
    assert len(out) == n + 1
    assert all(type(c) is F for c in out)


@settings(max_examples=60, deadline=None)
@given(st.lists(coefficients, min_size=1, max_size=8), st.lists(coefficients, max_size=8))
def test_kcompose_matches_fraction_loop(outer, inner_tail):
    inner = [_ZERO] + inner_tail
    n = len(outer) - 1
    assert _kcompose(outer, inner, n, _ZERO) == ref_kcompose(outer, inner, n, _ZERO)


@settings(max_examples=40, deadline=None)
@given(strat.unit_lead_series(8))
def test_kinverse_is_the_exact_inverse(f):
    finv = _kinverse(list(f.coeffs), f.order, _ZERO, F(1))
    x = [_ZERO, F(1)] + [_ZERO] * (f.order - 1)
    assert ref_kcompose(list(f.coeffs), finv, f.order, _ZERO) == x
    assert ref_kcompose(finv, list(f.coeffs), f.order, _ZERO) == x


@settings(max_examples=60, deadline=None)
@given(st.lists(coefficients, max_size=10), st.lists(coefficients, max_size=10), st.integers(0, 8))
def test_series_product_matches_fraction_loop(a, b, n):
    sa = TruncatedSeries.from_coeffs(a, n)
    sb = TruncatedSeries.from_coeffs(b, n)
    assert (sa * sb).coeffs == tuple(ref_kmul(list(sa.coeffs), list(sb.coeffs), n, _ZERO))


# -- the complex field keeps the generic loop --------------------------------------

complex_coeffs = st.builds(
    complex,
    st.floats(-2, 2, allow_nan=False, allow_infinity=False),
    st.floats(-2, 2, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(complex_coeffs, max_size=10),
    st.lists(complex_coeffs, max_size=10),
    st.integers(0, 8),
)
def test_complex_kmul_and_kcompose_match_generic_loop(a, b, n):
    assert _kmul(a, b, n, 0j) == ref_kmul(a, b, n, 0j)
    inner = [0j] + b
    assert _kcompose(a, inner, n, 0j) == ref_kcompose(a, inner, n, 0j)


@settings(max_examples=40, deadline=None)
@given(strat.unit_lead_series(8))
def test_complex_kinverse_matches_generic_loop(f):
    a = [complex(c) for c in f.coeffs]
    n = f.order
    got = _kinverse(a, n, 0j, 1 + 0j)
    assert all(type(c) is complex for c in got)
    # Newton order-doubling on the generic loops
    da = [a[k] * k for k in range(1, len(a))]
    g = [0j, 1 / a[1]]
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        g = g + [0j] * (prec + 1 - len(g))
        err = ref_kcompose(a, g, prec, 0j)
        err[1] = err[1] - 1
        slope = ref_kcompose(da, g, prec, 0j)
        corr = ref_kmul(err, _krecip(slope, prec, 0j, 1 + 0j), prec, 0j)
        g = [g[k] - corr[k] for k in range(prec + 1)]
    assert got == g


# -- Weyl products -----------------------------------------------------------------

weyl_elements = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), coefficients, max_size=6
).map(WeylElement)


@settings(max_examples=150, deadline=None)
@given(weyl_elements, weyl_elements)
def test_weyl_mul_matches_fraction_loop(u, v):
    got = weyl_mul(u, v)
    ref = ref_weyl_mul(u, v)
    assert got == ref
    assert list(got.terms.items()) == list(ref.terms.items())


def test_weyl_mul_with_empty_elements():
    x = WeylElement.monomial(2, 1, F(-3, 7))
    assert weyl_mul(WeylElement(), x).is_zero()
    assert weyl_mul(x, WeylElement()).is_zero()
    assert weyl_mul(WeylElement(), WeylElement()).is_zero()


def test_weyl_mul_cancellation_drops_terms():
    # (1 + XD)(1 - XD) = 1 - X^2 D^2 - XD: the XD term cancels to zero and
    # comes back after X^2 D^2, in the same key order as the Fraction loop
    u = WeylElement({(0, 0): 1, (1, 1): 1})
    v = WeylElement({(0, 0): 1, (1, 1): -1})
    product = weyl_mul(u, v)
    assert product == WeylElement({(0, 0): 1, (2, 2): -1, (1, 1): -1})
    assert list(product.terms) == list(ref_weyl_mul(u, v).terms) == [(0, 0), (2, 2), (1, 1)]


# -- the dense bivariate grid ------------------------------------------------------


@st.composite
def bivar_pairs(draw):
    k = draw(st.integers(0, 3))
    j = draw(st.integers(0, 4))
    grid = st.lists(
        st.lists(coefficients, min_size=j + 1, max_size=j + 1), min_size=k + 1, max_size=k + 1
    )
    return _Bivar(draw(grid), k, j), _Bivar(draw(grid), k, j)


@settings(max_examples=100, deadline=None)
@given(bivar_pairs())
def test_bivar_mul_matches_fraction_loop(xy):
    x, y = xy
    assert (x * y).grid == ref_bivar_mul(x, y).grid


# -- generating-function sequences -------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(strat.sheffer_pairs(8), st.integers(0, 8))
def test_riordan_columns_match_the_expansion(pair, n_max):
    assert sequence_via_egf(pair, n_max).polys == ref_sequence_via_egf(pair, n_max).polys


def test_riordan_columns_match_the_expansion_on_the_catalog():
    for label in ("hermite", "laguerre", "bessel", "bell", "lower_factorial", "hahn",
                  "idempotent"):
        pair = family(label, 20).pair
        assert sequence_via_egf(pair, 20).polys == ref_sequence_via_egf(pair, 20).polys


def test_sequence_via_egf_empty_and_constant():
    pair = family("hermite", 4).pair
    assert sequence_via_egf(pair, -1).polys == ()
    assert sequence_via_egf(pair, 0).polys == (Polynomial.one(),)
