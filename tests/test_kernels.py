"""Fraction-free exact kernels against the plain Fraction loops they replace.

Each reference below is the straightforward loop that builds and reduces a
`Fraction` per multiply-add term. The kernels must agree with it exactly
(``==``), including dict key order for Weyl products, on zero, negative and
large-denominator coefficients and on operands shorter than the truncation.
The per-class printers that the shared sparse-terms printer replaced are
kept here too, and must give the same text.
"""

from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import comb, factorial

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import conftest as strat
from bivar_reference import _Bivar
from sheffer import (
    BivariatePolynomial,
    IndexOutOfRange,
    Polynomial,
    ShefferSequence,
    TruncatedSeries,
    WeylElement,
    family,
    weyl_mul,
)
from sheffer.multivar import BivarOperator
from sheffer.sequences import build_M, sequence_via_egf
from sheffer.series import _iconv, _kcompose, _kinverse, _kmul, _kpack, _krecip, _kunpack, _kwidth

_ZERO = F(0)

# zeros, small signed rationals and rationals with ~100-bit denominators
coefficients = st.one_of(
    st.just(_ZERO),
    strat.rationals,
    st.builds(F, st.integers(-(2**80), 2**80), st.integers(1, 2**100)),
)


def ref_kmul(a, b, n):
    out = [_ZERO] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: n + 1 - i]):
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def ref_krecip(a, n):
    inv0 = F(1) / a[0]
    out = [_ZERO] * (n + 1)
    out[0] = inv0
    for m in range(1, n + 1):
        acc = _ZERO
        for k in range(1, m + 1):
            ak = a[k] if k < len(a) else _ZERO
            if ak:
                acc = acc + ak * out[m - k]
        out[m] = -(acc * inv0)
    return out


def ref_kcompose(outer, inner, n):
    out = [_ZERO] * (n + 1)
    for c in reversed(outer[: n + 1]):
        out = ref_kmul(out, inner, n)
        out[0] = out[0] + c
    return out


def ref_kinverse(a, n):
    # Newton order-doubling on the plain loops
    da = [a[k] * k for k in range(1, len(a))]
    g = [_ZERO, F(1) / a[1]]
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        g = g + [_ZERO] * (prec + 1 - len(g))
        err = ref_kcompose(a, g, prec)
        err[1] = err[1] - 1
        slope = ref_kcompose(da, g, prec)
        corr = ref_kmul(err, ref_krecip(slope, prec), prec)
        g = [g[k] - corr[k] for k in range(prec + 1)]
    return g


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


def ref_bivar_operator_mul(x, y):
    """The two-pair product as a loop of one-pair products, one pair of terms at a time."""
    out = {}
    for (i1, j1, k1, l1), c1 in x.terms.items():
        for (i2, j2, k2, l2), c2 in y.terms.items():
            prod_x = ref_weyl_mul(WeylElement.monomial(i1, j1), WeylElement.monomial(i2, j2))
            prod_y = ref_weyl_mul(WeylElement.monomial(k1, l1), WeylElement.monomial(k2, l2))
            base = c1 * c2
            for (ix, jx), cx in prod_x.terms.items():
                for (iy, jy), cy in prod_y.terms.items():
                    key = (ix, jx, iy, jy)
                    s = out.get(key, _ZERO) + base * cx * cy
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
    return BivarOperator(out)


def ref_apply(element, p):
    out = {}
    for n, c in enumerate(p.coeffs):
        if not c:
            continue
        for (i, j), w in element.terms.items():
            if j > n:
                continue
            power = n + i - j
            ff = factorial(n) // factorial(n - j)
            out[power] = out.get(power, _ZERO) + c * w * ff
    if not out:
        return Polynomial.zero()
    coeffs = [_ZERO] * (max(out) + 1)
    for power, value in out.items():
        coeffs[power] = value
    return Polynomial.from_coeffs(coeffs)


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


def ref_poly_mul(p, q):
    if p.is_zero() or q.is_zero():
        return Polynomial(())
    out = [_ZERO] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if not a:
            continue
        for j, b in enumerate(q.coeffs):
            if b:
                out[i + j] += a * b
    return Polynomial.from_coeffs(out)


def ref_bivar_reciprocal(x):
    inv0 = F(1) / x.grid[0][0]
    out = _Bivar.zeros(x.k, x.j)
    out.grid[0][0] = inv0
    for p in range(x.k + 1):
        for q in range(x.j + 1):
            if p == 0 and q == 0:
                continue
            acc = _ZERO
            for p1 in range(p + 1):
                for q1 in range(q + 1):
                    if p1 == p and q1 == q:
                        continue
                    b = out.grid[p1][q1]
                    if b:
                        a = x.grid[p - p1][q - q1]
                        if a:
                            acc = acc + a * b
            out.grid[p][q] = -(acc * inv0)
    return out


def ref_sparse_str(terms, x_name, y_name):
    # WeylElement.__str__ (X, D) and BivariatePolynomial.__str__ (x, y)
    if not terms:
        return "0"
    parts = []
    for (i, j) in sorted(terms, key=lambda k: (k[0] + k[1], k[0])):
        c = terms[(i, j)]
        body = []
        if i:
            body.append(x_name if i == 1 else f"{x_name}^{i}")
        if j:
            body.append(y_name if j == 1 else f"{y_name}^{j}")
        mag = abs(c)
        if mag != 1 or not body:
            body.insert(0, str(mag))
        term = "*".join(body)
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def ref_poly_str(p):
    # Polynomial.__str__ on Fraction arithmetic: abs, sign test, compare to 1
    if not p.coeffs:
        return "0"
    parts = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            term = str(mag)
        else:
            base = "x" if k == 1 else f"x^{k}"
            term = base if mag == 1 else f"{mag}*{base}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def ref_sequence_via_egf(pair, n_max):
    # finv and 1/g(finv) from the plain loops, not from the kernels under test
    h = ref_kinverse(list(pair.f.coeffs), pair.f.order)
    prefactor = ref_krecip(ref_kcompose(list(pair.g.coeffs), h, pair.order), pair.order)
    expansion = [Polynomial.one()]
    for m in range(1, n_max + 1):
        acc = Polynomial.zero()
        for k in range(1, m + 1):
            hk = h[k]
            if hk:
                acc = acc + Polynomial.monomial(1, hk * k) * expansion[m - k]
        expansion.append(acc.scale(F(1, m)))
    polys = []
    for n in range(n_max + 1):
        gn = Polynomial.zero()
        for k in range(n + 1):
            rk = prefactor[k]
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
    out = _kmul(a, b, n)
    assert out == ref_kmul(a, b, n)
    assert len(out) == n + 1
    assert all(type(c) is F for c in out)


# signed entries of every bit length up to 700; rows empty, all zero or
# generic, up to 30 entries
signed_entries = st.integers(0, 700).flatmap(lambda bits: st.integers(-(2**bits), 2**bits))
signed_rows = st.one_of(
    st.lists(signed_entries, max_size=30),
    st.integers(0, 30).map(lambda length: [0] * length),
)


def _packed_sum(products, count):
    """Slots 0..count-1 of the summed Kronecker products, at the derived width."""
    terms = sum(min(len(a), len(b)) for a, b in products)
    width = _kwidth([a for a, _ in products], [b for _, b in products], terms)
    total = sum(_kpack(a, width) * _kpack(b, width) for a, b in products)
    return _kunpack(total, width, count), width


def _iconv_sum(products, count):
    return [sum(column) for column in zip(*(_iconv(a, b, count - 1) for a, b in products))]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(signed_rows, signed_rows), min_size=1, max_size=13),
       st.integers(0, 64))
@example([([], [])], 0)
@example([([], [5, -3])], 4)
@example([([0, 0, 0], [-1])], 3)
# the top slot is +-1 over an opposite sign, so the packed value is below
# B^t in magnitude and the top slot must still be read
@example([([1, -1], [1])], 2)
@example([([-1, 1], [1]), ([0], [5])], 4)
def test_summed_kronecker_products_match_summed_iconv(products, count):
    got, _ = _packed_sum(products, count)
    assert got == _iconv_sum(products, count)


@pytest.mark.parametrize("alpha, beta, width", [(297, 298, 75), (298, 298, 76)])
def test_kronecker_slots_hold_the_largest_magnitude_the_width_admits(alpha, beta, width):
    # coefficient 7 sums all T = 16 entry products at full magnitude, so its
    # bit length is alpha + beta + 4. At 297 + 298 that is 8 * 75 - 1, the
    # top of a 75-byte slot; at 298 + 298 the sign bit needs a 76th byte.
    products = [([2**alpha - 1] * 8, [-(2**beta - 1)] * 8)] * 2
    got, derived = _packed_sum(products, 15)
    assert derived == width
    assert got == _iconv_sum(products, 15)
    assert (-got[7]).bit_length() == alpha + beta + 4


@settings(max_examples=150, deadline=None)
@given(
    coefficients.filter(bool),
    st.lists(coefficients, max_size=12),
    st.integers(0, 14),
)
def test_krecip_matches_fraction_loop(a0, tail, n):
    a = [a0] + tail
    out = _krecip(a, n)
    assert out == ref_krecip(a, n)
    assert len(out) == n + 1
    assert all(type(c) is F for c in out)


def test_krecip_matches_fraction_loop_on_the_catalog():
    for label in ("hermite", "laguerre", "bessel", "bell", "lower_factorial", "hahn",
                  "idempotent"):
        pair = family(label, 24).pair
        for series in (pair.f.derivative(), pair.g, pair.g.compose(pair.f.comp_inverse())):
            a = list(series.coeffs)
            assert _krecip(a, series.order) == ref_krecip(a, series.order)


def test_kcompose_and_kinverse_match_fraction_loop_on_the_catalog():
    # large, growing denominators through the whole Horner loop
    for label, order in product(
        ("hermite", "laguerre", "bessel", "bell", "lower_factorial", "hahn", "idempotent"),
        (24, 32),
    ):
        pair = family(label, order).pair
        f, g = list(pair.f.coeffs), list(pair.g.coeffs)
        finv = _kinverse(f, order)
        assert finv == ref_kinverse(f, order), (label, order)
        assert _kcompose(g, finv, order) == ref_kcompose(g, finv, order), (label, order)
        assert _kcompose(finv, f, order) == [_ZERO, F(1)] + [_ZERO] * (order - 1), (label, order)


def test_comp_inverse_makes_one_composition_per_newton_step(monkeypatch):
    # the Newton step takes 1/a'(g) as g', so it composes once and never
    # takes a reciprocal; order 48 doubles 1 -> 2 -> 4 -> 8 -> 16 -> 32 -> 48
    calls = Counter()
    kernels = {"_kcompose": _kcompose, "_krecip": _krecip}

    def counting(name):
        def counted(*args):
            calls[name] += 1
            return kernels[name](*args)

        return counted

    for label in ("hermite", "laguerre", "bessel", "bell", "lower_factorial", "hahn",
                  "idempotent"):
        f = family(label, 48).pair.f
        with monkeypatch.context() as patch:
            for name in kernels:
                patch.setattr(f"sheffer.series.{name}", counting(name))
            f.comp_inverse()
        assert calls == {"_kcompose": 6}, label
        calls.clear()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(coefficients, max_size=8),
    st.lists(coefficients, max_size=8),
    st.integers(0, 10),
)
# an outer longer than n + 1 and one shorter, with a zero linear inner term
@example([F(1), F(-2), F(3, 5), F(7)], [_ZERO, F(-1, 3)], 1)
@example([F(2), F(1, 9)], [_ZERO, F(-4)], 6)
@example([F(1), F(1), F(1)], [_ZERO, _ZERO, F(5, 2)], 5)
# trailing zeros on the inner series
@example([F(3), F(-1), F(2)], [_ZERO, F(1, 2), _ZERO, _ZERO], 4)
def test_kcompose_matches_fraction_loop(outer, inner_tail, n):
    inner = [_ZERO] + inner_tail
    out = _kcompose(outer, inner, n)
    assert out == ref_kcompose(outer, inner, n)
    assert len(out) == n + 1
    assert all(type(c) is F for c in out)


@settings(max_examples=40, deadline=None)
@given(strat.unit_lead_series(8))
def test_kinverse_is_the_exact_inverse(f):
    finv = _kinverse(list(f.coeffs), f.order)
    x = [_ZERO, F(1)] + [_ZERO] * (f.order - 1)
    assert ref_kcompose(list(f.coeffs), finv, f.order) == x
    assert ref_kcompose(finv, list(f.coeffs), f.order) == x


@settings(max_examples=60, deadline=None)
@given(st.lists(coefficients, max_size=10), st.lists(coefficients, max_size=10), st.integers(0, 8))
def test_series_product_matches_fraction_loop(a, b, n):
    sa = TruncatedSeries.from_coeffs(a, n)
    sb = TruncatedSeries.from_coeffs(b, n)
    assert (sa * sb).coeffs == tuple(ref_kmul(list(sa.coeffs), list(sb.coeffs), n))


# untrimmed coefficient tuples: the product's trailing zeros must be trimmed
raw_polynomials = st.lists(coefficients, max_size=8).map(lambda cs: Polynomial(tuple(cs)))


@settings(max_examples=150, deadline=None)
@given(raw_polynomials, raw_polynomials)
@example(Polynomial.zero(), Polynomial.from_coeffs([F(-3, 2**100 + 1)]))
@example(Polynomial.from_coeffs([5]), Polynomial.from_coeffs([F(1, 3), 0, 2]))
# (x^2 + x) - x^2: the leading terms cancel before the product
@example(Polynomial.from_coeffs([0, 1, 1]) - Polynomial.monomial(2), Polynomial.x())
def test_polynomial_product_matches_fraction_loop(p, q):
    got = p * q
    assert got == ref_poly_mul(p, q)
    assert all(type(c) is F for c in got.coeffs)
    assert not got.coeffs or got.coeffs[-1]


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


# -- two-pair Weyl products --------------------------------------------------------

bivar_operators = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 4), coefficients, max_size=5
).map(BivarOperator)


@settings(max_examples=150, deadline=None)
@given(bivar_operators, bivar_operators)
@example(BivarOperator(), BivarOperator({(1, 2, 0, 1): F(-3, 7)}))
@example(BivarOperator({(1, 2, 0, 1): F(-3, 7)}), BivarOperator())
# (1 + X_y D_y)(1 - X_y D_y): the X_y D_y term cancels
@example(BivarOperator({(0, 0, 0, 0): 1, (0, 0, 1, 1): 1}),
         BivarOperator({(0, 0, 0, 0): 1, (0, 0, 1, 1): -1}))
def test_bivar_operator_product_matches_the_pairwise_loop(x, y):
    assert x * y == ref_bivar_operator_mul(x, y)
    assert x.commutator(y) == ref_bivar_operator_mul(x, y) - ref_bivar_operator_mul(y, x)


@settings(max_examples=100, deadline=None)
@given(weyl_elements, weyl_elements)
def test_bivar_operator_pairs_embed_and_commute(u, v):
    in_x, in_y = BivarOperator.in_x, BivarOperator.in_y
    assert in_x(u) * in_x(v) == in_x(u * v)
    assert in_y(u) * in_y(v) == in_y(u * v)
    assert in_x(u) * in_y(v) == in_y(v) * in_x(u)


def test_weyl_mul_refuses_mixed_types():
    w = WeylElement.monomial(1, 1)
    op = BivarOperator.in_x(w)
    for u, v in ((w, op), (op, w), (w, BivariatePolynomial.monomial(1, 1))):
        with pytest.raises(TypeError):
            weyl_mul(u, v)
        with pytest.raises(TypeError):
            u * v


# -- Weyl action on polynomials ----------------------------------------------------

polynomials = st.lists(coefficients, max_size=9).map(Polynomial.from_coeffs)


@settings(max_examples=200, deadline=None)
@given(weyl_elements, polynomials)
def test_weyl_apply_matches_fraction_loop(element, p):
    got = element.apply(p)
    assert got == ref_apply(element, p)
    assert all(type(c) is F for c in got.coeffs)
    assert not got.coeffs or got.coeffs[-1]


def test_weyl_apply_edge_cases():
    x = WeylElement({(0, 0): F(1, 3), (2, 1): F(-5, 2**100 + 1), (0, 3): 7})
    p = Polynomial.from_coeffs([F(2, 3), 0, F(-1, 2**99), 5])
    assert WeylElement().apply(p) == Polynomial.zero()
    assert x.apply(Polynomial.zero()) == Polynomial.zero()
    assert x.apply(p) == ref_apply(x, p)
    # D^2 kills x, and D - X D^2 on x^2 cancels: every output coefficient is zero
    assert WeylElement({(0, 2): 1}).apply(Polynomial.x()) == Polynomial.zero()
    cancel = WeylElement({(0, 1): 1, (1, 2): -1})
    assert cancel.apply(Polynomial.monomial(2)) == ref_apply(cancel, Polynomial.monomial(2))
    assert cancel.apply(Polynomial.monomial(2)).coeffs == ()


def test_weyl_apply_matches_fraction_loop_on_the_raising_chains():
    for label in ("hermite", "laguerre", "bessel", "bell", "lower_factorial", "hahn",
                  "idempotent"):
        m_op = build_M(family(label, 16).pair, 15)
        for l in range(3):
            poly = Polynomial.monomial(l)
            for _ in range(15 - l):
                ref = ref_apply(m_op, poly)
                poly = m_op.apply(poly)
                assert poly == ref, label


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


@settings(max_examples=100, deadline=None)
@given(bivar_pairs().filter(lambda xy: xy[0].grid[0][0]))
def test_bivar_reciprocal_matches_fraction_loop(xy):
    x, _ = xy
    got = x.reciprocal()
    assert got.grid == ref_bivar_reciprocal(x).grid
    assert all(type(c) is F for row in got.grid for c in row)


def test_bivar_reciprocal_needs_a_constant_cell():
    with pytest.raises(ZeroDivisionError):
        _Bivar([[_ZERO, F(1)], [F(2), F(3)]], 1, 1).reciprocal()


# -- printing sums of monomials ----------------------------------------------------

# unit and zero coefficients on top of the general ones: a zero drops its
# monomial, so the constant term (and the whole element) can be missing
print_terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.one_of(st.sampled_from([F(1), F(-1), _ZERO]), coefficients),
    max_size=7,
)


@settings(max_examples=200, deadline=None)
@given(print_terms)
@example({})
@example({(0, 0): F(-1), (1, 0): F(1), (0, 1): F(-1), (2, 1): F(-5, 3)})
@example({(0, 0): _ZERO, (1, 1): F(-1)})
def test_sparse_printer_matches_the_per_class_printers(terms):
    w = WeylElement(terms)
    b = BivariatePolynomial(terms)
    assert str(w) == ref_sparse_str(w.terms, "X", "D")
    assert str(b) == ref_sparse_str(b.terms, "x", "y")
    assert repr(w) == f"WeylElement({w.terms!r})"
    assert repr(b) == f"BivariatePolynomial({b.terms!r})"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([F(1), F(-1), _ZERO]), coefficients), max_size=8))
@example([])
@example([F(-1)])
@example([_ZERO, F(-1)])
@example([F(1), _ZERO, F(-1)])
def test_polynomial_printer_matches_the_fraction_printer(coeffs):
    p = Polynomial.from_coeffs(coeffs)
    assert str(p) == ref_poly_str(p)


def test_bivar_operator_prints_its_four_variables():
    op = BivarOperator({(1, 0, 0, 0): 1, (0, 2, 1, 0): F(-3, 2), (0, 0, 0, 0): -1})
    assert str(op) == "-1 + X_x - 3/2*D_x^2*X_y"
    assert str(BivarOperator()) == "0"


# -- generating-function sequences -------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(strat.sheffer_pairs(8), st.integers(0, 8))
def test_riordan_columns_match_the_expansion(pair, n_max):
    assert sequence_via_egf(pair, n_max).polys == ref_sequence_via_egf(pair, n_max).polys


def test_riordan_columns_match_the_expansion_on_the_catalog():
    for label, order in product(
        ("hermite", "laguerre", "bessel", "bell", "lower_factorial", "hahn", "idempotent"),
        (20, 32),
    ):
        pair = family(label, order).pair
        assert sequence_via_egf(pair, order).polys == ref_sequence_via_egf(pair, order).polys


def test_sequence_via_egf_empty_and_constant():
    pair = family("hermite", 4).pair
    with pytest.raises(IndexOutOfRange):
        sequence_via_egf(pair, -1)
    assert sequence_via_egf(pair, 0).polys == (Polynomial.one(),)
