"""Fraction references for the bivariate kernels.

``ref_normal_order_rhs`` is the route ``normal_order_rhs`` took before it
evaluated finv and 1/g(finv) at lambda + f(a) by a Taylor shift: two Horner
compositions of a bivariate argument and a bivariate reciprocal, one full
grid product per step. It is kept here as the reference the Taylor-shift
route must match exactly, and ``_Bivar`` as the grid the kernel tests check
against plain Fraction loops.

``ref_bivar_apply`` and ``ref_umbral_S`` are the per-term Fraction loops of
``BivarOperator.apply`` and of the umbral composites before both summed
integer numerators over common denominators; the integer kernels must match
them exactly.
"""

from fractions import Fraction
from math import factorial
from operator import add

from sheffer.errors import OrderExceeded
from sheffer.normord import NormallyOrderedSeries
from sheffer.sequences import sequence_via_egf
from sheffer.series import (
    BivariatePolynomial,
    _common_denominator,
    _iconv,
    _kmul,
    _krecip,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class _Bivar:
    """Series in lambda (rows, order K) with coefficients series in a (cols, order J)."""

    __slots__ = ("grid", "k", "j")

    def __init__(self, grid, k, j):
        self.grid = grid
        self.k = k
        self.j = j

    @staticmethod
    def zeros(k, j):
        return _Bivar([[_ZERO] * (j + 1) for _ in range(k + 1)], k, j)

    @staticmethod
    def from_a_series(coeffs, k, j):
        out = _Bivar.zeros(k, j)
        for q, c in enumerate(coeffs[: j + 1]):
            out.grid[0][q] = c
        return out

    def copy(self):
        return _Bivar([row[:] for row in self.grid], self.k, self.j)

    def add_scalar(self, c, row=0, col=0):
        if row > self.k or col > self.j:
            return self.copy()  # lands beyond the truncation
        out = self.copy()
        out.grid[row][col] = out.grid[row][col] + c
        return out

    def _int_rows(self):
        # integer numerator rows over one common denominator
        nums, den = _common_denominator([c for row in self.grid for c in row])
        width = self.j + 1
        return [nums[p * width : (p + 1) * width] for p in range(self.k + 1)], den

    def __mul__(self, other):
        a_rows, ad = self._int_rows()
        b_rows, bd = other._int_rows()
        acc = [[0] * (self.j + 1) for _ in range(self.k + 1)]
        for p1, arow in enumerate(a_rows):
            if not any(arow):
                continue
            for p2 in range(self.k + 1 - p1):
                brow = b_rows[p2]
                if any(brow):
                    acc[p1 + p2] = list(map(add, acc[p1 + p2], _iconv(arow, brow, self.j)))
        den = ad * bd
        grid = [[Fraction(s, den) if s else _ZERO for s in row] for row in acc]
        return _Bivar(grid, self.k, self.j)

    def reciprocal(self):
        """Row by row on the series kernels: B_0 = 1/A_0 and
        B_p = -B_0 * sum_{r=1..p} A_r B_{p-r}, each row a series in a."""
        if not self.grid[0][0]:
            raise ZeroDivisionError("bivariate reciprocal needs nonzero constant cell")
        j = self.j
        rows = [_krecip(self.grid[0], j)]
        for p in range(1, self.k + 1):
            acc = [_ZERO] * (j + 1)
            for r in range(1, p + 1):
                acc = list(map(add, acc, _kmul(self.grid[r], rows[p - r], j)))
            rows.append([-c for c in _kmul(rows[0], acc, j)])
        return _Bivar(rows, self.k, j)


def _bivar_compose(outer_coeffs, t: _Bivar) -> _Bivar:
    # Horner substitution of a bivariate argument with zero constant cell.
    if t.grid[0][0]:
        raise ValueError("bivariate composition needs zero constant cell")
    acc = _Bivar.zeros(t.k, t.j)
    for c in reversed(outer_coeffs):
        acc = acc * t
        if c:
            acc.grid[0][0] = acc.grid[0][0] + c
    return acc


def ref_normal_order_rhs(pair, lam_order, a_order):
    """Composed-series normally ordered form of exp(lam*M), by bivariate Horner.

    Builds E(lam, a) = finv(lam + f(a)) - a and
    R(lam, a) = g(a)/g(finv(lam + f(a))) as exact bivariate truncated
    series, then expands :exp(adag*E)*R: so the coefficient of adag^i is
    E^i/i! * R. Requires series order >= lam_order + a_order because mixed
    terms of the composition reach that depth.
    """
    need = lam_order + a_order
    if pair.order < need:
        raise OrderExceeded(f"series order {pair.order} < lam_order + a_order = {need}")
    finv = pair.finv
    fa = _Bivar.from_a_series(list(pair.f.coeffs), lam_order, a_order)
    t = fa.add_scalar(_ONE, row=1, col=0)  # lambda + f(a)
    composed = _bivar_compose(list(finv.coeffs[: need + 1]), t)
    e_part = composed.add_scalar(-_ONE, row=0, col=1)  # finv(lam + f(a)) - a
    g_of_c = _bivar_compose(list(pair.g.coeffs[: need + 1]), composed)
    r_part = _Bivar.from_a_series(list(pair.g.coeffs), lam_order, a_order) * g_of_c.reciprocal()

    terms: dict = {}
    acc = r_part
    for i in range(lam_order + 1):
        inv_fact = Fraction(1, factorial(i))
        for p in range(lam_order + 1):
            for q in range(a_order + 1):
                c = acc.grid[p][q]
                if c:
                    poly = terms.setdefault((i, q), [_ZERO] * (lam_order + 1))
                    poly[p] = poly[p] + c * inv_fact
        if i < lam_order:
            acc = acc * e_part
    return NormallyOrderedSeries(terms, lam_order, a_order)



def ref_bivar_apply(op, p):
    """X_x^ix D_x^jx X_y^iy D_y^jy on x^a y^b, one Fraction multiply-add per term."""
    out: dict = {}
    for (a, b), c in p.terms.items():
        for (ix, jx, iy, jy), w in op.terms.items():
            if jx > a or jy > b:
                continue
            ff = (factorial(a) // factorial(a - jx)) * (factorial(b) // factorial(b - jy))
            key = (a + ix - jx, b + iy - jy)
            s = out.get(key, _ZERO) + c * w * ff
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return BivariatePolynomial(out)


def _poly_xy(px, py):
    terms = {}
    for i, cx in enumerate(px.coeffs):
        if not cx:
            continue
        for j, cy in enumerate(py.coeffs):
            if cy:
                terms[(i, j)] = cx * cy
    return BivariatePolynomial(terms)


def ref_umbral_S(pair, n):
    """S_n(x,y) = n! sum_r s_{n-2r}(x) s_r(y) / ((n-2r)! r!) with Fraction weights."""
    seq = sequence_via_egf(pair, n)
    acc = BivariatePolynomial.zero()
    for r in range(n // 2 + 1):
        weight = Fraction(factorial(n), factorial(n - 2 * r) * factorial(r))
        acc = acc + _poly_xy(seq.poly(n - 2 * r), seq.poly(r)).scale(weight)
    return acc
