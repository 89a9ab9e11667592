"""Exact arithmetic in the Weyl algebra [D, X] = 1, kept in normal form.

Elements are finite sums of monomials X^i D^j (all X's to the left). Under
the correspondence X <-> creation and D <-> annihilation the same data
doubles as a normally ordered boson operator, so this module serves both
the differential-operator picture and the boson picture. ``weyl_mul``
reads a key as any number of commuting (X power, D power) pairs, so it is
also the product of the two-pair operators in ``multivar``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm

from .series import (
    Polynomial,
    RationalLike,
    SparseTerms,
    TruncatedSeries,
    _common_denominator,
)


class WeylElement(SparseTerms):
    """Finite rational combination of normally ordered monomials X^i D^j."""

    __slots__ = ()
    names = ("X", "D")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def identity() -> "WeylElement":
        return WeylElement({(0, 0): 1})

    @staticmethod
    def x() -> "WeylElement":
        return WeylElement({(1, 0): 1})

    @staticmethod
    def d() -> "WeylElement":
        return WeylElement({(0, 1): 1})

    @staticmethod
    def monomial(i: int, j: int, coeff: RationalLike = 1) -> "WeylElement":
        return WeylElement({(i, j): coeff})

    @staticmethod
    def from_series(series: TruncatedSeries) -> "WeylElement":
        """Sum_k c_k D^k.

        The truncation order of the series bounds the operator degree; the
        result acts exactly on polynomials of degree <= order.
        """
        return WeylElement({(0, k): c for k, c in enumerate(series.coeffs)})

    @property
    def x_degree(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    # -- multiplication ------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, SparseTerms):
            return weyl_mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def commutator(self, other: "WeylElement") -> "WeylElement":
        return weyl_mul(self, other) - weyl_mul(other, self)

    # -- action on polynomials ---------------------------------------------------

    def apply(self, p: Polynomial) -> Polynomial:
        """Act on a polynomial: X^i D^j x^n = n!/(n-j)! x^{n+i-j} for j <= n.

        Integer numerators over the polynomial's and the element's common
        denominators are summed, and one Fraction is built per output power.
        """
        if not p.coeffs or not self.terms:
            return Polynomial.zero()
        pn, pd = _common_denominator(p.coeffs)
        wn, wd = _common_denominator(list(self.terms.values()))
        terms = [(i, j, w) for (i, j), w in zip(self.terms, wn)]
        acc = [0] * (len(pn) + self.x_degree)
        for n, c in enumerate(pn):
            if c:
                for i, j, w in terms:
                    if j <= n:
                        acc[n + i - j] += c * w * perm(n, j)
        den = pd * wd
        return Polynomial.from_coeffs([Fraction(s, den) for s in acc])


def weyl_mul(u: SparseTerms, v: SparseTerms) -> SparseTerms:
    """Product in normal form, of two elements of the same type.

    Each key is a run of (X power, D power) pairs, and pairs at different
    positions commute. Pair by pair it uses the closed-form reordering
    D^m X^n = sum_k k! C(m,k) C(n,k) X^{n-k} D^{m-k}, so a monomial pair
    costs prod (min(m, n) + 1) over its pairs. Coefficients are summed as
    integers over the product of the operands' common denominators.
    """
    if type(u) is not type(v):
        raise TypeError(f"cannot multiply {type(u).__name__} by {type(v).__name__}")
    un, ud = _common_denominator(list(u.terms.values()))
    vn, vd = _common_denominator(list(v.terms.values()))
    v_items = list(zip(v.terms, vn))
    out: dict = {}
    for key1, c1 in zip(u.terms, un):
        for key2, c2 in v_items:
            terms = [((), c1 * c2)]
            for i1, j1, i2, j2 in zip(key1[::2], key1[1::2], key2[::2], key2[1::2]):
                terms = [
                    (key + (i1 + i2 - k, j1 + j2 - k),
                     c * (factorial(k) * comb(j1, k) * comb(i2, k)))
                    for key, c in terms
                    for k in range(min(j1, i2) + 1)
                ]
            for key, w in terms:
                s = out.get(key, 0) + w
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    den = ud * vd
    return type(u)({key: Fraction(s, den) for key, s in out.items()})
