"""Exact arithmetic in the Weyl algebra [D, X] = 1, kept in normal form.

Elements are finite sums of monomials X^i D^j (all X's to the left). Under
the correspondence X <-> creation and D <-> annihilation the same data
doubles as a normally ordered boson operator, so this module serves both
the differential-operator picture and the boson picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, perm

from .errors import OrderExceeded
from .series import (
    Polynomial,
    RationalLike,
    TruncatedSeries,
    _common_denominator,
    as_fraction,
)

_ZERO = Fraction(0)


class WeylElement:
    """Finite rational combination of normally ordered monomials X^i D^j."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            for (i, j), value in terms.items():
                c = as_fraction(value)
                if c:
                    clean[(int(i), int(j))] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "WeylElement":
        return WeylElement()

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
    def from_series(series: TruncatedSeries, mode: str) -> "WeylElement":
        """Sum_k c_k D^k (mode 'd') or Sum_k c_k X^k (mode 'x').

        The truncation order of the series bounds the operator degree; in
        mode 'd' the result acts exactly on polynomials of degree <= order.
        """
        if mode == "d":
            return WeylElement({(0, k): c for k, c in enumerate(series.coeffs)})
        if mode == "x":
            return WeylElement({(k, 0): c for k, c in enumerate(series.coeffs)})
        raise ValueError(f"mode must be 'd' or 'x', got {mode!r}")

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), _ZERO)

    @property
    def x_degree(self) -> int:
        return max((i for i, _ in self.terms), default=-1)

    @property
    def d_degree(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- linear structure --------------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for key, value in other.terms.items():
            s = out.get(key, _ZERO) + value
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return WeylElement(out)

    def __neg__(self):
        return WeylElement({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor: RationalLike) -> "WeylElement":
        c = as_fraction(factor)
        if not c:
            return WeylElement()
        return WeylElement({k: c * v for k, v in self.terms.items()})

    # -- multiplication ------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            return weyl_mul(self, other)
        return self.scale(other)

    __rmul__ = __mul__

    def commutator(self, other: "WeylElement") -> "WeylElement":
        return weyl_mul(self, other) - weyl_mul(other, self)

    def prune_d(self, max_d: int) -> "WeylElement":
        """Drop monomials with D-power above max_d."""
        return WeylElement({k: v for k, v in self.terms.items() if k[1] <= max_d})

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

    # -- serialization ----------------------------------------------------------

    def to_json_list(self) -> list:
        return [
            {"x": i, "d": j, "c": str(self.terms[(i, j)])}
            for (i, j) in sorted(self.terms)
        ]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, key=lambda k: (k[0] + k[1], k[0])):
            c = self.terms[(i, j)]
            body = []
            if i:
                body.append("X" if i == 1 else f"X^{i}")
            if j:
                body.append("D" if j == 1 else f"D^{j}")
            mag = abs(c)
            if mag != 1 or not body:
                body.insert(0, str(mag))
            term = "*".join(body)
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"WeylElement({self.terms!r})"


def weyl_mul(u: WeylElement, v: WeylElement) -> WeylElement:
    """Product in normal form.

    Uses the closed-form reordering
    D^m X^n = sum_k k! C(m,k) C(n,k) X^{n-k} D^{m-k}, so each monomial pair
    costs O(min(m, n)). Coefficients are accumulated as integers over the
    product of the operands' common denominators.
    """
    un, ud = _common_denominator(list(u.terms.values()))
    vn, vd = _common_denominator(list(v.terms.values()))
    v_items = list(zip(v.terms, vn))
    out: dict = {}
    for (i1, j1), c1 in zip(u.terms, un):
        for (i2, j2), c2 in v_items:
            c = c1 * c2
            for k in range(min(j1, i2) + 1):
                w = c * (factorial(k) * comb(j1, k) * comb(i2, k))
                key = (i1 + i2 - k, j1 + j2 - k)
                s = out.get(key, 0) + w
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    den = ud * vd
    return WeylElement({key: Fraction(s, den) for key, s in out.items()})


def commutator(u: WeylElement, v: WeylElement) -> WeylElement:
    return u.commutator(v)


@dataclass(frozen=True)
class OperatorSeries:
    """Series in a formal parameter whose coefficients are Weyl elements."""

    coeffs: tuple
    order: int

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count must equal order + 1")

    def coefficient(self, k: int) -> WeylElement:
        if not 0 <= k <= self.order:
            raise OrderExceeded(f"index {k} outside 0..{self.order}")
        return self.coeffs[k]


def op_exp(m: WeylElement, k_order: int) -> OperatorSeries:
    """exp(t*M) as an OperatorSeries in t: coefficient n is M^n / n!."""
    coeffs = [WeylElement.identity()]
    power = WeylElement.identity()
    for n in range(1, k_order + 1):
        power = weyl_mul(power, m)
        coeffs.append(power.scale(Fraction(1, factorial(n))))
    return OperatorSeries(tuple(coeffs), k_order)
