"""Exact truncated power series and polynomial arithmetic.

All symbolic coefficients are arbitrary-precision rationals
(`fractions.Fraction`); complex floating point enters only through the
numeric evaluation helpers. A series carries its truncation order as
explicit state, and binary operations truncate to the smaller operand
order instead of padding silently.

The low-level kernels at the top of the module work on plain coefficient
lists over a field given by its ``zero`` (and ``one``): `Fraction` for the
public classes, Python complex for the recentred coherent-state route.
Over `Fraction` the product kernel is fraction-free, in the layout of
FLINT's ``fmpq_poly``: each operand becomes integer numerators over one
common denominator, products are summed as integers, and one `Fraction`
(one gcd) is built per output coefficient. Every kernel built on products
(composition, compositional inverse, log, tan, arctan) inherits that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple, Sequence, Union

from .errors import (
    BadConstantTerm,
    GuardExceeded,
    IndexOutOfRange,
    NonzeroInnerConstant,
    NotInvertible,
    OrderExceeded,
    ZeroConstantTerm,
)

RationalLike = Union[Fraction, int]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce to Fraction, rejecting floats (exactness is a hard contract)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# kernels on plain coefficient lists
# ---------------------------------------------------------------------------


def _common_denominator(values):
    """Rationals as (integer numerators, their least common denominator)."""
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _iconv(a, b, n):
    """Integer coefficients 0..n of the product of integer lists a and b."""
    la, lb = len(a), len(b)
    while la and not a[la - 1]:
        la -= 1
    while lb and not b[lb - 1]:
        lb -= 1
    if not la or not lb:
        return [0] * (n + 1)
    rb = b[:lb][::-1]
    out = []
    for k in range(min(n, la + lb - 2) + 1):
        lo = max(0, k - lb + 1)
        hi = min(k, la - 1)
        out.append(sum(map(mul, a[lo : hi + 1], rb[lb - 1 - k + lo : lb - k + hi])))
    return out + [0] * (n + 1 - len(out))


def _kmul(a, b, n, zero):
    if not isinstance(zero, Fraction):
        out = [zero] * (n + 1)
        for i, ai in enumerate(a[: n + 1]):
            if not ai:
                continue
            for j, bj in enumerate(b[: n + 1 - i]):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
        return out
    an, ad = _common_denominator(a[: n + 1])
    bn, bd = _common_denominator(b[: n + 1])
    den = ad * bd
    return [Fraction(s, den) if s else zero for s in _iconv(an, bn, n)]


def _krecip(a, n, zero, one):
    inv0 = one / a[0]
    out = [zero] * (n + 1)
    out[0] = inv0
    for m in range(1, n + 1):
        acc = zero
        for k in range(1, m + 1):
            ak = a[k] if k < len(a) else zero
            if ak:
                acc = acc + ak * out[m - k]
        out[m] = -(acc * inv0)
    return out


def _kcompose(outer, inner, n, zero):
    # Horner substitution; caller guarantees inner[0] == 0.
    out = [zero] * (n + 1)
    for c in reversed(outer[: n + 1]):
        out = _kmul(out, inner, n, zero)
        out[0] = out[0] + c
    return out


def _kderiv(a, zero):
    return [a[k] * k for k in range(1, len(a))] or [zero]


def _kinverse(a, n, zero, one):
    # Newton order-doubling for g with a(g(x)) = x mod x^{n+1}.
    if n == 0:
        return [zero]
    da = _kderiv(a, zero)
    g = [zero, one / a[1]]
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        g = g + [zero] * (prec + 1 - len(g))
        err = _kcompose(a, g, prec, zero)
        err[1] = err[1] - one
        slope = _kcompose(da, g, prec, zero)
        corr = _kmul(err, _krecip(slope, prec, zero, one), prec, zero)
        g = [g[k] - corr[k] for k in range(prec + 1)]
    return g


def _kexp(a, n, zero, one):
    # b' = a' b, solved coefficient by coefficient; a[0] == 0.
    out = [zero] * (n + 1)
    out[0] = one
    for m in range(1, n + 1):
        acc = zero
        for k in range(1, m + 1):
            ak = a[k] if k < len(a) else zero
            if ak:
                acc = acc + (ak * k) * out[m - k]
        out[m] = acc / m
    return out


def _klog(a, n, zero, one):
    # log(a) = integral of a'/a; a[0] == 1.
    da = _kderiv(a, zero)
    q = _kmul(da, _krecip(a, n, zero, one), n, zero)
    out = [zero] * (n + 1)
    for k in range(1, n + 1):
        out[k] = q[k - 1] / k
    return out


def _ksqrt(a, n, zero, one):
    # b^2 = a with b[0] == 1.
    out = [zero] * (n + 1)
    out[0] = one
    for m in range(1, n + 1):
        acc = a[m] if m < len(a) else zero
        for k in range(1, m):
            acc = acc - out[k] * out[m - k]
        out[m] = acc / 2
    return out


def _ksincos(a, n, zero, one):
    # s' = a' c, c' = -a' s; a[0] == 0.
    s = [zero] * (n + 1)
    c = [zero] * (n + 1)
    c[0] = one
    for m in range(1, n + 1):
        acc_s = zero
        acc_c = zero
        for k in range(1, m + 1):
            ak = a[k] if k < len(a) else zero
            if ak:
                acc_s = acc_s + (ak * k) * c[m - k]
                acc_c = acc_c + (ak * k) * s[m - k]
        s[m] = acc_s / m
        c[m] = -(acc_c / m)
    return s, c


def _karctan(a, n, zero, one):
    # t' = a'/(1 + a^2); a[0] == 0.
    da = _kderiv(a, zero)
    denom = _kmul(a, a, n, zero)
    denom[0] = denom[0] + one
    q = _kmul(da, _krecip(denom, n, zero, one), n, zero)
    out = [zero] * (n + 1)
    for k in range(1, n + 1):
        out[k] = q[k - 1] / k
    return out


# ---------------------------------------------------------------------------
# Gaussian rationals: the exact coefficient field for complex-parameter work
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    Used where a complex parameter (a coherent-state label) must flow
    through exact series algebra without rounding; every Python float is a
    dyadic rational, so `from_complex` is lossless.
    """

    re: Fraction
    im: Fraction

    @staticmethod
    def from_complex(z: complex) -> "GaussianRational":
        return GaussianRational(Fraction(z.real), Fraction(z.imag))

    @staticmethod
    def of(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(as_fraction(value), Fraction(0))
        if isinstance(value, complex):
            return GaussianRational.from_complex(value)
        if isinstance(value, float):
            return GaussianRational(Fraction(value), Fraction(0))
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other):
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other):
        o = GaussianRational.of(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.of(other)
        norm = o.re * o.re + o.im * o.im
        if not norm:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    def __rtruediv__(self, other):
        return GaussianRational.of(other) / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def to_complex(self) -> complex:
        return complex(self.re, self.im)


GR_ZERO = GaussianRational(Fraction(0), Fraction(0))
GR_ONE = GaussianRational(Fraction(1), Fraction(0))


# ---------------------------------------------------------------------------
# truncated series over exact rationals
# ---------------------------------------------------------------------------


class SeriesValue(NamedTuple):
    value: complex
    tail: float


_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class TruncatedSeries:
    """Formal power series truncated at a fixed order, coefficients exact.

    ``coeffs[k]`` is the coefficient of x^k; ``len(coeffs) == order + 1``.
    Instances are immutable and freely shareable.
    """

    coeffs: tuple
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count must equal order + 1")

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_coeffs(values: Sequence[RationalLike], order: int | None = None) -> "TruncatedSeries":
        coeffs = [as_fraction(v) for v in values]
        if order is None:
            order = len(coeffs) - 1
        if order + 1 < len(coeffs):
            coeffs = coeffs[: order + 1]
        else:
            coeffs = coeffs + [_ZERO] * (order + 1 - len(coeffs))
        return TruncatedSeries(tuple(coeffs), order)

    @staticmethod
    def constant(value: RationalLike, order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs([as_fraction(value)], order)

    @staticmethod
    def zero(order: int) -> "TruncatedSeries":
        return TruncatedSeries.constant(0, order)

    @staticmethod
    def one(order: int) -> "TruncatedSeries":
        return TruncatedSeries.constant(1, order)

    @staticmethod
    def x(order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs([0, 1], order)

    # -- basic queries -----------------------------------------------------

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexOutOfRange(f"coefficient index {k} outside 0..{self.order}")
        return self.coeffs[k]

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def truncate(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise OrderExceeded(f"cannot extend order {self.order} series to {order}")
        return TruncatedSeries(self.coeffs[: order + 1], order)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            return TruncatedSeries(
                tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)), n
            )
        c = as_fraction(other)
        return TruncatedSeries((self.coeffs[0] + c,) + self.coeffs[1:], self.order)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            return self + (-other)
        return self + (-as_fraction(other))

    def __rsub__(self, other):
        return (-self) + as_fraction(other)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            n = min(self.order, other.order)
            out = _kmul(list(self.coeffs), list(other.coeffs), n, _ZERO)
            return TruncatedSeries(tuple(out), n)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, factor: RationalLike) -> "TruncatedSeries":
        c = as_fraction(factor)
        return TruncatedSeries(tuple(c * v for v in self.coeffs), self.order)

    def derivative(self) -> "TruncatedSeries":
        """Formal derivative; the result order drops by one."""
        if self.order == 0:
            raise OrderExceeded("derivative needs truncation order >= 1")
        return TruncatedSeries(
            tuple(self.coeffs[k] * k for k in range(1, self.order + 1)),
            self.order - 1,
        )

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse mod x^{order+1}; requires a0 != 0."""
        if not self.coeffs[0]:
            raise ZeroConstantTerm("reciprocal needs a nonzero constant term")
        out = _krecip(list(self.coeffs), self.order, _ZERO, _ONE)
        return TruncatedSeries(tuple(out), self.order)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(x)) truncated at min(orders); inner(0) must be 0."""
        if inner.coeffs[0]:
            raise NonzeroInnerConstant("composition needs inner constant term 0")
        n = min(self.order, inner.order)
        out = _kcompose(list(self.coeffs), list(inner.coeffs), n, _ZERO)
        return TruncatedSeries(tuple(out), n)

    def comp_inverse(self) -> "TruncatedSeries":
        """Compositional inverse via Newton order-doubling (exact)."""
        if self.coeffs[0]:
            raise NotInvertible("compositional inverse needs a0 = 0")
        if self.order < 1 or not self.coeffs[1]:
            raise NotInvertible("compositional inverse needs a1 != 0")
        out = _kinverse(list(self.coeffs), self.order, _ZERO, _ONE)
        return TruncatedSeries(tuple(out), self.order)

    # -- numeric evaluation -------------------------------------------------

    def eval_complex(self, z: complex, guard: float) -> SeriesValue:
        """Horner evaluation at a complex point inside the trust radius.

        Returns the value together with a crude tail estimate |a_N z^N|.
        """
        if abs(z) > guard:
            raise GuardExceeded(f"|z| = {abs(z):.6g} exceeds guard {guard:.6g}")
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        tail = abs(complex(self.coeffs[-1])) * abs(z) ** self.order
        return SeriesValue(acc, tail)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"order": self.order, "coeffs": [str(c) for c in self.coeffs]}

    @staticmethod
    def from_json_dict(data: dict) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs(
            [Fraction(s) for s in data["coeffs"]], data["order"]
        )

    def __str__(self):
        return f"series(order={self.order}, {list(map(str, self.coeffs))})"


# -- elementary functions of a series ---------------------------------------


def exp_series(a: TruncatedSeries) -> TruncatedSeries:
    """exp(a) for a series with zero constant term."""
    if a.coeffs[0]:
        raise BadConstantTerm("exp_series needs constant term 0")
    return TruncatedSeries(tuple(_kexp(list(a.coeffs), a.order, _ZERO, _ONE)), a.order)


def log_series(a: TruncatedSeries) -> TruncatedSeries:
    """log(a) for a series with constant term 1."""
    if a.coeffs[0] != 1:
        raise BadConstantTerm("log_series needs constant term 1")
    return TruncatedSeries(tuple(_klog(list(a.coeffs), a.order, _ZERO, _ONE)), a.order)


def sqrt_series(a: TruncatedSeries) -> TruncatedSeries:
    """Square root with constant term 1."""
    if a.coeffs[0] != 1:
        raise BadConstantTerm("sqrt_series needs constant term 1")
    return TruncatedSeries(tuple(_ksqrt(list(a.coeffs), a.order, _ZERO, _ONE)), a.order)


def sin_series(a: TruncatedSeries) -> TruncatedSeries:
    if a.coeffs[0]:
        raise BadConstantTerm("sin_series needs constant term 0")
    s, _ = _ksincos(list(a.coeffs), a.order, _ZERO, _ONE)
    return TruncatedSeries(tuple(s), a.order)


def cos_series(a: TruncatedSeries) -> TruncatedSeries:
    if a.coeffs[0]:
        raise BadConstantTerm("cos_series needs constant term 0")
    _, c = _ksincos(list(a.coeffs), a.order, _ZERO, _ONE)
    return TruncatedSeries(tuple(c), a.order)


def tan_series(a: TruncatedSeries) -> TruncatedSeries:
    if a.coeffs[0]:
        raise BadConstantTerm("tan_series needs constant term 0")
    s, c = _ksincos(list(a.coeffs), a.order, _ZERO, _ONE)
    out = _kmul(s, _krecip(c, a.order, _ZERO, _ONE), a.order, _ZERO)
    return TruncatedSeries(tuple(out), a.order)


def arctan_series(a: TruncatedSeries) -> TruncatedSeries:
    if a.coeffs[0]:
        raise BadConstantTerm("arctan_series needs constant term 0")
    return TruncatedSeries(tuple(_karctan(list(a.coeffs), a.order, _ZERO, _ONE)), a.order)


# ---------------------------------------------------------------------------
# dense polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial over exact rationals.

    Trailing zeros are trimmed; the zero polynomial is the empty tuple and
    has degree -1 by convention.
    """

    coeffs: tuple

    @staticmethod
    def from_coeffs(values: Sequence[RationalLike]) -> "Polynomial":
        coeffs = [as_fraction(v) for v in values]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return Polynomial(tuple(coeffs))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((_ONE,))

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((_ZERO, _ONE))

    @staticmethod
    def monomial(power: int, coeff: RationalLike = 1) -> "Polynomial":
        c = as_fraction(coeff)
        if not c:
            return Polynomial(())
        return Polynomial((_ZERO,) * power + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        if k < 0:
            raise IndexOutOfRange("negative coefficient index")
        return self.coeffs[k] if k < len(self.coeffs) else _ZERO

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else _ZERO

    def padded(self, n: int) -> tuple:
        """Coefficient row [c0..cn]; degree must not exceed n."""
        if self.degree > n:
            raise IndexOutOfRange(f"degree {self.degree} exceeds row length {n}")
        return self.coeffs + (_ZERO,) * (n + 1 - len(self.coeffs))

    def __add__(self, other):
        if isinstance(other, Polynomial):
            n = max(len(self.coeffs), len(other.coeffs))
            return Polynomial.from_coeffs(
                [self.coefficient(k) + other.coefficient(k) for k in range(n)]
            )
        return self + Polynomial.from_coeffs([other])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            return self + (-other)
        return self + (-as_fraction(other))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial(())
            out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
            return Polynomial.from_coeffs(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, factor: RationalLike) -> "Polynomial":
        c = as_fraction(factor)
        if not c:
            return Polynomial(())
        return Polynomial(tuple(c * v for v in self.coeffs))

    def derivative(self) -> "Polynomial":
        return Polynomial.from_coeffs(
            [self.coeffs[k] * k for k in range(1, len(self.coeffs))]
        )

    def __call__(self, value):
        """Horner evaluation; works for Fraction, complex and GaussianRational."""
        acc = value * 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def to_series(self, order: int) -> TruncatedSeries:
        if self.degree > order:
            raise OrderExceeded(f"degree {self.degree} exceeds order {order}")
        return TruncatedSeries.from_coeffs(self.coeffs, order)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                term = str(abs(c))
            else:
                mag = abs(c)
                base = "x" if k == 1 else f"x^{k}"
                term = base if mag == 1 else f"{mag}*{base}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# bivariate polynomials (sparse)
# ---------------------------------------------------------------------------


class BivariatePolynomial:
    """Sparse polynomial in two variables with exact rational coefficients.

    Stored as a map (i, j) -> coefficient of x^i y^j; zero coefficients are
    never kept.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            for key, value in terms.items():
                c = as_fraction(value)
                if c:
                    clean[(int(key[0]), int(key[1]))] = c
        self.terms = clean

    @staticmethod
    def zero() -> "BivariatePolynomial":
        return BivariatePolynomial()

    @staticmethod
    def monomial(i: int, j: int, coeff: RationalLike = 1) -> "BivariatePolynomial":
        return BivariatePolynomial({(i, j): coeff})

    @staticmethod
    def from_x_poly(p: Polynomial) -> "BivariatePolynomial":
        return BivariatePolynomial({(k, 0): c for k, c in enumerate(p.coeffs)})

    @staticmethod
    def from_y_poly(p: Polynomial) -> "BivariatePolynomial":
        return BivariatePolynomial({(0, k): c for k, c in enumerate(p.coeffs)})

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), _ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def total_degree(self) -> int:
        return max((i + j for i, j in self.terms), default=-1)

    def __eq__(self, other):
        return isinstance(other, BivariatePolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for key, value in other.terms.items():
            s = out.get(key, _ZERO) + value
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return BivariatePolynomial(out)

    def __neg__(self):
        return BivariatePolynomial({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, BivariatePolynomial):
            out: dict = {}
            for (i1, j1), c1 in self.terms.items():
                for (i2, j2), c2 in other.terms.items():
                    key = (i1 + i2, j1 + j2)
                    out[key] = out.get(key, _ZERO) + c1 * c2
            return BivariatePolynomial(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, factor: RationalLike) -> "BivariatePolynomial":
        c = as_fraction(factor)
        if not c:
            return BivariatePolynomial()
        return BivariatePolynomial({k: c * v for k, v in self.terms.items()})

    def derivative(self, variable: str) -> "BivariatePolynomial":
        out: dict = {}
        for (i, j), c in self.terms.items():
            if variable == "x" and i > 0:
                out[(i - 1, j)] = out.get((i - 1, j), _ZERO) + c * i
            elif variable == "y" and j > 0:
                out[(i, j - 1)] = out.get((i, j - 1), _ZERO) + c * j
        return BivariatePolynomial(out)

    def eval(self, x, y):
        acc = x * 0
        for (i, j), c in self.terms.items():
            acc = acc + c * x**i * y**j
        return acc

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j) in sorted(self.terms, key=lambda k: (k[0] + k[1], k[0])):
            c = self.terms[(i, j)]
            body = []
            if i:
                body.append("x" if i == 1 else f"x^{i}")
            if j:
                body.append("y" if j == 1 else f"y^{j}")
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
        return f"BivariatePolynomial({self.terms!r})"
