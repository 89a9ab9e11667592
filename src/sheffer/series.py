"""Exact truncated power series and polynomial arithmetic.

All symbolic coefficients are arbitrary-precision rationals
(`fractions.Fraction`); complex floating point enters only through the
numeric evaluation helpers. A series carries its truncation order as
explicit state, and binary operations truncate to the smaller operand
order instead of padding silently.

The low-level kernels at the top of the module work on plain lists of
`Fraction` coefficients. The product kernel is fraction-free, in the
layout of FLINT's ``fmpq_poly``: each operand becomes integer numerators
over one common denominator, products are summed as integers, and one
`Fraction` (one gcd) is built per output coefficient. Every kernel built
on products (compositional inverse, log, tan, arctan) inherits that. The
reciprocal sums integers the same way, with its outputs kept over a
running common denominator, and composition runs its whole Horner loop
on integers over one running denominator, keeping the value at outer
index k only to x^(n-k) since it is later multiplied by inner^k. The
compositional inverse is Newton order-doubling with one composition per
step: g <- g - (a(g) - x) g', because g' = 1/a'(g) to the order that g is
already right to. Sums of integer row products that are reused, as in
``normord``, run on Kronecker substitution instead: ``_kpack`` packs a row
into one integer at a slot width ``_kwidth`` derives from the operands,
and ``_kunpack`` reads the summed product back.

The value types (``TruncatedSeries``, ``Polynomial`` and, in ``sequences``
and ``fock``, the pair, its sequence and the coherent-state parameters) are
plain classes on ``_Frozen``, not frozen dataclasses: a dataclass is built
by generated code at import, and the ``dataclasses`` module loads
``inspect``; with them ``import sheffer`` took 14.6 ms, without them 5.7 ms
(two-core Xeon, Python 3.11). The slotted ones take equality, hash, repr
and pickling over their ``__slots__`` from ``_Fields``.

`SparseTerms` is the one linear structure of the exponent-keyed sums of
monomials: bivariate polynomials here, Weyl-algebra elements in ``weyl``
and two-variable operators in ``multivar`` subclass it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Sequence, Union

from .errors import (
    BadConstantTerm,
    IndexOutOfRange,
    NonzeroInnerConstant,
    NotInvertible,
    OrderExceeded,
    ZeroConstantTerm,
    check_guard,
)

RationalLike = Union[Fraction, int]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def _kwidth(a_rows, b_rows, terms):
    """Bytes per slot for sums of products of rows from a_rows and b_rows
    in which no coefficient sums more than ``terms`` entry products; the
    bound is derived at ``_kpack``."""
    bits = max(map(int.bit_length, chain(*a_rows)), default=0)
    bits += max(map(int.bit_length, chain(*b_rows)), default=0)
    return (bits + (terms - 1).bit_length() + 8) // 8


def _kbalance(width, count):
    """count slots of width bytes, each holding B/2 = 2^(8*width - 1)."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _kpack(row, width):
    """A signed integer row as one integer in base B = 2^(8*width).

    Kronecker substitution: packing is linear, and the product of two packed
    rows is the packed product of the rows, so a sum of row products over
    packed operands, sum_p pack(a_p) * pack(b_p), is sum_k c_k B^k with c_k
    the coefficients of sum_p a_p * b_p; CPython's multiply runs the inner
    loops. ``_kunpack`` reads c_k back exactly when every c_k read lies in
    [-B/2, B/2). If each entry of every a_p is below 2^alpha in magnitude,
    each entry of every b_p below 2^beta, and each c_k sums at most T entry
    products, then |c_k| < T * 2^(alpha + beta) <= 2^(alpha + beta +
    ceil(log2 T)). So ``_kwidth`` takes the least whole number of bytes with
    8*width - 1 >= alpha + beta + ceil(log2 T), where ceil(log2 T) is
    (T - 1).bit_length(). Operand entries then lie in [-B/2, B/2) too, so
    each c + B/2 fills its slot without a carry. Trailing zero entries are
    not packed.
    """
    end = len(row)
    while end and not row[end - 1]:
        end -= 1
    half = 1 << (8 * width - 1)
    packed = b"".join((c + half).to_bytes(width, "little") for c in row[:end])
    return int.from_bytes(packed, "little") - _kbalance(width, end)


def _kunpack(value, width, count):
    """Slots 0..count-1 of a packed value, each read as a balanced residue.

    value + sum_k B^k B/2 holds c_k + B/2 in [0, B) in slot k, free of
    borrows; flipping each slot's top bit and reading it as signed gives c_k.
    If slot t is the top nonzero one, the slots below it sum to less than
    B^t * B / (2(B - 1)) in magnitude, so |value| > B^t / 4 and t <=
    ceil(bits(value) / (8*width)); the slots past that are zero, not read.
    """
    used = min(count, -(-value.bit_length() // (8 * width)) + 1)
    size = width * used
    balance = _kbalance(width, used)
    low = ((value + balance) & ((1 << 8 * size) - 1)) ^ balance
    raw = memoryview(low.to_bytes(size, "little"))
    out = [int.from_bytes(raw[k : k + width], "little", signed=True) for k in range(0, size, width)]
    return out + [0] * (count - used)


def _kmul(a, b, n):
    an, ad = _common_denominator(a[: n + 1])
    bn, bd = _common_denominator(b[: n + 1])
    den = ad * bd
    return [Fraction(s, den) if s else _ZERO for s in _iconv(an, bn, n)]


def _krecip(a, n):
    # out[m] = -inv0 * sum_k a[k] out[m-k], summed as integers: a over its
    # common denominator, the outputs so far over their running one
    inv0 = _ONE / a[0]
    an, ad = _common_denominator(a[: n + 1])
    an += [0] * (n + 1 - len(an))
    out = [inv0]
    nums, den = [inv0.numerator], inv0.denominator
    for m in range(1, n + 1):
        s = sum(map(mul, an[1 : m + 1], reversed(nums)))
        c = Fraction(-s * inv0.numerator, ad * den * inv0.denominator)
        if den % c.denominator:
            grow = c.denominator // gcd(den, c.denominator)
            nums = [v * grow for v in nums]
            den *= grow
        out.append(c)
        nums.append(c.numerator * (den // c.denominator))
    return out


def _kcompose(outer, inner, n):
    # Horner substitution; caller guarantees inner[0] == 0. The fixed inner
    # series goes over its common denominator once, and the running value
    # stays integers over one denominator, gcd-reduced after every step.
    # The value at outer index k is later multiplied by inner^k, whose
    # valuation is k, so it is kept only to x^(n-k).
    inner_nums, inner_den = _common_denominator(inner[: n + 1])
    nums, den = [], 1
    for k in range(min(len(outer) - 1, n), -1, -1):
        c = outer[k]
        nums = [v * c.denominator for v in _iconv(nums, inner_nums, n - k)]
        nums[0] += c.numerator * den * inner_den
        den *= inner_den * c.denominator
        g = gcd(den, *nums)
        nums, den = [v // g for v in nums], den // g
    nums += [0] * (n + 1 - len(nums))
    return [Fraction(v, den) if v else _ZERO for v in nums]


def _kderiv(a):
    return [a[k] * k for k in range(1, len(a))] or [_ZERO]


def _kinverse(a, n):
    # Newton order-doubling for g with a(g(x)) = x mod x^{n+1}. With g right
    # to order p, e = a(g) - x starts at x^(p+1), and differentiating
    # a(g) = x + e gives 1/a'(g) = g' mod x^p; so g - e*g' is right to order
    # 2p with one composition per step, and only e[p+1..2p] times g'[0..p-1]
    # is needed.
    if n == 0:
        return [_ZERO]
    g = [_ZERO, _ONE / a[1]]
    prec = 1
    while prec < n:
        new = min(2 * prec, n)
        err = _kcompose(a, g, new)
        g += [-c for c in _kmul(err[prec + 1 :], _kderiv(g), new - prec - 1)]
        prec = new
    return g


def _kexp(a, n):
    # b' = a' b, solved coefficient by coefficient; a[0] == 0.
    out = [_ZERO] * (n + 1)
    out[0] = _ONE
    for m in range(1, n + 1):
        acc = _ZERO
        for k in range(1, m + 1):
            ak = a[k] if k < len(a) else _ZERO
            if ak:
                acc = acc + (ak * k) * out[m - k]
        out[m] = acc / m
    return out


def _klog(a, n):
    # log(a) = integral of a'/a; a[0] == 1.
    q = _kmul(_kderiv(a), _krecip(a, n), n)
    out = [_ZERO] * (n + 1)
    for k in range(1, n + 1):
        out[k] = q[k - 1] / k
    return out


def _ksqrt(a, n):
    # b^2 = a with b[0] == 1.
    out = [_ZERO] * (n + 1)
    out[0] = _ONE
    for m in range(1, n + 1):
        acc = a[m] if m < len(a) else _ZERO
        for k in range(1, m):
            acc = acc - out[k] * out[m - k]
        out[m] = acc / 2
    return out


def _ksincos(a, n):
    # s' = a' c, c' = -a' s; a[0] == 0.
    s = [_ZERO] * (n + 1)
    c = [_ZERO] * (n + 1)
    c[0] = _ONE
    for m in range(1, n + 1):
        acc_s = _ZERO
        acc_c = _ZERO
        for k in range(1, m + 1):
            ak = a[k] if k < len(a) else _ZERO
            if ak:
                acc_s = acc_s + (ak * k) * c[m - k]
                acc_c = acc_c + (ak * k) * s[m - k]
        s[m] = acc_s / m
        c[m] = -(acc_c / m)
    return s, c


def _karctan(a, n):
    # t' = a'/(1 + a^2); a[0] == 0.
    denom = _kmul(a, a, n)
    denom[0] = denom[0] + _ONE
    q = _kmul(_kderiv(a), _krecip(denom, n), n)
    out = [_ZERO] * (n + 1)
    for k in range(1, n + 1):
        out[k] = q[k - 1] / k
    return out


# ---------------------------------------------------------------------------
# truncated series over exact rationals
# ---------------------------------------------------------------------------


class SeriesValue(NamedTuple):
    value: complex
    tail: float


_set_field = object.__setattr__


class _Frozen:
    """Base of the immutable value types: assigning or deleting an attribute raises.

    A subclass's ``__init__`` sets its fields with ``_set_field``, or in its
    instance ``__dict__`` when it has one.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Fields:
    """Base of the value types whose fields are their ``__slots__``, in order.

    An instance equals only an instance of its own class, with the fields
    compared as one tuple, so a nan field still equals itself; it hashes as
    that tuple, prints as ``Name(field=value, ...)`` and pickles as its
    class called on the tuple. ``TruncatedSeries`` and ``Polynomial``
    restate ``__eq__`` and ``__hash__`` without the tuple, as the exact
    kernels compare and hash them often.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class TruncatedSeries(_Fields, _Frozen):
    """Formal power series truncated at a fixed order, coefficients exact.

    ``coeffs[k]`` is the coefficient of x^k; ``len(coeffs) == order + 1``.
    Instances are immutable and freely shareable.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: tuple, order: int):
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(coeffs) != order + 1:
            raise ValueError("coefficient count must equal order + 1")
        _set_field(self, "coeffs", coeffs)
        _set_field(self, "order", order)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs and self.order == other.order

    def __hash__(self):
        return hash((self.coeffs, self.order))

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
            out = _kmul(list(self.coeffs), list(other.coeffs), n)
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
        out = _krecip(list(self.coeffs), self.order)
        return TruncatedSeries(tuple(out), self.order)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(x)) truncated at min(orders); inner(0) must be 0."""
        if inner.coeffs[0]:
            raise NonzeroInnerConstant("composition needs inner constant term 0")
        n = min(self.order, inner.order)
        out = _kcompose(list(self.coeffs), list(inner.coeffs), n)
        return TruncatedSeries(tuple(out), n)

    def comp_inverse(self) -> "TruncatedSeries":
        """Compositional inverse via Newton order-doubling (exact)."""
        if self.coeffs[0]:
            raise NotInvertible("compositional inverse needs a0 = 0")
        if self.order < 1 or not self.coeffs[1]:
            raise NotInvertible("compositional inverse needs a1 != 0")
        out = _kinverse(list(self.coeffs), self.order)
        return TruncatedSeries(tuple(out), self.order)

    # -- numeric evaluation -------------------------------------------------

    def eval_complex(self, z: complex, guard: float) -> SeriesValue:
        """Horner evaluation at a complex point inside the trust radius.

        Returns the value together with a crude tail estimate |a_N z^N|.
        """
        check_guard("|z|", guard, z)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        tail = abs(complex(self.coeffs[-1])) * abs(z) ** self.order
        return SeriesValue(acc, tail)

    def __str__(self):
        return f"series(order={self.order}, {list(map(str, self.coeffs))})"


# -- elementary functions of a series ---------------------------------------


def exp_series(a: TruncatedSeries) -> TruncatedSeries:
    """exp(a) for a series with zero constant term."""
    if a.coeffs[0]:
        raise BadConstantTerm("exp_series needs constant term 0")
    return TruncatedSeries(tuple(_kexp(list(a.coeffs), a.order)), a.order)


def log_series(a: TruncatedSeries) -> TruncatedSeries:
    """log(a) for a series with constant term 1."""
    if a.coeffs[0] != 1:
        raise BadConstantTerm("log_series needs constant term 1")
    return TruncatedSeries(tuple(_klog(list(a.coeffs), a.order)), a.order)


def sqrt_series(a: TruncatedSeries) -> TruncatedSeries:
    """Square root with constant term 1."""
    if a.coeffs[0] != 1:
        raise BadConstantTerm("sqrt_series needs constant term 1")
    return TruncatedSeries(tuple(_ksqrt(list(a.coeffs), a.order)), a.order)


def sin_series(a: TruncatedSeries) -> TruncatedSeries:
    if a.coeffs[0]:
        raise BadConstantTerm("sin_series needs constant term 0")
    s, _ = _ksincos(list(a.coeffs), a.order)
    return TruncatedSeries(tuple(s), a.order)


def cos_series(a: TruncatedSeries) -> TruncatedSeries:
    if a.coeffs[0]:
        raise BadConstantTerm("cos_series needs constant term 0")
    _, c = _ksincos(list(a.coeffs), a.order)
    return TruncatedSeries(tuple(c), a.order)


def tan_series(a: TruncatedSeries) -> TruncatedSeries:
    if a.coeffs[0]:
        raise BadConstantTerm("tan_series needs constant term 0")
    s, c = _ksincos(list(a.coeffs), a.order)
    out = _kmul(s, _krecip(c, a.order), a.order)
    return TruncatedSeries(tuple(out), a.order)


def arctan_series(a: TruncatedSeries) -> TruncatedSeries:
    if a.coeffs[0]:
        raise BadConstantTerm("arctan_series needs constant term 0")
    return TruncatedSeries(tuple(_karctan(list(a.coeffs), a.order)), a.order)


# ---------------------------------------------------------------------------
# dense polynomials
# ---------------------------------------------------------------------------


class Polynomial(_Fields, _Frozen):
    """Dense univariate polynomial over exact rationals.

    Trailing zeros are trimmed; the zero polynomial is the empty tuple and
    has degree -1 by convention.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        _set_field(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs,))

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
        if power < 0:
            raise IndexOutOfRange(f"negative power x^{power}")
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
            a, b = self.coeffs, other.coeffs
            return Polynomial.from_coeffs(_kmul(a, b, len(a) + len(b) - 2))
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
        """Horner evaluation at a Fraction (exact) or a complex point."""
        acc = value * 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __str__(self):
        if not self.coeffs:
            return "0"
        # sign and magnitude straight from numerator and denominator, with
        # no Fraction arithmetic or comparison per term
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            num, den = c.numerator, c.denominator
            if not num:
                continue
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if k == 0:
                term = mag
            else:
                base = "x" if k == 1 else f"x^{k}"
                term = base if mag == "1" else f"{mag}*{base}"
            if not parts:
                parts.append(term if num > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if num > 0 else f"- {term}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# sparse sums of monomials
# ---------------------------------------------------------------------------


class SparseTerms:
    """Finite sum of monomials: a map from exponent tuples to nonzero rationals.

    ``terms[key]`` is the coefficient of the monomial whose exponents are
    ``key``, one per variable in ``names``; zero coefficients are never
    kept; a negative exponent raises ``IndexOutOfRange``. This class holds
    the linear structure; subclasses name the variables and add their
    action, constructors and product (``weyl.weyl_mul`` serves two of them).
    """

    __slots__ = ("terms",)
    names: tuple = ()

    def __init__(self, terms: dict | None = None):
        clean = {}
        if terms:
            if min(map(min, terms)) < 0:
                raise IndexOutOfRange(f"negative exponent in {min(terms, key=min)}")
            for key, value in terms.items():
                c = as_fraction(value)
                if c:
                    clean[tuple(map(int, key))] = c
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, *key: int) -> Fraction:
        return self.terms.get(key, _ZERO)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

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
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor: RationalLike):
        c = as_fraction(factor)
        if not c:
            return type(self)()
        return type(self)({k: c * v for k, v in self.terms.items()})

    def __str__(self):
        """Terms by total degree, then by exponents: ``-1/2 + x - 3*x^2*y``."""
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda k: (sum(k), k)):
            c = self.terms[key]
            body = [
                name if power == 1 else f"{name}^{power}"
                for name, power in zip(self.names, key)
                if power
            ]
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
        return f"{type(self).__name__}({self.terms!r})"


class BivariatePolynomial(SparseTerms):
    """Sparse polynomial in two variables: (i, j) -> coefficient of x^i y^j."""

    __slots__ = ()
    names = ("x", "y")

    @staticmethod
    def monomial(i: int, j: int, coeff: RationalLike = 1) -> "BivariatePolynomial":
        return BivariatePolynomial({(i, j): coeff})

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

    def derivative(self, variable: str) -> "BivariatePolynomial":
        out: dict = {}
        for (i, j), c in self.terms.items():
            if variable == "x" and i > 0:
                out[(i - 1, j)] = out.get((i - 1, j), _ZERO) + c * i
            elif variable == "y" and j > 0:
                out[(i, j - 1)] = out.get((i, j - 1), _ZERO) + c * j
        return BivariatePolynomial(out)
