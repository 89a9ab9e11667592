"""Sheffer sequences and their raising/lowering operators.

A pair of series (f, g) with f(0) = 0, f'(0) != 0, g(0) = 1 pins down a
polynomial sequence s_n via its exponential generating function

    sum_n s_n(x) t^n / n!  =  exp(x * finv(t)) / g(finv(t)),

together with a lowering operator P = f(D) and a raising operator
M = (X - g'(D)/g(D)) / f'(D) satisfying M s_n = s_{n+1},
P s_n = n s_{n-1}. This module builds both the sequences (two independent
routes) and the operators, and checks the ladder identities exactly.

g is stored rescaled to g(0) = 1: the generating function at t = 0 forces
s_0 = 1/g(0), and s_0 = 1 is the normalization used everywhere here.

Everything else follows from a few exact series of the pair, and the pair
carries them as cached properties, each built on first read and kept on
that object: ``finv``, the ``prefactor`` 1/g(finv), and the ``ladder``
series k = 1/f' and h*k with h = g'/g. The generating-function sequence,
the raising operator, the composed-series normal ordering and the compiled
coherent-state data all read them there; a caller that needs only finv
never builds the prefactor. ``catalog.family`` fills finv and the prefactor
from the family's closed generating function; any other pair solves for
them. An equal pair built anew builds its core anew, so build a pair once
and reuse it, as ``catalog.family`` does. Negative
degrees raise ``IndexOutOfRange`` before any of it is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, perm

from .errors import IndexOutOfRange, NotInvertible, OrderExceeded, ZeroConstantTerm
from .series import Polynomial, TruncatedSeries, _common_denominator, _Fields, _Frozen, _iconv, _set_field
from .weyl import WeylElement, weyl_mul

_ZERO = Fraction(0)


class ShefferPair(_Frozen):
    """Validated (f, g) pair; g is normalized so that g(0) = 1.

    ``rescaled`` says whether g was divided by its g(0) to get there; it
    stays out of equality and hash. The pair has no ``__slots__``: its
    instance ``__dict__`` holds the fields, the cached core and the
    compiled Fock data, and it can be weakly referenced.
    """

    def __init__(self, f: TruncatedSeries, g: TruncatedSeries, label: str | None = None):
        if f.constant_term:
            raise NotInvertible("f(0) must be 0")
        if f.order < 1 or not f.coefficient(1):
            raise NotInvertible("f'(0) must be nonzero")
        g0 = g.constant_term
        if not g0:
            raise ZeroConstantTerm("g(0) must be nonzero")
        if g0 != 1:
            g = g.scale(Fraction(1) / g0)
        vars(self).update(f=f, g=g, label=label, rescaled=g0 != 1)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.f == other.f and self.g == other.g and self.label == other.label

    def __hash__(self):
        return hash((self.f, self.g, self.label))

    def __repr__(self):
        return (f"{self.__class__.__qualname__}(f={self.f!r}, g={self.g!r}, "
                f"label={self.label!r}, rescaled={self.rescaled!r})")

    @property
    def order(self) -> int:
        return min(self.f.order, self.g.order)

    # the core: kept in the instance __dict__, outside the compared fields
    @cached_property
    def finv(self) -> TruncatedSeries:
        """finv = f^(-1), the compositional inverse of f, at the pair's f order.

        A catalog pair arrives with it from its family's record; a pair
        built anew solves for it by Newton inversion.
        """
        return self.f.comp_inverse()

    @cached_property
    def prefactor(self) -> TruncatedSeries:
        """The generating-function prefactor 1/g(finv).

        A catalog pair arrives with it from its family's record; a pair
        built anew composes g with finv.
        """
        return self.g.compose(self.finv).reciprocal()

    @cached_property
    def ladder(self) -> tuple:
        """(k, h*k) with k = 1/f' and h = g'/g, both at order self.order - 1."""
        top = self.order - 1
        k_ser = self.f.derivative().reciprocal().truncate(top)
        h_ser = self.g.derivative() * self.g.reciprocal()
        return k_ser, (h_ser * k_ser).truncate(top)


class ShefferSequence(_Fields, _Frozen):
    """Polynomials s_0..s_N generated from a pair; degree(s_n) = n."""

    __slots__ = ("polys", "pair")

    def __init__(self, polys: tuple, pair: ShefferPair):
        _set_field(self, "polys", polys)
        _set_field(self, "pair", pair)

    def poly(self, n: int) -> Polynomial:
        if not 0 <= n < len(self.polys):
            raise OrderExceeded(f"s_{n} not generated (have 0..{len(self.polys) - 1})")
        return self.polys[n]


def _check_degree(n: int, what: str) -> None:
    if n < 0:
        raise IndexOutOfRange(f"{what} {n} is negative")


def sequence_via_egf(pair: ShefferPair, n_max: int) -> ShefferSequence:
    """Extract s_0..s_{n_max} from the generating function.

    exp(x * finv(t)) / g(finv(t)) is read off column by column, as an
    exponential Riordan array: the x^j coefficient of s_n is
    n!/j! * [t^n] finv(t)^j / g(finv(t)). Column j is column j-1 times
    finv and vanishes below t^j, so it is kept as integer numerators of
    t^j..t^{n_max} over one gcd-reduced denominator, with finv over its
    common denominator once; a `Fraction` is built only for each
    coefficient of s_n. The pair's cached finv and prefactor feed it.
    """
    _check_degree(n_max, "n_max")
    if n_max > pair.order:
        raise OrderExceeded(f"n_max {n_max} exceeds series order {pair.order}")
    # finv(t) = t * F(t), so column j = t^j * C_j with C_j = C_{j-1} * F
    shift, shift_den = _common_denominator(pair.finv.coeffs[1 : n_max + 1])
    col, den = _common_denominator(pair.prefactor.coeffs[: n_max + 1])
    rows = [[] for _ in range(n_max + 1)]
    for j in range(n_max + 1):
        if j:
            col = _iconv(col, shift, n_max - j)
            den *= shift_den
            g = gcd(den, *col)
            col, den = [v // g for v in col], den // g
        for n in range(j, n_max + 1):
            v = col[n - j]
            rows[n].append(Fraction(v * perm(n, n - j), den) if v else _ZERO)
    polys = tuple(Polynomial.from_coeffs(row) for row in rows)
    return ShefferSequence(polys, pair)


def build_P(pair: ShefferPair, k_order: int) -> WeylElement:
    """Lowering operator f(D), truncated at D^k_order."""
    _check_degree(k_order, "K")
    if k_order > pair.order:
        raise OrderExceeded(f"K {k_order} exceeds series order {pair.order}")
    return WeylElement.from_series(pair.f.truncate(k_order))


def build_M(pair: ShefferPair, k_order: int) -> WeylElement:
    """Raising operator (X - g'(D)/g(D)) / f'(D) in normal form.

    Built with all D-powers <= k_order; the result acts exactly on
    polynomials of degree <= k_order. X enters linearly, and the product
    is expanded as X*k(D) - (h*k)(D) with h = g'/g and k = 1/f', keeping
    the factor order of the defining expression before expansion. k and
    h*k are truncations of the pair's cached ladder series.
    """
    _check_degree(k_order, "K")
    if k_order > pair.order - 1:
        raise OrderExceeded(
            f"K {k_order} needs series order >= {k_order + 1}, have {pair.order}"
        )
    k_ser, hk_ser = (ser.truncate(k_order) for ser in pair.ladder)
    x_part = weyl_mul(WeylElement.x(), WeylElement.from_series(k_ser))
    d_part = WeylElement.from_series(hk_ser)
    return x_part - d_part


def sequence_via_raising(pair: ShefferPair, n_max: int) -> ShefferSequence:
    """Generate the sequence as iterated raising: s_{n+1} = M s_n, s_0 = 1."""
    _check_degree(n_max, "n_max")
    if n_max > pair.order - 1:
        raise OrderExceeded(f"n_max {n_max} needs series order >= {n_max + 1}")
    m_op = build_M(pair, n_max)
    polys = [Polynomial.one()]
    for _ in range(n_max):
        polys.append(m_op.apply(polys[-1]))
    return ShefferSequence(tuple(polys), pair)


def sheffer_coeffs(seq: ShefferSequence, n: int):
    """Coefficient row [s_{n,0}, ..., s_{n,n}] of s_n."""
    return seq.poly(n).padded(n)


def verify_monomiality(pair: ShefferPair, n_max: int) -> list:
    """Check the ladder identities exactly for n <= n_max.

    Returns one row per identity per n: {"identity", "n", "pass"}. The
    identities are M s_n = s_{n+1}, P s_n = n s_{n-1}, M P s_n = n s_n, and
    equality of the generating-function and raising routes. Failures are
    rows, not exceptions.
    """
    seq = sequence_via_egf(pair, n_max + 1)
    via_m = sequence_via_raising(pair, n_max + 1)
    m_op = build_M(pair, n_max + 1)
    p_op = build_P(pair, n_max + 1)
    rows = []
    for n in range(n_max + 1):
        s_n = seq.poly(n)
        raised = m_op.apply(s_n)
        rows.append({"identity": "raise", "n": n, "pass": raised == seq.poly(n + 1)})
        lowered = p_op.apply(s_n)
        expected = seq.poly(n - 1).scale(n) if n else Polynomial.zero()
        rows.append({"identity": "lower", "n": n, "pass": lowered == expected})
        number = m_op.apply(lowered)
        rows.append({"identity": "number", "n": n, "pass": number == s_n.scale(n)})
        rows.append(
            {"identity": "route_equivalence", "n": n, "pass": seq.poly(n) == via_m.poly(n)}
        )
    return rows
