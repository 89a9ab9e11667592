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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, perm

from .errors import NotInvertible, OrderExceeded, ZeroConstantTerm
from .series import Polynomial, RationalLike, TruncatedSeries, _kmul, as_fraction
from .weyl import WeylElement, weyl_mul

_ZERO = Fraction(0)


@dataclass(frozen=True)
class ShefferPair:
    """Validated (f, g) pair; g is normalized so that g(0) = 1."""

    f: TruncatedSeries
    g: TruncatedSeries
    label: str | None = None
    rescaled: bool = field(default=False, compare=False)

    def __post_init__(self):
        if self.f.constant_term:
            raise NotInvertible("f(0) must be 0")
        if self.f.order < 1 or not self.f.coefficient(1):
            raise NotInvertible("f'(0) must be nonzero")
        g0 = self.g.constant_term
        if not g0:
            raise ZeroConstantTerm("g(0) must be nonzero")
        if g0 != 1:
            object.__setattr__(self, "g", self.g.scale(Fraction(1) / g0))
            object.__setattr__(self, "rescaled", True)

    @property
    def order(self) -> int:
        return min(self.f.order, self.g.order)


@dataclass(frozen=True)
class ShefferSequence:
    """Polynomials s_0..s_N generated from a pair; degree(s_n) = n."""

    polys: tuple
    pair: ShefferPair

    def __len__(self):
        return len(self.polys)

    def poly(self, n: int) -> Polynomial:
        if not 0 <= n < len(self.polys):
            raise OrderExceeded(f"s_{n} not generated (have 0..{len(self.polys) - 1})")
        return self.polys[n]


def sequence_via_egf(pair: ShefferPair, n_max: int) -> ShefferSequence:
    """Extract s_0..s_{n_max} from the generating function.

    exp(x * finv(t)) / g(finv(t)) is read off column by column, as an
    exponential Riordan array: the x^j coefficient of s_n is
    n!/j! * [t^n] finv(t)^j / g(finv(t)). Column j is column j-1 times
    finv, so the build costs n_max exact series products.
    """
    if n_max > pair.order:
        raise OrderExceeded(f"n_max {n_max} exceeds series order {pair.order}")
    h = pair.f.comp_inverse()
    prefactor = pair.g.compose(h).reciprocal()
    finv = list(h.coeffs[: n_max + 1])
    column = list(prefactor.coeffs[: n_max + 1])
    rows = [[] for _ in range(n_max + 1)]
    for j in range(n_max + 1):
        if j:
            column = _kmul(column, finv, n_max, _ZERO)
        for n in range(j, n_max + 1):
            rows[n].append(column[n] * perm(n, n - j))
    polys = tuple(Polynomial.from_coeffs(row) for row in rows)
    return ShefferSequence(polys, pair)


def build_P(pair: ShefferPair, k_order: int) -> WeylElement:
    """Lowering operator f(D), truncated at D^k_order."""
    if k_order > pair.order:
        raise OrderExceeded(f"K {k_order} exceeds series order {pair.order}")
    return WeylElement.from_series(pair.f.truncate(k_order), "d")


def build_M(pair: ShefferPair, k_order: int) -> WeylElement:
    """Raising operator (X - g'(D)/g(D)) / f'(D) in normal form.

    Built with all D-powers <= k_order; the result acts exactly on
    polynomials of degree <= k_order. X enters linearly, and the product
    is expanded as X*k(D) - (h*k)(D) with h = g'/g and k = 1/f', keeping
    the factor order of the defining expression before expansion.
    """
    if k_order > pair.order - 1:
        raise OrderExceeded(
            f"K {k_order} needs series order >= {k_order + 1}, have {pair.order}"
        )
    k_ser = pair.f.derivative().reciprocal().truncate(k_order)
    h_ser = (pair.g.derivative() * pair.g.reciprocal()).truncate(k_order)
    x_part = weyl_mul(WeylElement.x(), WeylElement.from_series(k_ser, "d"))
    d_part = WeylElement.from_series((h_ser * k_ser).truncate(k_order), "d")
    return x_part - d_part


def sequence_via_raising(pair: ShefferPair, n_max: int) -> ShefferSequence:
    """Generate the sequence as iterated raising: s_{n+1} = M s_n, s_0 = 1."""
    if n_max > pair.order - 1:
        raise OrderExceeded(f"n_max {n_max} needs series order >= {n_max + 1}")
    m_op = build_M(pair, max(n_max, 1))
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


def taylor_shift(coeffs, t, zero):
    """Shifted coefficient list for p(x + t); field-generic and exact."""
    n = len(coeffs) - 1
    powers = [zero + 1]
    for _ in range(n):
        powers.append(powers[-1] * t)
    out = []
    for k in range(n + 1):
        acc = zero
        for m in range(k, n + 1):
            if coeffs[m]:
                acc = acc + coeffs[m] * comb(m, k) * powers[m - k]
        out.append(acc)
    return out


def shift_pair(pair: ShefferPair, t: RationalLike) -> ShefferPair:
    """Recentred pair: f~(x) = f(x+t) - f(t), g~(x) = g(x+t)/g(t).

    Exact shift of the stored truncated data (the polynomial truncations
    of f and g, not their analytic continuations), so for nonzero t the
    result approximates the recentred functions with the usual truncation
    tail. Requires f'(t) != 0 and g(t) != 0 on the truncated data.
    """
    t = as_fraction(t)
    f_shift = taylor_shift(list(pair.f.coeffs), t, _ZERO)
    f_shift[0] = _ZERO
    g_shift = taylor_shift(list(pair.g.coeffs), t, _ZERO)
    if not g_shift[0]:
        raise ZeroConstantTerm(f"g({t}) = 0: shift not admissible")
    new_f = TruncatedSeries.from_coeffs(f_shift, pair.f.order)
    new_g = TruncatedSeries.from_coeffs(g_shift, pair.g.order)
    return ShefferPair(new_f, new_g, label=pair.label)
