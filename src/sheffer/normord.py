"""Boson normal ordering of exp(lambda*M), in exact arithmetic.

Under the correspondence X <-> a-dagger, D <-> a, the raising operator of a
Sheffer pair is linear in a-dagger, and exp(lambda*M) has an exactly
computable normally ordered form, built here two independent ways: the
operator powers M^n, each the previous one times the X-linear M from the
right (``normal_order_lhs``), and the pair's finv and prefactor 1/g(finv)
evaluated at lambda + f(a) by a Taylor shift over one table of the powers
of f(a) (``normal_order_rhs``), with exact term-by-term comparison
(``verify_normal_order``). The floating-point coherent-state layer is
``sheffer.fock``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd
from operator import add, mul

from .errors import OrderExceeded
from .series import TruncatedSeries, _common_denominator, _iconv
from .sequences import ShefferPair, _check_degree, build_M, pair_finv, pair_prefactor
from .weyl import WeylElement

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# normally ordered series
# ---------------------------------------------------------------------------


class NormallyOrderedSeries:
    """Map (creation power, annihilation power) -> polynomial in lambda.

    Represents sum c_ij(lambda) :adag^i a^j: where the double-dot product
    treats a and adag as commuting symbols. Zero polynomials are not kept.
    """

    __slots__ = ("terms", "lam_order", "a_order")

    def __init__(self, terms: dict, lam_order: int, a_order: int):
        clean = {}
        for key, poly in terms.items():
            tup = tuple(poly)
            if len(tup) != lam_order + 1:
                raise ValueError("lambda polynomial length must be lam_order + 1")
            if any(tup):
                clean[(int(key[0]), int(key[1]))] = tup
        self.terms = clean
        self.lam_order = lam_order
        self.a_order = a_order

    def coefficient(self, i: int, j: int) -> tuple:
        return self.terms.get((i, j), (_ZERO,) * (self.lam_order + 1))

    def __eq__(self, other):
        return (
            isinstance(other, NormallyOrderedSeries)
            and self.lam_order == other.lam_order
            and self.a_order == other.a_order
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.lam_order, self.a_order, frozenset(self.terms)))

    def conjugate(self) -> "NormallyOrderedSeries":
        """Hermitian conjugate for real lambda: swap creation/annihilation powers."""
        return NormallyOrderedSeries(
            {(j, i): poly for (i, j), poly in self.terms.items()},
            self.lam_order,
            self.a_order,
        )

    def to_json_list(self) -> list:
        return [
            {
                "adag": i,
                "a": j,
                "lambda_poly": [str(c) for c in self.terms[(i, j)]],
            }
            for (i, j) in sorted(self.terms)
        ]

    def __repr__(self):
        return (
            f"NormallyOrderedSeries({len(self.terms)} terms, "
            f"lam_order={self.lam_order}, a_order={self.a_order})"
        )


def _check_orders(pair: ShefferPair, lam_order: int, a_order: int) -> None:
    """Both routes need non-negative orders and series order >= their sum."""
    _check_degree(lam_order, "lam_order")
    _check_degree(a_order, "a_order")
    need = lam_order + a_order
    if pair.order < need:
        raise OrderExceeded(f"series order {pair.order} < lam_order + a_order = {need}")


def _shift_at_fa(series: TruncatedSeries, columns: list, fd_powers: list, lam_order: int):
    """Rows 0..lam_order in lambda of series(lam + f(a)), over one denominator.

    Row p is sum_m C(m+p, p) s_{m+p} f(a)^m, and f(a)^m vanishes below a^m,
    so m stops at the a-order J. ``columns[q]`` holds the a^q numerators of
    f(a)^0..f(a)^q, where f(a)^m sits over fd^m; ``fd_powers`` is fd^0..fd^J,
    and each weight carries the fd^(J-m) that puts every term over fd^J.
    """
    width = len(columns)
    nums, den = _common_denominator(series.coeffs[: lam_order + width])
    rows = []
    for p in range(lam_order + 1):
        weights = [comb(m + p, p) * nums[m + p] * fd_powers[-1 - m] for m in range(width)]
        rows.append([sum(map(mul, weights, column)) for column in columns])
    return rows, den * fd_powers[-1]


def _reduced(rows: list, den: int):
    """Integer rows over den, divided through by their common gcd."""
    g = gcd(den, *(c for row in rows for c in row))
    if g > 1:
        rows = [[c // g for c in row] for row in rows]
        den //= g
    return rows, den


def normal_order_rhs(pair: ShefferPair, lam_order: int, a_order: int) -> NormallyOrderedSeries:
    """Composed-series normally ordered form of exp(lam*M).

    Builds E(lam, a) = finv(lam + f(a)) - a and
    R(lam, a) = g(a)/g(finv(lam + f(a))) as exact series truncated at
    lam^lam_order and a^a_order, then expands :exp(adag*E)*R: so the
    coefficient of adag^i is E^i/i! * R. No bivariate composition is
    needed: finv and the prefactor 1/g(finv) are univariate series of the
    pair's cached core, and each is evaluated at lam + f(a) by a Taylor
    shift over one table of the powers f(a)^0..f(a)^a_order. Every
    bivariate series is kept as integer rows in lambda over one common
    denominator; row 0 of E is zero, since finv(f(a)) = a. Requires series
    order >= lam_order + a_order because mixed terms of the composition
    reach that depth.
    """
    _check_orders(pair, lam_order, a_order)
    width = a_order + 1
    f_nums, fd = _common_denominator(pair.f.coeffs[:width])
    fd_powers, table = [1], [[1] + [0] * a_order]
    for _ in range(a_order):
        fd_powers.append(fd_powers[-1] * fd)
        table.append(_iconv(table[-1], f_nums, a_order))
    columns = [[power[q] for power in table[: q + 1]] for q in range(width)]

    e_rows, e_den = _shift_at_fa(pair_finv(pair), columns, fd_powers, lam_order)
    e_rows[0] = [0] * width
    e_rows, e_den = _reduced(e_rows, e_den)
    q_rows, q_den = _shift_at_fa(pair_prefactor(pair), columns, fd_powers, lam_order)
    g_nums, gd = _common_denominator(pair.g.coeffs[:width])
    acc, den = _reduced([_iconv(g_nums, row, a_order) for row in q_rows], gd * q_den)

    terms: dict = {}
    for i in range(lam_order + 1):
        if i:
            # acc * E in lambda; acc vanishes below row i - 1 and E at row 0
            out = [[0] * width for _ in range(lam_order + 1)]
            for p1 in range(i - 1, lam_order):
                for p2 in range(1, lam_order + 1 - p1):
                    out[p1 + p2] = list(
                        map(add, out[p1 + p2], _iconv(acc[p1], e_rows[p2], a_order))
                    )
            acc, den = _reduced(out, den * e_den)
        scale = den * factorial(i)
        for p, row in enumerate(acc):
            for q, c in enumerate(row):
                if c:
                    poly = terms.setdefault((i, q), [_ZERO] * (lam_order + 1))
                    poly[p] = Fraction(c, scale)
    return NormallyOrderedSeries(terms, lam_order, a_order)


def normal_order_lhs(pair: ShefferPair, lam_order: int, a_order: int) -> NormallyOrderedSeries:
    """Brute-force normally ordered form of exp(lam*M).

    Expands sum lam^n M^n / n! with M read as a boson operator, deliberately
    independent of the coherent-state route. M = X*k(D) - (h*k)(D) is built
    once and is linear in X, so each power is the previous one times M from
    the right: first X^i D^j X = X^{i+1} D^j + j X^i D^{j-1}, then a shift
    of the D-power by each term of k, plus a shift by each term of -h*k.
    This lands in normal form with no binomials. One factor of M lowers the
    D-power by at most one, so at step n a monomial with D-power above
    a_order + lam_order - n can never reach the recorded D-powers
    (<= a_order); it is skipped inside the loop instead of computed. The
    same cap never lets a D^(lam_order + a_order) term of M contribute, so
    M is built at D-truncation lam_order + a_order - 1, and series order
    lam_order + a_order suffices, as for ``normal_order_rhs``. Numerators
    are kept as integers over one running common denominator, reduced by
    their gcd after every factor.
    """
    _check_orders(pair, lam_order, a_order)
    depth = lam_order + a_order
    # the lambda^0 term needs no M; from lambda^1 on, depth - 1 >= 0
    m_op = build_M(pair, depth - 1) if lam_order else WeylElement.zero()
    m_num, m_den = _common_denominator(list(m_op.terms.values()))
    k_part, d_part = [], []  # (t, numerator) of X*D^t and of D^t, t ascending
    for (i, t), c in sorted(zip(m_op.terms, m_num)):
        (k_part if i else d_part).append((t, c))
    terms: dict = {}

    def record(power: dict, den: int, n: int):
        den *= factorial(n)
        for (i, j), c in power.items():
            if j <= a_order:
                poly = terms.setdefault((i, j), [_ZERO] * (lam_order + 1))
                poly[n] = Fraction(c, den)

    power, den = {(0, 0): 1}, 1
    record(power, den, 0)
    for n in range(1, lam_order + 1):
        cap = depth - n
        out: dict = {}
        for (i, j), e in power.items():
            for t, c in k_part:
                d = j + t - 1
                if d > cap:
                    break
                if j:
                    out[(i, d)] = out.get((i, d), 0) + e * j * c
                if d < cap:
                    out[(i + 1, d + 1)] = out.get((i + 1, d + 1), 0) + e * c
            for t, c in d_part:
                d = j + t
                if d > cap:
                    break
                out[(i, d)] = out.get((i, d), 0) + e * c
        power = {key: c for key, c in out.items() if c}
        den *= m_den
        g = gcd(den, *power.values())
        if g > 1:
            power = {key: c // g for key, c in power.items()}
            den //= g
        record(power, den, n)
    return NormallyOrderedSeries(terms, lam_order, a_order)


def verify_normal_order(pair: ShefferPair, lam_order: int, a_order: int) -> list:
    """Exact term-by-term comparison of the two normal-ordering routes.

    Returns one row per (adag power, a power, lambda power) where either
    route has a nonzero coefficient; failures are rows, not exceptions.
    """
    lhs = normal_order_lhs(pair, lam_order, a_order)
    rhs = normal_order_rhs(pair, lam_order, a_order)
    rows = []
    for key in sorted(set(lhs.terms) | set(rhs.terms)):
        left = lhs.coefficient(*key)
        right = rhs.coefficient(*key)
        for k in range(lam_order + 1):
            if left[k] or right[k]:
                rows.append(
                    {
                        "adag": key[0],
                        "a": key[1],
                        "lambda_power": k,
                        "pass": left[k] == right[k],
                    }
                )
    return rows
