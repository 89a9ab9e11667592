"""Boson normal ordering of exp(lambda*M), in exact arithmetic.

Under the correspondence X <-> a-dagger, D <-> a, the raising operator of a
Sheffer pair is linear in a-dagger, and exp(lambda*M) has an exactly
computable normally ordered form, built here two independent ways: the
operator powers M^n, one integer row in D per X-power, each the previous
one times the X-linear M = X*k(D) + d(D) from the right, which reads row by
row as row'_i = (row_(i-1) + d/dD row_i) * k + row_i * d
(``normal_order_lhs``); and the pair's finv and prefactor 1/g(finv)
evaluated at lambda + f(a) by a Taylor shift over one table of the powers
of f(a) (``normal_order_rhs``). Both routes run their row products on
Kronecker-packed integers (``series._kpack``) and keep their rows as
integers over one denominator per power; ``verify_normal_order`` compares
them cell by cell by cross-multiplication, without building a
``Fraction``. The floating-point coherent-state layer is
``sheffer.fock``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import comb, factorial, gcd
from operator import mul

from .errors import OrderExceeded
from .series import TruncatedSeries, _common_denominator, _iconv, _kpack, _kunpack, _kwidth
from .sequences import ShefferPair, _check_degree

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
    g = gcd(den, *chain.from_iterable(rows))
    if g > 1:
        rows = [[c // g for c in row] for row in rows]
        den //= g
    return rows, den


def _series(cells, lam_order: int, a_order: int) -> NormallyOrderedSeries:
    """The series of (adag power, a power, lambda power, numerator,
    denominator) cells; zero numerators are skipped."""
    terms: dict = {}
    for i, j, k, c, den in cells:
        if c:
            terms.setdefault((i, j), [_ZERO] * (lam_order + 1))[k] = Fraction(c, den)
    return NormallyOrderedSeries(terms, lam_order, a_order)


def _rhs_rows(pair: ShefferPair, lam_order: int, a_order: int) -> list:
    """(rows, den) per adag power i = 0..lam_order, where rows[p][q] / den is
    the lambda^p a^q coefficient of E^i R / i!; see ``normal_order_rhs``."""
    _check_orders(pair, lam_order, a_order)
    width = a_order + 1
    f_nums, fd = _common_denominator(pair.f.coeffs[:width])
    fd_powers, table = [1], [[1] + [0] * a_order]
    for _ in range(a_order):
        fd_powers.append(fd_powers[-1] * fd)
        table.append(_iconv(table[-1], f_nums, a_order))
    columns = [[power[q] for power in table[: q + 1]] for q in range(width)]

    e_rows, e_den = _shift_at_fa(pair.finv, columns, fd_powers, lam_order)
    e_rows[0] = [0] * width
    e_rows, e_den = _reduced(e_rows, e_den)
    q_rows, q_den = _shift_at_fa(pair.prefactor, columns, fd_powers, lam_order)
    g_nums, gd = _common_denominator(pair.g.coeffs[:width])
    acc, den = _reduced([_iconv(g_nums, row, a_order) for row in q_rows], gd * q_den)

    out = [(acc, den)]
    for i in range(1, lam_order + 1):
        # acc * E in lambda, summed packed over p1 + p2 = p; acc vanishes
        # below row i - 1 and E at row 0, so row p sums p - i + 1 products
        slot = _kwidth(acc, e_rows, width * (lam_order + 1 - i))
        left = [_kpack(row, slot) for row in acc[i - 1 : lam_order]]
        right = [_kpack(row, slot) for row in e_rows[1 : lam_order + 2 - i]]
        rows = [[0] * width for _ in range(i)]
        for m in range(len(left)):
            total = sum(map(mul, left[: m + 1], reversed(right[: m + 1])))
            rows.append(_kunpack(total, slot, width))
        acc, den = _reduced(rows, den * e_den)
        out.append((acc, den * factorial(i)))
    return out


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
    denominator; row 0 of E is zero, since finv(f(a)) = a. Each step's
    products over lambda are summed on Kronecker-packed rows (``_kpack``)
    and each output row is unpacked once. Requires series order >=
    lam_order + a_order because mixed terms of the composition reach that
    depth.
    """
    cells = (
        (i, q, p, c, den)
        for i, (rows, den) in enumerate(_rhs_rows(pair, lam_order, a_order))
        for p, row in enumerate(rows)
        for q, c in enumerate(row)
    )
    return _series(cells, lam_order, a_order)


def _lhs_rows(pair: ShefferPair, lam_order: int, a_order: int) -> list:
    """(rows, den) per power n = 0..lam_order, where rows[i][j] / den is the
    X^i D^j coefficient of M^n / n! for j <= a_order; see
    ``normal_order_lhs``."""
    _check_orders(pair, lam_order, a_order)
    depth = lam_order + a_order
    # M = X*k(D) - (h*k)(D) from the pair's ladder, cut at D^(depth - 1): the
    # numerators of X*D^t and of D^t; the lambda^0 term needs no M
    k_coeffs, hk_coeffs = (ser.coeffs[:depth] for ser in pair.ladder) if lam_order else ((), ())
    m_num, m_den = _common_denominator([*k_coeffs, *(-c for c in hk_coeffs)])
    k, d = m_num[:depth], m_num[depth:]

    power, den = [[1] + [0] * depth], 1
    out = [([power[0][: a_order + 1]], den)]
    for n in range(1, lam_order + 1):
        size = depth - n + 1  # D-powers 0..cap
        rows = [row[:size] for row in power]
        slopes = [list(map(mul, range(1, size + 1), row[1:])) for row in power]
        slot = _kwidth(rows + slopes, (k, d), 3 * size)
        k_packed, d_packed = _kpack(k[:size], slot), _kpack(d[:size], slot)
        # the old power has no X^-1 and no X^n row: p[-1], p[n] and q[n]
        # read the appended zero
        p = [_kpack(row, slot) for row in rows] + [0]
        q = [_kpack(row, slot) for row in slopes] + [0]
        power = [
            _kunpack((p[i - 1] + q[i]) * k_packed + p[i] * d_packed, slot, size)
            for i in range(n + 1)
        ]
        power, den = _reduced(power, den * m_den)
        out.append(([row[: a_order + 1] for row in power], den * factorial(n)))
    return out


def normal_order_lhs(pair: ShefferPair, lam_order: int, a_order: int) -> NormallyOrderedSeries:
    """Brute-force normally ordered form of exp(lam*M).

    Expands sum lam^n M^n / n! with M read as a boson operator, deliberately
    independent of the coherent-state route. M = X*k(D) - (h*k)(D) comes
    from the pair's ladder series k and h*k, put over one denominator; it
    is linear in X, so M^n keeps one integer row in D per X-power,
    and the next power is the previous one times M from the right. Since
    D^j X = X D^j + j D^(j-1), the X^i row of M^(n+1) is
    (row_(i-1) + row_i') * k + row_i * (-h*k), with ' the derivative in D.
    One factor of M lowers the D-power by at most one, so at step n a
    D-power above cap = a_order + lam_order - n can never come back to the
    recorded D-powers (<= a_order); every row is truncated at cap. The
    same cap never lets a D^(lam_order + a_order) term of M contribute, so
    M is cut at D^(lam_order + a_order - 1), and series order
    lam_order + a_order suffices, as for ``normal_order_rhs``. The row
    products run on Kronecker-packed rows (``_kpack``), and the rows stay
    integers over one running common denominator, reduced by their gcd
    after every factor.
    """
    cells = (
        (i, j, n, c, den)
        for n, (rows, den) in enumerate(_lhs_rows(pair, lam_order, a_order))
        for i, row in enumerate(rows)
        for j, c in enumerate(row)
    )
    return _series(cells, lam_order, a_order)


def verify_normal_order(pair: ShefferPair, lam_order: int, a_order: int) -> list:
    """Exact term-by-term comparison of the two normal-ordering routes.

    Returns one row per (adag power, a power, lambda power) where either
    route has a nonzero coefficient, in that order; failures are rows, not
    exceptions. The routes' integer rows are compared directly: the lhs
    cell l / l_den (row recurrence of M^n / n!) equals the rhs cell
    r / r_den (E^i R / i!) iff l * r_den == r * l_den, so no ``Fraction``
    is built.
    """
    lhs = _lhs_rows(pair, lam_order, a_order)
    rhs = _rhs_rows(pair, lam_order, a_order)
    rows = []
    for i, (right, r_den) in enumerate(rhs):
        for j in range(a_order + 1):
            for k, (left, l_den) in enumerate(lhs):
                l = left[i][j] if i < len(left) else 0
                r = right[k][j]
                if l or r:
                    rows.append(
                        {"adag": i, "a": j, "lambda_power": k, "pass": l * r_den == r * l_den}
                    )
    return rows
