"""Two-variable extensions: higher Hermite families, umbral composites,
heat-type equations, and the non-local evolution recursion.

The two-variable polynomials H_n^(m)(x,y) = n! sum_r x^{n-mr} y^r /
((n-mr)! r!) carry ladder operators P = D_x, M = x + m*y*D_x^{m-1}. For a
general pair (f, g) the composite S_n(x,y) = n! sum_r s_{n-2r}(x) s_r(y) /
((n-2r)! r!) solves the generalized heat equation
f(D_y) S_n = f(D_x)^2 S_n, and the operators Pi = f(D_x),
Theta = M_x + 2 M_y f(D_y) commute to the identity. Whether Theta/Pi also
act as ladder operators on S_n is recorded, not asserted: the
``theta_pi_check`` rows carry a ``holds`` field for that status. The
operators on (x, y) multiply by ``weyl.weyl_mul``, as one-pair ones do.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm

from .errors import OrderExceeded
from .series import (
    BivariatePolynomial,
    Polynomial,
    SparseTerms,
    TruncatedSeries,
    _common_denominator,
)
from .sequences import ShefferPair, _check_degree, build_M, build_P, sequence_via_egf
from .weyl import WeylElement, weyl_mul


# ---------------------------------------------------------------------------
# operators acting on bivariate polynomials
# ---------------------------------------------------------------------------


class BivarOperator(SparseTerms):
    """Span of monomials X_x^i D_x^j X_y^k D_y^l; x-ops commute with y-ops."""

    __slots__ = ()
    names = ("X_x", "D_x", "X_y", "D_y")

    @staticmethod
    def in_x(w: WeylElement) -> "BivarOperator":
        return BivarOperator({(i, j, 0, 0): c for (i, j), c in w.terms.items()})

    @staticmethod
    def in_y(w: WeylElement) -> "BivarOperator":
        return BivarOperator({(0, 0, i, j): c for (i, j), c in w.terms.items()})

    # borrowed, not inherited: WeylElement's one-pair constructors do not apply here
    __mul__ = WeylElement.__mul__
    commutator = WeylElement.commutator

    def apply(self, p: BivariatePolynomial) -> BivariatePolynomial:
        """Act pair by pair: X^i D^j x^a = a!/(a-j)! x^{a+i-j} for j <= a.

        Integer numerators over the polynomial's and the operator's common
        denominators are summed, and one Fraction is built per output key.
        """
        if not p.terms or not self.terms:
            return BivariatePolynomial.zero()
        pn, pd = _common_denominator(list(p.terms.values()))
        wn, wd = _common_denominator(list(self.terms.values()))
        ops = list(zip(self.terms, wn))
        acc: dict = {}
        for (a, b), c in zip(p.terms, pn):
            for (ix, jx, iy, jy), w in ops:
                if jx <= a and jy <= b:
                    key = (a + ix - jx, b + iy - jy)
                    acc[key] = acc.get(key, 0) + c * w * perm(a, jx) * perm(b, jy)
        den = pd * wd
        return BivariatePolynomial({key: Fraction(v, den) for key, v in acc.items()})


# ---------------------------------------------------------------------------
# higher Hermite families
# ---------------------------------------------------------------------------


def hkdf(m: int, n: int) -> BivariatePolynomial:
    """H_n^(m)(x, y): exact evaluation of the defining double-index sum."""
    if m < 1:
        raise ValueError("index m must be >= 1")
    if n < 0:
        raise ValueError("degree n must be >= 0")
    terms = {}
    for r in range(n // m + 1):
        terms[(n - m * r, r)] = Fraction(
            factorial(n), factorial(n - m * r) * factorial(r)
        )
    return BivariatePolynomial(terms)


def hkdf_ladder_check(m: int, n_max: int) -> list:
    """Exact ladder check: M H_n = H_{n+1} and D_x H_n = n H_{n-1}.

    For m = 1 the closed form H_n^(1) = (x + y)^n is checked as well.
    """
    raise_op = BivarOperator({(1, 0, 0, 0): 1, (0, m - 1, 1, 0): m})
    lower_op = BivarOperator({(0, 1, 0, 0): 1})
    rows = []
    polys = [hkdf(m, n) for n in range(n_max + 2)]
    binom = BivariatePolynomial({(1, 0): 1, (0, 1): 1})
    power = BivariatePolynomial({(0, 0): 1})
    for n in range(n_max + 1):
        rows.append(
            {"identity": "hkdf_raise", "m": m, "n": n,
             "pass": raise_op.apply(polys[n]) == polys[n + 1]}
        )
        expected = polys[n - 1].scale(n) if n else BivariatePolynomial.zero()
        rows.append(
            {"identity": "hkdf_lower", "m": m, "n": n,
             "pass": lower_op.apply(polys[n]) == expected}
        )
        if m == 1:
            rows.append(
                {"identity": "hkdf_binomial_oracle", "m": m, "n": n,
                 "pass": polys[n] == power}
            )
            power = power * binom
    return rows


def hkdf_egf_check(m: int, n_max: int) -> list:
    """Cross-check against exp(x*t + y*t^m) expanded by the generic exp recursion."""
    arg = [BivariatePolynomial.zero() for _ in range(n_max + 1)]
    if n_max >= 1:
        arg[1] = arg[1] + BivariatePolynomial.monomial(1, 0)
    if m <= n_max:
        arg[m] = arg[m] + BivariatePolynomial.monomial(0, 1)
    expansion = [BivariatePolynomial({(0, 0): 1})]
    for k in range(1, n_max + 1):
        acc = BivariatePolynomial.zero()
        for i in range(1, k + 1):
            if not arg[i].is_zero():
                acc = acc + (arg[i] * expansion[k - i]).scale(i)
        expansion.append(acc.scale(Fraction(1, k)))
    rows = []
    for n in range(n_max + 1):
        rows.append(
            {"identity": "hkdf_egf", "m": m, "n": n,
             "pass": expansion[n].scale(factorial(n)) == hkdf(m, n)}
        )
    return rows


# ---------------------------------------------------------------------------
# umbral composite polynomials and the generalized heat equation
# ---------------------------------------------------------------------------


def umbral_S(pair: ShefferPair, n: int) -> BivariatePolynomial:
    """Composite S_n(x,y) = n! sum_r s_{n-2r}(x) s_r(y) / ((n-2r)! r!)."""
    _check_degree(n, "degree")
    if n > pair.order:
        raise OrderExceeded(f"S_{n} needs the sequence to degree {n}")
    return _composite(_sequence_table(pair, n), n)


def _sequence_table(pair: ShefferPair, n_max: int):
    """s_0..s_{n_max} as integer coefficient rows over one common denominator."""
    seq = sequence_via_egf(pair, n_max)
    polys = [seq.poly(k).coeffs for k in range(n_max + 1)]
    nums, den = _common_denominator([c for coeffs in polys for c in coeffs])
    rows, start = [], 0
    for coeffs in polys:
        rows.append(nums[start : start + len(coeffs)])
        start += len(coeffs)
    return rows, den


def _composite(table, n: int) -> BivariatePolynomial:  # table reaches degree n or beyond
    rows, den = table
    acc: dict = {}
    for r in range(n // 2 + 1):
        # n!/((n-2r)! r!) = C(n, 2r) (2r)!/r!, an integer
        weight = factorial(n) // (factorial(n - 2 * r) * factorial(r))
        row_y = [(j, cy) for j, cy in enumerate(rows[r]) if cy]
        for i, cx in enumerate(rows[n - 2 * r]):
            if cx:
                wx = weight * cx
                for j, cy in row_y:
                    acc[(i, j)] = acc.get((i, j), 0) + wx * cy
    den *= den
    return BivariatePolynomial({key: Fraction(v, den) for key, v in acc.items()})


def heat_check(pair: ShefferPair, n: int) -> dict:
    """Exact check that f(D_y) S_n = [f(D_x)]^2 S_n; failures are rows."""
    return _heat_check(pair, n, None)


def _heat_rows(pair: ShefferPair, depth: int) -> list:
    """heat_check rows for n = 0..depth, every S_n read from one sequence table."""
    table = _sequence_table(pair, min(depth, pair.order))
    return [_heat_check(pair, n, table) for n in range(depth + 1)]


def _heat_check(pair: ShefferPair, n: int, table) -> dict:
    # table: a _sequence_table to degree n or beyond, or None to build one
    _check_degree(n, "degree")
    if n > pair.order:
        raise OrderExceeded(f"heat check at degree {n} needs series order >= {n}")
    s_n = _composite(_sequence_table(pair, n) if table is None else table, n)
    f_trunc = pair.f.truncate(n)
    op_x = BivarOperator.in_x(WeylElement.from_series(f_trunc))
    op_y = BivarOperator.in_y(WeylElement.from_series(f_trunc))
    lhs = op_y.apply(s_n)
    rhs = op_x.apply(op_x.apply(s_n))
    return {"identity": "heat", "n": n, "pass": lhs == rhs}


def theta_pi_check(pair: ShefferPair, n_max: int) -> list:
    """Commutator and (recorded) ladder status of Pi = f(D_x),
    Theta = M_x + 2 M_y f(D_y).

    [Pi, Theta] = 1 is asserted exactly on all monomials x^i y^j with
    i + j <= n_max. The ladder rows report whether Theta S_n = S_{n+1} and
    Pi S_n = n S_{n-1} happen to hold; they carry pass=True regardless
    (status is the ``holds`` field).
    """
    _check_degree(n_max, "n_max")
    depth = n_max + 2
    if depth > pair.order - 1:
        raise OrderExceeded(f"need series order >= {depth + 1}")
    m_op = build_M(pair, depth)
    p_op = build_P(pair, depth)
    pi = BivarOperator.in_x(p_op)
    theta = BivarOperator.in_x(m_op) + BivarOperator.in_y(weyl_mul(m_op, p_op)).scale(2)
    comm = pi.commutator(theta)
    rows = []
    for i in range(n_max + 1):
        for j in range(n_max + 1 - i):
            mono = BivariatePolynomial.monomial(i, j)
            rows.append(
                {"identity": "pi_theta_commutator", "i": i, "j": j,
                 "pass": comm.apply(mono) == mono}
            )
    table = _sequence_table(pair, n_max + 1)
    composites = [_composite(table, n) for n in range(n_max + 2)]
    for n in range(n_max + 1):
        rows.append(
            {"identity": "theta_ladder_recorded", "n": n, "pass": True,
             "holds": theta.apply(composites[n]) == composites[n + 1]}
        )
        expected = composites[n - 1].scale(n) if n else BivariatePolynomial.zero()
        rows.append(
            {"identity": "pi_ladder_recorded", "n": n, "pass": True,
             "holds": pi.apply(composites[n]) == expected}
        )
    return rows


# ---------------------------------------------------------------------------
# non-local evolution equation (the quadratic-lowering family)
# ---------------------------------------------------------------------------


def pi_recursion(q: Polynomial, n: int) -> Polynomial:
    """n-fold smoothing recursion pi_k(X) = X * integral e^{-s} pi_{k-1}(X+s) ds.

    Expanding pi_{k-1}(X+s) in s and integrating termwise with
    integral s^j e^{-s} ds = j! collapses to X * sum of all derivatives.
    """
    poly = q
    for _ in range(n):
        acc = Polynomial.zero()
        deriv = poly
        while not deriv.is_zero():
            acc = acc + deriv
            deriv = deriv.derivative()
        poly = Polynomial.x() * acc
    return poly


def _bessel_ops(depth: int):
    p_op = WeylElement({(0, 1): 1, (0, 2): Fraction(-1, 2)})
    geom = TruncatedSeries.from_coeffs([1] * (depth + 1), depth)
    m_op = weyl_mul(WeylElement.x(), WeylElement.from_series(geom))
    return p_op, m_op


def evolution_solution(q: Polynomial, y_order: int):
    """Taylor coefficients in y of the evolution with generator P + M.

    Computed two independent ways and compared exactly:
    (i) the recursion F_{k+1} = (P + M) F_k / (k+1);
    (ii) the disentangled product exp(-y^2/2) exp(yP) exp(yM) q, valid
    because [P, M] = 1 on the working space.

    Returns (coefficients, routes_agree).
    """
    depth = max(q.degree, 0) + y_order + 2
    p_op, m_op = _bessel_ops(depth)
    gen = p_op + m_op

    direct = [q]
    for k in range(y_order):
        direct.append(gen.apply(direct[k]).scale(Fraction(1, k + 1)))

    # exp(yM) q
    stage_m = [q]
    for k in range(y_order):
        stage_m.append(m_op.apply(stage_m[k]).scale(Fraction(1, k + 1)))
    # exp(yP) on top
    stage_p = []
    for n in range(y_order + 1):
        acc = Polynomial.zero()
        for k in range(n + 1):
            term = stage_m[k]
            for _ in range(n - k):
                term = p_op.apply(term)
            acc = acc + term.scale(Fraction(1, factorial(n - k)))
        stage_p.append(acc)
    # multiply by the gaussian prefactor series exp(-y^2/2)
    factored = []
    for n in range(y_order + 1):
        acc = Polynomial.zero()
        for r in range(n // 2 + 1):
            coeff = Fraction((-1) ** r, 2**r * factorial(r))
            acc = acc + stage_p[n - 2 * r].scale(coeff)
        factored.append(acc)

    agree = all(direct[n] == factored[n] for n in range(y_order + 1))
    return tuple(direct), agree
