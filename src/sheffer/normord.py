"""Boson normal ordering and coherent-state matrix elements.

Under the correspondence X <-> a-dagger, D <-> a, the raising operator of a
Sheffer pair is linear in a-dagger, and exp(lambda*M) has an exactly
computable normally ordered form. This module provides:

* closed-form coherent-state matrix elements of M^n and exp(lambda*M);
* the normally ordered expansion of exp(lambda*M) built two independent
  ways: brute-force Weyl reordering (``normal_order_lhs``) and composed
  bivariate series (``normal_order_rhs``), with exact term-by-term
  comparison;
* a numeric verifier on truncated Fock-space matrices.

On the number-state closed forms: the printed rule
<z|M^n|l> = s_{n+l}(z*)/sqrt(l!) <z|0> is implemented literally by
``mono_element``, but it presumes s_l(x) = x^l and fails for general pairs
at l >= 1. The operator route ``mono_element_operator`` evaluates
(M^n x^l)(z*)/sqrt(l!), which is what the Fock verifier confirms; both are
compared by the adjudication rows of ``fock_verify``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import add

import numpy as np

from .errors import CutoffTooSmall, GuardExceeded, NotInvertible, OrderExceeded
from .series import (
    GR_ZERO,
    GaussianRational,
    Polynomial,
    _common_denominator,
    _iconv,
    _kcompose,
    _kinverse,
    _krecip,
)
from .sequences import ShefferPair, build_M, sequence_via_egf, taylor_shift
from .weyl import WeylElement, weyl_mul

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class CoherentParams:
    """Arguments of a coherent-state matrix element <z| ... |z'>."""

    z: complex
    zp: complex
    lam: complex


def overlap(z: complex, zp: complex) -> complex:
    """Coherent-state overlap <z|z'>."""
    return cmath.exp(z.conjugate() * zp - abs(z) ** 2 / 2 - abs(zp) ** 2 / 2)


# pairs are immutable values, so memoizing on them is safe
_cached_sequence = lru_cache(maxsize=256)(sequence_via_egf)
_cached_build_m = lru_cache(maxsize=256)(build_M)


# ---------------------------------------------------------------------------
# closed-form matrix elements (all returned without the <z|0> / <z|z'> factor
# unless stated otherwise)
# ---------------------------------------------------------------------------


def mono_element(pair: ShefferPair, n: int, l: int, zstar: complex) -> complex:
    """Printed closed form s_{n+l}(z*)/sqrt(l!), as a multiple of <z|0>."""
    if n + l > pair.order:
        raise OrderExceeded(f"need s_{n + l}, series order is {pair.order}")
    seq = _cached_sequence(pair, pair.order)
    return complex(seq.poly(n + l)(complex(zstar))) / math.sqrt(factorial(l))


def mono_element_operator(pair: ShefferPair, n: int, l: int, zstar: complex) -> complex:
    """Operator-route closed form (M^n x^l)(z*)/sqrt(l!), multiple of <z|0>."""
    if n + l > pair.order - 1:
        raise OrderExceeded(f"need operator exactness to degree {n + l}")
    m_op = _cached_build_m(pair, max(n + l, 1))
    poly = Polynomial.monomial(l)
    for _ in range(n):
        poly = m_op.apply(poly)
    return complex(poly(complex(zstar))) / math.sqrt(factorial(l))


def exp_element_vac(
    pair: ShefferPair, lam: complex, zstar: complex, guard: float = 0.5
) -> complex:
    """<z|exp(lam*M)|0> / <z|0> via the generating-function series."""
    h = pair.f.comp_inverse()
    prefactor = pair.g.compose(h).reciprocal()
    hv = h.eval_complex(lam, guard).value
    rv = prefactor.eval_complex(lam, guard).value
    return rv * cmath.exp(complex(zstar) * hv)


def exp_element_state(
    pair: ShefferPair, lam: complex, zstar: complex, l: int, guard: float = 0.5
) -> complex:
    """Printed closed form for <z|exp(lam*M)|l> / <z|0>.

    This is the l-th lambda-derivative of the generating function over
    sqrt(l!); like ``mono_element`` it presumes s_l(x) = x^l.
    """
    if l > pair.order:
        raise OrderExceeded(f"l = {l} exceeds series order {pair.order}")
    if abs(lam) > guard:
        raise GuardExceeded(f"|lambda| = {abs(lam):.6g} exceeds guard {guard:.6g}")
    seq = _cached_sequence(pair, pair.order)
    zs = complex(zstar)
    acc = 0j
    power = 1.0 + 0j
    for m in range(pair.order - l + 1):
        acc += complex(seq.poly(m + l)(zs)) * power / factorial(m)
        power *= lam
    return acc / math.sqrt(factorial(l))


def exp_element_state_operator(
    pair: ShefferPair, lam: complex, zstar: complex, l: int, guard: float = 0.5
) -> complex:
    """Operator-route value of <z|exp(lam*M)|l> / <z|0> (truncated in lambda)."""
    if abs(lam) > guard:
        raise GuardExceeded(f"|lambda| = {abs(lam):.6g} exceeds guard {guard:.6g}")
    k_top = pair.order - 1
    if l > k_top:
        raise OrderExceeded(f"l = {l} exceeds usable degree {k_top}")
    m_op = _cached_build_m(pair, k_top)
    zs = complex(zstar)
    poly = Polynomial.monomial(l)
    acc = complex(poly(zs))
    power = 1.0 + 0j
    for k in range(1, k_top - l + 1):
        poly = m_op.apply(poly)
        power *= lam
        acc += complex(poly(zs)) * power / factorial(k)
    return acc / math.sqrt(factorial(l))


def _shift_gaussian(coeffs, t: GaussianRational):
    return taylor_shift([GaussianRational.of(c) for c in coeffs], t, GR_ZERO)


def exp_element_coherent(
    pair: ShefferPair,
    z: complex,
    zp: complex,
    lam: complex,
    *,
    lam_guard: float = 0.5,
    z_guard: float = 0.5,
) -> complex:
    """<z|exp(lam*M)|z'> including the overlap factor, via recentred series.

    The pair is recentred at z' exactly over Gaussian rationals
    (f~(x) = f(x+z') - f(z'), g~(x) = g(x+z')/g(z'): constant terms land on
    0 and 1 exactly, no cancellation); the series inversion then runs in
    complex floating point. At z' = 0 the recentring is a no-op and the
    call evaluates the vacuum element path itself, so the reduction is
    exact. Truncation accuracy degrades as |z'| approaches the series'
    convergence radius; z_guard is the caller's trust bound for that.
    """
    if abs(zp) > z_guard:
        raise GuardExceeded(f"|z'| = {abs(zp):.6g} exceeds guard {z_guard:.6g}")
    if abs(lam) > lam_guard:
        raise GuardExceeded(f"|lambda| = {abs(lam):.6g} exceeds guard {lam_guard:.6g}")
    zp = complex(zp)
    if zp == 0:
        return exp_element_vac(pair, lam, z.conjugate(), guard=lam_guard) * overlap(z, zp)
    t = GaussianRational.from_complex(zp)
    f_sh = _shift_gaussian(pair.f.coeffs, t)
    f_sh[0] = GR_ZERO
    if not f_sh[1]:
        raise NotInvertible("f'(z') vanishes; recentred pair is not invertible")
    g_sh = _shift_gaussian(pair.g.coeffs, t)
    if not g_sh[0]:
        raise GuardExceeded("g(z') = 0; recentred pair is not admissible")
    g0 = g_sh[0]
    order = min(len(f_sh), len(g_sh)) - 1
    fc = [c.to_complex() for c in f_sh[: order + 1]]
    gc = [(c / g0).to_complex() for c in g_sh[: order + 1]]
    h = _kinverse(fc, order, 0j, 1 + 0j)
    gh = _kcompose(gc, h, order, 0j)
    r = _krecip(gh, order, 0j, 1 + 0j)
    hv = 0j
    rv = 0j
    for hk, rk in zip(reversed(h), reversed(r)):
        hv = hv * lam + hk
        rv = rv * lam + rk
    return rv * cmath.exp(z.conjugate() * hv) * overlap(z, zp)


def exp_element_coherent_closed(maps, z: complex, zp: complex, lam: complex) -> complex:
    """<z|exp(lam*M)|z'> including overlap, from closed-form maps.

    ``maps`` provides complex callables f, finv, g (see catalog.ClosedMaps).
    """
    w = lam + maps.f(zp)
    c = maps.finv(w)
    return (
        maps.g(zp)
        / maps.g(c)
        * cmath.exp(z.conjugate() * (c - zp))
        * overlap(z, zp)
    )


# ---------------------------------------------------------------------------
# exact bivariate truncated series in (lambda, a)
# ---------------------------------------------------------------------------


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

    def __add__(self, other):
        out = self.copy()
        for p in range(self.k + 1):
            for q in range(self.j + 1):
                out.grid[p][q] = out.grid[p][q] + other.grid[p][q]
        return out

    def __sub__(self, other):
        out = self.copy()
        for p in range(self.k + 1):
            for q in range(self.j + 1):
                out.grid[p][q] = out.grid[p][q] - other.grid[p][q]
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

    def scale(self, factor):
        out = self.copy()
        for p in range(self.k + 1):
            for q in range(self.j + 1):
                out.grid[p][q] = out.grid[p][q] * factor
        return out

    def reciprocal(self):
        a00 = self.grid[0][0]
        if not a00:
            raise ZeroDivisionError("bivariate reciprocal needs nonzero constant cell")
        inv0 = _ONE / a00
        out = _Bivar.zeros(self.k, self.j)
        out.grid[0][0] = inv0
        for p in range(self.k + 1):
            for q in range(self.j + 1):
                if p == 0 and q == 0:
                    continue
                acc = _ZERO
                for p1 in range(p + 1):
                    for q1 in range(q + 1):
                        if p1 == p and q1 == q:
                            continue
                        b = out.grid[p1][q1]
                        if b:
                            a = self.grid[p - p1][q - q1]
                            if a:
                                acc = acc + a * b
                out.grid[p][q] = -(acc * inv0)
        return out


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


def conjugate_normal_form(series: NormallyOrderedSeries) -> NormallyOrderedSeries:
    return series.conjugate()


def normal_order_rhs(pair: ShefferPair, lam_order: int, a_order: int) -> NormallyOrderedSeries:
    """Composed-series normally ordered form of exp(lam*M).

    Builds E(lam, a) = finv(lam + f(a)) - a and
    R(lam, a) = g(a)/g(finv(lam + f(a))) as exact bivariate truncated
    series, then expands :exp(adag*E)*R: so the coefficient of adag^i is
    E^i/i! * R. Requires series order >= lam_order + a_order because mixed
    terms of the composition reach that depth.
    """
    need = lam_order + a_order
    if pair.order < need:
        raise OrderExceeded(f"series order {pair.order} < lam_order + a_order = {need}")
    finv = pair.f.comp_inverse()
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


def normal_order_lhs(pair: ShefferPair, lam_order: int, a_order: int) -> NormallyOrderedSeries:
    """Brute-force normally ordered form of exp(lam*M).

    Expands sum lam^n M^n / n! with M read as a boson operator and products
    taken in the Weyl algebra, which lands in normal form automatically.
    Deliberately independent of the coherent-state route. M is built at
    D-truncation lam_order + a_order since intermediate powers can shed at
    most one annihilation power per creation factor.
    """
    depth = lam_order + a_order
    m_op = build_M(pair, depth)
    terms: dict = {}

    def record(element: WeylElement, n: int):
        inv_fact = Fraction(1, factorial(n))
        for (i, j), c in element.terms.items():
            if j <= a_order:
                poly = terms.setdefault((i, j), [_ZERO] * (lam_order + 1))
                poly[n] = poly[n] + c * inv_fact

    power = WeylElement.identity()
    record(power, 0)
    for n in range(1, lam_order + 1):
        power = weyl_mul(power, m_op).prune_d(a_order + (lam_order - n))
        record(power, n)
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


# ---------------------------------------------------------------------------
# numeric verification on truncated Fock space
# ---------------------------------------------------------------------------


class FockSpace:
    """Dense cutoff-d images of the boson operators and helper numerics."""

    def __init__(self, dim: int):
        if dim < 2:
            raise ValueError("Fock cutoff must be >= 2")
        self.dim = dim
        root = np.sqrt(np.arange(1, dim, dtype=float))
        self.a = np.diag(root, k=1).astype(complex)
        self.adag = np.diag(root, k=-1).astype(complex)

    def number_vec(self, l: int) -> np.ndarray:
        if l >= self.dim:
            raise CutoffTooSmall(f"|{l}> outside cutoff {self.dim}")
        vec = np.zeros(self.dim, dtype=complex)
        vec[l] = 1.0
        return vec

    def coherent_vec(self, z: complex):
        """Truncated coherent vector and its norm-tail estimate."""
        vec = np.empty(self.dim, dtype=complex)
        amp = math.exp(-abs(z) ** 2 / 2)
        vec[0] = amp
        for n in range(1, self.dim):
            vec[n] = vec[n - 1] * z / math.sqrt(n)
        d = self.dim
        log_tail = (
            -abs(z) ** 2 / 2
            + d * math.log(max(abs(z), 1e-300))
            - 0.5 * math.lgamma(d + 1)
        )
        return vec, math.exp(min(log_tail, 300.0))

    def series_on_a(self, coeffs) -> np.ndarray:
        """Horner image of sum c_j a^j; exact at the cutoff since a^dim = 0."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for c in reversed(list(coeffs)):
            out = out @ self.a
            out += complex(c) * np.eye(self.dim)
        return out

    def weyl_matrix(self, element: WeylElement) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for (i, j), c in element.terms.items():
            out += complex(c) * (
                np.linalg.matrix_power(self.adag, i) @ np.linalg.matrix_power(self.a, j)
            )
        return out

    def pair_matrix(self, pair: ShefferPair, shift: complex | None = None) -> np.ndarray:
        """Image of M = adag*k(a) - (h*k)(a), optionally recentred a -> a + shift."""
        k_ser = pair.f.derivative().reciprocal()
        hk_ser = (pair.g.derivative() * pair.g.reciprocal() * k_ser).truncate(k_ser.order)
        k_coeffs = list(k_ser.coeffs)
        hk_coeffs = list(hk_ser.coeffs)
        if shift is not None and shift != 0:
            t = GaussianRational.from_complex(complex(shift))
            k_coeffs = [c.to_complex() for c in _shift_gaussian(k_coeffs, t)]
            hk_coeffs = [c.to_complex() for c in _shift_gaussian(hk_coeffs, t)]
        return self.adag @ self.series_on_a(k_coeffs) - self.series_on_a(hk_coeffs)

    def exp_adag(self, t: complex) -> np.ndarray:
        """Image of exp(t*adag); lower triangular, built entrywise."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for n in range(self.dim):
            entry = 1.0 + 0j
            out[n, n] = entry
            for m in range(n, self.dim - 1):
                entry = entry * t * math.sqrt(m + 1) / (m - n + 1)
                out[m + 1, n] = entry
        return out

    def apply_exp(self, mat: np.ndarray, lam: complex, vec: np.ndarray):
        """exp(lam*mat) @ vec by scaled Taylor summation on the vector.

        The scaling power comes from the effective norm ||lam*mat*vec||/||vec||
        rather than the raw matrix norm, which is dominated by high
        occupation numbers irrelevant to coherent-supported states.
        Returns (vector, tail_estimate).
        """
        nv = np.linalg.norm(vec)
        if nv == 0:
            return vec.copy(), 0.0
        eff = abs(lam) * np.linalg.norm(mat @ vec) / nv
        s = 0
        while eff > 1.0 and s < 10:
            eff /= 2.0
            s += 1
        reps = 1 << s
        lam_s = lam / reps
        out = vec.copy()
        tail = 0.0
        for _ in range(reps):
            term = out
            acc = out.copy()
            for k in range(1, 400):
                term = lam_s * (mat @ term) / k
                acc = acc + term
                tail = float(np.linalg.norm(term))
                if tail <= 1e-17 * np.linalg.norm(acc):
                    break
            else:
                raise CutoffTooSmall("matrix exponential Taylor sum did not converge")
            out = acc
        return out, tail * reps


def _batched_row(identity: str, pairs, tol: float, tail: float) -> dict:
    """Build a report row from (numeric, closed) value pairs."""
    abs_errs = [abs(n - c) for n, c in pairs]
    scale = max((abs(c) for _, c in pairs), default=0.0)
    max_abs = max(abs_errs, default=0.0)
    max_rel = max_abs / max(scale, 1e-300)
    return {
        "identity": identity,
        "max_abs_err": max_abs,
        "max_rel_err": max_rel,
        "tail_estimate": tail,
        "pass": bool(max_rel <= tol),
    }


def fock_verify(
    pair: ShefferPair,
    params: CoherentParams,
    cutoff: int = 64,
    tol: float = 1e-8,
    *,
    maps=None,
    z_guard: float = 0.5,
    lam_guard: float = 0.25,
    moments_max: int = 6,
    l_max: int = 2,
) -> list:
    """Numeric check of the coherent-state matrix elements at one parameter point.

    Builds cutoff-d images of the boson operators, assembles M from the
    pair's truncated series, and compares matrix elements against the
    closed forms. Returns report rows; the adjudication rows compare the
    printed number-state rule against the operator route and always carry
    pass=True with a ``matches_printed`` field (completed, not asserted).
    """
    if cutoff < 32:
        raise CutoffTooSmall("Fock cutoff must be >= 32")
    z, zp, lam = params.z, params.zp, params.lam
    if abs(z) > 1 or abs(zp) > 1:
        raise GuardExceeded("|z| and |z'| must be <= 1")
    if abs(zp) > z_guard:
        raise GuardExceeded(f"|z'| = {abs(zp):.6g} exceeds family guard {z_guard:.6g}")
    if abs(lam) > lam_guard:
        raise GuardExceeded(f"|lambda| = {abs(lam):.6g} exceeds guard {lam_guard:.6g}")

    space = FockSpace(cutoff)
    z_vec, z_tail = space.coherent_vec(z)
    zp_vec, zp_tail = space.coherent_vec(zp)
    tail = max(z_tail, zp_tail)
    if tail > tol:
        raise CutoffTooSmall(f"coherent tail {tail:.3g} above tolerance {tol:.3g}")
    m_mat = space.pair_matrix(pair)
    vac_factor = cmath.exp(-abs(z) ** 2 / 2)  # <z|0>
    zs = z.conjugate()
    rows = []

    # overlap sanity
    num = complex(np.vdot(z_vec, zp_vec))
    rows.append(_batched_row("overlap", [(num, overlap(z, zp))], tol, tail))

    # <z|M^n|l> for l = 0 (printed form is exact here) and l >= 1 (operator route)
    for l in range(0, l_max + 1):
        vals = []
        printed = []
        w = space.number_vec(l)
        for n in range(1, moments_max + 1):
            w = m_mat @ w
            num = complex(np.vdot(z_vec, w))
            closed = mono_element_operator(pair, n, l, zs) * vac_factor
            vals.append((num, closed))
            printed.append((num, mono_element(pair, n, l, zs) * vac_factor))
        name = "moments_vacuum" if l == 0 else f"moments_state_operator_l{l}"
        rows.append(_batched_row(name, vals, tol, tail))
        if l > 0:
            adjudicated = _batched_row(
                f"adjudication:moments_state_printed_l{l}", printed, tol, tail
            )
            adjudicated["matches_printed"] = adjudicated.pop("pass")
            adjudicated["pass"] = True
            rows.append(adjudicated)

    # <z|exp(lam*M)|l>
    for l in range(0, l_max + 1):
        vec, exp_tail = space.apply_exp(m_mat, lam, space.number_vec(l))
        num = complex(np.vdot(z_vec, vec))
        if l == 0:
            closed = exp_element_vac(pair, lam, zs, guard=lam_guard) * vac_factor
            rows.append(_batched_row("exp_vacuum", [(num, closed)], tol, max(tail, exp_tail)))
        else:
            closed = exp_element_state_operator(pair, lam, zs, l, guard=lam_guard) * vac_factor
            rows.append(
                _batched_row(
                    f"exp_state_operator_l{l}", [(num, closed)], tol, max(tail, exp_tail)
                )
            )
            printed_row = _batched_row(
                f"adjudication:exp_state_printed_l{l}",
                [(num, exp_element_state(pair, lam, zs, l, guard=lam_guard) * vac_factor)],
                tol,
                max(tail, exp_tail),
            )
            printed_row["matches_printed"] = printed_row.pop("pass")
            printed_row["pass"] = True
            rows.append(printed_row)

    # <z|exp(lam*M)|z'>
    vec, exp_tail = space.apply_exp(m_mat, lam, zp_vec)
    num = complex(np.vdot(z_vec, vec))
    if maps is not None:
        closed = exp_element_coherent_closed(maps, z, zp, lam)
    else:
        closed = exp_element_coherent(
            pair, z, zp, lam, lam_guard=lam_guard, z_guard=z_guard
        )
    rows.append(_batched_row("exp_coherent", [(num, closed)], tol, max(tail, exp_tail)))

    # recentring identity: exp(-z' adag) M exp(z' adag) = M(a + z', adag)
    shifted = space.pair_matrix(pair, shift=zp)
    plus = space.exp_adag(zp)
    minus = space.exp_adag(-zp)
    pairs = []
    for w in (space.number_vec(0), space.coherent_vec(zp / 2)[0]):
        left = complex(np.vdot(z_vec, minus @ (m_mat @ (plus @ w))))
        right = complex(np.vdot(z_vec, shifted @ w))
        pairs.append((left, right))
    rows.append(_batched_row("shift_identity", pairs, tol, tail))
    return rows
