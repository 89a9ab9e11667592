"""The seven built-in polynomial families, with oracles and closed forms.

Each family is declared once, as one record in ``_FAMILIES``: a builder of
the defining pair (f, g) as exact series from x and 1 at the requested
order, a builder of its generating function's exact series finv and
1/g(finv) at that order, closed-form complex maps for f, its compositional
inverse and g, documented numeric guards, an independent polynomial oracle
where a classical one exists (else None) and notes. ``FAMILY_LABELS`` is the
table's order; ``family``, ``oracle_polys`` and ``egf_eval`` find a label
through one lookup, which raises ``UnknownFamily``.

The maps have one evaluator, ``ClosedMaps.factor``, in plain ``cmath``: the
paper's g(z')/g(c) exp(z*(c - z')), c = finv(lambda + f(z')). Times <z|z'>
it is ``fock.exp_element_coherent_closed``, at z' = 0 the generating
function exp(x*finv(t))/g(finv(t)) of ``egf_eval``, and on Horner maps of
the truncated pair the Fock layer's series route. The discrepancies in a
family's ``notes`` are decided by the coherent suite's adjudication rows.

Only f is printed in the usual operator tables; every g here is derived
from the generating function's prefactor (prefactor = 1/g(finv(t)), so
g(t) = 1/prefactor(f(t))). That generating function is the classical closed
form (Roman, The Umbral Calculus, 1984), so a catalog pair arrives with
``finv`` and ``prefactor`` read off the record's coefficient formulas; a pair
built anew from (f, g) solves for them by Newton inversion and composition.
Tests check each record against that solve; the monomiality suite's
``route_equivalence`` rows check it against the raising route (f and g only).

The three guards, fields of each record that ``family`` copies onto its entry:

* ``guard_radius`` — trust radius in the generating-function variable for
  ``egf_eval`` (branch points: sqrt(1-2t) for bessel, log(1+t) for the
  falling factorials, atan/sqrt(1+t^2) for hahn, poles at t=1 for
  laguerre; entire families get a generous default).
* ``z_guard``/``lam_guard`` — conservative radii for the coherent-state
  verifier, sized so the truncated series assembling M converge on
  coherent states and composed arguments stay clear of branch points.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, NamedTuple, Optional

from .errors import GuardExceeded, UnknownFamily, check_guard
from .sequences import ShefferPair, _check_degree, sequence_via_egf
from .series import (
    Polynomial,
    RationalLike,
    TruncatedSeries,
    cos_series,
    exp_series,
    log_series,
    tan_series,
)


# The record types here are NamedTuples, and the package's other value types
# plain classes, not dataclasses: each is defined at import, where a frozen
# dataclass takes 0.65 ms to build against 0.008 ms for a plain class
# (two-core Xeon), and the ``dataclasses`` module loads ``inspect``
class ClosedMaps(NamedTuple):
    """Complex evaluators for f, its inverse, and g (by default 1)."""

    f: Callable[[complex], complex]
    finv: Callable[[complex], complex]
    g: Callable[[complex], complex] = lambda w: 1.0 + 0j

    def factor(self, zstar: complex, zp: complex, lam: complex) -> complex:
        """g(z')/g(c) exp(z*(c - z')), c = finv(lam + f(z')): <z|exp(lam*M)|z'>/<z|z'>.

        At z' = 0 and z* = x it is the generating function exp(x*finv(lam))/g(finv(lam)).
        """
        c = self.finv(lam + self.f(zp))
        return self.g(zp) / self.g(c) * cmath.exp(zstar * (c - zp))


class FamilyEntry(NamedTuple):
    label: str
    pair: ShefferPair
    guard_radius: float
    z_guard: float
    lam_guard: float
    maps: ClosedMaps
    notes: tuple


def _on_principal_branch(w: complex) -> bool:
    # W0 maps onto Im w in (-pi, pi) right of the curve -v cot(v) + i v, and
    # its branch cut below -1/e onto that curve; the tolerance admits rounding
    # next to the branch point, where W0 meets W-1 at -1 and the value is
    # known only to about sqrt(eps)
    u, v = w.real, w.imag
    edge = -v / math.tan(v) if v else -1.0
    return abs(v) < math.pi and u >= edge - 1e-7 * (1 + abs(w))


def _lambertw(z: complex) -> complex:
    """Principal branch W0 of Lambert W, the inverse of w*exp(w).

    Halley iteration from a series guess at the branch point -1/e, the
    [1/1] Pade approximant z(2+z)/(2+3z) near 0, or log(z) - log(log(z))
    elsewhere. The result has converged: either it solves w*exp(w) = z
    for a z within rounding of the argument, or the last step was below
    1e-12 relative, which the cubic rate takes to full precision. Anything
    else, or a value off the principal branch, raises GuardExceeded.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise GuardExceeded(f"Lambert W of a non-finite argument {z}")
    if abs(z + math.exp(-1)) <= 0.3:
        # built from parts so that the sign of a zero imaginary part picks
        # the side of the cut
        p = cmath.sqrt(complex(2 * (math.e * z.real + 1), 2 * math.e * z.imag))
        w = -1 + p * (1 + p * (-1 / 3 + p * 11 / 72))
    elif abs(z) <= 1.5 and z.real > -0.2 - abs(z.imag):
        # a real guess on the negative axis could not reach a complex W0
        w = z * (2 + z) / (2 + 3 * z)
    else:
        w = cmath.log(z)
        w -= cmath.log(w)
    try:
        for _ in range(64):
            # the residual w*exp(w) - z over exp(w), which cannot overflow
            # on the principal branch (Re w >= -1 there)
            t = w - z * cmath.exp(-w)
            if abs(t) <= 8 * sys.float_info.epsilon * abs(w):
                break
            step = t / (w + 1 - (w + 2) / (2 * w + 2) * t)
            w -= step
            if abs(step) <= 1e-12 * abs(w):
                break
        else:
            w = complex("nan")
    except (OverflowError, ZeroDivisionError):
        w = complex("nan")
    if not cmath.isfinite(w) or not _on_principal_branch(w):
        raise GuardExceeded(f"Lambert W did not converge on the principal branch at {z}")
    return w


def _hermite_oracle(n_max: int) -> list:
    # three-term recurrence H_{n+1} = 2x H_n - 2n H_{n-1}
    polys = [Polynomial.one(), Polynomial.from_coeffs([0, 2])]
    for n in range(1, n_max):
        polys.append(
            Polynomial.from_coeffs([0, 2]) * polys[n] - polys[n - 1].scale(2 * n)
        )
    return polys[: n_max + 1]


def _laguerre_oracle(n_max: int) -> list:
    # (n+1) L_{n+1} = (2n+1-x) L_n - n L_{n-1}, then scale by n!
    lag = [Polynomial.one(), Polynomial.from_coeffs([1, -1])]
    for n in range(1, n_max):
        nxt = (
            Polynomial.from_coeffs([2 * n + 1, -1]) * lag[n] - lag[n - 1].scale(n)
        ).scale(Fraction(1, n + 1))
        lag.append(nxt)
    return [lag[n].scale(factorial(n)) for n in range(n_max + 1)]


def _bell_oracle(n_max: int) -> list:
    # Stirling numbers of the second kind by their recurrence
    rows = [[Fraction(1)]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [Fraction(0)] * (n + 1)
        for k in range(1, n + 1):
            row[k] = (prev[k] * k if k < len(prev) else Fraction(0)) + prev[k - 1]
        rows.append(row)
    return [Polynomial.from_coeffs(rows[n]) for n in range(n_max + 1)]


def _lower_factorial_oracle(n_max: int) -> list:
    # product formula x(x-1)...(x-n+1)
    polys = [Polynomial.one()]
    for n in range(n_max):
        polys.append(polys[-1] * Polynomial.from_coeffs([-n, 1]))
    return polys


def _idempotent_oracle(n_max: int) -> list:
    # explicit sum: coefficient of x^k is C(n,k) k^{n-k}
    polys = []
    for n in range(n_max + 1):
        coeffs = [Fraction(0)] * (n + 1)
        coeffs[0] = Fraction(1) if n == 0 else Fraction(0)
        for k in range(1, n + 1):
            coeffs[k] = Fraction(comb(n, k) * k ** (n - k))
        polys.append(Polynomial.from_coeffs(coeffs))
    return polys


def _series(order: int, coeff: Callable[[int], RationalLike]) -> TruncatedSeries:
    """The series with coefficient coeff(k) at t^k for k = 0..order."""
    return TruncatedSeries.from_coeffs([coeff(k) for k in range(order + 1)])


class _Family(NamedTuple):
    """Everything the catalog knows about one family.

    ``fg`` maps (x, 1) to (f, g); ``egf`` maps an order to the generating
    function's exact series (finv, 1/g(finv)) at that order.
    """

    fg: Callable[[TruncatedSeries, TruncatedSeries], tuple]
    egf: Callable[[int], tuple]
    maps: ClosedMaps
    guard_radius: float
    z_guard: float
    lam_guard: float
    oracle: Optional[Callable[[int], list]] = None
    notes: tuple = ()


# In this order: ``list`` and ``verify`` print the families in it, and the
# coherent suite seeds a family's draws with its index.
_FAMILIES = {
    "hermite": _Family(
        fg=lambda x, one: (x.scale(Fraction(1, 2)), exp_series((x * x).scale(Fraction(1, 4)))),
        # finv = 2t, 1/g(finv) = exp(-t^2)
        egf=lambda n: (
            TruncatedSeries.from_coeffs([0, 2], n),
            _series(n, lambda k: 0 if k % 2 else Fraction((-1) ** (k // 2), factorial(k // 2))),
        ),
        maps=ClosedMaps(f=lambda w: w / 2, finv=lambda w: 2 * w, g=lambda w: cmath.exp(w * w / 4)),
        guard_radius=2.0, z_guard=1.0, lam_guard=1.0,
        oracle=_hermite_oracle,
    ),
    "laguerre": _Family(
        fg=lambda x, one: (x * (x - 1).reciprocal(), (one - x).reciprocal()),
        # finv = t/(t-1), 1/g(finv) = 1/(1-t)
        egf=lambda n: (_series(n, lambda k: -1 if k else 0), _series(n, lambda k: 1)),
        maps=ClosedMaps(f=lambda w: w / (w - 1), finv=lambda w: w / (w - 1),
                        g=lambda w: 1 / (1 - w)),
        guard_radius=1.0, z_guard=0.5, lam_guard=0.3,
        oracle=_laguerre_oracle,
        notes=(
            "vacuum moments follow n!*L_n(z*): the coherent-state verifier "
            "confirms <z|M^n|0> = n!*L_n(z*)<z|0> and rejects the shifted "
            "indexing n!*L_{n-1}(z*) (see the coherent suite's adjudication rows)",
        ),
    ),
    "bessel": _Family(
        fg=lambda x, one: (x - (x * x).scale(Fraction(1, 2)), one),
        # finv = 1 - sqrt(1-2t), whose t^k coefficient is Catalan(k-1)/2^(k-1)
        egf=lambda n: (
            _series(n, lambda k: Fraction(comb(2 * k - 2, k - 1), k << (k - 1)) if k else 0),
            TruncatedSeries.one(n),
        ),
        maps=ClosedMaps(f=lambda w: w - w * w / 2, finv=lambda w: 1 - cmath.sqrt(1 - 2 * w)),
        guard_radius=0.5, z_guard=0.25, lam_guard=0.12,
    ),
    "bell": _Family(
        fg=lambda x, one: (log_series(one + x), one),
        # finv = exp(t) - 1
        egf=lambda n: (
            _series(n, lambda k: Fraction(1, factorial(k)) if k else 0), TruncatedSeries.one(n)
        ),
        maps=ClosedMaps(f=lambda w: cmath.log(1 + w), finv=lambda w: cmath.exp(w) - 1),
        guard_radius=2.0, z_guard=1.0, lam_guard=1.0,
        oracle=_bell_oracle,
    ),
    "lower_factorial": _Family(
        fg=lambda x, one: (exp_series(x) - 1, one),
        # finv = log(1+t)
        egf=lambda n: (
            _series(n, lambda k: Fraction((-1) ** (k + 1), k) if k else 0), TruncatedSeries.one(n)
        ),
        maps=ClosedMaps(f=lambda w: cmath.exp(w) - 1, finv=lambda w: cmath.log(1 + w)),
        guard_radius=1.0, z_guard=1.0, lam_guard=0.2,
        oracle=_lower_factorial_oracle,
    ),
    "hahn": _Family(
        fg=lambda x, one: (tan_series(x), cos_series(x).reciprocal()),
        # finv = atan(t), 1/g(finv) = (1+t^2)^(-1/2), whose t^(2j) coefficient
        # is (-1)^j C(2j, j)/4^j
        egf=lambda n: (
            _series(n, lambda k: Fraction((-1) ** (k // 2), k) if k % 2 else 0),
            _series(
                n, lambda k: 0 if k % 2 else Fraction((-1) ** (k // 2) * comb(k, k // 2), 1 << k)
            ),
        ),
        maps=ClosedMaps(f=cmath.tan, finv=cmath.atan, g=lambda w: 1 / cmath.cos(w)),
        guard_radius=1.0, z_guard=0.8, lam_guard=0.15,
        notes=(
            "coherent matrix element: the composed exponent "
            "arctan(lambda + tan z') matches the numeric verifier; the variant "
            "arctan(lambda * tan z') does not (see the coherent suite's "
            "adjudication rows)",
        ),
    ),
    "idempotent": _Family(
        # f = W(x), the inverse of x*exp(x), with x^k coefficient (-k)^(k-1)/k!
        fg=lambda x, one: (
            _series(x.order, lambda k: Fraction((-k) ** (k - 1), factorial(k)) if k else 0), one
        ),
        # finv = t*exp(t)
        egf=lambda n: (
            _series(n, lambda k: Fraction(1, factorial(k - 1)) if k else 0), TruncatedSeries.one(n)
        ),
        maps=ClosedMaps(f=_lambertw, finv=lambda w: w * cmath.exp(w)),
        guard_radius=2.0, z_guard=0.12, lam_guard=0.3,
        oracle=_idempotent_oracle,
    ),
}

FAMILY_LABELS = tuple(_FAMILIES)


def _record(label: str) -> _Family:
    record = _FAMILIES.get(label)
    if record is None:
        raise UnknownFamily(f"no family named {label!r}; known: {', '.join(FAMILY_LABELS)}")
    return record


@lru_cache(maxsize=64)
def family(label: str, order: int = 16) -> FamilyEntry:
    """Construct a catalog entry at the requested truncation order."""
    record = _record(label)
    f, g = record.fg(TruncatedSeries.x(order), TruncatedSeries.one(order))
    pair = ShefferPair(f, g, label=label)
    # the record's series fill the slots of the pair's cached properties, so
    # a catalog pair never solves for them
    finv, prefactor = record.egf(order)
    vars(pair).update(finv=finv, prefactor=prefactor)
    return FamilyEntry(
        label=label,
        pair=pair,
        guard_radius=record.guard_radius,
        z_guard=record.z_guard,
        lam_guard=record.lam_guard,
        maps=record.maps,
        notes=record.notes,
    )


def oracle_polys(label: str, n_max: int) -> list:
    """Independent polynomial generation for comparison with the pair routes.

    Families without a classical recurrence/sum oracle (bessel, hahn) fall
    back to the generating-function expansion, at the least order it needs.
    """
    record = _record(label)
    _check_degree(n_max, "n_max")
    if record.oracle is not None:
        return record.oracle(n_max)
    return list(sequence_via_egf(family(label, max(n_max, 1)).pair, n_max).polys)


def egf_eval(label: str, lam: complex, x: complex) -> complex:
    """The generating function exp(x*finv(lam))/g(finv(lam)), guarded at the trust radius.

    It is the record's ``maps.factor`` at z' = 0 and z* = x.
    """
    record = _record(label)
    check_guard("|lambda|", record.guard_radius, lam)
    return record.maps.factor(complex(x), 0j, complex(lam))
