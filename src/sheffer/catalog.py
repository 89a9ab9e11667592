"""The seven built-in polynomial families, with oracles and closed forms.

Each entry carries the defining pair (f, g) as exact series, a closed-form
generating-function evaluator, closed-form complex maps for f, its
compositional inverse and g (used by the Fock verifier at arguments beyond
the series trust radius), an independent polynomial oracle where a
classical one exists, and documented numeric guards. The maps and
evaluators are plain ``cmath``: this module imports nothing from the
numeric Fock layer (``sheffer.fock``), which reads the maps and guards
from the entries. The discrepancies recorded in an entry's ``notes`` are
decided numerically by the coherent suite (``suites._adjudication_rows``).

Only f is printed in the usual operator tables; every g here is derived
from the generating function's prefactor (prefactor = 1/g(finv(t)), so
g(t) = 1/prefactor(f(t))) and confirmed against it symbolically by the
test suite before being trusted.

Guard fields:

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Optional

from .errors import GuardExceeded, UnknownFamily
from .sequences import ShefferPair, sequence_via_egf
from .series import (
    Polynomial,
    TruncatedSeries,
    cos_series,
    exp_series,
    log_series,
    tan_series,
)

FAMILY_LABELS = (
    "hermite",
    "laguerre",
    "bessel",
    "bell",
    "lower_factorial",
    "hahn",
    "idempotent",
)


@dataclass(frozen=True)
class ClosedMaps:
    """Closed-form complex evaluators for f, its inverse, and g."""

    f: Callable[[complex], complex]
    finv: Callable[[complex], complex]
    g: Callable[[complex], complex]


@dataclass(frozen=True)
class FamilyEntry:
    label: str
    pair: ShefferPair
    guard_radius: float
    z_guard: float
    lam_guard: float
    closed_egf: Callable[[complex, complex], complex]
    maps: ClosedMaps
    oracle: Optional[Callable[[int], list]]
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


def _series_fg(label: str, order: int):
    x = TruncatedSeries.x(order)
    one = TruncatedSeries.one(order)
    if label == "hermite":
        return x.scale(Fraction(1, 2)), exp_series(
            TruncatedSeries.from_coeffs([0, 0, Fraction(1, 4)], order)
        )
    if label == "laguerre":
        return x * (x - 1).reciprocal(), (one - x).reciprocal()
    if label == "bessel":
        return TruncatedSeries.from_coeffs([0, 1, Fraction(-1, 2)], order), one
    if label == "bell":
        return log_series(one + x), one
    if label == "lower_factorial":
        return exp_series(x) - 1, one
    if label == "hahn":
        return tan_series(x), cos_series(x).reciprocal()
    if label == "idempotent":
        return (x * exp_series(x)).comp_inverse(), one
    raise UnknownFamily(f"no family named {label!r}; known: {', '.join(FAMILY_LABELS)}")


_EGFS = {
    "hermite": lambda lam, x: cmath.exp(2 * lam * x - lam * lam),
    "laguerre": lambda lam, x: cmath.exp(x * lam / (lam - 1)) / (1 - lam),
    "bessel": lambda lam, x: cmath.exp(x * (1 - cmath.sqrt(1 - 2 * lam))),
    "bell": lambda lam, x: cmath.exp(x * (cmath.exp(lam) - 1)),
    "lower_factorial": lambda lam, x: cmath.exp(x * cmath.log(1 + lam)),
    "hahn": lambda lam, x: cmath.exp(x * cmath.atan(lam)) / cmath.sqrt(1 + lam * lam),
    "idempotent": lambda lam, x: cmath.exp(x * lam * cmath.exp(lam)),
}

_MAPS = {
    "hermite": ClosedMaps(
        f=lambda w: w / 2, finv=lambda w: 2 * w, g=lambda w: cmath.exp(w * w / 4)
    ),
    "laguerre": ClosedMaps(
        f=lambda w: w / (w - 1), finv=lambda w: w / (w - 1), g=lambda w: 1 / (1 - w)
    ),
    "bessel": ClosedMaps(
        f=lambda w: w - w * w / 2,
        finv=lambda w: 1 - cmath.sqrt(1 - 2 * w),
        g=lambda w: 1.0 + 0j,
    ),
    "bell": ClosedMaps(
        f=lambda w: cmath.log(1 + w), finv=lambda w: cmath.exp(w) - 1, g=lambda w: 1.0 + 0j
    ),
    "lower_factorial": ClosedMaps(
        f=lambda w: cmath.exp(w) - 1, finv=lambda w: cmath.log(1 + w), g=lambda w: 1.0 + 0j
    ),
    "hahn": ClosedMaps(
        f=cmath.tan, finv=cmath.atan, g=lambda w: 1 / cmath.cos(w)
    ),
    "idempotent": ClosedMaps(
        f=_lambertw, finv=lambda w: w * cmath.exp(w), g=lambda w: 1.0 + 0j
    ),
}

# egf-variable trust radius; coherent-verifier guards (|z'| and |lambda|).
_GUARDS = {
    "hermite": (2.0, 1.0, 1.0),
    "laguerre": (1.0, 0.5, 0.3),
    "bessel": (0.5, 0.25, 0.12),
    "bell": (2.0, 1.0, 1.0),
    "lower_factorial": (1.0, 1.0, 0.2),
    "hahn": (1.0, 0.8, 0.15),
    "idempotent": (2.0, 0.12, 0.3),
}

_NOTES = {
    "laguerre": (
        "vacuum moments follow n!*L_n(z*): the coherent-state verifier "
        "confirms <z|M^n|0> = n!*L_n(z*)<z|0> and rejects the shifted "
        "indexing n!*L_{n-1}(z*) (see the coherent suite's adjudication rows)",
    ),
    "hahn": (
        "coherent matrix element: the composed exponent "
        "arctan(lambda + tan z') matches the numeric verifier; the variant "
        "arctan(lambda * tan z') does not (see the coherent suite's "
        "adjudication rows)",
    ),
}


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


_ORACLES = {
    "hermite": _hermite_oracle,
    "laguerre": _laguerre_oracle,
    "bell": _bell_oracle,
    "lower_factorial": _lower_factorial_oracle,
    "idempotent": _idempotent_oracle,
}


@lru_cache(maxsize=64)
def family(label: str, order: int = 16) -> FamilyEntry:
    """Construct a catalog entry at the requested truncation order."""
    if label not in FAMILY_LABELS:
        raise UnknownFamily(f"no family named {label!r}; known: {', '.join(FAMILY_LABELS)}")
    f, g = _series_fg(label, order)
    guard_radius, z_guard, lam_guard = _GUARDS[label]
    return FamilyEntry(
        label=label,
        pair=ShefferPair(f, g, label=label),
        guard_radius=guard_radius,
        z_guard=z_guard,
        lam_guard=lam_guard,
        closed_egf=_EGFS[label],
        maps=_MAPS[label],
        oracle=_ORACLES.get(label),
        notes=_NOTES.get(label, ()),
    )


def oracle_polys(label: str, n_max: int) -> list:
    """Independent polynomial generation for comparison with the pair routes.

    Families without a classical recurrence/sum oracle (bessel, hahn) fall
    back to the generating-function expansion at doubled truncation order.
    """
    if label not in FAMILY_LABELS:
        raise UnknownFamily(f"no family named {label!r}; known: {', '.join(FAMILY_LABELS)}")
    oracle = _ORACLES.get(label)
    if oracle is not None:
        return oracle(n_max)
    entry = family(label, 2 * n_max + 2)
    return list(sequence_via_egf(entry.pair, n_max).polys)


def egf_eval(label: str, lam: complex, x: complex) -> complex:
    """Closed-form generating-function value, guarded at the trust radius."""
    entry = family(label)
    if abs(lam) > entry.guard_radius:
        raise GuardExceeded(
            f"|lambda| = {abs(lam):.6g} exceeds {label} guard {entry.guard_radius:.6g}"
        )
    return entry.closed_egf(complex(lam), complex(x))
