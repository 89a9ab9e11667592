"""Verification suites behind ``sheffer verify``.

Each function returns JSON-ready report rows. A row's ``pass`` field is
the gating signal; rows that merely record an adjudicated or observed
status carry pass=True plus a status field (``matches_printed``,
``holds``, ``decision``), so a correct build reports all-pass while still
documenting findings.

The coherent suite draws its parameters from ``_PCG64``, numpy's
``default_rng`` stream reproduced bit for bit in pure Python, so the
published seeds keep their points and ``numpy.random`` is never loaded.
"""

from __future__ import annotations

import cmath

import numpy as np

from .catalog import FAMILY_LABELS, family, oracle_polys
from .fock import (
    CoherentParams,
    FockSpace,
    _one_blas_thread,
    exp_element_coherent_closed,
    fock_verify,
    mono_element,
    overlap,
)
from .multivar import (
    _bessel_ops,
    _heat_rows,
    evolution_solution,
    hkdf,
    hkdf_egf_check,
    hkdf_ladder_check,
    pi_recursion,
    theta_pi_check,
    umbral_S,
)
from .normord import verify_normal_order
from .sequences import (
    ShefferPair,
    build_M,
    build_P,
    sequence_via_egf,
    verify_monomiality,
)
from .series import Polynomial, TruncatedSeries
from .weyl import WeylElement, weyl_mul


def rows_pass(rows) -> bool:
    return all(row.get("pass", True) for row in rows)


def _tag(rows, **extra):
    return [{**extra, **row} for row in rows]


# ---------------------------------------------------------------------------
# monomiality
# ---------------------------------------------------------------------------


# least order of every suite's catalog pairs: one ``verify`` run shares one per
# family, and it covers what each fixed-depth suite needs (14 at most)
_LEAST_ORDER = 16


def monomiality_rows(label: str) -> list:
    entry = family(label, _LEAST_ORDER)
    return _tag(verify_monomiality(entry.pair, 12), family=label)


def oracle_rows(label: str) -> list:
    """Generated sequence against the family's independent oracle."""
    entry = family(label, _LEAST_ORDER)
    seq = sequence_via_egf(entry.pair, 12)
    oracle = oracle_polys(label, 12)
    rows = []
    for n in range(13):
        rows.append(
            {"family": label, "identity": "oracle_match", "n": n,
             "pass": seq.poly(n) == oracle[n]}
        )
    return rows


# ---------------------------------------------------------------------------
# Weyl reordering
# ---------------------------------------------------------------------------


def reorder_by_swaps(m: int, n: int, memo: dict | None = None) -> WeylElement:
    """Normal order D^m X^n by repeated single swaps DX -> XD + 1.

    A rewriting reference kept out of every production path; it exists
    solely to check the closed-form reordering. Each step rewrites the
    leftmost DX of a word into its swapped and its dropped word. The normal
    form of every word visited is memoised in ``memo`` (word -> {(i, j):
    int}), so the cost is polynomial in m and n, and callers may share one
    memo between calls.
    """
    memo = {} if memo is None else memo
    return WeylElement(_swap_normal_form("D" * m + "X" * n, memo))


def _swap_normal_form(word: str, memo: dict) -> dict:
    # recursion depth is at most the number of D-before-X pairs, m*n
    form = memo.get(word)
    if form is None:
        idx = word.find("DX")
        if idx < 0:
            form = {(word.count("X"), word.count("D")): 1}
        else:
            form = dict(_swap_normal_form(word[:idx] + "XD" + word[idx + 2 :], memo))
            for key, c in _swap_normal_form(word[:idx] + word[idx + 2 :], memo).items():
                form[key] = form.get(key, 0) + c
        memo[word] = form
    return form


def swap_oracle_rows() -> list:
    rows = []
    memo: dict = {}
    for m in range(7):
        for n in range(7):
            closed = weyl_mul(WeylElement.monomial(0, m), WeylElement.monomial(n, 0))
            rows.append(
                {"family": "all", "identity": "reorder_closed_vs_swaps",
                 "m": m, "n": n, "pass": closed == reorder_by_swaps(m, n, memo)}
            )
    return rows


def commutator_family_rows(label: str) -> list:
    """[P, M] acts as the identity on x^n for n <= 8."""
    entry = family(label, _LEAST_ORDER)
    m_op = build_M(entry.pair, 12)
    p_op = build_P(entry.pair, 12)
    comm = p_op.commutator(m_op)
    rows = []
    for n in range(9):
        mono = Polynomial.monomial(n)
        rows.append(
            {"family": label, "identity": "pm_commutator_identity", "n": n,
             "pass": comm.apply(mono) == mono}
        )
    return rows


# ---------------------------------------------------------------------------
# normal ordering
# ---------------------------------------------------------------------------


def normal_order_rows(label: str, lam_order: int, a_order: int) -> list:
    entry = family(label, max(_LEAST_ORDER, lam_order + a_order + 1))
    detail = verify_normal_order(entry.pair, lam_order, a_order)
    mismatches = [row for row in detail if not row["pass"]]
    return [
        {
            "family": label,
            "identity": "normal_order_equality",
            "lam_order": lam_order,
            "a_order": a_order,
            "terms_checked": len(detail),
            "mismatches": len(mismatches),
            "first_mismatch": mismatches[0] if mismatches else None,
            "pass": not mismatches,
        }
    ]


# ---------------------------------------------------------------------------
# coherent-state numerics
# ---------------------------------------------------------------------------


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _PCG64:
    """The stream of numpy's ``default_rng(seed)``, bit for bit, in pure Python.

    SeedSequence hash-mixes the seed's 32-bit words into a pool of four
    words and expands it into four 64-bit words (low 32-bit word first):
    the 128-bit LCG state and its increment. Each draw steps the LCG and
    outputs 64 bits by XSL-RR (O'Neill, HMC-CS-2014-0905), and ``uniform``
    scales its top 53 bits as numpy's ``Generator.uniform`` does.
    """

    __slots__ = ("state", "inc")

    def __init__(self, seed: int):
        words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        mult = 0x43B0D7E5

        def hashmix(value):
            nonlocal mult
            value ^= mult
            mult = mult * 0x931E8875 & _M32
            value = value * mult & _M32
            return value ^ value >> 16

        def mix(x, y):
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        mult, state = 0x8B51F9DD, []
        for i in range(8):
            value = pool[i % 4] ^ mult
            mult = mult * 0x58F38DED & _M32
            value = value * mult & _M32
            state.append(value ^ value >> 16)
        s0, s1, i0, i1 = (state[k] | state[k + 1] << 32 for k in range(0, 8, 2))
        self.inc = (i0 << 64 | i1) << 1 & _M128 | 1
        self.state = self.inc + (s0 << 64 | s1)
        self._step()

    def _step(self) -> int:
        self.state = (self.state * _PCG_MULT + self.inc) & _M128
        return self.state

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        s = self._step()
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        return low + (high - low) * ((x >> 11) * 2.0**-53)


def _disk_draw(rng, radius: float) -> complex:
    r = radius * np.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2 * np.pi)
    return complex(r * np.cos(theta), r * np.sin(theta))


# one scope over the draws and _adjudication_rows, so no BLAS worker thread
# is woken here and left spinning into the next suite
@_one_blas_thread()
def coherent_rows(label: str, order: int, cutoff: int, tol: float, draws: int, seed: int) -> list:
    entry = family(label, max(order, _LEAST_ORDER))
    rng = _PCG64(seed + FAMILY_LABELS.index(label))
    params = [
        CoherentParams(
            z=_disk_draw(rng, 1.0),
            zp=_disk_draw(rng, min(1.0, entry.z_guard)),
            lam=_disk_draw(rng, min(0.1, entry.lam_guard)),
        )
        for _ in range(draws)
    ]
    checked = fock_verify(
        entry.pair,
        params,
        cutoff=cutoff,
        tol=tol,
        maps=entry.maps,
        z_guard=entry.z_guard,
        lam_guard=entry.lam_guard,
    )
    rows = []
    for point, draw_rows in zip(params, checked):
        info = {
            "z": [point.z.real, point.z.imag],
            "zp": [point.zp.real, point.zp.imag],
            "lam": [point.lam.real, point.lam.imag],
        }
        rows.extend(_tag(draw_rows, family=label, params=info))
    rows.extend(_adjudication_rows(label, entry, params[0] if params else None, cutoff))
    return rows


# The variants agree with the Fock values either to rounding or not at all:
# over the first draws of seeds 0-399, the matching variant's worst relative
# error was 1.1e-11 (hahn) and 5.0e-15 (laguerre), the other variant's least
# 8.7e-3 and 7.1e-2. The default --tol sits far inside that gap on both sides.
_ADJUDICATION_TOL = 1e-8


def _adjudication_rows(label, entry, params, cutoff) -> list:
    """Decide the documented closed-form discrepancies numerically.

    Both variants are compared at ``_ADJUDICATION_TOL`` whatever ``--tol``
    is: at a loose tolerance both would match and nothing would be decided.
    """
    if label not in ("laguerre", "hahn") or params is None:
        return []
    space = FockSpace(cutoff)
    z, zp, lam = params.z, params.zp, params.lam
    z_vec, zp_vec = space.coherent_vecs([z, zp])[0].T
    if label == "laguerre":
        # vacuum moments as multiples of <z|0>; with s_n = n!*L_n, the
        # alternative indexing n!*L_{n-1}(z*) equals n * s_{n-1}(z*)
        identity = "adjudication:vacuum_moment_indexing"
        s = [mono_element(entry.pair, n, 0, z.conjugate()) for n in range(7)]
        vac = np.exp(-abs(z) ** 2 / 2)
        numeric = [complex(np.vdot(z_vec, w)) / vac
                   for w in space.pair_moments(entry.pair)[:, :6].T]
        variants = {
            "n_factorial_L_n": s[1:],
            "n_factorial_L_n_minus_1": [n * s[n - 1] for n in range(1, 7)],
        }
    else:
        # the coherent element with overlap, read with exponent
        # arctan(lambda + tan z') and with arctan(lambda * tan z')
        identity = "adjudication:coherent_exponent"
        vec, _ = space.apply_exp(space.pair_matrix(entry.pair), [lam], zp_vec[:, None])
        numeric = [complex(np.vdot(z_vec, vec))]
        prefactor = cmath.cos(cmath.atan(lam + cmath.tan(zp))) / cmath.cos(zp)
        variant = (
            prefactor
            * cmath.exp(z.conjugate() * (cmath.atan(lam * cmath.tan(zp)) - zp))
            * overlap(z, zp)
        )
        variants = {
            "arctan_lambda_plus_tan": [exp_element_coherent_closed(entry.maps, z, zp, lam)],
            "arctan_lambda_times_tan": [variant],
        }
    # a variant matches when it agrees with every numeric value
    status = {
        name: all(abs(num - c) <= _ADJUDICATION_TOL * max(abs(c), 1e-30)
                  for num, c in zip(numeric, closed))
        for name, closed in variants.items()
    }
    matched = [name for name, ok in status.items() if ok]
    return [
        {
            "family": label,
            "identity": identity,
            "matches": status,
            "decision": matched[0] if len(matched) == 1 else None,
            "pass": len(matched) == 1,
        }
    ]


# ---------------------------------------------------------------------------
# multivariate suites
# ---------------------------------------------------------------------------


def heat_rows(label: str) -> list:
    entry = family(label, _LEAST_ORDER)
    return _tag(_heat_rows(entry.pair, 8), family=label)


def theta_pi_rows(label: str) -> list:
    entry = family(label, _LEAST_ORDER)
    return _tag(theta_pi_check(entry.pair, 6), family=label)


def hkdf_global_rows() -> list:
    rows = []
    for m in (1, 2, 3):
        rows.extend(_tag(hkdf_ladder_check(m, 10), family="all"))
        rows.extend(_tag(hkdf_egf_check(m, 10), family="all"))
    trivial = ShefferPair(TruncatedSeries.x(_LEAST_ORDER), TruncatedSeries.one(_LEAST_ORDER))
    for n in range(11):
        rows.append(
            {"family": "all", "identity": "umbral_reduces_to_quadratic_hermite",
             "n": n, "pass": umbral_S(trivial, n) == hkdf(2, n)}
        )
    return rows


def evolution_rows() -> list:
    rows = []
    seeds = [Polynomial.one(), Polynomial.x(), Polynomial.from_coeffs([1, 0, 0, 1])]
    for idx, q in enumerate(seeds):
        _, agree = evolution_solution(q, 8)
        rows.append(
            {"family": "all", "identity": "evolution_routes_agree",
             "seed": idx, "y_order": 8, "pass": agree}
        )
    _, m_op = _bessel_ops(4 + 6 + 1)  # 1/(1 - D) past degree 10, that of M^6 q
    for idx, q in enumerate(
        [Polynomial.one(), Polynomial.from_coeffs([0, 1, 2]), Polynomial.from_coeffs([3, 0, 0, 0, 1])]
    ):
        # M^n q against n smoothing steps, both sides one step further per n
        poly = smooth = q
        for _ in range(6):
            poly, smooth = m_op.apply(poly), pi_recursion(smooth, 1)
            if smooth != poly:
                break
        rows.append(
            {"family": "all", "identity": "smoothing_recursion_equals_operator_power",
             "seed": idx, "depth": 6, "pass": smooth == poly}
        )
    return rows
