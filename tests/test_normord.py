import cmath
import hashlib
import json
import math
import sys
import threading
import time
from collections import Counter
from fractions import Fraction as F
from math import comb, factorial

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings

import conftest as strat
from bivar_reference import ref_normal_order_rhs

from sheffer import (
    CoherentParams,
    CutoffTooSmall,
    FockSpace,
    GuardExceeded,
    IndexOutOfRange,
    NormallyOrderedSeries,
    OrderExceeded,
    Polynomial,
    ShefferPair,
    TruncatedSeries,
    WeylElement,
    exp_element_coherent,
    exp_element_coherent_closed,
    exp_element_state,
    exp_element_state_operator,
    exp_element_vac,
    family,
    fock_verify,
    mono_element,
    mono_element_operator,
    normal_order_lhs,
    normal_order_rhs,
    overlap,
    sequence_via_egf,
    verify_normal_order,
    weyl_mul,
)
from sheffer import fock, normord, sequences, series, weyl
from sheffer.catalog import FAMILY_LABELS
from sheffer.fock import compile_pair
from sheffer.sequences import build_M
from sheffer.suites import _PCG64, _disk_draw, coherent_rows, rows_pass


# -- closed-form matrix elements ------------------------------------------------


def test_mono_element_examples():
    hermite = family("hermite", 10).pair
    assert mono_element(hermite, 2, 0, 0) == -2  # H_2(0)
    assert mono_element(hermite, 0, 0, 0.3 + 1j) == 1  # s_0 = 1
    bell = family("bell", 10).pair
    z = 0.4 - 0.2j
    b4 = Polynomial.from_coeffs([0, 1, 7, 6, 1])  # fourth exponential polynomial
    assert abs(mono_element(bell, 3, 1, z) - complex(b4(z))) < 1e-14


def test_mono_element_operator_agrees_at_l0():
    for label in ("hermite", "laguerre", "bessel"):
        pair = family(label, 12).pair
        for n in range(5):
            z = 0.3 + 0.4j
            assert abs(mono_element(pair, n, 0, z) - mono_element_operator(pair, n, 0, z)) < 1e-12


def test_mono_element_printed_form_presumes_monomial_start():
    # operator route: M x^2 for bell is x^3 + 2x^2, not B_3
    bell = family("bell", 10).pair
    z = 0.7
    assert abs(mono_element_operator(bell, 1, 2, z) - (z**3 + 2 * z**2) / math.sqrt(2)) < 1e-13
    assert mono_element(bell, 1, 2, z) != pytest.approx(
        mono_element_operator(bell, 1, 2, z)
    )


def test_mono_element_order_guard():
    pair = family("hermite", 6).pair
    with pytest.raises(OrderExceeded):
        mono_element(pair, 6, 1, 0.0)


def test_exp_element_vac():
    hermite = family("hermite", 20).pair
    assert exp_element_vac(hermite, 0, 0.9) == 1
    lam, z = 0.1 - 0.05j, 0.6 + 0.3j
    assert abs(exp_element_vac(hermite, lam, z) - cmath.exp(2 * lam * z - lam**2)) < 1e-12
    bell = family("bell", 20).pair
    assert abs(
        exp_element_vac(bell, 0.1, 0.5) - cmath.exp(0.5 * (cmath.exp(0.1) - 1))
    ) < 1e-12


def test_exp_element_state():
    hermite = family("hermite", 16).pair
    z = 0.2 + 0.1j
    # l = 0 reduces to the vacuum element
    assert abs(exp_element_state(hermite, 0.08, z, 0) - exp_element_vac(hermite, 0.08, z)) < 1e-12
    # at lambda = 0 the printed form gives s_l(z)/sqrt(l!)
    for pair in (hermite, family("bell", 16).pair):
        s1 = sequence_via_egf(pair, 1).poly(1)
        assert abs(exp_element_state(pair, 0, z, 1) - complex(s1(z))) < 1e-14
    # s_1 = (z - g'(0)) / f'(0): laguerre has g'(0) = 1, f'(0) = -1
    laguerre = family("laguerre", 16).pair
    assert abs(exp_element_state(laguerre, 0, z, 1) - (z - 1) / (-1)) < 1e-14
    h2 = sequence_via_egf(hermite, 2).poly(2)
    assert abs(exp_element_state(hermite, 0, z, 2) - complex(h2(z)) / math.sqrt(2)) < 1e-14


def test_exp_element_state_operator_values():
    pair = family("bell", 16).pair
    z = 0.3 + 0.2j
    # at lambda = 0 only the k = 0 term survives: x^l evaluated at z
    assert abs(exp_element_state_operator(pair, 0, z, 2) - z**2 / math.sqrt(2)) < 1e-14
    # at l = 0 the operator route reproduces the generating-function route
    assert abs(
        exp_element_state_operator(pair, 0.08, z, 0) - exp_element_vac(pair, 0.08, z)
    ) < 1e-12


def test_exp_element_guards():
    pair = family("bessel", 16).pair
    with pytest.raises(GuardExceeded):
        exp_element_vac(pair, 0.9, 0.0, guard=0.5)
    with pytest.raises(GuardExceeded):
        exp_element_state(pair, 0.9, 0.0, 1, guard=0.5)
    with pytest.raises(GuardExceeded, match="lambda"):  # not as an overflow
        exp_element_vac(pair, math.nan, 0.0, guard=0.5)


def test_exp_element_vac_refuses_overflow_inside_its_guard():
    # exp(z* finv(lam)) overflows on this random pair well inside |lam| <= 0.25
    f = TruncatedSeries.from_coeffs(
        [0, 1, F(-26, 3), F(33, 7), F(9, 2), F(-26, 3), 3, F(43, 9), 1, F(-53, 9), -2]
    )
    g = TruncatedSeries.from_coeffs(
        [1, F(-7, 60), F(91, 90), F(-11, 20), F(-21, 40), F(91, 90), F(-7, 20),
         F(-301, 540), F(-7, 60), F(371, 540), F(7, 30)]
    )
    lam = 0.09596714612136706 - 0.09772768119766156j
    zstar = (0.6313998492550713 - 0.4758462955254986j).conjugate()
    with pytest.raises(GuardExceeded):
        exp_element_vac(ShefferPair(f, g), lam, zstar, guard=0.25)


def test_exp_element_coherent_at_lambda_zero_is_overlap():
    pair = family("bell", 16).pair
    z, zp = 0.5 - 0.2j, 0.3 + 0.25j
    value = exp_element_coherent(pair, z, zp, 0.0).value
    assert abs(value - overlap(z, zp)) < 1e-13


def test_exp_element_coherent_matches_hermite_closed_form():
    pair = family("hermite", 16).pair
    z, zp, lam = 0.4 + 0.3j, -0.2 + 0.1j, 0.07 - 0.02j
    expected = cmath.exp(lam * (2 * z.conjugate() - zp) - lam**2) * overlap(z, zp)
    assert abs(exp_element_coherent(pair, z, zp, lam).value - expected) < 1e-12


def test_exp_element_coherent_matches_bell_closed_form():
    # |z'| well inside the log(1+x) convergence radius so the truncation
    # tail of f stays far below the tolerance
    pair = family("bell", 24).pair
    z, zp, lam = 0.3 - 0.5j, 0.2 + 0.1j, 0.09
    expected = cmath.exp(z.conjugate() * (zp + 1) * (cmath.exp(lam) - 1)) * overlap(z, zp)
    assert abs(exp_element_coherent(pair, z, zp, lam).value - expected) < 1e-12


def test_exp_element_coherent_at_zp_zero_meets_the_vacuum_element():
    # at z' = 0 Newton solves f(c) = lambda, so c is finv(lambda) and the
    # series route meets the generating-function route to rounding
    for label in ("hermite", "bell", "bessel"):
        pair = family(label, 16).pair
        z, lam = 0.35 - 0.15j, 0.05 + 0.02j
        via_coherent = exp_element_coherent(pair, z, 0.0, lam).value
        via_vac = exp_element_vac(pair, lam, z.conjugate()) * overlap(z, 0.0)
        assert abs(via_coherent - via_vac) <= 1e-14 * abs(via_vac)


def test_exp_element_coherent_series_route_matches_closed_maps():
    entry = family("bessel", 24)
    z, zp, lam = 0.6 + 0.2j, 0.12 - 0.08j, 0.05 + 0.03j
    series_route, estimate = exp_element_coherent(
        entry.pair, z, zp, lam, z_guard=0.3, lam_guard=0.2
    )
    assert estimate <= 1e-10
    closed_route = exp_element_coherent_closed(entry.maps, z, zp, lam)
    assert abs(series_route - closed_route) < 1e-10


def test_exp_element_coherent_guards():
    pair = family("bessel", 16).pair
    with pytest.raises(GuardExceeded):
        exp_element_coherent(pair, 0.1, 0.9, 0.05, z_guard=0.3)
    with pytest.raises(GuardExceeded):
        exp_element_coherent(pair, 0.1, 0.1, 0.4, lam_guard=0.12)
    with pytest.raises(GuardExceeded, match="z'"):
        exp_element_coherent(pair, 0.1, complex(0.1, math.nan), 0.05, z_guard=0.3)


@pytest.mark.parametrize(
    "seed", [0, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 12345, 20050429 + 6],
    ids=["zero", "one_word_max", "two_words", "three_words", "above_128_bits", "heldout_idempotent"],
)
def test_coherent_draw_stream_is_numpys_default_rng(seed):
    ours, numpys = _PCG64(seed), np.random.default_rng(seed)
    for _ in range(50):
        assert ours.uniform() == numpys.uniform()
        assert ours.uniform(0.0, 2 * math.pi) == numpys.uniform(0.0, 2 * math.pi)
    ours, numpys = _PCG64(seed), np.random.default_rng(seed)
    assert [_disk_draw(ours, 0.3) for _ in range(5)] == [_disk_draw(numpys, 0.3) for _ in range(5)]


def test_exp_element_coherent_refuses_overflow_inside_the_bell_guards():
    # seeded draws inside bell's own guard discs: each ends as GuardExceeded
    # or as a finite value with its estimate, never as a raw OverflowError;
    # log(1+x) truncated at order 16 is far off near |z'| = 1, which the
    # estimate must show
    entry = family("bell", 16)
    rng = np.random.default_rng(1)
    refused = 0
    for _ in range(200):
        z = _disk_draw(rng, 1.0)
        zp = _disk_draw(rng, entry.z_guard)
        lam = _disk_draw(rng, entry.lam_guard)
        try:
            value, estimate = exp_element_coherent(
                entry.pair, z, zp, lam, z_guard=entry.z_guard, lam_guard=entry.lam_guard
            )
        except GuardExceeded:
            refused += 1
        else:
            assert cmath.isfinite(value)
            refused += estimate > 1e-8
    assert refused > 0
    # f(z') itself overflows complex floating point past every guard
    with pytest.raises(GuardExceeded):
        exp_element_coherent(entry.pair, 0.1, 1e30, 0.05, z_guard=math.inf)


def _coherent_gate(order, seed, draws):
    """Per family: (accepted, accepted but wrong) draws of the series route.

    z is drawn in the unit disc, z' and lambda over the family's full guard
    discs. A draw is refused by GuardExceeded or an estimate above 1e-8;
    an accepted value is wrong when it is more than 1e-8 relative away from
    the closed maps.
    """
    gate = {}
    for label in FAMILY_LABELS:
        entry = family(label, order)
        rng = np.random.default_rng(seed)
        accepted = wrong = 0
        for _ in range(draws):
            z = _disk_draw(rng, 1.0)
            zp = _disk_draw(rng, entry.z_guard)
            lam = _disk_draw(rng, entry.lam_guard)
            try:
                value, estimate = exp_element_coherent(
                    entry.pair, z, zp, lam, z_guard=entry.z_guard, lam_guard=entry.lam_guard
                )
            except GuardExceeded:
                continue
            if estimate > 1e-8:
                continue
            accepted += 1
            closed = exp_element_coherent_closed(entry.maps, z, zp, lam)
            wrong += abs(value - closed) > 1e-8 * abs(closed)
        gate[label] = (accepted, wrong)
    return gate


@pytest.mark.parametrize("order", (16, 32))
def test_exp_element_coherent_gate_over_the_full_guard_discs(order):
    draws = 200
    gate = _coherent_gate(order, seed=1, draws=draws)
    assert all(wrong == 0 for _, wrong in gate.values()), gate
    # floors below the measured shares, so that refusing everything fails
    if order == 16:
        assert gate["bessel"][0] >= 0.95 * draws, gate
        assert gate["lower_factorial"][0] >= 0.95 * draws, gate
    else:
        assert sum(accepted for accepted, _ in gate.values()) >= 0.6 * 7 * draws, gate


def test_fock_verify_refuses_a_coherent_series_value_past_its_estimate():
    # log(1+x) cut at order 16 is far off at z' = -0.9; the closed maps are not
    entry = family("bell", 16)
    params = CoherentParams(0.3, -0.9, 0.5)
    guards = dict(z_guard=entry.z_guard, lam_guard=entry.lam_guard)
    _, estimate = exp_element_coherent(entry.pair, params.z, params.zp, params.lam, **guards)
    assert estimate > 1e-8
    fock_verify(entry.pair, [params], maps=entry.maps, **guards)
    with pytest.raises(GuardExceeded):
        fock_verify(entry.pair, [params], **guards)


def test_fock_verify_refuses_a_ladder_past_float_range():
    # k = 1/f' = 1/(1 + 2*10^400 x) has coefficients past 1.8e308, so neither
    # the image of M nor its Taylor-shift weights round to float
    x = TruncatedSeries.x(16)
    pair = ShefferPair(x + (x * x).scale(10**400), TruncatedSeries.one(16))
    with pytest.raises(GuardExceeded, match="image of M"):
        fock_verify(pair, [CoherentParams(0.1, 0.1, 0.01)])
    with pytest.raises(OverflowError):
        FockSpace(32).shifted_action(pair, [0.1], np.eye(32, 1))


def test_fock_verify_evaluates_the_printed_moments_only_where_adjudicated(monkeypatch):
    # the printed rule is adjudicated at l = 1, 2 only: 6 moments each, none at l = 0
    calls = Counter()
    original = fock.mono_element

    def counted(*args):
        calls["mono_element"] += 1
        return original(*args)

    monkeypatch.setattr(fock, "mono_element", counted)
    entry = family("bell", 16)
    params = CoherentParams(0.3 + 0.1j, 0.2 - 0.1j, 0.05)
    [rows] = fock_verify(entry.pair, [params], maps=entry.maps,
                         z_guard=entry.z_guard, lam_guard=entry.lam_guard)
    assert rows_pass(rows)
    assert calls["mono_element"] == 12


def test_fock_verify_hashes_no_pair(monkeypatch):
    # the compiled data sits in the pair's own __dict__, so neither a cold
    # nor a warm draw looks a pair up by its hash
    hashes = []
    original = ShefferPair.__hash__

    def counted(self):
        hashes.append(self.label)
        return original(self)

    monkeypatch.setattr(ShefferPair, "__hash__", counted)
    family.cache_clear()  # a new catalog pair, so the first draw compiles it
    entry = family("laguerre", 16)
    params = CoherentParams(0.3 + 0.1j, 0.2 - 0.1j, 0.05)
    guards = dict(z_guard=entry.z_guard, lam_guard=entry.lam_guard)
    for _ in range(2):
        assert rows_pass(fock_verify(entry.pair, [params], maps=entry.maps, **guards)[0])
    assert hashes == []


def test_coherent_series_route_calls_no_series_kernel(monkeypatch):
    # the route runs on the rounded truncated pair alone: a complex path
    # through the exact list kernels or the exact Taylor-shift weights must
    # not come back
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    entry = family("hahn", 16)
    pair = ShefferPair(entry.pair.f, entry.pair.g, entry.pair.label)  # no core built yet
    params = CoherentParams(0.3 + 0.1j, 0.2 - 0.1j, 0.05)
    guards = dict(z_guard=entry.z_guard, lam_guard=entry.lam_guard)
    names = [name for name in vars(series) if name.startswith("_k")] + ["_shift_weights"]
    for module in (series, sequences, normord, fock):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    _, estimate = exp_element_coherent(pair, params.z, params.zp, params.lam, **guards)
    assert estimate <= 1e-8
    assert not counts
    # a cold fock_verify builds the pair's exact core; a warm one adds nothing
    fock_verify(pair, [params], **guards)
    assert counts
    counts.clear()
    assert rows_pass(fock_verify(pair, [params], **guards)[0])
    assert not counts


# -- normally ordered series -----------------------------------------------------


def test_normal_order_rhs_lambda_order_zero_is_identity():
    pair = family("bell", 12).pair
    series = normal_order_rhs(pair, 0, 4)
    assert series.terms == {(0, 0): (F(1),)}


def _hermite_expected(lam_order, a_order):
    # :exp(2 t adag) exp(-t^2 - t a): term (i, j) has coefficient
    # 2^i/i! * (-1)^j/j! * [t^{k-i-j-2m}] with the gaussian factor expanded
    terms = {}
    for i in range(lam_order + 1):
        for j in range(a_order + 1):
            poly = [F(0)] * (lam_order + 1)
            for m in range(lam_order + 1):
                k = i + j + 2 * m
                if k > lam_order:
                    break
                poly[k] = (
                    F(2**i, factorial(i))
                    * F((-1) ** j, factorial(j))
                    * F((-1) ** m, factorial(m))
                )
            if any(poly):
                terms[(i, j)] = tuple(poly)
    return NormallyOrderedSeries(terms, lam_order, a_order)


def test_normal_order_rhs_hermite_closed_form():
    pair = family("hermite", 16).pair
    assert normal_order_rhs(pair, 5, 5) == _hermite_expected(5, 5)


def _bell_expected(lam_order, a_order):
    # :exp(adag (a+1) (e^t - 1)): term coefficient of adag^i: (a+1)^i (e^t-1)^i / i!
    order = lam_order
    em1 = [F(0)] + [F(1, factorial(k)) for k in range(1, order + 1)]
    terms = {}
    power = [F(1)] + [F(0)] * order  # (e^t - 1)^i
    for i in range(lam_order + 1):
        for j in range(min(i, a_order) + 1):
            poly = [c * F(comb(i, j), factorial(i)) for c in power]
            if any(poly):
                terms[(i, j)] = tuple(poly)
        # multiply power by (e^t - 1)
        nxt = [F(0)] * (order + 1)
        for p, cp in enumerate(power):
            if cp:
                for q, cq in enumerate(em1[: order + 1 - p]):
                    nxt[p + q] += cp * cq
        power = nxt
    return NormallyOrderedSeries(terms, lam_order, a_order)


def test_normal_order_rhs_bell_closed_form():
    pair = family("bell", 16).pair
    assert normal_order_rhs(pair, 6, 6) == _bell_expected(6, 6)


def test_normal_order_rhs_vacuum_column_matches_generating_series():
    # restriction to a = 0 must reproduce the vacuum matrix-element series:
    # term (i, 0) carries finv(t)^i / i! * prefactor(t)
    pair = family("laguerre", 16).pair
    lam_order, a_order = 5, 4
    rhs = normal_order_rhs(pair, lam_order, a_order)
    finv = pair.f.comp_inverse().truncate(lam_order)
    prefactor = pair.g.compose(pair.f.comp_inverse()).reciprocal().truncate(lam_order)
    power = TruncatedSeries.one(lam_order)
    for i in range(lam_order + 1):
        expected = (power * prefactor).scale(F(1, factorial(i)))
        assert rhs.coefficient(i, 0) == expected.coeffs, i
        power = power * finv


def test_normal_order_lhs_bell_low_orders():
    pair = family("bell", 16).pair
    series = normal_order_lhs(pair, 2, 4)
    lam1 = {key: poly[1] for key, poly in series.terms.items() if poly[1]}
    assert lam1 == {(1, 1): F(1), (1, 0): F(1)}  # adag a + adag
    lam2 = {key: poly[2] for key, poly in series.terms.items() if poly[2]}
    assert lam2 == {
        (2, 2): F(1, 2),
        (2, 1): F(1),
        (2, 0): F(1, 2),
        (1, 1): F(1, 2),
        (1, 0): F(1, 2),
    }
    assert series.coefficient(0, 0)[0] == 1


@pytest.mark.parametrize(
    "label", ("hermite", "laguerre", "bessel", "bell", "lower_factorial", "hahn", "idempotent")
)
def test_routes_agree_exactly(label):
    pair = family(label, 16).pair
    assert rows_pass(verify_normal_order(pair, 4, 5))


def test_corrupted_g_breaks_equality_at_first_lambda_power():
    true_pair = family("bell", 16).pair
    bad_pair = ShefferPair(
        true_pair.f, TruncatedSeries.one(16) + TruncatedSeries.x(16)
    )
    lhs = normal_order_lhs(true_pair, 3, 4)
    rhs = normal_order_rhs(bad_pair, 3, 4)
    mismatch_powers = []
    for key in set(lhs.terms) | set(rhs.terms):
        left, right = lhs.coefficient(*key), rhs.coefficient(*key)
        mismatch_powers.extend(k for k in range(4) if left[k] != right[k])
    assert mismatch_powers
    assert min(mismatch_powers) == 1


def test_conjugate_normal_form():
    pair = family("hermite", 16).pair
    series = normal_order_rhs(pair, 4, 4)
    conj = series.conjugate()
    assert conj.coefficient(1, 2) == series.coefficient(2, 1)
    assert conj.conjugate() == series
    identity = NormallyOrderedSeries({(0, 0): (F(1), F(0))}, 1, 1)
    assert identity.conjugate() == identity


def test_normally_ordered_series_json():
    pair = family("bell", 16).pair
    data = normal_order_lhs(pair, 1, 2).to_json_list()
    assert data[0] == {"adag": 0, "a": 0, "lambda_poly": ["1", "0"]}
    assert {"adag": 1, "a": 1, "lambda_poly": ["0", "1"]} in data


def test_order_guards():
    pair = family("bell", 8).pair
    with pytest.raises(OrderExceeded):
        normal_order_rhs(pair, 6, 8)
    with pytest.raises(OrderExceeded):
        normal_order_lhs(pair, 6, 8)
    with pytest.raises(OrderExceeded):
        normal_order_lhs(pair, 4, 5)
    # both routes accept series order lam_order + a_order
    assert rows_pass(verify_normal_order(pair, 3, 5))
    assert rows_pass(verify_normal_order(pair, 8, 0))


NORMAL_ORDERS = [(0, 0), (1, 0), (0, 4), (6, 8), (12, 16), (3, 20), (16, 3)]


def _pair_orders(lam_order, a_order):
    # a roomy order, and the least the routes accept (a pair needs order >= 1)
    return max(16, lam_order + a_order + 1), max(lam_order + a_order, 1)


@pytest.mark.parametrize("label", FAMILY_LABELS)
@pytest.mark.parametrize("orders", NORMAL_ORDERS, ids=str)
def test_normal_order_rhs_matches_the_bivariate_composition(label, orders):
    lam_order, a_order = orders
    for order in _pair_orders(lam_order, a_order):
        pair = family(label, order).pair
        got = normal_order_rhs(pair, lam_order, a_order)
        ref = ref_normal_order_rhs(pair, lam_order, a_order)
        assert got == ref, order
        assert got.to_json_list() == ref.to_json_list(), order


@settings(max_examples=25, deadline=None)
@given(strat.sheffer_pairs(), st.integers(0, 4), st.integers(0, 6))
def test_normal_order_rhs_matches_the_bivariate_composition_on_random_pairs(
    pair, lam_order, a_order
):
    assert normal_order_rhs(pair, lam_order, a_order) == ref_normal_order_rhs(
        pair, lam_order, a_order
    )


# sha256 of the JSON of normal_order_rhs(family(label, 29).pair, 12, 16),
# recorded from the bivariate-composition route
RHS_JSON_SHA256 = {
    "hahn": "4ad7efff9cb169bd5d142f49bc91df3beb87a18f968ff5302526b7f7c95c8ff4",
    "laguerre": "a6356893f9520f26da52ed891693faecacb48e76863704e57e667234772f2e82",
}


@pytest.mark.parametrize("label", sorted(RHS_JSON_SHA256))
def test_normal_order_rhs_json_is_pinned(label):
    series = normal_order_rhs(family(label, 29).pair, 12, 16)
    digest = hashlib.sha256(json.dumps(series.to_json_list()).encode()).hexdigest()
    assert digest == RHS_JSON_SHA256[label]


def ref_normal_order_lhs(pair, lam_order, a_order):
    """The general-product chain: each power is weyl_mul(power, M), then pruned."""
    depth = lam_order + a_order
    m_op = build_M(pair, depth)
    terms = {}

    def record(element, n):
        inv_fact = F(1, factorial(n))
        for (i, j), c in element.terms.items():
            if j <= a_order:
                poly = terms.setdefault((i, j), [F(0)] * (lam_order + 1))
                poly[n] = poly[n] + c * inv_fact

    power = WeylElement.identity()
    record(power, 0)
    for n in range(1, lam_order + 1):
        cap = a_order + (lam_order - n)
        product = weyl_mul(power, m_op)
        power = WeylElement({k: c for k, c in product.terms.items() if k[1] <= cap})
        record(power, n)
    return NormallyOrderedSeries(terms, lam_order, a_order)


@pytest.mark.parametrize("label", FAMILY_LABELS)
@pytest.mark.parametrize("orders", NORMAL_ORDERS, ids=str)
def test_normal_order_lhs_matches_the_weyl_mul_chain(label, orders):
    # the reference builds M to D-power lam_order + a_order, one past what
    # normal_order_lhs builds, so it needs the roomier pair
    lam_order, a_order = orders
    roomy, least = _pair_orders(lam_order, a_order)
    ref = ref_normal_order_lhs(family(label, roomy).pair, lam_order, a_order)
    for order in (roomy, least):
        got = normal_order_lhs(family(label, order).pair, lam_order, a_order)
        assert got.terms == ref.terms, order


@settings(max_examples=25, deadline=None)
@given(strat.sheffer_pairs(), st.integers(0, 4), st.integers(0, 5))
def test_normal_order_lhs_matches_the_weyl_mul_chain_on_random_pairs(pair, lam_order, a_order):
    got = normal_order_lhs(pair, lam_order, a_order)
    assert got == ref_normal_order_lhs(pair, lam_order, a_order)


@pytest.mark.parametrize("lam_order", (1, 8))
def test_normal_order_lhs_multiplies_weyl_elements_only_in_build_M(lam_order, monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(normord, "build_M", counted("build_M", build_M))
    product = weyl.weyl_mul
    monkeypatch.setattr(weyl, "weyl_mul", counted("weyl_mul", product))
    for module in (sequences, normord):
        monkeypatch.setattr(module, "weyl_mul", counted("weyl_mul", product), raising=False)
    normal_order_lhs(family("idempotent", 16).pair, lam_order, 6)
    assert counts == {"build_M": 1, "weyl_mul": 1}


# -- the packed row kernels against the loops they replaced ----------------------


def ref_dict_normal_order_lhs(pair, lam_order, a_order):
    """The right product by M on a dict of X^i D^j numerators, one term at a time."""
    normord._check_orders(pair, lam_order, a_order)
    depth = lam_order + a_order
    m_op = build_M(pair, depth - 1) if lam_order else WeylElement.zero()
    m_num, m_den = series._common_denominator(list(m_op.terms.values()))
    k_part, d_part = [], []  # (t, numerator) of X*D^t and of D^t, t ascending
    for (i, t), c in sorted(zip(m_op.terms, m_num)):
        (k_part if i else d_part).append((t, c))
    terms = {}

    def record(power, den, n):
        den *= factorial(n)
        for (i, j), c in power.items():
            if j <= a_order:
                poly = terms.setdefault((i, j), [F(0)] * (lam_order + 1))
                poly[n] = F(c, den)

    power, den = {(0, 0): 1}, 1
    record(power, den, 0)
    for n in range(1, lam_order + 1):
        cap = depth - n
        out = {}
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
        g = math.gcd(den, *power.values())
        if g > 1:
            power = {key: c // g for key, c in power.items()}
            den //= g
        record(power, den, n)
    return NormallyOrderedSeries(terms, lam_order, a_order)


def ref_rows_normal_order_rhs(pair, lam_order, a_order):
    """The composed-series route with acc * E summed one _iconv row product at a time."""
    normord._check_orders(pair, lam_order, a_order)
    width = a_order + 1
    f_nums, fd = series._common_denominator(pair.f.coeffs[:width])
    fd_powers, table = [1], [[1] + [0] * a_order]
    for _ in range(a_order):
        fd_powers.append(fd_powers[-1] * fd)
        table.append(series._iconv(table[-1], f_nums, a_order))
    columns = [[power[q] for power in table[: q + 1]] for q in range(width)]

    e_rows, e_den = normord._shift_at_fa(pair.finv, columns, fd_powers, lam_order)
    e_rows[0] = [0] * width
    e_rows, e_den = normord._reduced(e_rows, e_den)
    q_rows, q_den = normord._shift_at_fa(pair.prefactor, columns, fd_powers, lam_order)
    g_nums, gd = series._common_denominator(pair.g.coeffs[:width])
    acc, den = normord._reduced(
        [series._iconv(g_nums, row, a_order) for row in q_rows], gd * q_den
    )

    terms = {}
    for i in range(lam_order + 1):
        if i:
            out = [[0] * width for _ in range(lam_order + 1)]
            for p1 in range(i - 1, lam_order):
                for p2 in range(1, lam_order + 1 - p1):
                    product = series._iconv(acc[p1], e_rows[p2], a_order)
                    out[p1 + p2] = [x + y for x, y in zip(out[p1 + p2], product)]
            acc, den = normord._reduced(out, den * e_den)
        scale = den * factorial(i)
        for p, row in enumerate(acc):
            for q, c in enumerate(row):
                if c:
                    poly = terms.setdefault((i, q), [F(0)] * (lam_order + 1))
                    poly[p] = F(c, scale)
    return NormallyOrderedSeries(terms, lam_order, a_order)


def ref_verify_normal_order(lhs, rhs):
    """The Fraction comparison of two normally ordered series, cell by cell."""
    rows = []
    for key in sorted(set(lhs.terms) | set(rhs.terms)):
        left, right = lhs.coefficient(*key), rhs.coefficient(*key)
        for k in range(lhs.lam_order + 1):
            if left[k] or right[k]:
                rows.append(
                    {"adag": key[0], "a": key[1], "lambda_power": k, "pass": left[k] == right[k]}
                )
    return rows


ROW_KERNEL_ORDERS = [(0, 0), (1, 0), (0, 4), (6, 8), (12, 16)]


@pytest.mark.parametrize("label", FAMILY_LABELS)
@pytest.mark.parametrize("orders", ROW_KERNEL_ORDERS, ids=str)
def test_row_kernels_match_the_loops_they_replaced(label, orders):
    lam_order, a_order = orders
    for order in _pair_orders(lam_order, a_order):
        pair = family(label, order).pair
        lhs = normal_order_lhs(pair, lam_order, a_order)
        rhs = normal_order_rhs(pair, lam_order, a_order)
        assert lhs == ref_dict_normal_order_lhs(pair, lam_order, a_order), order
        assert rhs == ref_rows_normal_order_rhs(pair, lam_order, a_order), order
        detail = verify_normal_order(pair, lam_order, a_order)
        assert detail == ref_verify_normal_order(lhs, rhs), order


@settings(max_examples=25, deadline=None)
@given(strat.sheffer_pairs(), st.integers(0, 4), st.integers(0, 6))
def test_row_kernels_match_the_loops_they_replaced_on_random_pairs(pair, lam_order, a_order):
    lhs = normal_order_lhs(pair, lam_order, a_order)
    rhs = normal_order_rhs(pair, lam_order, a_order)
    assert lhs == ref_dict_normal_order_lhs(pair, lam_order, a_order)
    assert rhs == ref_rows_normal_order_rhs(pair, lam_order, a_order)
    assert verify_normal_order(pair, lam_order, a_order) == ref_verify_normal_order(lhs, rhs)


def test_verify_normal_order_reports_the_mismatches_the_fraction_comparison_finds(monkeypatch):
    # the rhs kernel reads a pair with the wrong g, so cells from lambda^1 on fail
    true_pair = family("bell", 16).pair
    bad_pair = ShefferPair(true_pair.f, TruncatedSeries.one(16) + TruncatedSeries.x(16))
    rhs_rows = normord._rhs_rows
    monkeypatch.setattr(normord, "_rhs_rows", lambda pair, *orders: rhs_rows(bad_pair, *orders))
    got = verify_normal_order(true_pair, 3, 4)
    expected = ref_verify_normal_order(
        normal_order_lhs(true_pair, 3, 4), normal_order_rhs(bad_pair, 3, 4)
    )
    assert got == expected
    assert not all(row["pass"] for row in got)


# -- consistency chain: operator powers against the generating series -----------


@pytest.mark.parametrize("label", ("hermite", "bessel", "hahn", "idempotent"))
def test_operator_powers_match_generating_route_exactly(label):
    pair = family(label, 12).pair
    seq = sequence_via_egf(pair, 8)
    from sheffer import build_M

    m_op = build_M(pair, 8)
    poly = Polynomial.one()
    for n in range(8):
        poly = m_op.apply(poly)
        assert poly == seq.poly(n + 1), (label, n)


# -- Fock-space numerics ---------------------------------------------------------


def dense_a(dim):
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def ref_weyl_matrix(dim, element):
    a = dense_a(dim)
    adag = a.T
    out = np.zeros((dim, dim), dtype=complex)
    for (i, j), c in element.terms.items():
        out += complex(c) * (np.linalg.matrix_power(adag, i) @ np.linalg.matrix_power(a, j))
    return out


def test_weyl_images_multiply_on_the_stable_block():
    u = WeylElement({(1, 0): 2, (0, 2): F(1, 3)})
    v = WeylElement({(0, 1): 1, (2, 1): F(-1, 2)})
    product = ref_weyl_matrix(32, weyl_mul(u, v))
    direct = ref_weyl_matrix(32, u) @ ref_weyl_matrix(32, v)
    keep = 32 - 6
    np.testing.assert_allclose(
        product[:keep, :keep], direct[:keep, :keep], rtol=1e-10, atol=1e-10
    )


def test_exp_adag_columns_are_shifted_coherent_amplitudes():
    space = FockSpace(24)
    t = 0.4 - 0.3j
    col = space.exp_adag(t) @ np.eye(24, 1)[:, 0]
    for m in range(24):
        assert abs(col[m] - t**m / math.sqrt(factorial(m))) < 1e-12


def test_norm_is_numpys_bit_for_bit():
    # apply_exp's column norms restate numpy's; a numpy that changes its norm fails here
    rng = np.random.default_rng(20050429)
    for length in (1, 2, 31, 64, 129):
        for width in (1, 3, 40):
            parts = rng.standard_normal((2, length, width))
            for mags in (10.0 ** rng.uniform(-20, 20), 10.0 ** rng.uniform(-20, 20, (length, 1))):
                block = mags * (parts[0] + 1j * parts[1])
                assert fock._norms(block).tobytes() == np.linalg.norm(block, axis=0).tobytes()
    zero = np.zeros((16, 2), dtype=complex)
    assert (fock._norms(zero) == 0.0).all()


def test_apply_exp_matches_scipy_expm():
    import scipy.linalg

    space = FockSpace(32)
    pair = family("hermite", 16).pair
    mat = space.pair_matrix(pair)
    vecs, _ = space.coherent_vecs([0.3 + 0.2j, -0.5j, 0.7])
    block = np.hstack([vecs, np.eye(32, 2), np.zeros((32, 1))])
    # each column has its own lambda; at |lambda| = 2 on |0> the effective
    # norm is 4, so the second block is summed in four scaling steps
    for top in (0.1 - 0.05j, 2.0):
        lams = [0.1 - 0.05j, 0.2, -0.03j, top, 0.25, 0.1]
        ours, tails = space.apply_exp(mat, lams, block)
        for j, lam in enumerate(lams):
            direct = scipy.linalg.expm(lam * mat) @ block[:, j]
            np.testing.assert_allclose(ours[:, j], direct, rtol=1e-10, atol=1e-12)
            # a column summed in the block is the column summed alone, to rounding
            alone, _ = space.apply_exp(mat, [lam], block[:, j : j + 1])
            np.testing.assert_allclose(ours[:, j], alone[:, 0], rtol=1e-13, atol=1e-15)
        assert (tails < 1e-12).all()
        assert not ours[:, -1].any() and tails[-1] == 0.0


def test_fock_verify_hermite_spec_point():
    entry = family("hermite", 16)
    [rows] = fock_verify(
        entry.pair,
        [CoherentParams(0.3, 0.2j, 0.1)],
        cutoff=64,
        tol=1e-8,
        maps=entry.maps,
        z_guard=entry.z_guard,
        lam_guard=entry.lam_guard,
    )
    assert rows_pass(rows)
    coherent = next(r for r in rows if r["identity"] == "exp_coherent")
    assert coherent["max_rel_err"] <= 1e-8


def test_fock_overlap_at_lambda_zero():
    entry = family("bell", 16)
    [rows] = fock_verify(
        entry.pair,
        [CoherentParams(0.7 - 0.1j, 0.5 + 0.4j, 0.0)],
        cutoff=64,
        tol=1e-10,
        maps=entry.maps,
        z_guard=entry.z_guard,
        lam_guard=entry.lam_guard,
    )
    row = next(r for r in rows if r["identity"] == "overlap")
    assert row["max_rel_err"] <= 1e-10


def test_fock_verify_guards_and_cutoff():
    entry = family("bessel", 16)
    good = CoherentParams(0.3, 0.1, 0.05)
    with pytest.raises(CutoffTooSmall):
        fock_verify(entry.pair, [good], cutoff=16, maps=entry.maps)
    with pytest.raises(GuardExceeded):
        fock_verify(
            entry.pair,
            [CoherentParams(0.3, 0.9, 0.05)],
            maps=entry.maps,
            z_guard=entry.z_guard,
            lam_guard=entry.lam_guard,
        )
    with pytest.raises(GuardExceeded):
        fock_verify(
            entry.pair,
            [CoherentParams(1.4, 0.1, 0.05)],
            maps=entry.maps,
            z_guard=entry.z_guard,
            lam_guard=entry.lam_guard,
        )
    # NaN is refused by the guard that names it, not later as an overflow
    # or a Taylor sum that did not converge
    guards = dict(maps=entry.maps, z_guard=entry.z_guard, lam_guard=entry.lam_guard)
    for params, named in (
        (CoherentParams(math.nan, 0.1, 0.05), r"\|z\| and \|z'\|"),
        (CoherentParams(0.3, complex(math.nan), 0.05), r"\|z\| and \|z'\|"),
        (CoherentParams(0.3, 0.1, math.nan), r"\|lambda\| = nan"),
    ):
        with pytest.raises(GuardExceeded, match=named):
            fock_verify(entry.pair, [params], **guards)


# -- a batch of draws against its draws one at a time ----------------------------


def _disc(radius):
    """Points of the closed disc |w| <= radius; rounding can put rect's point past it."""
    return st.tuples(st.floats(0, 1), st.floats(0, 2 * math.pi)).map(
        lambda polar: cmath.rect(radius * math.sqrt(polar[0]), polar[1])).filter(
        lambda w: abs(w) <= radius)


@st.composite
def _suite_draws(draw):
    """A family, 1-6 draws inside the coherent suite's discs and a cutoff."""
    label = draw(st.sampled_from(FAMILY_LABELS))
    entry = family(label, 16)
    point = st.builds(CoherentParams, _disc(1.0), _disc(min(1.0, entry.z_guard)),
                      _disc(min(0.1, entry.lam_guard)))
    return entry, draw(st.lists(point, min_size=1, max_size=6)), draw(st.sampled_from([32, 64]))


@settings(max_examples=40, deadline=None)
@given(_suite_draws())
def test_a_batch_equals_its_draws_one_at_a_time(case):
    entry, draws, cutoff = case
    kwargs = dict(cutoff=cutoff, maps=entry.maps, z_guard=entry.z_guard,
                  lam_guard=entry.lam_guard)
    batch = fock_verify(entry.pair, draws, **kwargs)
    alone = [fock_verify(entry.pair, [params], **kwargs) for params in draws]
    assert len(batch) == len(draws) and all(len(rows) == 1 for rows in alone)
    for rows, [ref] in zip(batch, alone):
        assert [row["identity"] for row in rows] == [row["identity"] for row in ref]
        for row, want in zip(rows, ref):
            assert row["pass"] == want["pass"]
            assert row.get("matches_printed") == want.get("matches_printed")
            assert abs(row["max_rel_err"] - want["max_rel_err"]) <= 1e-12


def _first_refusal(pair, draws, **kwargs):
    """(index, class, message) of the first draw that a batch of one refuses."""
    for index, params in enumerate(draws):
        try:
            fock_verify(pair, [params], **kwargs)
        except Exception as exc:  # noqa: BLE001 - the class is what is compared
            return index, type(exc), str(exc)
    return None


def _overflowing_shift(original):
    # the shifted action overflows on the columns shifted by |t| > 0.3
    def shifted_action(self, pair, shifts, block):
        out = original(self, pair, shifts, block)
        out[:, np.abs(shifts) > 0.3] = np.inf
        return out

    return shifted_action


def _refusing_weights(self, pair, shifts, block):
    raise OverflowError("the Taylor-shift weights do not round to float")


@pytest.mark.parametrize("refused", (0, 1, 3))
@pytest.mark.parametrize("cause", ("guard", "coherent tail", "shifted action", "shift weights",
                                   "series estimate"))
def test_a_refused_batch_raises_what_the_serial_loop_raised_first(cause, refused, monkeypatch):
    good = [CoherentParams(0.1 + 0.05j * k, 0.05 - 0.02j * k, 0.03 + 0.01j * k) for k in range(5)]
    label, kwargs, bad = "bell", {}, None
    if cause == "guard":
        label, bad = "bessel", CoherentParams(0.3, 0.9, 0.05)
    elif cause == "coherent tail":
        kwargs, bad = dict(cutoff=32, tol=1e-30), CoherentParams(0.9, 0.1, 0.05)
    elif cause == "shifted action":
        monkeypatch.setattr(FockSpace, "shifted_action",
                            _overflowing_shift(FockSpace.shifted_action))
        bad = CoherentParams(0.2, 0.4j, 0.05)
    elif cause == "shift weights":  # every draw refuses, so the first one does
        monkeypatch.setattr(FockSpace, "shifted_action", _refusing_weights)
    else:  # log(1+x) cut at order 16 is far off at z' = -0.9
        kwargs, bad = dict(maps=None), CoherentParams(0.3, -0.9, 0.5)
    entry = family(label, 16)
    kwargs = {"maps": entry.maps, "z_guard": entry.z_guard, "lam_guard": entry.lam_guard,
              **kwargs}
    draws = list(good)
    if bad is not None:
        draws[refused] = bad
        # a later draw that a guard would refuse changes nothing
        draws[refused + 1] = CoherentParams(0.3, 0.1, 5.0)
    index, cls, message = _first_refusal(entry.pair, draws, **kwargs)
    assert index == (0 if bad is None else refused)
    with pytest.raises(cls) as raised:
        fock_verify(entry.pair, draws, **kwargs)
    assert str(raised.value) == message
    if cause == "shift weights":
        assert message.startswith(f"image of M shifted by {draws[0].zp}")


# -- the one-thread BLAS scope of the Fock layer --------------------------------

needs_openblas = pytest.mark.skipif(
    fock._openblas_threads() is None, reason="numpy's BLAS is not an OpenBLAS under numpy.libs"
)


@pytest.fixture
def blas_threads():
    """Set numpy's OpenBLAS to two threads for the test; yield its count getter."""
    get_threads, set_threads = fock._openblas_threads()
    before = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(before)


def _hermite_verify(params, **kwargs):
    entry = family("hermite", 16)
    [rows] = fock_verify(
        entry.pair, [params], maps=entry.maps, z_guard=entry.z_guard,
        lam_guard=entry.lam_guard, **kwargs,
    )
    return rows


@needs_openblas
def test_fock_numerics_run_on_one_blas_thread_and_restore_the_count(blas_threads, monkeypatch):
    seen = []
    apply_exp = FockSpace.apply_exp

    def spy(self, *args):
        seen.append(blas_threads())
        return apply_exp(self, *args)

    monkeypatch.setattr(FockSpace, "apply_exp", spy)
    assert rows_pass(_hermite_verify(CoherentParams(0.3, 0.2j, 0.1)))
    assert blas_threads() == 2
    assert rows_pass(coherent_rows("hahn", order=16, cutoff=64, tol=1e-8, draws=1, seed=7))
    assert blas_threads() == 2
    # one block per fock_verify, and one for hahn's adjudication row outside it
    assert seen == [1] * 3


@needs_openblas
def test_blas_thread_count_is_restored_when_the_call_raises(blas_threads):
    with pytest.raises(CutoffTooSmall, match="coherent tail"):
        _hermite_verify(CoherentParams(0.9, 0.2, 0.1), cutoff=32, tol=1e-30)
    assert blas_threads() == 2
    with pytest.raises(CutoffTooSmall, match="coherent tail"):
        coherent_rows("hermite", order=16, cutoff=32, tol=1e-300, draws=1, seed=7)
    assert blas_threads() == 2
    # a batch whose second draw is refused, after its first is checked
    entry = family("hermite", 16)
    with pytest.raises(CutoffTooSmall, match="coherent tail"):
        fock_verify(entry.pair, [CoherentParams(0.1, 0.1, 0.05), CoherentParams(0.9, 0.2, 0.1)],
                    cutoff=32, tol=1e-30, maps=entry.maps)
    assert blas_threads() == 2


@needs_openblas
def test_blas_scope_is_a_no_op_when_the_lookup_finds_nothing(blas_threads, monkeypatch):
    monkeypatch.setattr(fock, "_openblas_threads", lambda: None)
    with fock._one_blas_thread():
        assert blas_threads() == 2
    assert rows_pass(_hermite_verify(CoherentParams(0.3, 0.2j, 0.1)))
    assert blas_threads() == 2


@needs_openblas
def test_blas_scopes_on_several_threads_restore_the_count(blas_threads):
    seen = []

    def work():
        for _ in range(300):
            with fock._one_blas_thread():
                time.sleep(0)  # let another thread open or close a scope here
                seen.append(blas_threads())

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(worker.is_alive() for worker in workers)
    assert blas_threads() == 2
    assert seen == [1] * 1200


def test_blas_lookup_failure_does_not_raise(monkeypatch):
    def refuse(path):
        raise OSError(f"cannot load {path}")

    fock._openblas_threads.cache_clear()
    monkeypatch.setattr(fock.ctypes, "CDLL", refuse)
    try:
        assert fock._openblas_threads() is None
        assert rows_pass(_hermite_verify(CoherentParams(0.3, 0.2j, 0.1)))
    finally:
        fock._openblas_threads.cache_clear()


# -- the compiled pair against the per-call route it replaces -------------------
#
# The references below are the per-call implementations: exact Fraction chains
# M^k x^l evaluated by Horner at a complex point, the generating-function
# series evaluated by ``eval_complex``, the Horner scheme on the matrix of a,
# the entrywise loop for exp(t*adag) and a 60-digit Taylor shift of
# k = 1/f' and h*k, rounded to double only at the end.


def ref_mono_element_operator(pair, n, l, zstar):
    m_op = build_M(pair, max(n + l, 1))
    poly = Polynomial.monomial(l)
    for _ in range(n):
        poly = m_op.apply(poly)
    return complex(poly(complex(zstar))) / math.sqrt(factorial(l))


def ref_exp_element_state_operator(pair, lam, zstar, l):
    k_top = pair.order - 1
    m_op = build_M(pair, k_top)
    zs = complex(zstar)
    poly = Polynomial.monomial(l)
    acc = complex(poly(zs))
    power = 1.0 + 0j
    for k in range(1, k_top - l + 1):
        poly = m_op.apply(poly)
        power *= lam
        acc += complex(poly(zs)) * power / factorial(k)
    return acc / math.sqrt(factorial(l))


def ref_exp_element_vac(pair, lam, zstar):
    h = pair.f.comp_inverse()
    prefactor = pair.g.compose(h).reciprocal()
    hv = h.eval_complex(lam, 1.0).value
    return prefactor.eval_complex(lam, 1.0).value * cmath.exp(complex(zstar) * hv)


def ref_series_on_a(space, coeffs):
    a = dense_a(space.dim)
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for c in reversed(list(coeffs)):
        out = out @ a
        out += complex(c) * np.eye(space.dim)
    return out


def ref_exp_adag(space, t):
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for n in range(space.dim):
        entry = 1.0 + 0j
        out[n, n] = entry
        for m in range(n, space.dim - 1):
            entry = entry * t * math.sqrt(m + 1) / (m - n + 1)
            out[m + 1, n] = entry
    return out


def ref_taylor_shift(coeffs, t):
    # coefficients of c(x + t) at the working precision, highest power first
    n = len(coeffs) - 1
    cs = [mpmath.mpf(c.numerator) / c.denominator for c in coeffs]
    out = []
    for k in range(n + 1):
        acc = mpmath.mpc(0)
        for m in range(n, k - 1, -1):
            acc += cs[m] * comb(m, k) * t ** (m - k)
        out.append(complex(acc))
    return out


def ref_pair_matrix(space, pair, shift):
    k_ser = pair.f.derivative().reciprocal()
    hk_ser = (pair.g.derivative() * pair.g.reciprocal() * k_ser).truncate(k_ser.order)
    with mpmath.workdps(60):
        t = mpmath.mpc(complex(shift))
        k, hk = (ref_taylor_shift(ser.coeffs, t) for ser in (k_ser, hk_ser))
    return dense_a(space.dim).T @ ref_series_on_a(space, k) - ref_series_on_a(space, hk)


def _points(seed, count, radius):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(size=count))
    theta = rng.uniform(0, 2 * np.pi, size=count)
    return [complex(x) for x in r * np.exp(1j * theta)]


@pytest.mark.parametrize("label", FAMILY_LABELS)
def test_compiled_closed_forms_match_the_per_call_route_bit_for_bit(label):
    entry = family(label, 16)
    pair = entry.pair
    for zstar, lam in zip(_points(1, 3, 1.0), _points(2, 3, min(0.1, entry.lam_guard))):
        for l in range(3):
            for n in range(7):
                assert mono_element_operator(pair, n, l, zstar) == ref_mono_element_operator(
                    pair, n, l, zstar
                ), (n, l)
            assert exp_element_state_operator(pair, lam, zstar, l) == (
                ref_exp_element_state_operator(pair, lam, zstar, l)
            ), l
        assert exp_element_vac(pair, lam, zstar) == ref_exp_element_vac(pair, lam, zstar)


@pytest.mark.parametrize("label", FAMILY_LABELS)
def test_shifted_image_matches_the_exact_taylor_shift(label):
    # the shifted action on |0>, |1> and |t/2> against the 60-digit shifted
    # image times them, one shift t per column
    entry = family(label, 16)
    space = FockSpace(64)
    shifts = _points(3, 3, min(1.0, entry.z_guard))
    block = np.hstack([np.eye(64, 2).repeat(3, axis=1), space.coherent_vecs(np.divide(shifts, 2))[0]])
    columns = np.tile(shifts, 3)
    got = space.shifted_action(entry.pair, columns, block)
    for j, shift in enumerate(columns):
        ref = ref_pair_matrix(space, entry.pair, shift)
        assert np.abs(got[:, j] - ref @ block[:, j]).max() <= 1e-12 * np.abs(ref).max()


def test_unshifted_image_is_the_matrix_horner_image_and_is_cached():
    for label in FAMILY_LABELS:
        pair = family(label, 16).pair
        space = FockSpace(48)
        image = space.pair_matrix(pair)
        # every entry is c_j times sqrt factors rounded in the same order as
        # the matrix Horner scheme, so the images agree bit for bit
        np.testing.assert_array_equal(image, ref_pair_matrix(space, pair, 0))
        assert FockSpace(48).pair_matrix(pair) is image
        assert not image.flags.writeable
        # at a zero shift the shifted action is the image on the vectors
        block = np.hstack([np.eye(48, 3), space.coherent_vecs([0.3 - 0.2j])[0]])
        got = space.shifted_action(pair, np.zeros(4), block)
        assert np.abs(got - image @ block).max() <= 1e-13 * np.abs(image).max()


@pytest.mark.parametrize("dim", [2, 5, 33, 64])
def test_table_built_fock_images_match_the_loops(dim):
    space = FockSpace(dim)
    rng = np.random.default_rng(dim)
    for t in _points(dim, 4, 1.0):
        ref = ref_exp_adag(space, t)
        assert np.abs(space.exp_adag(t) - ref).max() <= 1e-15 * np.abs(ref).max()
    for size in (1, 3, 17, dim + 3):
        coeffs = rng.uniform(-2, 2, size) + 1j * rng.uniform(-2, 2, size) * (size % 2)
        ref = ref_series_on_a(space, coeffs)
        assert np.abs(space.series_on_a(coeffs) - ref).max() <= 1e-15 * np.abs(ref).max()
    fractions = [F(1, 3), F(-7, 5), F(0), F(22, 7)]
    ref = ref_series_on_a(space, fractions)
    assert np.abs(space.series_on_a(fractions) - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("label", ("laguerre", "hahn", "idempotent"))
def test_coherent_draws_do_no_exact_work(label, monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        fock, "sequence_via_egf", counted("sequence_via_egf", fock.sequence_via_egf))
    monkeypatch.setattr(
        TruncatedSeries, "comp_inverse", counted("comp_inverse", TruncatedSeries.comp_inverse)
    )
    monkeypatch.setattr(WeylElement, "apply", counted("apply", WeylElement.apply))
    family(label, 16)
    seen = []
    for draws in (1, 10):
        # a new catalog pair, so each round builds the pair's core and compiled data
        family.cache_clear()
        counts.clear()
        rows = coherent_rows(label, order=16, cutoff=64, tol=1e-8, draws=draws, seed=7)
        assert rows_pass(rows)
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    # one exact sequence for s_n, one for the chains M^k x^l; no Weyl action
    assert seen[0]["sequence_via_egf"] == 2
    assert "apply" not in seen[0]


def test_printed_closed_form_checks_its_indices():
    pair = family("hermite", 8).pair
    with pytest.raises(IndexOutOfRange):
        mono_element(pair, -1, 2, 0.3)  # M^-1 does not exist
    with pytest.raises(IndexOutOfRange):
        mono_element(pair, 3, -1, 0.3)  # nor does |-1>


def test_compiled_closed_forms_reject_negative_indices():
    pair = family("hermite", 8).pair
    with pytest.raises(OrderExceeded):
        mono_element(pair, -2, 1, 0.1)
    with pytest.raises(IndexError):
        mono_element_operator(pair, -1, 0, 0.1)
    with pytest.raises(IndexError):
        exp_element_state_operator(pair, 0.05, 0.1, -1)
    with pytest.raises(IndexError):
        exp_element_state(pair, 0.05, 0.1, -1)


# -- draw-independent Fock data, built once per pair ---------------------------------


def ref_raising_chain(pair, l):
    """Rounded M^k x^l for k = 0 .. order-1-l, by the raising operator at the top degree."""
    m_op = build_M(pair, pair.order - 1)
    poly, chain = Polynomial.monomial(l), []
    for _ in range(pair.order - l):
        chain.append([complex(c) for c in poly.coeffs])
        poly = m_op.apply(poly)
    return chain


def _chain_bits(chain):
    return [np.array(row, dtype=complex).tobytes() for row in chain]


@pytest.mark.parametrize("label", FAMILY_LABELS)
def test_the_vacuum_chain_is_the_sequence(label, monkeypatch):
    # monomiality: M^k 1 = s_k, so the chain at l = 0 needs no raising operator
    entry = family(label, 16)
    compiled = compile_pair(ShefferPair(entry.pair.f, entry.pair.g))
    applied = []
    original = WeylElement.apply
    monkeypatch.setattr(WeylElement, "apply", lambda *args: applied.append(1) or original(*args))
    chain = compiled._chain(0)
    assert applied == []
    assert chain == compiled._sequence[: compiled.order]
    monkeypatch.undo()
    assert _chain_bits(chain) == _chain_bits(ref_raising_chain(entry.pair, 0))


@pytest.mark.parametrize("order", [16, 20, 32])
@pytest.mark.parametrize("label", FAMILY_LABELS)
def test_chains_are_the_raising_operators_bit_for_bit(label, order):
    pair = family(label, order).pair
    compiled = compile_pair(ShefferPair(pair.f, pair.g))
    for l in (1, 2, 3, order - 2, order - 1):
        assert _chain_bits(compiled._chain(l)) == _chain_bits(ref_raising_chain(pair, l)), l


@settings(max_examples=40, deadline=None)
@given(strat.sheffer_pairs(), st.integers(1, 9))
def test_chains_of_any_pair_are_the_raising_operators_bit_for_bit(pair, l):
    chain = compile_pair(pair)._chain(l)
    assert _chain_bits(chain) == _chain_bits(ref_raising_chain(pair, l))
    assert len(chain) == pair.order - l


def test_one_exact_sequence_serves_every_chain_the_verifier_reads(monkeypatch):
    calls = []
    original = fock.sequence_via_egf
    monkeypatch.setattr(fock, "sequence_via_egf", lambda *args: calls.append(args) or original(*args))
    pair = family("bessel", 16).pair
    compiled = compile_pair(ShefferPair(pair.f, pair.g))
    first = compiled._chain(2)
    assert compiled._chain(1) and compiled._chain(2) is first
    assert len(calls) == 1
    compiled._chain(5)  # past the verifier's states: a sequence of its own
    assert len(calls) == 2
    # no exact table stays on the compiled pair: only the rounded chains
    assert set(vars(compiled)) == {"pair", "order", "_chains", "images", "moments"}
    assert {type(c) for chain in compiled._chains.values() for row in chain for c in row} == {complex}


def ref_shift_weights(coeffs):
    """The Fraction loop the integer-numerator weights replaced."""
    size = len(coeffs)
    out = np.zeros((size, size))
    for j in range(size):
        for p in range(size - j):
            out[j, p] = coeffs[j + p] * comb(j + p, j)
    return out


def _same_shift_weights(pair):
    for ser in pair.ladder:
        ref = ref_shift_weights(ser.coeffs)
        assert fock._shift_weights(ser.coeffs).tobytes() == ref.tobytes()


@pytest.mark.parametrize("label", FAMILY_LABELS)
def test_shift_weights_are_the_fraction_loops_bit_for_bit(label):
    _same_shift_weights(family(label, 16).pair)


@settings(max_examples=40, deadline=None)
@given(strat.sheffer_pairs())
def test_shift_weights_are_the_fraction_loops_bit_for_bit_on_random_pairs(pair):
    _same_shift_weights(pair)


def test_shift_weights_past_float_range_raise_as_the_fraction_loop_does():
    coeffs = [F(1, 3), F(10**400, 7)]
    with pytest.raises(OverflowError):
        ref_shift_weights(coeffs)
    with pytest.raises(OverflowError):
        fock._shift_weights(coeffs)
    # and through the shifted action, which fock_verify turns into the
    # draw's GuardExceeded
    x = TruncatedSeries.x(16)
    pair = ShefferPair(x + (x * x).scale(10**400), TruncatedSeries.one(16))
    with pytest.raises(OverflowError):
        FockSpace(32).shifted_action(pair, [0.1], np.eye(32, 1))


class _CountedImage(np.ndarray):
    products = 0

    def __matmul__(self, other):
        type(self).products += 1
        return np.asarray(self) @ other


def test_a_second_draw_reuses_the_moment_vectors(monkeypatch):
    # M^n|l> for n = 1..6, l = 0..2 is built once per pair and cutoff, by six
    # products with the block of |0>, |1> and |2>, so the same draw again
    # makes all of its image products but those 6
    original = FockSpace.pair_matrix
    monkeypatch.setattr(FockSpace, "pair_matrix", lambda self, pair: (
        original(self, pair).view(_CountedImage)))
    entry = family("laguerre", 16)
    pair = ShefferPair(entry.pair.f, entry.pair.g)
    params = CoherentParams(0.3 + 0.1j, 0.2 - 0.1j, 0.05)
    guards = dict(maps=entry.maps, z_guard=entry.z_guard, lam_guard=entry.lam_guard)
    runs = []
    for _ in range(2):
        _CountedImage.products = 0
        runs.append((fock_verify(pair, [params], **guards), _CountedImage.products))
    (first, first_products), (second, second_products) = runs
    assert second == first
    assert first_products - second_products == 6
    assert set(compile_pair(pair).moments) == {64}
    moments = compile_pair(pair).moments[64]
    assert moments.shape == (64, 18) and not moments.flags.writeable
    for l in range(3):
        w = np.eye(64)[:, l]
        for n in range(6):
            w = original(FockSpace(64), pair) @ w
            np.testing.assert_allclose(moments[:, 6 * l + n], w, rtol=1e-14, atol=1e-14)
