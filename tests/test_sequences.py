import gc
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

import conftest as strat
from sheffer import (
    FAMILY_LABELS,
    IndexOutOfRange,
    NotInvertible,
    OrderExceeded,
    Polynomial,
    ShefferPair,
    TruncatedSeries,
    WeylElement,
    ZeroConstantTerm,
    build_M,
    build_P,
    exp_series,
    family,
    heat_check,
    normal_order_lhs,
    normal_order_rhs,
    sequence_via_egf,
    sequence_via_raising,
    sheffer_coeffs,
    theta_pi_check,
    umbral_S,
    verify_monomiality,
    verify_normal_order,
)
from sheffer.fock import CoherentParams, FockSpace, compile_pair, fock_verify
from sheffer.suites import heat_rows, rows_pass, theta_pi_rows


def P(coeffs):
    return Polynomial.from_coeffs(coeffs)


def trivial_pair(order=10):
    return ShefferPair(TruncatedSeries.x(order), TruncatedSeries.one(order))


def test_pair_validation():
    order = 6
    with pytest.raises(NotInvertible):
        ShefferPair(TruncatedSeries.one(order), TruncatedSeries.one(order))
    with pytest.raises(NotInvertible):
        ShefferPair(
            TruncatedSeries.from_coeffs([0, 0, 1], order), TruncatedSeries.one(order)
        )
    with pytest.raises(ZeroConstantTerm):
        ShefferPair(TruncatedSeries.x(order), TruncatedSeries.x(order))


def test_pair_rescales_g_to_one():
    pair = ShefferPair(
        TruncatedSeries.x(6), TruncatedSeries.from_coeffs([2, 2], 6)
    )
    assert pair.rescaled
    assert pair.g.constant_term == 1
    assert pair.g.coefficient(1) == 1


def test_egf_monomial_case():
    seq = sequence_via_egf(trivial_pair(), 5)
    for n in range(6):
        assert seq.poly(n) == Polynomial.monomial(n)


def test_egf_hermite_and_bell():
    hermite = family("hermite", 12).pair
    assert sequence_via_egf(hermite, 2).poly(2) == P([-2, 0, 4])
    bell = family("bell", 12).pair
    assert sequence_via_egf(bell, 3).poly(3) == P([0, 1, 3, 1])


def test_build_operators_hermite():
    pair = family("hermite", 8).pair
    assert build_P(pair, 4) == WeylElement({(0, 1): F(1, 2)})
    assert build_M(pair, 4) == WeylElement({(1, 0): 2, (0, 1): -1})


def test_build_operators_bell_and_lower_factorial():
    bell = family("bell", 8).pair
    assert build_M(bell, 4) == WeylElement({(1, 0): 1, (1, 1): 1})
    lf = family("lower_factorial", 8).pair
    from math import factorial

    expected = WeylElement({(1, k): F((-1) ** k, factorial(k)) for k in range(5)})
    assert build_M(lf, 4) == expected


def test_build_operators_hahn_trig_form():
    # M = (X - tan(D)) * cos(D)^2 expands to X*cos^2(D) - (sin*cos)(D)
    from sheffer import cos_series, sin_series, tan_series
    from sheffer.weyl import weyl_mul

    pair = family("hahn", 10).pair
    k = 8
    x = TruncatedSeries.x(10)
    cos2 = (cos_series(x) * cos_series(x)).truncate(k)
    sincos = (sin_series(x) * cos_series(x)).truncate(k)
    expected = weyl_mul(
        WeylElement.x(), WeylElement.from_series(cos2)
    ) - WeylElement.from_series(sincos)
    assert build_M(pair, k) == expected
    assert build_P(pair, k) == WeylElement.from_series(tan_series(x).truncate(k))


def test_x_enters_m_linearly():
    for label in ("hermite", "laguerre", "bessel", "hahn", "idempotent"):
        m_op = build_M(family(label, 10).pair, 6)
        assert m_op.x_degree == 1


def test_raising_route_matches_known_values():
    hermite = family("hermite", 8).pair
    assert sequence_via_raising(hermite, 3).poly(3) == P([0, -12, 0, 8])
    laguerre = family("laguerre", 8).pair
    assert sequence_via_raising(laguerre, 2).poly(2) == P([2, -4, 1])


def test_raising_route_at_degree_zero_needs_no_m():
    # s_0 = 1 takes no raising step, so an order-1 pair suffices
    pair = ShefferPair(TruncatedSeries.from_coeffs([0, 2], 1), TruncatedSeries.one(1))
    assert sequence_via_raising(pair, 0).polys == (Polynomial.one(),)
    with pytest.raises(OrderExceeded):
        sequence_via_raising(pair, 1)


def test_verify_monomiality_all_green_for_trivial_pair():
    assert rows_pass(verify_monomiality(trivial_pair(), 6))


def test_corrupted_pair_detected_by_ladder_comparison():
    # sequence from the true pair, raising operator from a pair whose g has
    # the right value but the wrong derivative at 0
    order = 10
    hermite = family("hermite", order).pair
    seq = sequence_via_egf(hermite, 3)
    bad_g = exp_series(TruncatedSeries.from_coeffs([0, 0, F(1, 4)], order)) + TruncatedSeries.x(order)
    bad = ShefferPair(hermite.f, bad_g)
    m_bad = build_M(bad, 4)
    assert m_bad.apply(seq.poly(1)) != seq.poly(2)
    assert m_bad.apply(Polynomial.one()) != seq.poly(1)


def test_sheffer_coeffs_rows():
    bell = sequence_via_egf(family("bell", 8).pair, 4)
    assert sheffer_coeffs(bell, 3) == (F(0), F(1), F(3), F(1))
    hermite = sequence_via_egf(family("hermite", 8).pair, 4)
    assert sheffer_coeffs(hermite, 2) == (F(-2), F(0), F(4))
    mono = sequence_via_egf(trivial_pair(), 4)
    assert sheffer_coeffs(mono, 4) == (F(0), F(0), F(0), F(0), F(1))


def test_degree_and_leading_coefficient_law():
    for label in ("hermite", "laguerre", "bessel", "bell", "idempotent"):
        pair = family(label, 12).pair
        seq = sequence_via_egf(pair, 8)
        lead = F(1) / pair.f.coefficient(1)
        for n in range(9):
            assert seq.poly(n).degree == n
            assert seq.poly(n).leading_coefficient == lead**n


@settings(max_examples=15, deadline=None)
@given(strat.sheffer_pairs(8))
def test_random_pairs_satisfy_ladder_identities(pair):
    assert rows_pass(verify_monomiality(pair, 5))


# -- the per-pair core: finv, 1/g(finv), k = 1/f' and h*k, built once per pair ----

CORE = {"finv", "prefactor", "ladder"}


def custom_pairs(order):
    x = TruncatedSeries.x(order)
    return (
        ShefferPair(x - x * x.scale(F(1, 3)), (TruncatedSeries.one(order) + x).reciprocal()),
        ShefferPair(exp_series(x.scale(2)) - 1, exp_series(x * x.scale(F(-1, 5)))),
    )


def fresh(pair):
    # an equal pair object whose core has not been built
    return ShefferPair(pair.f, pair.g, pair.label)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_cached_sequence_equals_the_uncached_build(monkeypatch):
    order = 12
    pairs = [family(label, order).pair for label in FAMILY_LABELS] + list(custom_pairs(order))
    degrees = (0, 1, order // 2, order)
    inverted = _count_calls(monkeypatch, TruncatedSeries, "comp_inverse")
    for pair in map(fresh, pairs):
        inverted.clear()
        cached = [sequence_via_egf(pair, n) for n in degrees]
        assert len(inverted) == 1  # the first call built the core, the others read it
        # each uncached build runs on a new equal pair, so it inverts f again
        assert cached == [sequence_via_egf(fresh(pair), n) for n in degrees]
        assert len(inverted) == 1 + len(degrees)
        assert build_M(pair, order - 1) == _uncached_build_m(pair, order - 1)


def _uncached_build_m(pair, k_order):
    # reference: the raising operator built from f and g, without the cached ladder
    k_ser = pair.f.derivative().reciprocal().truncate(k_order)
    h_ser = (pair.g.derivative() * pair.g.reciprocal()).truncate(k_order)
    x_part = WeylElement.x() * WeylElement.from_series(k_ser)
    return x_part - WeylElement.from_series((h_ser * k_ser).truncate(k_order))


@pytest.mark.parametrize("label", ("laguerre", "hahn", "idempotent"))
def test_heat_and_theta_pi_invert_each_pair_once(label, monkeypatch):
    family.cache_clear()  # the suites below then build a new catalog pair
    calls = _count_calls(monkeypatch, TruncatedSeries, "comp_inverse")
    assert rows_pass(heat_rows(label))
    assert rows_pass(theta_pi_rows(label))
    assert calls == []  # a catalog pair arrives with finv from its record
    pair = fresh(family(label, 16).pair)
    for n in range(9):
        assert heat_check(pair, n)["pass"]
    assert rows_pass(theta_pi_check(pair, 6))
    assert calls == [(pair.f,)]


@pytest.mark.parametrize("label", FAMILY_LABELS)
def test_catalog_pairs_neither_invert_nor_compose(label, monkeypatch):
    family.cache_clear()
    composed = _count_calls(monkeypatch, TruncatedSeries, "compose")
    inverted = _count_calls(monkeypatch, TruncatedSeries, "comp_inverse")
    pair = family(label, 48).pair
    sequence_via_egf(pair, 48)
    assert composed == [] and inverted == []
    sequence_via_egf(fresh(pair), 48)
    assert len(composed) == 1 and inverted == [(pair.f,)]


def test_normal_order_rhs_core_work(monkeypatch):
    # the rhs evaluates finv and the prefactor 1/g(finv) at lambda + f(a):
    # one inversion and one composition on a new pair, none once built
    pair = fresh(family("hahn", 16).pair)
    composed = _count_calls(monkeypatch, TruncatedSeries, "compose")
    inverted = _count_calls(monkeypatch, TruncatedSeries, "comp_inverse")
    normal_order_rhs(pair, 4, 6)
    assert composed == [(pair.g, pair.finv)]
    assert inverted == [(pair.f,)]
    normal_order_rhs(pair, 4, 6)
    assert len(composed) == 1 and len(inverted) == 1


def test_ladder_series_when_f_has_the_higher_order():
    # k = 1/f' has order f.order - 1, past what g supports; both ladder
    # series stop at pair.order - 1, so the Fock image of M can be built
    f = TruncatedSeries.from_coeffs([0, 1, 1], 12)
    pair = ShefferPair(f, TruncatedSeries.from_coeffs([1, 1], 10))
    k_ser, hk_ser = pair.ladder
    assert k_ser.order == hk_ser.order == pair.order - 1
    assert build_M(pair, 9) == _uncached_build_m(pair, 9)
    assert FockSpace(8).pair_matrix(pair).shape == (8, 8)


def test_built_core_leaves_equality_and_hash_alone():
    # the core and the compiled Fock data sit in the instance __dict__, outside
    # equality and hash, so an equal pair built anew builds its own
    pair = custom_pairs(9)[0]
    before = hash(pair)
    sequence_via_egf(pair, 9)
    build_M(pair, 8)
    assert CORE <= set(vars(pair))
    twin = fresh(pair)
    assert CORE.isdisjoint(vars(twin))
    assert pair == twin and hash(pair) == hash(twin) == before
    assert compile_pair(twin) is not compile_pair(pair)
    assert compile_pair(twin).pair is twin


def test_a_dropped_pair_frees_its_core():
    pair = custom_pairs(9)[1]
    sequence_via_egf(pair, 9)
    build_M(pair, 8)
    assert CORE <= set(vars(pair))
    ref = weakref.ref(pair)
    del pair
    gc.collect()
    assert ref() is None
    # so does a pair whose Fock data fock_verify compiled
    entry = family("hermite", 16)
    pair = fresh(entry.pair)
    [rows] = fock_verify(pair, [CoherentParams(0.3 + 0.1j, 0.2 - 0.1j, 0.05)], maps=entry.maps,
                         z_guard=entry.z_guard, lam_guard=entry.lam_guard)
    assert rows_pass(rows) and "_compiled" in vars(pair)
    ref = weakref.ref(pair)
    del pair
    gc.collect()
    assert ref() is None


NEGATIVE_DEGREE_CALLS = {
    "sequence_via_egf": lambda pair: sequence_via_egf(pair, -1),
    "sequence_via_raising": lambda pair: sequence_via_raising(pair, -1),
    "build_M": lambda pair: build_M(pair, -1),
    "build_P": lambda pair: build_P(pair, -1),
    "umbral_S": lambda pair: umbral_S(pair, -1),
    "heat_check": lambda pair: heat_check(pair, -2),
    "theta_pi_check": lambda pair: theta_pi_check(pair, -1),
    "normal_order_rhs lam_order": lambda pair: normal_order_rhs(pair, -1, 4),
    "normal_order_rhs a_order": lambda pair: normal_order_rhs(pair, 3, -2),
    "normal_order_lhs lam_order": lambda pair: normal_order_lhs(pair, -1, 4),
    "normal_order_lhs a_order": lambda pair: normal_order_lhs(pair, 3, -2),
    "verify_normal_order lam_order": lambda pair: verify_normal_order(pair, -1, 4),
    "verify_normal_order a_order": lambda pair: verify_normal_order(pair, 3, -2),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_DEGREE_CALLS))
def test_negative_degrees_raise_before_the_core_is_built(name):
    pair = custom_pairs(9)[0]
    with pytest.raises(IndexOutOfRange):
        NEGATIVE_DEGREE_CALLS[name](pair)
    assert CORE.isdisjoint(vars(pair))
