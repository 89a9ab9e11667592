"""Value semantics of the package's value types.

``TruncatedSeries``, ``Polynomial``, ``ShefferPair``, ``ShefferSequence``,
``CoherentParams`` and ``RunConfig`` are plain classes that behave as the
dataclasses they replaced: each is compared here with a dataclass of the
same name and fields, built in the test.
"""

import copy
import gc
import pickle
import weakref
from dataclasses import field, make_dataclass
from fractions import Fraction as F

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import conftest as strat
from sheffer import (
    CoherentParams,
    Polynomial,
    ShefferPair,
    ShefferSequence,
    TruncatedSeries,
    family,
    sequence_via_egf,
)
from sheffer.cli import RunConfig

REFERENCE = {
    TruncatedSeries: make_dataclass("TruncatedSeries", ["coeffs", "order"], frozen=True),
    Polynomial: make_dataclass("Polynomial", ["coeffs"], frozen=True),
    ShefferPair: make_dataclass(
        "ShefferPair", ["f", "g", ("label", object, None),
                        ("rescaled", bool, field(default=False, compare=False))], frozen=True),
    ShefferSequence: make_dataclass("ShefferSequence", ["polys", "pair"], frozen=True),
    CoherentParams: make_dataclass("CoherentParams", ["z", "zp", "lam"], frozen=True),
}
FIELDS = {
    TruncatedSeries: ("coeffs", "order"),
    Polynomial: ("coeffs",),
    ShefferPair: ("f", "g", "label", "rescaled"),
    ShefferSequence: ("polys", "pair"),
    CoherentParams: ("z", "zp", "lam"),
}


def reference(value):
    cls = type(value)
    return REFERENCE[cls](*(getattr(value, name) for name in FIELDS[cls]))


def values_of(pair: ShefferPair, params: CoherentParams):
    """One value of each frozen type, all derived from the pair."""
    seq = sequence_via_egf(pair, 3)
    return [pair.f, pair.g, seq.poly(3), seq, pair, params]


def rebuilt(value):
    """An equal value built anew from the fields that take part in equality."""
    if isinstance(value, ShefferPair):
        return ShefferPair(value.f, value.g, value.label)
    return type(value)(*(getattr(value, name) for name in FIELDS[type(value)]))


params_strategy = st.builds(
    CoherentParams,
    st.complex_numbers(max_magnitude=1, allow_nan=False),
    st.complex_numbers(max_magnitude=1, allow_nan=False),
    st.complex_numbers(max_magnitude=1, allow_nan=False),
)


@settings(max_examples=40, deadline=None)
@given(strat.sheffer_pairs(4), strat.sheffer_pairs(4), params_strategy, params_strategy)
def test_equality_and_hash_follow_the_fields(a, b, pa, pb):
    for x, y in zip(values_of(a, pa), values_of(b, pb)):
        twin = rebuilt(x)
        assert twin is not x and twin == x and not twin != x
        assert hash(twin) == hash(x)
        # the dataclass's answer, and its hash
        assert (x == y) == (reference(x) == reference(y))
        assert hash(x) == hash(reference(x))
        assert repr(x) == repr(reference(x))


@settings(max_examples=20, deadline=None)
@given(strat.sheffer_pairs(4), params_strategy)
def test_no_equality_across_classes(pair, params):
    values = values_of(pair, params)
    for x in values:
        for y in values:
            assert (x == y) == (x is y)
        assert x != reference(x)
        assert x != tuple(getattr(x, name) for name in FIELDS[type(x)])
    coeffs = pair.f.coeffs
    assert TruncatedSeries(coeffs, len(coeffs) - 1) != Polynomial(coeffs)


@pytest.mark.parametrize("index", range(6), ids=["f", "g", "polynomial", "sequence", "pair",
                                                  "params"])
def test_fields_can_be_neither_assigned_nor_deleted(index):
    value = values_of(family("laguerre", 6).pair, CoherentParams(0.1, 0.2, 0.05))[index]
    for name in (*FIELDS[type(value)], "extra"):
        before = getattr(value, name, None)
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name, None) is before


def test_repr_is_the_dataclass_text():
    pair = ShefferPair(TruncatedSeries.from_coeffs([0, 1, F(1, 2)]),
                       TruncatedSeries.from_coeffs([2, 1, 0]), label="custom")
    assert repr(Polynomial.from_coeffs([1, 0, 3])) == (
        "Polynomial(coeffs=(Fraction(1, 1), Fraction(0, 1), Fraction(3, 1)))")
    assert repr(pair.f) == (
        "TruncatedSeries(coeffs=(Fraction(0, 1), Fraction(1, 1), Fraction(1, 2)), order=2)")
    assert repr(pair) == (
        f"ShefferPair(f={pair.f!r}, g={pair.g!r}, label='custom', rescaled=True)")
    assert repr(CoherentParams(0.5, -1j, 2)) == "CoherentParams(z=0.5, zp=(-0-1j), lam=2)"
    assert repr(RunConfig()) == ("RunConfig(order=16, lam_order=6, a_order=8, cutoff=64, "
                                 "tol=1e-08, fmt='json', draws=10, seed=7)")


def test_a_field_equals_itself_even_when_it_is_nan():
    # as the dataclass compared its fields as tuples
    params = CoherentParams(float("nan"), 0.1, 0.05)
    assert params == params
    assert params != CoherentParams(float("nan"), 0.1, 0.05)


@settings(max_examples=30, deadline=None)
@given(strat.sheffer_pairs(4), st.sampled_from([F(2), F(-1, 3), F(1)]))
def test_the_pair_leaves_rescaled_out_of_equality(pair, g0):
    pair = ShefferPair(pair.f, pair.g)  # g(0) is 1 already
    scaled = ShefferPair(pair.f, pair.g.scale(g0))
    assert not pair.rescaled
    assert scaled.rescaled == (g0 != 1)
    assert scaled == pair and hash(scaled) == hash(pair)
    assert scaled.g.constant_term == 1


def test_rescaled_is_computed_not_passed():
    f, g = TruncatedSeries.from_coeffs([0, 1, 0]), TruncatedSeries.from_coeffs([1, 1, 0])
    with pytest.raises(TypeError):
        ShefferPair(f, g, rescaled=True)
    assert ShefferPair(f, g, "named").label == "named"


def test_the_pair_keeps_its_core_in_its_dict_and_can_be_weakly_referenced():
    entry = family("bell", 8)
    pair = ShefferPair(entry.pair.f, entry.pair.g)
    assert {"f", "g", "label", "rescaled"} == set(vars(pair))
    assert pair.finv is vars(pair)["finv"]
    assert pair.ladder is vars(pair)["ladder"]
    ref = weakref.ref(pair)
    assert ref() is pair
    del pair
    gc.collect()
    assert ref() is None


def test_slotted_values_have_no_dict():
    pair = family("hermite", 6).pair
    for value in (pair.f, pair.f.truncate(2), sequence_via_egf(pair, 2).poly(2),
                  sequence_via_egf(pair, 2), CoherentParams(0, 0, 0)):
        assert not hasattr(value, "__dict__")


def test_pickle_and_copy_give_equal_values():
    pair = ShefferPair(TruncatedSeries.from_coeffs([0, 2, 1, 0, 5]),
                       TruncatedSeries.from_coeffs([3, 1, 1, 0, 0]))
    for value in [*values_of(pair, CoherentParams(0.1j, 0.2, 0.05)), RunConfig(seed=3)]:
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert twin == value and type(twin) is type(value)
    assert pickle.loads(pickle.dumps(pair)).rescaled


def test_run_config_keeps_its_defaults_and_refusals():
    config = RunConfig()
    assert (config.order, config.lam_order, config.a_order, config.cutoff, config.tol,
            config.fmt, config.draws, config.seed) == (16, 6, 8, 64, 1e-8, "json", 10, 7)
    assert RunConfig(20, 4, cutoff=32) == RunConfig(order=20, lam_order=4, cutoff=32)
    assert RunConfig() != RunConfig(seed=8)
    with pytest.raises(TypeError):
        hash(config)
    for kwargs, message in (
        (dict(order=0), "order must be positive"),
        (dict(draws=1001), "draws must be at most 1000, got 1001"),
        (dict(cutoff=31), "cutoff must be at least 32, got 31"),
        (dict(tol=1.0), r"tolerance must be in \(0, 1\)"),
        (dict(seed=-1), "seed must be non-negative, got -1"),
        (dict(fmt="xml"), "format must be json or csv"),
    ):
        with pytest.raises(ValueError, match=message):
            RunConfig(**kwargs)
    with pytest.raises(TypeError):
        RunConfig(colour="red")
