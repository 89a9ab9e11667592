import cmath
import math
import os
import subprocess
import sys
from math import factorial

import numpy as np
import pytest

from sheffer import (
    FAMILY_LABELS,
    GuardExceeded,
    IndexOutOfRange,
    Polynomial,
    ShefferPair,
    TruncatedSeries,
    UnknownFamily,
    arctan_series,
    egf_eval,
    exp_series,
    family,
    log_series,
    oracle_polys,
    sequence_via_egf,
    sqrt_series,
)
from sheffer.catalog import FamilyEntry, _Family, _lambertw
from sheffer.fock import exp_element_coherent_closed, overlap


def test_unknown_family():
    with pytest.raises(UnknownFamily):
        family("legendre")
    with pytest.raises(UnknownFamily):
        oracle_polys("legendre", 3)


def test_validity_constraints_hold_for_every_entry():
    for label in FAMILY_LABELS:
        pair = family(label, 10).pair
        assert pair.f.constant_term == 0
        assert pair.f.coefficient(1) != 0
        assert pair.g.constant_term == 1


def test_bessel_g_is_one():
    g = family("bessel", 8).pair.g
    assert g == TruncatedSeries.one(8)


# -- the derived g's reproduce the printed generating functions exactly ------


def _prefactor(label, order):
    pair = family(label, order).pair
    return pair.g.compose(pair.f.comp_inverse()).reciprocal()


def test_prefactor_series_match_closed_forms():
    order = 10
    one = TruncatedSeries.one(order)
    t = TruncatedSeries.x(order)
    assert _prefactor("hermite", order) == exp_series(
        TruncatedSeries.from_coeffs([0, 0, -1], order)
    )
    assert _prefactor("laguerre", order) == (one - t).reciprocal()
    assert _prefactor("hahn", order) == sqrt_series(
        TruncatedSeries.from_coeffs([1, 0, 1], order)
    ).reciprocal()
    for label in ("bessel", "bell", "lower_factorial", "idempotent"):
        assert _prefactor(label, order) == one


def test_inverse_series_match_closed_forms():
    order = 10
    t = TruncatedSeries.x(order)
    one = TruncatedSeries.one(order)
    finv = {label: family(label, order).pair.f.comp_inverse() for label in FAMILY_LABELS}
    assert finv["hermite"] == t.scale(2)
    assert finv["laguerre"] == family("laguerre", order).pair.f  # involution
    assert finv["bessel"] == one - sqrt_series(one - t.scale(2))
    assert finv["bell"] == exp_series(t) - 1
    assert finv["lower_factorial"] == log_series(one + t)
    assert finv["hahn"] == arctan_series(t)
    assert finv["idempotent"] == t * exp_series(t)


@pytest.mark.parametrize("order", (1, 2, 3, 7, 16, 29, 48, 64))
@pytest.mark.parametrize("label", FAMILY_LABELS)
def test_record_series_equal_the_solved_core(label, order):
    # an equal pair built anew solves for finv by Newton inversion and for
    # 1/g(finv) by composition
    pair = family(label, order).pair
    twin = ShefferPair(pair.f, pair.g, label)
    assert (pair.finv, pair.prefactor) == (twin.finv, twin.prefactor)


@pytest.mark.parametrize("order", (1, 2, 3, 7, 16, 29, 48, 64))
def test_idempotent_f_is_the_inverse_of_x_exp_x(order):
    x = TruncatedSeries.x(order)
    assert family("idempotent", order).pair.f == (x * exp_series(x)).comp_inverse()


# -- oracles -------------------------------------------------------------------


def test_oracle_seed_values():
    assert oracle_polys("hermite", 1)[1] == Polynomial.from_coeffs([0, 2])
    assert oracle_polys("lower_factorial", 3)[3] == Polynomial.from_coeffs([0, 2, -3, 1])
    bell = oracle_polys("bell", 2)
    assert bell[0] == Polynomial.one()
    assert bell[1] == Polynomial.x()
    assert bell[2] == Polynomial.from_coeffs([0, 1, 1])


@pytest.mark.parametrize("label", FAMILY_LABELS)
def test_negative_oracle_degree_is_out_of_range(label):
    with pytest.raises(IndexOutOfRange):
        oracle_polys(label, -1)


def test_generated_sequences_match_oracles():
    for label in FAMILY_LABELS:
        seq = sequence_via_egf(family(label, 14).pair, 12)
        oracle = oracle_polys(label, 12)
        for n in range(13):
            assert seq.poly(n) == oracle[n], (label, n)


def test_hermite_s3_and_idempotent_s2():
    assert sequence_via_egf(family("hermite", 8).pair, 3).poly(3) == Polynomial.from_coeffs(
        [0, -12, 0, 8]
    )
    assert sequence_via_egf(family("idempotent", 8).pair, 2).poly(2) == Polynomial.from_coeffs(
        [0, 2, 1]
    )


# -- closed generating-function evaluation -------------------------------------


def test_egf_eval_at_zero_is_one():
    for label in FAMILY_LABELS:
        assert egf_eval(label, 0, 0.7 + 0.2j) == 1


def test_egf_eval_bell_closed_form():
    value = egf_eval("bell", 0.1, 0.3)
    assert abs(value - cmath.exp(0.3 * (cmath.exp(0.1) - 1))) < 1e-15


def test_egf_eval_guards_branch_points():
    with pytest.raises(GuardExceeded):
        egf_eval("bessel", 0.6, 1.0)
    with pytest.raises(GuardExceeded, match="lambda"):
        egf_eval("hermite", math.nan, 0.1)


@pytest.mark.parametrize("label", FAMILY_LABELS)
def test_truncated_sum_matches_closed_egf(label):
    # sum_{n<=24} s_n(x) t^n / n! against the closed form, inside guards
    depth = 24
    seq = sequence_via_egf(family(label, depth + 1).pair, depth)
    for lam in (0.2, -0.15 + 0.1j, 0.1j):
        for x in (1.0, -0.4 + 0.8j):
            total = 0j
            for n in range(depth + 1):
                total += complex(seq.poly(n)(x)) * lam**n / factorial(n)
            closed = egf_eval(label, lam, x)
            assert abs(total - closed) <= 1e-9 * abs(closed), (label, lam, x)


def test_every_closed_route_is_the_records_factor():
    # the closed coherent element and the generating function are the one
    # evaluator ClosedMaps.factor, bit for bit; no record carries a second one
    rng = np.random.default_rng(22)
    for label in FAMILY_LABELS:
        entry = family(label)
        for _ in range(20):
            z, zp, lam = (complex(*rng.uniform(-1, 1, 2)) * r
                          for r in (1.0, entry.z_guard, entry.lam_guard))
            closed = exp_element_coherent_closed(entry.maps, z, zp, lam)
            assert closed == entry.maps.factor(z.conjugate(), zp, lam) * overlap(z, zp), label
            x = complex(*rng.uniform(-1, 1, 2))
            lam = lam / entry.lam_guard * entry.guard_radius * 0.7
            assert egf_eval(label, lam, x) == entry.maps.factor(x, 0j, lam), label
    assert "closed_egf" not in _Family._fields
    assert "closed_egf" not in FamilyEntry._fields


def test_closed_maps_are_consistent():
    for label in FAMILY_LABELS:
        entry = family(label, 20)
        for w in (0.05, 0.04 - 0.03j):
            assert abs(entry.maps.finv(entry.maps.f(w)) - w) < 1e-12, label
            series_val = entry.pair.f.eval_complex(w, 0.5).value
            assert abs(entry.maps.f(w) - series_val) < 1e-12, label


def test_adjudication_notes_are_recorded():
    assert any("n!*L_n" in note for note in family("laguerre").notes)
    assert any("arctan(lambda + tan z')" in note for note in family("hahn").notes)


# -- Lambert W without scipy ---------------------------------------------------


def _disk(rng, radius, count):
    r = radius * np.sqrt(rng.uniform(size=count))
    theta = rng.uniform(0, 2 * np.pi, size=count)
    return r * np.exp(1j * theta)


def test_lambertw_matches_scipy_on_the_catalog_disk():
    scipy_special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(20050429)
    points = list(_disk(rng, 0.35, 4000)) + [0j, 0.35, -0.35, 0.35j, -0.35j, 1e-300]
    for z in points:
        ref = complex(scipy_special.lambertw(z))
        got = _lambertw(z)
        assert abs(got - ref) <= 1e-14 * abs(ref), z
        assert type(got) is complex


def test_lambertw_matches_scipy_across_the_plane():
    # far past the catalog's guards, on both sides of the branch cut and
    # next to the branch point -1/e
    scipy_special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(7)
    radii = 10.0 ** rng.uniform(-10, 10, 3000)
    points = list(radii * np.exp(2j * np.pi * rng.uniform(size=3000)))
    points += [complex(x, s) for x in np.linspace(-4, 4, 161) for s in (0.0, -0.0)]
    points += [-np.exp(-1) + 1e-6 * np.exp(1j * t) for t in np.linspace(-3, 3, 13)]
    for z in points:
        ref = complex(scipy_special.lambertw(z))
        assert abs(_lambertw(z) - ref) <= 1e-12 * abs(ref), z
    assert _lambertw(-np.exp(-1)) == -1


def test_lambertw_rejects_non_finite_arguments():
    for z in (complex("nan"), complex("inf"), complex(1, float("inf"))):
        with pytest.raises(GuardExceeded):
            _lambertw(z)


def test_import_does_not_load_scipy():
    code = "import sys, sheffer; sys.exit('scipy' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
