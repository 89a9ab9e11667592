"""Acceptance gates.

One test per criterion; each prints a PASS/FAIL line (run with -s to see
them on success). Exact gates use zero tolerance over rationals; numeric
gates run at 1e-8 relative error on a cutoff-64 Fock space.
"""

import json

import pytest

from sheffer import (
    FAMILY_LABELS,
    family,
    hkdf,
    normal_order_rhs,
    sequence_via_egf,
    sequence_via_raising,
    umbral_S,
    verify_monomiality,
    verify_normal_order,
)
from sheffer import suites
from sheffer.cli import main, parse_series
from sheffer.sequences import ShefferPair
from sheffer.series import TruncatedSeries

TOL = 1e-8
CUTOFF = 64
DRAWS = 10


@pytest.fixture(scope="module")
def catalog16():
    return {label: family(label, 16) for label in FAMILY_LABELS}


@pytest.fixture(scope="module")
def catalog24():
    return {label: family(label, 24) for label in FAMILY_LABELS}


def _report(index, name, ok):
    print(f"ACCEPTANCE {index} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_monomiality_gate(catalog16):
    ok = True
    for label, entry in catalog16.items():
        rows = verify_monomiality(entry.pair, 12)
        if not suites.rows_pass(rows):
            ok = False
        egf_route = sequence_via_egf(entry.pair, 12)
        raising_route = sequence_via_raising(entry.pair, 12)
        if any(egf_route.poly(n) != raising_route.poly(n) for n in range(13)):
            ok = False
    assert _report(1, "monomiality gate", ok)


def test_criterion_2_oracle_gate(catalog16):
    ok = True
    for label in ("hermite", "laguerre", "bell", "lower_factorial", "idempotent"):
        rows = suites.oracle_rows(label)
        if not suites.rows_pass(rows):
            ok = False
    assert _report(2, "oracle gate", ok)


def test_criterion_3_weyl_gate(catalog16):
    ok = suites.rows_pass(suites.swap_oracle_rows())
    for label in FAMILY_LABELS:
        rows = suites.commutator_family_rows(label)
        if not suites.rows_pass(rows):
            ok = False
    assert _report(3, "weyl gate", ok)


def test_criterion_4_normal_ordering_gate(catalog16):
    ok = True
    for label, entry in catalog16.items():
        rows = verify_normal_order(entry.pair, 6, 8)
        if not suites.rows_pass(rows):
            ok = False

    # closed forms of the gaussian and exponential families, built directly
    from test_normord import _bell_expected, _hermite_expected

    hermite_rhs = normal_order_rhs(catalog16["hermite"].pair, 6, 8)
    expected_h = _hermite_expected(6, 8)
    if hermite_rhs != expected_h:
        ok = False
    bell_rhs = normal_order_rhs(catalog16["bell"].pair, 6, 8)
    expected_b = _bell_expected(6, 8)
    if bell_rhs != expected_b:
        ok = False
    assert _report(4, "normal-ordering gate", ok)


@pytest.fixture(scope="module")
def coherent_reports(catalog24):
    return {
        label: suites.coherent_rows(
            label, order=24, cutoff=CUTOFF, tol=TOL, draws=DRAWS, seed=7
        )
        for label in FAMILY_LABELS
    }


def test_criterion_5_coherent_numeric_gate(coherent_reports):
    ok = True
    required = {"overlap", "moments_vacuum", "exp_vacuum", "exp_coherent", "shift_identity"}
    for label, rows in coherent_reports.items():
        if not suites.rows_pass(rows):
            ok = False
        seen = {row["identity"] for row in rows}
        if not required <= seen:
            ok = False
        for l in (1, 2):
            if f"moments_state_operator_l{l}" not in seen:
                ok = False
        gating = [
            row
            for row in rows
            if "max_rel_err" in row and not str(row["identity"]).startswith("adjudication")
        ]
        if max(row["max_rel_err"] for row in gating) > TOL:
            ok = False
    assert _report(5, "coherent-state numeric gate", ok)


def test_criterion_6_discrepancy_adjudication(coherent_reports):
    lag = [
        row
        for row in coherent_reports["laguerre"]
        if row["identity"] == "adjudication:vacuum_moment_indexing"
    ]
    hahn = [
        row
        for row in coherent_reports["hahn"]
        if row["identity"] == "adjudication:coherent_exponent"
    ]
    ok = (
        len(lag) == 1
        and lag[0]["pass"]
        and lag[0]["decision"] == "n_factorial_L_n"
        and len(hahn) == 1
        and hahn[0]["pass"]
        and hahn[0]["decision"] == "arctan_lambda_plus_tan"
    )
    # the adjudicated findings are recorded in the catalog notes
    if not any("n!*L_n" in note for note in family("laguerre").notes):
        ok = False
    if not any("arctan(lambda + tan z')" in note for note in family("hahn").notes):
        ok = False
    assert _report(6, "discrepancy adjudication", ok)


def test_criterion_7_multivar_gate(catalog16):
    ok = True
    for m in (1, 2, 3):
        if not suites.rows_pass(suites.hkdf_ladder_check(m, 10)):
            ok = False
        if not suites.rows_pass(suites.hkdf_egf_check(m, 10)):
            ok = False
    trivial = ShefferPair(TruncatedSeries.x(16), TruncatedSeries.one(16))
    if any(umbral_S(trivial, n) != hkdf(2, n) for n in range(11)):
        ok = False
    for label, entry in catalog16.items():
        heat = suites.heat_rows(label)
        if not suites.rows_pass(heat):
            ok = False
        theta = suites.theta_pi_rows(label)
        if not suites.rows_pass(theta):
            ok = False
    if not suites.rows_pass(suites.evolution_rows()):
        ok = False
    assert _report(7, "multivar gate", ok)


def test_criterion_8_cli_gate(capsys, tmp_path):
    code = main(["verify", "--all"])
    captured = capsys.readouterr()
    ok = code == 0
    payload = json.loads(captured.out)
    if not payload["pass"] or payload["failed"] != 0:
        ok = False

    # golden schema: verify output
    if set(payload) != {"suites", "families", "rows", "checked", "failed", "pass"}:
        ok = False

    # golden schema: gen output rows
    code = main(["gen", "--family", "hermite", "--n", "3", "--coeffs"])
    captured = capsys.readouterr()
    if code != 0:
        ok = False
    rows = json.loads(captured.out)
    if rows[-1]["coeffs"] != ["0", "-12", "0", "8"]:
        ok = False
    if any(set(r) != {"family", "n", "poly", "coeffs"} for r in rows):
        ok = False

    # the expression grammar covers every catalog pair
    from test_cli import CATALOG_SPECS

    for label, (f_spec, g_spec) in CATALOG_SPECS.items():
        entry = family(label, 12)
        if parse_series(f_spec, 12) != entry.pair.f:
            ok = False
        if parse_series(g_spec, 12) != entry.pair.g:
            ok = False
    assert _report(8, "cli gate", ok)
