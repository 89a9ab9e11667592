"""The benchmark's workloads: the CLI operations each one runs, and the check
applied to each operation's output.

Every operation is an argv list for ``sheffer.cli.main``. The CLI runs at its
defaults: no ``--jobs`` flag and no ``SHEFFER_*`` variable.

* ``verify-all`` -- the seven suites, one ``verify <suite> --seed S`` call
  each, in CLI order: the reproduction gate users run (1970 checks). The
  numeric Fock layer and the order-16 exact work redone on every draw
  dominate it.
* ``exact-highorder`` -- ``gen --n 48 --coeffs`` for all seven families plus
  two custom pairs drawn from the seed through the expression parser. Few,
  large exact computations with large bit heights; no numeric or Weyl work.
* ``normal-order-deep`` -- ``verify normal-order`` at lambda order 12 and
  a order 16 for all seven families. Weyl operator products and the dense
  bivariate grid; the seed does not apply.
"""

import json
import random
from fractions import Fraction
from math import factorial

FAMILIES = ("hermite", "laguerre", "bessel", "bell", "lower_factorial", "hahn",
            "idempotent")
SUITES = ("monomiality", "commutator", "normal-order", "coherent", "heat", "hkdf",
          "evolution")
WORKLOADS = ("verify-all", "exact-highorder", "normal-order-deep")

# Families whose catalog oracle is independent of the pair routes; bessel and
# hahn fall back to the generating function there, so they are checked
# against the raising-operator route instead.
ORACLE_FAMILIES = ("hermite", "laguerre", "bell", "lower_factorial", "idempotent")
GEN_N = 48

# Counts at the commit that defined this benchmark. Later commits may add
# verify rows, so verify-all requires at least these; the normal-order term
# count is a property of the expansion and must match exactly.
MIN_CHECKED = {"monomiality": 455, "commutator": 112, "normal-order": 7,
               "coherent": 912, "heat": 63, "hkdf": 415, "evolution": 6}
DEEP_TERMS = {"hermite": 252, "laguerre": 1113, "bessel": 1327, "bell": 443,
              "lower_factorial": 1327, "hahn": 769, "idempotent": 1325}


def _draw_rational(rng):
    return rng.randint(-9, 9), rng.randint(2, 13)


def custom_pairs(seed):
    """Two custom pairs f = x + a x^2 + b x^3, g = exp(c x) drawn from ``seed``."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(2):
        (pa, qa), (pb, qb), (pc, qc) = (_draw_rational(rng) for _ in range(3))
        pairs.append({
            "f": f"x + ({pa}/{qa})*x^2 + ({pb}/{qb})*x^3",
            "g": f"exp(({pc}/{qc})*x)",
            "abc": [str(Fraction(pa, qa)), str(Fraction(pb, qb)), str(Fraction(pc, qc))],
        })
    return pairs


def operations(workload, seed):
    """The workload's operations, in order: dicts with ``argv`` and check data."""
    if workload == "verify-all":
        # the CLI seeds numpy, which takes only non-negative seeds
        return [{"argv": ["verify", suite, "--seed", str(seed % 2**32)], "suite": suite}
                for suite in SUITES]
    if workload == "exact-highorder":
        ops = [{"argv": ["gen", "--family", label, "--n", str(GEN_N), "--coeffs"],
                "family": label} for label in FAMILIES]
        for pair in custom_pairs(seed):
            ops.append({"argv": ["gen", "--f", pair["f"], "--g", pair["g"],
                                 "--n", str(GEN_N), "--coeffs"],
                        "family": "custom", "abc": pair["abc"]})
        return ops
    if workload == "normal-order-deep":
        return [{"argv": ["verify", "normal-order", "--family", label,
                          "--lambda-order", "12", "--a-order", "16"],
                 "family": label, "suite": "normal-order"} for label in FAMILIES]
    raise ValueError(f"unknown workload {workload!r}")


def _expected_polys(op):
    """Independent polynomial rows s_0..s_48 for one ``gen`` operation."""
    from sheffer import (ShefferPair, TruncatedSeries, family, oracle_polys,
                         sequence_via_raising)

    label = op["family"]
    if label in ORACLE_FAMILIES:
        return oracle_polys(label, GEN_N)
    if label == "custom":
        a, b, c = (Fraction(v) for v in op["abc"])
        order = GEN_N + 1
        f = TruncatedSeries.from_coeffs([0, 1, a, b], order)
        g = TruncatedSeries.from_coeffs([c ** k / factorial(k) for k in range(order + 1)],
                                        order)
        pair = ShefferPair(f, g)
    else:
        pair = family(label, GEN_N + 1).pair
    return list(sequence_via_raising(pair, GEN_N).polys)


def check(op, rc, stdout):
    """Return None if the operation's output is correct, else a reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if op["argv"][0] == "verify":
        if payload.get("pass") is not True:
            return "pass is not true"
        if "family" in op:
            rows = [r for r in payload["rows"]
                    if r.get("identity") == "normal_order_equality"]
            if len(rows) != 1:
                return f"{len(rows)} normal_order_equality rows"
            if rows[0]["mismatches"] != 0:
                return f"{rows[0]['mismatches']} mismatches"
            if rows[0]["terms_checked"] != DEEP_TERMS[op["family"]]:
                return (f"terms_checked {rows[0]['terms_checked']} != "
                        f"{DEEP_TERMS[op['family']]}")
        elif payload["checked"] < MIN_CHECKED[op["suite"]]:
            return f"checked {payload['checked']} < {MIN_CHECKED[op['suite']]}"
        return None
    if len(payload) != GEN_N + 1:
        return f"{len(payload)} rows, expected {GEN_N + 1}"
    expected = _expected_polys(op)
    for n, row in enumerate(payload):
        if row["n"] != n or row["family"] != op["family"]:
            return f"row {n} labelled {row['family']}/{row['n']}"
        got = [Fraction(s) for s in row["coeffs"]]
        want = [expected[n].coefficient(k) for k in range(n + 1)]
        if got != want:
            return f"s_{n} coefficients differ from the reference"
    return None
