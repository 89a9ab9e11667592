"""Which public functions of each sheffer module the traced run wraps, and
how their spans become per-layer metrics."""

import statistics

ELEMENTARY = ("exp_series", "log_series", "sqrt_series", "sin_series", "cos_series",
              "tan_series", "arctan_series")
# Suite functions run on verify's worker threads. They are spans only so that
# their time is not left in the self time of cli.main on the main thread.
SUITE_FUNCTIONS = ("monomiality_rows", "oracle_rows", "swap_oracle_rows",
                   "commutator_family_rows", "normal_order_rows", "coherent_rows",
                   "heat_rows", "theta_pi_rows", "hkdf_global_rows", "evolution_rows")
CLOSED_FORMS = ("mono_element", "mono_element_operator", "exp_element_vac",
                "exp_element_state", "exp_element_state_operator",
                "exp_element_coherent", "exp_element_coherent_closed")


def _max_bits(extra, series):
    """Largest numerator or denominator bit length among a series' coefficients."""
    bits = 0
    for k in range(series.order + 1):
        c = series.coefficient(k)
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    extra["max_bits"] = max(extra.get("max_bits", 0), bits)


def _terms_out(extra, element):
    extra["terms_out"] = extra.get("terms_out", 0) + len(element.terms)


# (span name, module under sheffer, qualified name in that module, observer).
# The members of a group (the elementary functions, the closed forms) share
# one span name, so the tracer adds them up into one layer.
TARGETS = [
    ("series.mul", "series", "TruncatedSeries.__mul__", _max_bits),
    ("series.reciprocal", "series", "TruncatedSeries.reciprocal", _max_bits),
    ("series.compose", "series", "TruncatedSeries.compose", _max_bits),
    ("series.comp_inverse", "series", "TruncatedSeries.comp_inverse", _max_bits),
    *[("series.elementary", "series", name, _max_bits) for name in ELEMENTARY],
    ("sequences.sequence_via_egf", "sequences", "sequence_via_egf", None),
    ("sequences.sequence_via_raising", "sequences", "sequence_via_raising", None),
    ("sequences.build_M", "sequences", "build_M", None),
    ("weyl.weyl_mul", "weyl", "weyl_mul", _terms_out),
    ("weyl.apply", "weyl", "WeylElement.apply", None),
    ("normord.normal_order_lhs", "normord", "normal_order_lhs", None),
    ("normord.normal_order_rhs", "normord", "normal_order_rhs", None),
    ("normord.fock_verify", "normord", "fock_verify", None),
    ("normord.pair_matrix", "normord", "FockSpace.pair_matrix", None),
    ("normord.apply_exp", "normord", "FockSpace.apply_exp", None),
    *[("normord.closed_forms", "normord", name, None) for name in CLOSED_FORMS],
    ("catalog.family", "catalog", "family", None),
    ("multivar.heat_check", "multivar", "heat_check", None),
    ("multivar.theta_pi_check", "multivar", "theta_pi_check", None),
    ("multivar.hkdf", "multivar", "hkdf", None),
    *[(f"suites.{name}", "suites", name, None) for name in SUITE_FUNCTIONS],
    ("cli.main", "cli", "main", None),
    ("cli.parse_series", "cli", "parse_series", None),
]


def layer_metrics(stats, originals):
    """Per-layer values from merged span stats: {metric name: number}."""
    out = {}
    for name, _, _, _ in TARGETS:
        stat = stats.get(name)
        out[f"{name}.self_ms"] = 1e3 * stat.self_s if stat else 0.0
        out[f"{name}.calls"] = stat.calls if stat else 0

    out["series.max_bits"] = max(
        (s.extra.get("max_bits", 0) for n, s in stats.items() if n.startswith("series.")),
        default=0)
    weyl_mul = stats.get("weyl.weyl_mul")
    out["weyl.weyl_mul.terms_out"] = weyl_mul.extra.get("terms_out", 0) if weyl_mul else 0
    fock = stats.get("normord.fock_verify")
    out["normord.fock_verify.p50_ms"] = (
        1e3 * statistics.median(fock.durations) if fock else 0.0)

    cache_info = getattr(originals.get("catalog.family"), "cache_info", None)
    info = cache_info() if cache_info else None
    lookups = info.hits + info.misses if info else 0
    out["catalog.family.hit_ratio"] = info.hits / lookups if lookups else 0.0
    return out
