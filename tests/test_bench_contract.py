"""The benchmark's own output check, run on a few of its operations.

``perfbench/workloads.py`` is loaded by path and used as it is: each
operation goes through ``sheffer.cli.main`` with stdout captured, and
``workloads.check`` must accept the result. A change that makes the
benchmark's check fail, or raise an exception that the benchmark does not
catch, fails here first.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest

from sheffer import cli
from sheffer.catalog import _FAMILIES, FAMILY_LABELS

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)

SEED = 7
HELDOUT_SEED = 20050429


def _op(workload, **match):
    ops = workloads.operations(workload, SEED)
    return next(op for op in ops if all(op.get(k) == v for k, v in match.items()))


# bessel is checked against the raising-operator route, the custom pair
# against a pair rebuilt from its drawn coefficients; verify-all runs every
# suite at the development seed and at the held-out one
OPERATIONS = {
    "exact-highorder-bessel": _op("exact-highorder", family="bessel"),
    "exact-highorder-custom": _op("exact-highorder", family="custom"),
    "normal-order-deep-hermite": _op("normal-order-deep", family="hermite"),
    **{f"verify-all-{seed}-{op['suite']}": op
       for seed in (SEED, HELDOUT_SEED) for op in workloads.operations("verify-all", seed)},
}


@pytest.mark.parametrize("name", sorted(OPERATIONS))
def test_benchmark_check_accepts_the_cli_output(name):
    op = OPERATIONS[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(op["argv"]))
    assert workloads.check(op, rc, out.getvalue()) is None


def test_verify_suites_are_the_benchmark_suites():
    # verify-all reports one metric per suite name, in this order
    assert cli._SUITE_NAMES == workloads.SUITES


def test_catalog_families_are_the_benchmark_families():
    # exact-highorder runs the families in this order, and checks the ones
    # with an independent oracle against it
    assert FAMILY_LABELS == workloads.FAMILIES
    with_oracle = tuple(label for label, record in _FAMILIES.items() if record.oracle)
    assert with_oracle == workloads.ORACLE_FAMILIES
