"""The boundary between the exact layers and the numeric Fock layer.

``import sheffer`` must not load numpy, and the exact modules must not
import numpy or ``sheffer.fock``; the numeric names stay reachable from the
package by lazy resolution.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# the package's public surface, pinned both ways: adding or dropping an export
# takes an edit here
PACKAGE_NAMES = (
    "BadConstantTerm", "CutoffTooSmall", "DomainError", "GuardExceeded", "IndexOutOfRange",
    "NonzeroInnerConstant", "NotInvertible", "OrderExceeded", "ParseError", "ShefferError",
    "UnknownFamily", "ZeroConstantTerm", "BivariatePolynomial", "Polynomial", "SparseTerms",
    "TruncatedSeries", "arctan_series", "cos_series", "exp_series", "log_series",
    "sin_series", "sqrt_series", "tan_series", "WeylElement", "weyl_mul", "ShefferPair",
    "ShefferSequence", "build_M", "build_P", "sequence_via_egf", "sequence_via_raising",
    "sheffer_coeffs", "verify_monomiality", "FAMILY_LABELS", "FamilyEntry",
    "egf_eval", "family", "oracle_polys", "CoherentParams", "FockSpace",
    "NormallyOrderedSeries", "exp_element_coherent", "exp_element_coherent_closed",
    "exp_element_state", "exp_element_state_operator", "exp_element_vac", "fock_verify",
    "mono_element", "mono_element_operator", "normal_order_lhs", "normal_order_rhs",
    "overlap", "verify_normal_order", "evolution_solution", "heat_check", "hkdf",
    "hkdf_egf_check", "hkdf_ladder_check", "pi_recursion", "theta_pi_check", "umbral_S",
    "__version__",
)

# names deleted from the library surface, with the object that carried each
REMOVED_NAMES = (
    ("sheffer", "compile_pair"), ("sheffer", "shift_pair"),
    ("sheffer.sequences", "shift_pair"), ("sheffer.sequences", "taylor_shift"),
    ("sheffer.sequences", "ShefferSequence.__len__"),
    ("sheffer.series", "TruncatedSeries.to_json_dict"),
    ("sheffer.series", "TruncatedSeries.from_json_dict"),
    ("sheffer.weyl", "WeylElement.to_json_list"),
    ("sheffer.fock", "FockSpace.a"), ("sheffer.fock", "FockSpace.adag"),
    ("sheffer.fock", "FockSpace.weyl_matrix"), ("sheffer.fock", "FockSpace.number_vec"),
    ("sheffer.fock", "FockSpace.coherent_vec"),
    *(("sheffer.cli", name) for name in ("Num", "Var", "Neg", "BinOp", "Pow", "Call",
                                          "parse_spec", "pretty", "_eval_node")),
)

EXACT_MODULES = ("series", "weyl", "sequences", "catalog", "normord", "multivar", "errors")


def test_import_sheffer_loads_no_numpy_and_resolves_every_name():
    # the value types are plain classes: no module imports dataclasses, whose
    # import loads inspect, and the package's start-up loads neither
    found = [path.name for path in (SRC / "sheffer").glob("*.py")
             if any(name == "dataclasses" for name, _ in _imported_modules(path))]
    assert not found, f"{found} import dataclasses"
    script = f"""
import sys
import sheffer
assert "numpy" not in sys.modules, "import sheffer loaded numpy"
loaded = [name for name in ("dataclasses", "inspect") if name in sys.modules]
assert not loaded, f"import sheffer loaded {{loaded}}"
from sheffer import FockSpace, fock_verify
import sheffer.fock
assert FockSpace is sheffer.fock.FockSpace and fock_verify is sheffer.fock.fock_verify
missing = [name for name in {PACKAGE_NAMES!r} if not hasattr(sheffer, name)]
assert not missing, missing
import sheffer.cli
assert "dataclasses" not in sys.modules, "import sheffer.cli loaded dataclasses"
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


def test_package_names_are_exactly_the_pinned_surface():
    import sheffer

    tree = ast.parse((SRC / "sheffer" / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    public = [*imported, *sheffer._FOCK_NAMES, "__version__"]
    assert len(public) == len(set(public))
    assert sorted(public) == sorted(PACKAGE_NAMES)


@pytest.mark.parametrize("module, name", REMOVED_NAMES)
def test_removed_names_stay_gone(module, name):
    owner = importlib.import_module(module)
    *path, leaf = name.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert not hasattr(owner, leaf)


def _imported_modules(path: Path):
    """(module, level) for every import in the file; ``from . import x`` gives ("x", 1)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, 0) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:
                yield from ((alias.name, node.level) for alias in node.names)
            else:
                yield node.module, node.level


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_modules_import_no_numeric_layer(module):
    banned = {"numpy", "fock", "sheffer.fock"} | ({"cmath"} if module == "normord" else set())
    found = [
        name for name, level in _imported_modules(SRC / "sheffer" / f"{module}.py")
        if name.split(".")[0] in banned or name in banned
    ]
    assert not found, f"{module} imports {found}"


def test_verify_coherent_loads_no_numpy_random():
    # the draws are numpy's default_rng stream, produced without numpy.random
    script = """
import contextlib, io, sys
from sheffer.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["verify", "coherent", "--family", "hermite", "--draws", "1"])
assert code == 0, code
assert "numpy" in sys.modules
loaded = sorted(name for name in sys.modules if name.startswith("numpy.random"))
assert not loaded, loaded
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("path", sorted((SRC / "sheffer").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_numpy_random(path):
    tree = ast.parse(path.read_text())
    found = [name for name, _ in _imported_modules(path) if name.startswith("numpy.random")]
    found += [node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in ("random", "default_rng")]
    assert not found, f"{path.name} uses {found}"


_CACHES = {"lru_cache", "cache"}


def _decorator_name(node) -> str:
    # lru_cache, lru_cache(maxsize=...), functools.lru_cache, functools.cache
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _annotation_name(node) -> str:
    if isinstance(node, ast.Constant):
        return str(node.value)
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


@pytest.mark.parametrize("path", sorted((SRC / "sheffer").glob("*.py")), ids=lambda p: p.name)
def test_no_cache_is_keyed_by_a_pair(path):
    # a cache keyed by a pair hashes it on every lookup and keeps dropped
    # pairs alive; data derived from a pair lives in the pair's __dict__
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _CACHES & {_decorator_name(d) for d in node.decorator_list}:
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        if any(p is not None and p.annotation is not None
               and _annotation_name(p.annotation) == "ShefferPair" for p in params):
            found.append(node.name)
    assert not found, f"{path.name}: {found} cache on a ShefferPair argument"
