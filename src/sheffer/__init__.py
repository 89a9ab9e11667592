"""Sheffer-sequence ladder operators and boson normal ordering.

Exact computer algebra for polynomial families defined by a pair of power
series (f, g): generation of the sequences, construction of their
raising/lowering operator representations of [P, M] = 1, normal ordering
of exp(lambda*M) in the boson picture, and numeric verification against
truncated Fock-space matrices.
"""

from .errors import (
    BadConstantTerm,
    CutoffTooSmall,
    DomainError,
    GuardExceeded,
    IndexOutOfRange,
    NonzeroInnerConstant,
    NotInvertible,
    OrderExceeded,
    ParseError,
    ShefferError,
    UnknownFamily,
    ZeroConstantTerm,
)
from .series import (
    BivariatePolynomial,
    Polynomial,
    SparseTerms,
    TruncatedSeries,
    arctan_series,
    cos_series,
    exp_series,
    log_series,
    sin_series,
    sqrt_series,
    tan_series,
)
from .weyl import WeylElement, weyl_mul
from .sequences import (
    ShefferPair,
    ShefferSequence,
    build_M,
    build_P,
    sequence_via_egf,
    sequence_via_raising,
    sheffer_coeffs,
    verify_monomiality,
)
from .catalog import FAMILY_LABELS, FamilyEntry, egf_eval, family, oracle_polys
from .normord import (
    NormallyOrderedSeries,
    normal_order_lhs,
    normal_order_rhs,
    verify_normal_order,
)
from .multivar import (
    evolution_solution,
    heat_check,
    hkdf,
    hkdf_egf_check,
    hkdf_ladder_check,
    pi_recursion,
    theta_pi_check,
    umbral_S,
)

__version__ = "0.1.0"

# resolved on first access, so that ``import sheffer`` does not load numpy
_FOCK_NAMES = frozenset({
    "CoherentParams",
    "FockSpace",
    "exp_element_coherent",
    "exp_element_coherent_closed",
    "exp_element_state",
    "exp_element_state_operator",
    "exp_element_vac",
    "fock_verify",
    "mono_element",
    "mono_element_operator",
    "overlap",
})


def __getattr__(name):
    if name in _FOCK_NAMES:
        from . import fock

        return getattr(fock, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
