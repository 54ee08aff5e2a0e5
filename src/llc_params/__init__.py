"""Exact-arithmetic invariants of tame elliptic parameter components.

The package computes, in integer arithmetic only:

* Smith invariants and the derived abelian-group calculus (`lattice`,
  `abgroups`),
* root data of the dual groups with their standard twists (`rootdata`),
* the component structure of spaces of tame torus-valued cocycles
  (`cocycles`),
* tame regular elliptic GL_n parameters as exponent matrices (`glparams`),
* the block-side invariants and the matcher that certifies both sides agree
  (`blocks`).

The command line front end lives in `cli` (entry point ``llc-params``).
"""

from .abgroups import FinGenAbGroup, cokernel
from .blocks import (
    ApplicabilityFlag,
    BlockDescriptor,
    CategoricalSummary,
    MatchReport,
    categorical_summary,
    finite_torus,
    match_sides,
    torus_block_descriptor,
)
from .cocycles import (
    CocycleSpace,
    ComponentDescriptor,
    FrobTorus,
    POINT_MOD_STABILIZER,
    TORUS_QUOTIENT,
    cocycle_space,
    component_descriptor,
    frob_fixed_scheme,
    mu_invariant,
    twisted_centralizer,
)
from .errors import (
    CoefficientMismatch,
    DimensionMismatch,
    InternalError,
    InvalidArgument,
    InvalidPrime,
    InvalidPrimePower,
    InvalidRank,
    LlcError,
    ShapeMismatch,
    UnsupportedFamily,
)
from .glparams import (
    FBAR,
    GLFamily,
    ParamMatrices,
    TrselpGL,
    ZBAR,
    lifts_in_component,
    matrices,
    nilpotent_support_fixed_positions,
    reduction,
    verify_cocycle,
)
from .lattice import IntMatrix, smith_normal_form
from .rootdata import (
    RootDatum,
    WeylTwist,
    center_char_group,
    coxeter_twist,
    identity_twist,
    preset,
    weyl_twist,
)

__version__ = "0.1.0"

__all__ = [
    "ApplicabilityFlag",
    "BlockDescriptor",
    "CategoricalSummary",
    "CocycleSpace",
    "CoefficientMismatch",
    "ComponentDescriptor",
    "DimensionMismatch",
    "FBAR",
    "FinGenAbGroup",
    "FrobTorus",
    "GLFamily",
    "IntMatrix",
    "InternalError",
    "InvalidArgument",
    "InvalidPrime",
    "InvalidPrimePower",
    "InvalidRank",
    "LlcError",
    "MatchReport",
    "POINT_MOD_STABILIZER",
    "ParamMatrices",
    "RootDatum",
    "ShapeMismatch",
    "TORUS_QUOTIENT",
    "TrselpGL",
    "UnsupportedFamily",
    "WeylTwist",
    "ZBAR",
    "categorical_summary",
    "center_char_group",
    "cokernel",
    "component_descriptor",
    "cocycle_space",
    "coxeter_twist",
    "finite_torus",
    "frob_fixed_scheme",
    "identity_twist",
    "lifts_in_component",
    "match_sides",
    "matrices",
    "mu_invariant",
    "nilpotent_support_fixed_positions",
    "preset",
    "reduction",
    "smith_normal_form",
    "torus_block_descriptor",
    "twisted_centralizer",
    "verify_cocycle",
    "weyl_twist",
]
