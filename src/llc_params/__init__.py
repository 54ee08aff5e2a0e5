"""Exact-arithmetic invariants of tame elliptic parameter components.

The package computes, in integer arithmetic only:

* abelian-group normal forms (`abgroups`), and Smith invariants of
  arbitrary matrices on top of them (`lattice`),
* root data of the dual groups with their standard twists (`rootdata`),
* the component structure of spaces of tame torus-valued cocycles
  (`cocycles`),
* tame regular elliptic GL_n parameters in exponent coordinates (`glparams`),
* the block-side invariants and the matcher that certifies both sides agree
  (`blocks`).

The command line front end lives in `cli` (entry point ``llc-params``).

``import llc_params`` loads none of these modules.  Each public name of
``__all__`` resolves on first use (PEP 562): the package imports the name's
home module, as listed in ``_HOMES``, and keeps the name in its globals.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_HOMES = {
    "abgroups": ("FinGenAbGroup",),
    "blocks": ("ApplicabilityFlag", "BlockDescriptor", "CategoricalSummary", "MatchReport",
               "categorical_summary", "finite_torus", "match_sides", "torus_block_descriptor"),
    "cocycles": ("CocycleSpace", "ComponentDescriptor", "POINT_MOD_STABILIZER", "TORUS_QUOTIENT",
                 "cocycle_space", "component_descriptor", "frob_fixed_scheme",
                 "twisted_centralizer"),
    "errors": ("InternalError", "InvalidArgument", "InvalidPrime", "InvalidPrimePower",
               "InvalidRank", "LlcError", "UnsupportedFamily"),
    "glparams": ("FBAR", "GLFamily", "ParamMatrices", "TrselpGL", "ZBAR", "cocycle_law"),
    "lattice": ("IntMatrix", "cokernel", "smith_normal_form"),
    "rootdata": ("RootDatum", "RunRows", "WeylTwist", "coxeter_twist", "identity_twist",
                 "preset", "weyl_twist"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
