"""Cocycles of the tame Weil group valued in a twisted torus.

The tame quotient is generated by a Frobenius lift Fr and a topological
inertia generator s0 subject to Fr s0 Fr^{-1} = s0^q.  A cocycle valued in a
torus T-hat on which Fr acts through a finite-order lattice automorphism w is
pinned down by its values on Fr (free) and on s0 (constrained to the scheme
of fixed points of t -> t^q twisted by w).  On character groups this makes
everything a cokernel:

* fixed scheme of w-twisted q-power map:  coker(w - q id)   on X*,
* twisted centralizer of the Frobenius:   coker(id - w)     on X*.

D -> X*(D) is an anti-equivalence of diagonalizable groups with finitely
generated abelian groups, so each group here is held as its character group
(G_m^r as Z^r, mu_n as Z/n).  Over Z-bar_ell, mu_n is connected exactly when
n is a power of ell: the identity component is the free part plus the
ell-primary torsion, and pi_0 is the prime-to-ell torsion.  The fixed scheme
is finite, so the mu invariant is its ell-primary part.  The descriptor
assembled here is the complete structure of one connected component of the
parameter space: a torus orbit of rank rank(ker(id - w)), the stabilizer
acting on it, and the finite mu factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abgroups import FinGenAbGroup, cokernel
from .arith import check_admissible
from .errors import DimensionMismatch, InternalError, InvalidRank
from .lattice import IntMatrix
from .rootdata import RootDatum, WeylTwist, center_char_group

POINT_MOD_STABILIZER = "point_mod_S_psi"
TORUS_QUOTIENT = "torus_quotient"


class FrobTorus:
    """A torus with a twisted Frobenius: rank, twist w, size q, working prime ell."""

    __slots__ = ("rank", "twist", "q", "ell", "p")

    def __init__(self, rank: int, twist: WeylTwist, q: int, ell: int):
        if isinstance(rank, bool) or not isinstance(rank, int) or rank < 1:
            raise InvalidRank(f"rank must be a positive integer, got {rank!r}")
        if twist.rank != rank:
            raise DimensionMismatch(
                f"twist is {twist.rank}x{twist.rank} but the torus has rank {rank}"
            )
        p, _ = check_admissible(q, ell)
        twist.check_unimodular()
        self.rank = rank
        self.twist = twist
        self.q = q
        self.ell = ell
        self.p = p

    def __repr__(self) -> str:
        return f"FrobTorus(rank={self.rank}, q={self.q}, ell={self.ell})"


def _finite_cokernel(matrix: IntMatrix, context: str) -> FinGenAbGroup:
    group = cokernel(matrix)
    if group.free_rank != 0:
        # a unimodular finite-order twist can never have eigenvalue q >= 2,
        # so a positive free rank means the caller fed a non-Frobenius matrix
        raise InternalError(
            f"{context} is infinite; the twist cannot be of finite order",
            hint="check that the twist matrix is a root-permuting automorphism",
        )
    return group


def frob_fixed_scheme(ft: FrobTorus) -> FinGenAbGroup:
    """The scheme of inertia values: fixed points of the w-twisted q-power map.

    Its character group is coker(w - q id).  For the GL_n Coxeter twist this
    is mu_{q^n - 1}, with character group Z/(q^n - 1).
    """
    return _finite_cokernel(ft.twist.matrix.shifted(1, -ft.q), "the inertia fixed scheme")


def mu_invariant(ft: FrobTorus) -> FinGenAbGroup:
    """Identity component of the fixed scheme: the ell-primary mu factor."""
    return frob_fixed_scheme(ft).ell_primary(ft.ell)


def twisted_centralizer(ft: FrobTorus) -> FinGenAbGroup:
    """Stabilizer of the twisted conjugation action: character group coker(id - w)."""
    return cokernel(ft.twist.matrix.shifted(-1, 1))


@dataclass(frozen=True)
class CocycleSpace:
    """Shape of the space of cocycles: a torus times the inertia fixed scheme."""

    free_torus_rank: int
    fixed_scheme: FinGenAbGroup
    component_count: int
    component_shape: FinGenAbGroup

    def to_json(self) -> dict:
        return {
            "freeTorusRank": self.free_torus_rank,
            "fixedScheme": self.fixed_scheme.to_json(),
            "componentCount": self.component_count,
            "componentShape": self.component_shape.to_json(),
        }


def cocycle_space(fixed: FinGenAbGroup, rank: int, ell: int) -> CocycleSpace:
    """The full cocycle space: Frobenius value free in T, inertia value fixed.

    ``fixed`` is the inertia fixed scheme of a rank-``rank`` twisted torus, as
    `frob_fixed_scheme` or a component descriptor's ``fixed_scheme`` gives it.
    Components are counted by pi_0 of the fixed scheme over Z-bar_ell; each
    component is a torus of the full rank times the identity component.
    """
    count = fixed.prime_to_ell(ell).order()
    shape = FinGenAbGroup(rank + fixed.free_rank).direct_sum(fixed.ell_primary(ell))
    return CocycleSpace(rank, fixed, count, shape)


@dataclass(frozen=True)
class ComponentDescriptor:
    """Structure of one connected component of the parameter space.

    The component is a quotient [T_psi / S_psi] x mu: a torus orbit of rank
    ``orbit_torus_rank`` modulo the stabilizer, times the finite mu factor.
    When the center is finite and the parameter elliptic, the orbit torus
    collapses and the component is a point modulo the stabilizer.
    """

    orbit_torus_rank: int
    stabilizer: FinGenAbGroup
    mu: FinGenAbGroup
    elliptic: bool
    product_form: str
    fixed_scheme: FinGenAbGroup

    def to_json(self) -> dict:
        return {
            "orbitTorusRank": self.orbit_torus_rank,
            "stabilizer": self.stabilizer.to_json(),
            "mu": self.mu.to_json(),
            "elliptic": self.elliptic,
            "productForm": self.product_form,
            "fixedScheme": self.fixed_scheme.to_json(),
        }


def component_descriptor(rd: RootDatum, twist: WeylTwist, q: int, ell: int) -> ComponentDescriptor:
    """Assemble the component structure for a datum with a chosen twist.

    >>> from .rootdata import preset, coxeter_twist
    >>> d = component_descriptor(preset("GL", 2), coxeter_twist(preset("GL", 2)), 11, 5)
    >>> d.orbit_torus_rank, d.mu.invariant_factors
    (1, (5,))
    """
    if twist.rank != rd.rank:
        raise DimensionMismatch(
            f"twist is {twist.rank}x{twist.rank} but the datum has rank {rd.rank}"
        )
    ft = FrobTorus(rd.rank, twist, q, ell)
    fixed = frob_fixed_scheme(ft)
    stabilizer = twisted_centralizer(ft)
    mu = fixed.ell_primary(ell)
    # dim ker(1 - w) is the free rank of coker(1 - w); elliptic means the
    # stabilizer is no bigger than the center
    orbit_rank = stabilizer.free_rank
    center_rank = center_char_group(rd).free_rank
    elliptic = orbit_rank == center_rank
    form = POINT_MOD_STABILIZER if (elliptic and center_rank == 0) else TORUS_QUOTIENT
    return ComponentDescriptor(orbit_rank, stabilizer, mu, elliptic, form, fixed)
