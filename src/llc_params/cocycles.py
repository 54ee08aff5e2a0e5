"""Cocycles of the tame Weil group valued in a twisted torus.

The tame quotient is generated by a Frobenius lift Fr and a topological
inertia generator s0 subject to Fr s0 Fr^{-1} = s0^q.  A cocycle valued in a
torus T-hat on which Fr acts through a finite-order lattice automorphism w is
pinned down by its values on Fr (free) and on s0 (constrained to the scheme
of fixed points of t -> t^q twisted by w).  On character groups this makes
everything a cokernel, which the twist reads off its cycle type
(`WeylTwist.cokernel`), one cyclic group per cycle:

* fixed scheme of w-twisted q-power map:  coker(w - q id)   on X*, finite
  as each cycle's |q^l - (+-1)^l| >= q - 1 > 0,
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

from .abgroups import FinGenAbGroup
from .arith import check_admissible, prime_power_split
from .errors import FrozenRecord
from .rootdata import WeylTwist

POINT_MOD_STABILIZER = "point_mod_S_psi"
TORUS_QUOTIENT = "torus_quotient"


def frob_fixed_scheme(twist: WeylTwist, q: int) -> FinGenAbGroup:
    """The scheme of inertia values: fixed points of the w-twisted q-power map.

    Its character group is coker(w - q id).  For the GL_n Coxeter twist this
    is mu_{q^n - 1}, with character group Z/(q^n - 1).  q must be a prime
    power (InvalidPrimePower otherwise).
    """
    prime_power_split(q)
    return twist.cokernel(1, -q)


def twisted_centralizer(twist: WeylTwist) -> FinGenAbGroup:
    """Stabilizer of the twisted conjugation action: character group coker(id - w)."""
    return twist.cokernel(-1, 1)


class CocycleSpace(FrozenRecord):
    """Shape of the space of cocycles: a torus times the inertia fixed scheme."""

    __slots__ = ("free_torus_rank", "fixed_scheme", "component_count", "component_shape")

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


class ComponentDescriptor(FrozenRecord):
    """Structure of one connected component of the parameter space.

    The component is a quotient [T_psi / S_psi] x mu: a torus orbit of rank
    ``orbit_torus_rank`` modulo the stabilizer, times the finite mu factor.
    When the center is finite and the parameter elliptic, the orbit torus
    collapses and the component is a point modulo the stabilizer.
    """

    __slots__ = ("orbit_torus_rank", "stabilizer", "mu", "elliptic", "product_form", "fixed_scheme")

    def to_json(self) -> dict:
        return {
            "orbitTorusRank": self.orbit_torus_rank,
            "stabilizer": self.stabilizer.to_json(),
            "mu": self.mu.to_json(),
            "elliptic": self.elliptic,
            "productForm": self.product_form,
            "fixedScheme": self.fixed_scheme.to_json(),
        }


def component_descriptors(
    twist: WeylTwist, q: int, ells: tuple[int, ...]
) -> tuple[ComponentDescriptor, ...]:
    """Assemble the component structure for a twist on characters, per ell.

    The center is that of the twist's datum.  The fixed scheme and the
    stabilizer do not depend on ell, so their cokernels are taken once; each
    ell reads only the fixed scheme's ell-primary part.  Every ell is checked
    against q before any cokernel.

    >>> from .rootdata import preset, coxeter_twist
    >>> w = coxeter_twist(preset("GL", 2))
    >>> [d.mu.describe() for d in component_descriptors(w, 11, (3, 5, 7))]
    ['Z/3', 'Z/5', '0']
    """
    for ell in ells:
        check_admissible(q, ell)
    fixed = frob_fixed_scheme(twist, q)
    stabilizer = twisted_centralizer(twist)
    # dim ker(1 - w) is the free rank of coker(1 - w); elliptic means the
    # stabilizer is no bigger than the center.  The simple roots are a basis
    # of the root lattice, so the center's character group X* / ZPhi has free
    # rank rank X* - |Delta|, and A_{n-1} has n - 1 simple roots
    orbit_rank = stabilizer.free_rank
    rd = twist.datum
    center_rank = rd.rank - (rd.n - 1)
    elliptic = orbit_rank == center_rank
    form = POINT_MOD_STABILIZER if (elliptic and center_rank == 0) else TORUS_QUOTIENT
    return tuple(
        ComponentDescriptor(orbit_rank, stabilizer, fixed.ell_primary(ell), elliptic, form, fixed)
        for ell in ells
    )


def component_descriptor(twist: WeylTwist, q: int, ell: int) -> ComponentDescriptor:
    """`component_descriptors` at the one ell.

    >>> from .rootdata import preset, coxeter_twist
    >>> d = component_descriptor(coxeter_twist(preset("GL", 2)), 11, 5)
    >>> d.orbit_torus_rank, d.mu.invariant_factors
    (1, (5,))
    """
    return component_descriptors(twist, q, (ell,))[0]
