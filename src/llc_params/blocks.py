"""The block side of the comparison, and the matcher that certifies it.

For a twisted maximal torus the finite fixed-point group is computed on the
cocharacter lattice as coker(q w - id), which the twist takes itself; its
ell-primary part is the block invariant, and the directions the twist fixes
(the free rank of coker(id - w)) are the free directions of the block.  For the GL_n Coxeter
twist that is one free direction (the unramified twisting line) and cyclic
ell-part Z/ell^k with k = v_ell(q^n - 1).  The cocharacter twist is the
transpose of the character twist; the transpose-cokernel law is exactly what
makes the two sides of the comparison agree.

Every block records whether q is above the Coxeter number n of the twist's
datum A_{n-1} (the regime where the block-to-torus dictionary is
unconditional), read off the twist itself as its n.  The matcher
compares the mu invariant of a parameter component against the block
torsion, records whether the free ranks agree, and tags the report with the
integer grading common to both sides.
"""

from __future__ import annotations

from .abgroups import FinGenAbGroup
from .arith import check_admissible, prime_power_split, valuation
from .cocycles import ComponentDescriptor, component_descriptors, twisted_centralizer
from .errors import FrozenRecord
from .rootdata import WeylTwist, coxeter_twist, preset

GRADING_INDEX = "Z"
GRADING_IDENTIFICATIONS = ("X*(Z(G-hat))", "pi_1(G)_Gamma")


def finite_torus(twist: WeylTwist, q: int) -> FinGenAbGroup:
    """Fixed points of q-twisted Frobenius on a torus, via cocharacters.

    The cocharacter lattice carries the twist w; the finite torus is
    coker(q w - id).  For the GL_n shift twist this is cyclic of order
    q^n - 1; for the rank-one twist w = -1 it is Z/(q + 1).  q must be a
    prime power (InvalidPrimePower otherwise).

    >>> from .rootdata import preset, coxeter_twist
    >>> finite_torus(coxeter_twist(preset("GL", 2)), 11)
    FinGenAbGroup(free_rank=0, invariant_factors=(120,))
    """
    prime_power_split(q)
    return twist.cokernel(q, -1)


class ApplicabilityFlag(FrozenRecord):
    """One recorded hypothesis check, e.g. q above the Coxeter number."""

    __slots__ = ("code", "holds", "detail")

    def to_json(self) -> dict:
        return {"code": self.code, "holds": self.holds, "detail": self.detail}


class BlockDescriptor(FrozenRecord):
    """Shape of one block: ell-part, free direction, ambient finite torus."""

    __slots__ = ("torsion", "free_rank", "finite_torus_order", "k", "applicability")

    def to_json(self) -> dict:
        return {
            "torsion": self.torsion.to_json(),
            "freeRank": self.free_rank,
            "finiteTorusOrder": self.finite_torus_order,
            "k": self.k,
            "applicabilityFlags": [f.to_json() for f in self.applicability],
        }


def torus_block_descriptors(
    twist: WeylTwist, q: int, ells: tuple[int, ...]
) -> tuple[BlockDescriptor, ...]:
    """Block data computed from a twisted torus, per ell; every block comes from here.

    The twist is the action on the cocharacter lattice (for a twist given on
    characters, pass the transpose).  The finite torus is coker(q w - id);
    the free rank is that of `twisted_centralizer`, coker(id - w): the
    directions the twist fixes.  Neither depends on ell, so both cokernels
    are taken once; each ell reads only the torus's ell-primary part and k.
    For the GL_n Coxeter twist this is Z/ell^k with k = v_ell(q^n - 1) and
    one free direction.  Each block carries the flag q > n, n the twist's n.

    >>> cotwist = coxeter_twist(preset("GL", 2)).transpose()
    >>> [(b.k, b.free_rank) for b in torus_block_descriptors(cotwist, 11, (3, 5, 7))]
    [(1, 1), (1, 1), (0, 1)]
    """
    for ell in ells:
        check_admissible(q, ell)
    t = finite_torus(twist, q)
    order = t.order()
    free_rank = twisted_centralizer(twist).free_rank
    h = twist.n  # the Coxeter number of A_{h-1}
    flag = ApplicabilityFlag("q-above-coxeter-number", q > h, f"q = {q}, Coxeter number = {h}")
    return tuple(
        BlockDescriptor(t.ell_primary(ell), free_rank, order, valuation(order, ell), (flag,))
        for ell in ells
    )


def torus_block_descriptor(twist: WeylTwist, q: int, ell: int) -> BlockDescriptor:
    """`torus_block_descriptors` at the one ell.

    >>> b = torus_block_descriptor(coxeter_twist(preset("GL", 2)).transpose(), 11, 5)
    >>> b.torsion, b.free_rank
    (FinGenAbGroup(free_rank=0, invariant_factors=(5,)), 1)
    """
    return torus_block_descriptors(twist, q, (ell,))[0]


class MatchReport(FrozenRecord):
    """Verdict of the component-to-block comparison, with the two sides compared."""

    __slots__ = ("component", "block", "isomorphic", "free_ranks_agree", "context_mismatch")

    def to_json(self) -> dict:
        return {
            "muCharGroup": self.component.mu.to_json(),
            "blockTorsion": self.block.torsion.to_json(),
            "isomorphic": self.isomorphic,
            "freeRanksAgree": self.free_ranks_agree,
            "grading": {"index": GRADING_INDEX, "identifications": list(GRADING_IDENTIFICATIONS)},
            "applicabilityFlags": [f.to_json() for f in self.block.applicability],
            "contextMismatch": self.context_mismatch,
        }


def match_sides(component: ComponentDescriptor, block: BlockDescriptor) -> MatchReport:
    """Compare the two computations of the same invariant.

    The parameter side contributes the character group of its mu factor, the
    block side its torsion; the groups are in normal form, so isomorphism is
    plain equality.  A context mismatch (the two sides built from different
    ambient finite tori) is flagged but does not block the comparison.

    >>> from .rootdata import preset, coxeter_twist
    >>> from .cocycles import component_descriptor
    >>> w = coxeter_twist(preset("GL", 2))
    >>> c = component_descriptor(w, 11, 5)
    >>> b = torus_block_descriptor(w.transpose(), 11, 5)
    >>> match_sides(c, b).isomorphic
    True
    """
    fixed_order = component.fixed_scheme.order()
    context_mismatch = fixed_order is not None and fixed_order != block.finite_torus_order
    return MatchReport(
        component,
        block,
        isomorphic=component.mu == block.torsion,
        free_ranks_agree=component.orbit_torus_rank == block.free_rank,
        context_mismatch=context_mismatch,
    )


class CategoricalSummary(FrozenRecord):
    """The computable shadow of the depth-zero comparison for GL_n.

    Both sides decompose into cells indexed by the same integer grading,
    each cell carrying one free direction and the cyclic ell-part (the
    block's); the match holds the component and the block it compares.
    """

    __slots__ = ("n", "q", "ell", "match")

    def to_json(self) -> dict:
        block = self.match.block
        return {
            "n": self.n,
            "q": self.q,
            "ell": self.ell,
            "gradingIndex": GRADING_INDEX,
            "cell": {"freeRank": block.free_rank, "torsion": block.torsion.to_json()},
            "component": self.match.component.to_json(),
            "block": block.to_json(),
            "match": self.match.to_json(),
        }


def categorical_summaries(
    n: int, q: int, ells: tuple[int, ...]
) -> tuple[CategoricalSummary, ...]:
    """Assemble the full GL_n comparison at (n, q), one summary per ell.

    The component and block builders take their cokernels once for all ells.

    >>> [s.match.block.torsion.describe() for s in categorical_summaries(2, 11, (3, 5, 7))]
    ['Z/3', 'Z/5', '0']
    """
    w = coxeter_twist(preset("GL", n))
    components = component_descriptors(w, q, ells)
    blocks = torus_block_descriptors(w.transpose(), q, ells)
    return tuple(
        CategoricalSummary(n, q, ell, match_sides(c, b))
        for ell, c, b in zip(ells, components, blocks)
    )


def categorical_summary(n: int, q: int, ell: int) -> CategoricalSummary:
    """`categorical_summaries` at the one ell."""
    return categorical_summaries(n, q, (ell,))[0]
