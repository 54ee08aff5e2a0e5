"""The block side of the comparison, and the matcher that certifies it.

For a twisted maximal torus the finite fixed-point group is computed on the
cocharacter lattice as coker(q w - id); its ell-primary part is the block
invariant, and the directions the twist fixes (the free rank of
coker(id - w)) are the free directions of the block.  For the GL_n Coxeter
twist that is one free direction (the unramified twisting line) and cyclic
ell-part Z/ell^k with k = v_ell(q^n - 1).  The cocharacter twist is the
transpose of the character twist; the transpose-cokernel law is exactly what
makes the two sides of the comparison agree.

The matcher compares the mu invariant of a parameter component against the
block torsion, records whether the free ranks agree, tags the report with
the integer grading common to both sides, and raises an applicability flag
when q is not above the Coxeter number (the regime where the block-to-torus
dictionary is unconditional).
"""

from __future__ import annotations

from dataclasses import dataclass

from .abgroups import FinGenAbGroup, cokernel
from .arith import check_admissible, valuation
from .cocycles import ComponentDescriptor, component_descriptor
from .errors import DimensionMismatch, InternalError
from .rootdata import WeylTwist, coxeter_twist, preset

GRADING_INDEX = "Z"
GRADING_IDENTIFICATIONS = ("X*(Z(G-hat))", "pi_1(G)_Gamma")


def finite_torus(rank: int, twist: WeylTwist, q: int) -> FinGenAbGroup:
    """Fixed points of q-twisted Frobenius on a torus, via cocharacters.

    The cocharacter lattice carries the twist w; the finite torus is
    coker(q w - id).  For the GL_n shift twist this is cyclic of order
    q^n - 1; for the rank-one twist w = -1 it is Z/(q + 1).

    >>> from .rootdata import preset, coxeter_twist
    >>> finite_torus(2, coxeter_twist(preset("GL", 2)), 11)
    FinGenAbGroup(free_rank=0, invariant_factors=(120,))
    """
    if twist.rank != rank:
        raise DimensionMismatch(
            f"twist is {twist.rank}x{twist.rank} but the torus has rank {rank}"
        )
    group = cokernel(twist.matrix.shifted(q, -1))
    if group.free_rank != 0:
        raise InternalError(
            "finite torus came out infinite; the twist cannot be of finite order"
        )
    return group


@dataclass(frozen=True)
class ApplicabilityFlag:
    """One recorded hypothesis check, e.g. q above the Coxeter number."""

    code: str
    holds: bool
    detail: str

    def to_json(self) -> dict:
        return {"code": self.code, "holds": self.holds, "detail": self.detail}


def _coxeter_bound_flag(q: int, coxeter_number: int) -> ApplicabilityFlag:
    return ApplicabilityFlag(
        code="q-above-coxeter-number",
        holds=q > coxeter_number,
        detail=f"q = {q}, Coxeter number = {coxeter_number}",
    )


@dataclass(frozen=True)
class BlockDescriptor:
    """Shape of one block: ell-part, free direction, ambient finite torus."""

    torsion: FinGenAbGroup
    free_rank: int
    finite_torus_order: int
    k: int
    applicability: tuple[ApplicabilityFlag, ...] = ()

    def to_json(self) -> dict:
        return {
            "torsion": self.torsion.to_json(),
            "freeRank": self.free_rank,
            "finiteTorusOrder": self.finite_torus_order,
            "k": self.k,
            "applicabilityFlags": [f.to_json() for f in self.applicability],
        }


def torus_block_descriptor(
    rank: int,
    twist: WeylTwist,
    q: int,
    ell: int,
    *,
    coxeter_number: int | None = None,
) -> BlockDescriptor:
    """Block data computed from a twisted torus; every block comes from here.

    The twist is the action on the cocharacter lattice (for a twist given on
    characters, pass the transpose).  The finite torus is coker(q w - id);
    the free rank is that of coker(id - w), the directions the twist fixes.
    For the GL_n Coxeter twist this is Z/ell^k with k = v_ell(q^n - 1) and
    one free direction.

    >>> w = coxeter_twist(preset("GL", 2)).matrix.transpose()
    >>> b = torus_block_descriptor(2, WeylTwist(w), 11, 5)
    >>> b.torsion, b.free_rank
    (FinGenAbGroup(free_rank=0, invariant_factors=(5,)), 1)
    """
    check_admissible(q, ell)
    t = finite_torus(rank, twist, q)
    order = t.order()
    flags = () if coxeter_number is None else (_coxeter_bound_flag(q, coxeter_number),)
    return BlockDescriptor(
        torsion=t.ell_primary(ell),
        free_rank=cokernel(twist.matrix.shifted(-1, 1)).free_rank,
        finite_torus_order=order,
        k=valuation(order, ell),
        applicability=flags,
    )


@dataclass(frozen=True)
class MatchReport:
    """Verdict of the component-to-block comparison."""

    mu_char_group: FinGenAbGroup
    block_torsion: FinGenAbGroup
    isomorphic: bool
    free_ranks_agree: bool
    grading_index: str
    applicability_flags: tuple[ApplicabilityFlag, ...]
    context_mismatch: bool

    def to_json(self) -> dict:
        return {
            "muCharGroup": self.mu_char_group.to_json(),
            "blockTorsion": self.block_torsion.to_json(),
            "isomorphic": self.isomorphic,
            "freeRanksAgree": self.free_ranks_agree,
            "grading": {
                "index": self.grading_index,
                "identifications": list(GRADING_IDENTIFICATIONS),
            },
            "applicabilityFlags": [f.to_json() for f in self.applicability_flags],
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
    >>> c = component_descriptor(preset("GL", 2), w, 11, 5)
    >>> b = torus_block_descriptor(2, WeylTwist(w.matrix.transpose()), 11, 5)
    >>> match_sides(c, b).isomorphic
    True
    """
    fixed_order = component.fixed_scheme.order()
    context_mismatch = fixed_order is not None and fixed_order != block.finite_torus_order
    return MatchReport(
        mu_char_group=component.mu,
        block_torsion=block.torsion,
        isomorphic=component.mu == block.torsion,
        free_ranks_agree=component.orbit_torus_rank == block.free_rank,
        grading_index=GRADING_INDEX,
        applicability_flags=block.applicability,
        context_mismatch=context_mismatch,
    )


@dataclass(frozen=True)
class CategoricalSummary:
    """The computable shadow of the depth-zero comparison for GL_n.

    Both sides decompose into cells indexed by the same integer grading,
    each cell carrying one free direction and the cyclic ell-part; this
    record aggregates the component, the block, and their match.
    """

    n: int
    q: int
    ell: int
    grading_index: str
    cell_free_rank: int
    cell_torsion: FinGenAbGroup
    component: ComponentDescriptor
    block: BlockDescriptor
    match: MatchReport

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "ell": self.ell,
            "gradingIndex": self.grading_index,
            "cell": {
                "freeRank": self.cell_free_rank,
                "torsion": self.cell_torsion.to_json(),
            },
            "component": self.component.to_json(),
            "block": self.block.to_json(),
            "match": self.match.to_json(),
        }


def categorical_summary(n: int, q: int, ell: int) -> CategoricalSummary:
    """Assemble the full GL_n comparison at one (n, q, ell)."""
    rd = preset("GL", n)
    w = coxeter_twist(rd)
    component = component_descriptor(rd, w, q, ell)
    block = torus_block_descriptor(
        n, WeylTwist(w.matrix.transpose()), q, ell, coxeter_number=n
    )
    report = match_sides(component, block)
    return CategoricalSummary(
        n=n,
        q=q,
        ell=ell,
        grading_index=GRADING_INDEX,
        cell_free_rank=block.free_rank,
        cell_torsion=block.torsion,
        component=component,
        block=block,
        match=report,
    )
