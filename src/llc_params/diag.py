"""Diagonalizable group schemes over the ell-adic integers, by character group.

Sending D to its character group X*(D) is an anti-equivalence between
diagonalizable groups and finitely generated abelian groups, so a DiagGroup
is just a FinGenAbGroup wearing geometric clothing: tori have free character
group and mu_n is dual to Z/n.

Identity components and component groups depend on the working prime ell:
over Z-bar_ell the group mu_n is connected exactly when n is a power of ell,
so the identity component keeps the free part and the ell-primary torsion
while pi_0 is the prime-to-ell torsion.
"""

from __future__ import annotations

from .abgroups import FinGenAbGroup
from .errors import InvalidArgument, InvalidRank


class DiagGroup:
    """A diagonalizable group scheme, presented by its character group.

    Equality is isomorphism (equality of character groups); the optional
    label is cosmetic and ignored by comparisons.
    """

    __slots__ = ("_char", "_label")

    def __init__(self, char_group: FinGenAbGroup, label: str | None = None):
        if not isinstance(char_group, FinGenAbGroup):
            raise InvalidArgument("char_group must be a FinGenAbGroup")
        self._char = char_group
        self._label = label

    @property
    def char_group(self) -> FinGenAbGroup:
        return self._char

    @property
    def label(self) -> str | None:
        return self._label

    @property
    def is_torus(self) -> bool:
        return not self._char.invariant_factors

    @property
    def is_finite(self) -> bool:
        return self._char.is_finite

    @property
    def rank(self) -> int:
        """Dimension of the group (= free rank of the character group)."""
        return self._char.free_rank

    def to_json(self) -> dict:
        return self._char.to_json()

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiagGroup):
            return NotImplemented
        return self._char == other._char

    def __hash__(self) -> int:
        return hash(self._char)

    def __repr__(self) -> str:
        if self._label:
            return f"DiagGroup({self._char.describe()!r}, label={self._label!r})"
        return f"DiagGroup({self._char.describe()!r})"


def torus(r: int) -> DiagGroup:
    """The split torus G_m**r (character group Z**r)."""
    if isinstance(r, bool) or not isinstance(r, int) or r < 0:
        raise InvalidRank(f"torus rank must be a nonnegative integer, got {r!r}")
    return DiagGroup(FinGenAbGroup(r, ()), label="G_m" if r == 1 else f"G_m^{r}")


def mu(n: int) -> DiagGroup:
    """The group of n-th roots of unity (character group Z/n); mu(1) = 1."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidArgument(f"mu needs a positive order, got {n!r}")
    return DiagGroup(FinGenAbGroup(0, (n,)), label=f"mu_{n}")


def product(d1: DiagGroup, d2: DiagGroup) -> DiagGroup:
    """Direct product; character groups add."""
    return DiagGroup(d1.char_group.direct_sum(d2.char_group))


def identity_component(d: DiagGroup, ell: int) -> DiagGroup:
    """The identity component over Z-bar_ell: free part plus ell-primary torsion."""
    char = d.char_group
    free = FinGenAbGroup(char.free_rank, ())
    return DiagGroup(free.direct_sum(char.ell_primary(ell)))


def component_group(d: DiagGroup, ell: int) -> FinGenAbGroup:
    """pi_0 of D over Z-bar_ell: the prime-to-ell torsion of the characters."""
    return d.char_group.prime_to_ell(ell)
