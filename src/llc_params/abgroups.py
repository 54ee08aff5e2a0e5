"""Finitely generated abelian groups in invariant factor normal form.

A value represents Z**free_rank + Z/d1 + ... + Z/dk with d1 | d2 | ... | dk
and every di >= 2.  That normal form is unique, so equality of values is
isomorphism of groups, the fact the whole matching pipeline leans on.  A
group is a frozen record (``errors.FrozenRecord``) of its free rank and
that chain, so no value can leave the normal form once built.  Its one
pass, `diagonal_invariants`, normalizes every group, a twist's cokernel
(`rootdata`) and a Smith form's diagonal (`lattice`) among them.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd

from .arith import is_prime, valuation
from .errors import FrozenRecord, InvalidArgument, InvalidPrime


def diagonal_invariants(diagonal: Iterable[int]) -> tuple[int, ...]:
    """The Smith invariants of a diagonal matrix with nonnegative entries.

    Ones lead and zeros trail.  The other entries are taken as (value,
    multiplicity) groups, so a run of equal entries costs one group.  Every
    pair of groups (a, b), a before b, with a not dividing b is exchanged
    for gcd and lcm, since diag(a, b) and diag(gcd, lcm) are equivalent: the
    min(#a, #b) pairs become (gcd, lcm) and the surplus copies of a or b
    move to a new group at the end.  After the pass for a group, its value
    divides every later one, so a chain passes through with divisibility
    checks alone; nothing is factored.

    >>> diagonal_invariants([0, 4, 1, 6])
    (1, 2, 12, 0)
    >>> diagonal_invariants([6, 6, 4, 4, 4])
    (2, 2, 4, 12, 12)
    """
    diagonal = list(diagonal)
    counts = {}
    for d in diagonal:
        if d > 1:
            counts[d] = counts.get(d, 0) + 1
    groups = list(counts.items())
    for i, (a, count) in enumerate(groups):  # enumerate visits the groups appended below
        for j in range(i + 1, len(groups)):  # not those appended meanwhile: a divides them
            b, bcount = groups[j]
            if b % a:
                g = gcd(a, b)
                pairs = min(count, bcount)
                groups[j] = (a // g * b, pairs)
                if count > pairs:
                    groups.append((a, count - pairs))
                elif bcount > pairs:
                    groups.append((b, bcount - pairs))
                a, count = g, pairs
        groups[i] = (a, count)
    chain = [1] * diagonal.count(1)
    for a, count in groups:
        chain += [a] * count
    return tuple(chain) + (0,) * diagonal.count(0)


def _chain_from_factors(factors: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """Normalize arbitrary cyclic orders into (extra_free_rank, divisor chain).

    Z/a1 + Z/a2 + ... is the cokernel of diag(a1, a2, ...): the chain is its
    Smith invariants, zeros give free rank (Z/0 = Z) and ones vanish.
    """
    orders = list(factors)
    for d in orders:
        if isinstance(d, bool) or not isinstance(d, int):
            raise InvalidArgument(f"invariant factors must be integers, got {d!r}")
        if d < 0:
            raise InvalidArgument(f"invariant factors must be nonnegative, got {d}")
    invariants = diagonal_invariants(orders)
    return invariants.count(0), tuple(d for d in invariants if d > 1)


class FinGenAbGroup(FrozenRecord):
    """A finitely generated abelian group, held in invariant factor form.

    The constructor accepts any list of cyclic orders and renormalizes:

    >>> FinGenAbGroup(0, (4, 2, 3))
    FinGenAbGroup(free_rank=0, invariant_factors=(2, 12))
    >>> FinGenAbGroup(0, (0, 6)) == FinGenAbGroup(1, (6,))
    True
    >>> FinGenAbGroup(0, (1, 1)) == FinGenAbGroup()
    True
    """

    __slots__ = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int = 0, factors: Iterable[int] = ()):
        if isinstance(free_rank, bool) or not isinstance(free_rank, int) or free_rank < 0:
            raise InvalidArgument(f"free rank must be a nonnegative integer, got {free_rank!r}")
        extra, chain = _chain_from_factors(factors)
        self._fill(free_rank + extra, chain)

    @classmethod
    def cyclic(cls, n: int) -> "FinGenAbGroup":
        """Z/n, with Z/0 = Z and Z/1 = 0."""
        return cls(0, (n,))

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Group order as an integer, or None for an infinite group."""
        if not self.is_finite:
            return None
        return self.torsion_order()

    def torsion_order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def direct_sum(self, other: "FinGenAbGroup") -> "FinGenAbGroup":
        return FinGenAbGroup(
            self.free_rank + other.free_rank, self.invariant_factors + other.invariant_factors
        )

    def ell_primary(self, ell: int) -> "FinGenAbGroup":
        """The ell-primary component of the torsion part (a finite group)."""
        if not is_prime(ell, name="ell"):
            raise InvalidPrime(f"ell = {ell} is not prime")
        return FinGenAbGroup(0, tuple(ell ** valuation(d, ell) for d in self.invariant_factors))

    def prime_to_ell(self, ell: int) -> "FinGenAbGroup":
        """The prime-to-ell part of the torsion (the free part is dropped)."""
        if not is_prime(ell, name="ell"):
            raise InvalidPrime(f"ell = {ell} is not prime")
        factors = self.invariant_factors
        return FinGenAbGroup(0, tuple(d // ell ** valuation(d, ell) for d in factors))

    def describe(self) -> str:
        """Human-oriented name such as 'Z^2 + Z/2 + Z/12'; '0' when trivial."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"freeRank": self.free_rank, "torsion": list(self.invariant_factors)}
