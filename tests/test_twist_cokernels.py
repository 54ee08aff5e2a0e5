"""`WeylTwist.cokernel` from the cycle type, against n-row presentations.

The package reads coker(s w + t) off the cycle type of the twist's
permutation; `oracles.e_coordinate_cokernel` writes s w + t as a matrix on
e-coordinates and takes its Smith form by the textbook route.  The two agree
on every signed permutation of the three kinds of lattice up to n = 4, at
q in {2, 3, 4, 5, 7, 9, 11} and six (s, t) pairs that hold a unit, and on
seeded draws at n = 5 to 12.  The cycle-type route takes no Smith form on
any kind of lattice.
"""

import random
from itertools import permutations

import pytest

from llc_params.errors import LlcError
from llc_params.rootdata import WeylTwist

from oracles import cycle_lengths, e_coordinate_cokernel

KINDS = {"gl": 1, "sc": 2, "adjoint": 2}  # each kind's least n
QS = (2, 3, 4, 5, 7, 9, 11)


def _pairs(q):
    """(s, t) pairs with a unit: the four the builders take, and two more."""
    return ((1, -q), (q, -1), (-1, 1), (1, 1), (-1, q), (q, 1))


def _check(kind, perm, sign, q, smith_forms):
    twist = WeylTwist.from_permutation(kind, tuple(perm), sign)
    for s, t in _pairs(q):
        group = twist.cokernel(s, t)
        expected = e_coordinate_cokernel(kind, perm, sign, s, t)
        assert (group.free_rank, group.invariant_factors) == expected, (kind, perm, sign, s, t)
    # no Smith form on any kind
    assert smith_forms == [], (kind, perm)


def test_every_small_twist_agrees_with_its_presentation(smith_forms):
    cases = 0
    for kind, least in KINDS.items():
        for n in range(least, 5):
            for perm in permutations(range(n)):
                for sign in (1, -1):
                    for q in QS:
                        _check(kind, perm, sign, q, smith_forms)
                        cases += 6
    assert cases == 97 * 2 * len(QS) * 6


def _equal_cycles(rng, n):
    """A permutation of range(n) whose cycles all have one length, a divisor of n."""
    length, points = rng.choice([d for d in range(1, n + 1) if n % d == 0]), rng.sample(range(n), n)
    perm = [0] * n
    for start in range(0, n, length):
        cycle = points[start : start + length]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
    return perm


def test_seeded_twists_up_to_rank_12_agree_with_their_presentations(smith_forms):
    rng = random.Random(20261020)
    seen = set()
    for _ in range(60):
        kind, n = rng.choice(tuple(KINDS)), rng.randint(5, 12)
        perm = _equal_cycles(rng, n) if rng.random() < 0.3 else rng.sample(range(n), n)
        sign, q = rng.choice((1, -1)), rng.choice(QS)
        _check(kind, perm, sign, q, smith_forms)
        seen.add((kind, sign, len(set(cycle_lengths(perm))) > 1))
    # every kind at both signs, with one and with several distinct lengths
    assert len(seen) == 12, seen


@pytest.mark.parametrize("kind", KINDS)
def test_a_pair_with_no_unit_is_an_internal_error(kind):
    # a forged sign of 11 is the only way in: neither s * sign nor t is a unit
    forged = WeylTwist._make(kind, ((2, 1),), 11)
    with pytest.raises(LlcError) as exc:
        forged.cokernel(1, -11)
    assert (exc.value.code, exc.value.exit_code) == ("internal-error", 1)
