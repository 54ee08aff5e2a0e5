"""Signed permutation twists at high rank against their closed forms.

For w = eps * P with P a permutation matrix, the cokernels the match rests on
are read off the cycle type of P (`oracles.signed_permutation_cokernels`):
coker(w - q) = coker(q w^T - 1) is the sum of the Z/(q^l - eps^l), and
coker(1 - w) has a Z or a Z/2 for each cycle.  The net is derandomized: each
twist comes from a generator seeded by its case.  High-rank twists are built
with `WeylTwist`, since `weyl_twist`'s root check maps all n(n - 1) roots;
small ones also go through `weyl_twist` and through `match --weyl`.  The
widest, GL_3000 and GL_5000, are built from their nonzeros.
"""

import io
import json
import random

import pytest

from llc_params import cli
from llc_params.abgroups import FinGenAbGroup
from llc_params.blocks import (
    finite_torus,
    match_sides,
    torus_block_descriptor,
    torus_block_descriptors,
)
from llc_params.cocycles import (
    component_descriptor,
    component_descriptors,
    frob_fixed_scheme,
    twisted_centralizer,
)
from llc_params.lattice import IntMatrix
from llc_params.rootdata import WeylTwist, preset, weyl_twist

from oracles import signed_cycle_cokernels, signed_permutation_cokernels

# (n, eps, q): both signs and q in {3, 5, 9, 25, 27}
HIGH_RANK = (
    (50, 1, 3),
    (50, -1, 25),
    (80, -1, 5),
    (120, 1, 9),
    (200, -1, 27),
    (300, 1, 25),
    (500, -1, 3),
    (700, 1, 27),
    (1000, -1, 9),
    (1000, 1, 5),
)
WIDE = ((3000, 1, 5), (5000, -1, 3))


def _signed_permutation(rng, n, eps):
    perm = rng.sample(range(n), n)
    return [[eps if j == perm[i] else 0 for j in range(n)] for i in range(n)]


def _ell_part(orders, ell):
    """The ell-primary invariant factors of the sum of the Z/a, a > 0."""
    out = []
    for a in orders:
        power = 1
        while a % (power * ell) == 0:
            power *= ell
        if power > 1:
            out.append(power)
    return tuple(sorted(out))


def _check_twist(twist, expected, q):
    fixed, centralizer = expected
    scheme = frob_fixed_scheme(twist, q)
    torus = finite_torus(twist.transpose(), q)
    assert scheme == torus == FinGenAbGroup(0, fixed)
    assert twisted_centralizer(twist) == FinGenAbGroup(0, centralizer)
    # the ell-parts that match compares: mu on characters, block torsion on
    # cocharacters
    for ell in (3, 5, 7, 11, 13):
        if q % ell:
            expected = _ell_part(fixed, ell)
            assert scheme.ell_primary(ell).invariant_factors == expected, ell
            assert torus.ell_primary(ell).invariant_factors == expected, ell
    return fixed, centralizer


@pytest.mark.parametrize("n,eps,q", HIGH_RANK,
                         ids=[f"gl{n}-eps{e:+d}-q{q}" for n, e, q in HIGH_RANK])
def test_high_rank_permutation_twists_have_closed_forms(n, eps, q):
    rows = _signed_permutation(random.Random(f"{n}/{eps}/{q}"), n, eps)
    _check_twist(WeylTwist(IntMatrix(rows)), signed_permutation_cokernels(rows, q), q)


@pytest.mark.parametrize("n,eps,q", WIDE, ids=[f"gl{n}-eps{e:+d}-q{q}" for n, e, q in WIDE])
def test_wide_permutation_twists_have_closed_forms(n, eps, q):
    # row i holds eps in column image[i]: n nonzeros, where dense rows hold n^2
    image = random.Random(f"{n}/{eps}/{q}").sample(range(n), n)
    w = IntMatrix._trusted(tuple(((j, eps),) for j in image), n)
    _check_twist(WeylTwist(w), signed_cycle_cokernels(image, eps, q), q)


def _small_draws():
    rng = random.Random(20261018)
    draws = []
    for _ in range(16):
        n, eps, q = rng.randint(1, 8), rng.choice((1, -1)), rng.choice((3, 5, 9, 25, 27))
        ell = rng.choice([ell for ell in (3, 5, 7, 11, 13) if q % ell])
        draws.append((n, q, ell, _signed_permutation(rng, n, eps)))
    return draws


@pytest.mark.parametrize("n,q,ell,rows", _small_draws())
def test_small_permutation_twists_through_weyl_twist_and_match(n, q, ell, rows):
    twist = weyl_twist(preset("GL", n), IntMatrix(rows))
    fixed, centralizer = _check_twist(twist, signed_permutation_cokernels(rows, q), q)
    mu = FinGenAbGroup(0, _ell_part(fixed, ell))
    argv = ["match", "--n", str(n), "--q", str(q), "--ell", str(ell), "--weyl", json.dumps(rows)]

    out = io.StringIO()
    assert cli.run([*argv, "--output", "json"], stream=out) == 0
    payload = json.loads(out.getvalue())
    component = payload["component"]
    assert component["fixedScheme"] == FinGenAbGroup(0, fixed).to_json()
    assert component["stabilizer"] == FinGenAbGroup(0, centralizer).to_json()
    assert component["mu"] == payload["block"]["torsion"] == mu.to_json()

    out = io.StringIO()
    assert cli.run(argv, stream=out) == 0
    lines = out.getvalue().splitlines()
    assert f"  mu character group: {mu.describe()}" in lines
    assert f"  block torsion:      {mu.describe()}" in lines


def test_the_ell_free_route_equals_the_one_ell_route():
    # the descriptor builders take their cokernels once for a tuple of ells;
    # on a seeded draw, read at every admissible ell, that equals one call
    # per ell, for twists that fix no direction and for non-Coxeter twists
    # that fix several
    rng = random.Random(20261019)
    orbit_ranks = set()
    for _ in range(16):
        n, eps, q = rng.randint(1, 8), rng.choice((1, -1)), rng.choice((3, 5, 9, 25, 27))
        rd, twist = preset("GL", n), WeylTwist(IntMatrix(_signed_permutation(rng, n, eps)))
        cotwist = twist.transpose()
        ells = tuple(ell for ell in (3, 5, 7, 11, 13) if q % ell)
        components = component_descriptors(rd, twist, q, ells)
        blocks = torus_block_descriptors(cotwist, q, ells, coxeter_number=n)
        assert components == tuple(component_descriptor(rd, twist, q, ell) for ell in ells)
        assert blocks == tuple(
            torus_block_descriptor(cotwist, q, ell, coxeter_number=n) for ell in ells
        )
        for report in map(match_sides, components, blocks):
            assert report.isomorphic and report.free_ranks_agree and not report.context_mismatch
        orbit_ranks.add(components[0].orbit_torus_rank)
    assert 0 in orbit_ranks and max(orbit_ranks) > 1, orbit_ranks
