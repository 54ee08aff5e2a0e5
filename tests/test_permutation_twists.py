"""Signed permutation twists at high rank against their closed forms.

For w = eps * P with P a permutation matrix, the cokernels the match rests on
are read off the cycle type of P (`oracles.signed_permutation_cokernels`):
coker(w - q) = coker(q w^T - 1) is the sum of the Z/(q^l - eps^l), and
coker(1 - w) has a Z or a Z/2 for each cycle.  On the SL and PGL presets,
w = eps * sigma acts on e-coordinates, and `oracles.type_a_fixed_cokernel`
reads the same cokernels off the cycle type of sigma.  The net is
derandomized: each twist comes from a generator seeded by its case.  Every
twist is an explicit matrix in its preset's basis, read by `weyl_twist`;
small ones also go through `match --weyl`.  The widest, GL_3000 and GL_5000,
are built from their nonzeros.
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
from llc_params.rootdata import preset, weyl_twist

from oracles import (
    cycle_lengths,
    preset_twist_matrix,
    signed_cycle_cokernels,
    signed_permutation_cokernels,
    type_a_fixed_cokernel,
)

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
    twist = weyl_twist(preset("GL", n), IntMatrix(rows))
    _check_twist(twist, signed_permutation_cokernels(rows, q), q)


@pytest.mark.parametrize("n,eps,q", WIDE, ids=[f"gl{n}-eps{e:+d}-q{q}" for n, e, q in WIDE])
def test_wide_permutation_twists_have_closed_forms(n, eps, q):
    # row i holds eps in column image[i]: n nonzeros, where dense rows hold n^2
    image = random.Random(f"{n}/{eps}/{q}").sample(range(n), n)
    w = IntMatrix._make(tuple(((j, eps),) for j in image), n, n)
    _check_twist(weyl_twist(preset("GL", n), w), signed_cycle_cokernels(image, eps, q), q)


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
        rd = preset("GL", n)
        twist = weyl_twist(rd, IntMatrix(_signed_permutation(rng, n, eps)))
        cotwist = twist.transpose()
        ells = tuple(ell for ell in (3, 5, 7, 11, 13) if q % ell)
        components = component_descriptors(twist, q, ells)
        blocks = torus_block_descriptors(cotwist, q, ells)
        assert components == tuple(component_descriptor(twist, q, ell) for ell in ells)
        assert blocks == tuple(torus_block_descriptor(cotwist, q, ell) for ell in ells)
        for report in map(match_sides, components, blocks):
            assert report.isomorphic and report.free_ranks_agree and not report.context_mismatch
        orbit_ranks.add(components[0].orbit_torus_rank)
    assert 0 in orbit_ranks and max(orbit_ranks) > 1, orbit_ranks


# ---------------------------------------------------------------------------
# SL and PGL: w = eps * sigma on e-coordinates, against the cycle-type closed
# forms of `oracles.type_a_fixed_cokernel`


def _twist(family, perm, eps):
    """eps * sigma through `weyl_twist`, written densely in the preset's basis."""
    rd = preset(family, len(perm))
    return weyl_twist(rd, IntMatrix(preset_twist_matrix(family, perm, eps), cols=rd.rank))


_OTHER = {"SL": "PGL", "PGL": "SL"}


def _check_semisimple_twist(family, perm, eps, q):
    twist, lengths = _twist(family, perm, eps), cycle_lengths(perm)
    fixed = type_a_fixed_cokernel(family, lengths, eps, q)
    torus = type_a_fixed_cokernel(_OTHER[family], lengths, eps, q)
    assert fixed[0] == torus[0] == 0
    assert frob_fixed_scheme(twist, q) == FinGenAbGroup(*fixed)
    assert finite_torus(twist.transpose(), q) == FinGenAbGroup(*torus)
    # coker(1 - w) on either lattice is the simply connected formula at q = 1,
    # the adjoint one through coker(1 - w) = coker(1 - w^T)
    centralizer = type_a_fixed_cokernel("PGL", lengths, eps, 1)
    assert twisted_centralizer(twist) == FinGenAbGroup(*centralizer)
    ells = tuple(ell for ell in (3, 5, 7, 11, 13) if q % ell)
    components = component_descriptors(twist, q, ells)
    blocks = torus_block_descriptors(twist.transpose(), q, ells)
    for ell, component, block in zip(ells, components, blocks):
        assert component.mu.invariant_factors == _ell_part(fixed[1], ell), ell
        assert block.torsion.invariant_factors == _ell_part(torus[1], ell), ell
        assert match_sides(component, block).isomorphic, ell
    return fixed


def _semisimple_draws(seed, count, top):
    rng = random.Random(seed)
    return [
        (
            rng.choice(("SL", "PGL")),
            rng.sample(range(n), n),
            rng.choice((1, -1)),
            rng.choice((3, 5, 7, 9, 11, 25)),
        )
        for n in (rng.randint(2, top) for _ in range(count))
    ]


def test_small_semisimple_permutation_twists_have_closed_forms():
    draws = _semisimple_draws(20261019, 160, 9)
    for family, perm, eps, q in draws:
        _check_semisimple_twist(family, perm, eps, q)
    # both presets, both signs and fixed points, cycles of several lengths
    assert {(d[0], d[2]) for d in draws} == {(f, e) for f in ("SL", "PGL") for e in (1, -1)}
    assert any(1 in cycle_lengths(d[1]) for d in draws)


# (family, n, eps, q); the permutations are seeded by the case
SEMISIMPLE_HIGH_RANK = (
    ("SL", 30, 1, 3),
    ("PGL", 30, -1, 5),
    ("SL", 60, -1, 25),
    ("PGL", 100, 1, 3),
    ("SL", 200, 1, 9),
    ("PGL", 400, -1, 7),
    ("SL", 400, 1, 3),
    ("PGL", 1000, 1, 5),
    ("SL", 1000, -1, 3),
)


@pytest.mark.parametrize(
    "family,n,eps,q",
    SEMISIMPLE_HIGH_RANK,
    ids=[f"{f.lower()}{n}-eps{e:+d}-q{q}" for f, n, e, q in SEMISIMPLE_HIGH_RANK],
)
def test_high_rank_semisimple_permutation_twists_have_closed_forms(family, n, eps, q):
    perm = random.Random(f"{family}/{n}/{eps}/{q}").sample(range(n), n)
    _check_semisimple_twist(family, perm, eps, q)


@pytest.mark.parametrize("family,perm,eps,q,ell", [
    (f, p, e, q, ell) for f, p, e, q in _semisimple_draws(20261020, 8, 7)
    for ell in [next(ell for ell in (3, 5, 7, 11, 13) if q % ell)]
])
def test_small_semisimple_twists_through_match(family, perm, eps, q, ell):
    fixed = _check_semisimple_twist(family, perm, eps, q)
    rows = preset_twist_matrix(family, perm, eps)
    argv = ["match", "--group", family, "--n", str(len(perm)), "--q", str(q), "--ell", str(ell),
            "--weyl", json.dumps(rows)]
    out = io.StringIO()
    assert cli.run([*argv, "--output", "json"], stream=out) == 0
    payload = json.loads(out.getvalue())
    assert payload["component"]["fixedScheme"] == FinGenAbGroup(*fixed).to_json()
    mu = FinGenAbGroup(0, _ell_part(fixed[1], ell))
    assert payload["component"]["mu"] == payload["block"]["torsion"] == mu.to_json()
