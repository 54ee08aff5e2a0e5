"""The grid sweep: one-command reproduction of the computable grid claims.

Each check aggregates a family of exact assertions over the standard grid
(n up to 6, q in {3, 5, 7, 11, 13}, odd primes ell <= 19 coprime to q; the
parameter-level checks stop at n = 4).  Where a claim has two independent
routes the sweep runs both: enumeration counts are re-derived by a direct
orbit walk, and the component/block comparison pits the character-lattice
computation against the cocharacter one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .abgroups import FinGenAbGroup
from .arith import valuation
from .blocks import match_sides, torus_block_descriptor
from .cocycles import component_descriptor, frob_fixed_scheme, mu_invariant, FrobTorus
from .glparams import (
    FBAR,
    ZBAR,
    GLFamily,
    TrselpGL,
    lifts_in_component,
    matrices,
    nilpotent_support_fixed_positions,
    reduction,
    verify_cocycle,
)
from .rootdata import WeylTwist, coxeter_twist, preset

GRID_Q = (3, 5, 7, 11, 13)
GRID_N_COMPONENT = (1, 2, 3, 4, 5, 6)
GRID_N_PARAMS = (1, 2, 3, 4)
GRID_ELL_BOUND = 19
SAMPLE_SEED = 20260817
SAMPLE_SIZE = 50


def admissible_ells(q: int) -> tuple[int, ...]:
    """Odd primes up to the grid bound, excluding the characteristic of q."""
    out = []
    for ell in (3, 5, 7, 11, 13, 17, 19):
        if q % ell != 0:
            out.append(ell)
    return tuple(out)


@dataclass(frozen=True)
class GridCheck:
    check_id: str
    label: str
    passed: bool
    detail: str

    def to_json(self) -> dict:
        return {
            "id": self.check_id,
            "label": self.label,
            "pass": self.passed,
            "detail": self.detail,
        }


def _direct_orbit_count(n: int, q: int, modulus: int) -> int:
    """Count size-n orbits by sweeping with a visited table (oracle route)."""
    seen = bytearray(modulus)
    count = 0
    for a in range(modulus):
        if seen[a]:
            continue
        x = a
        size = 0
        while True:
            seen[x] = 1
            size += 1
            x = x * q % modulus
            if x == a:
                break
        if size == n:
            count += 1
    return count


def run_grid() -> list[GridCheck]:
    checks = []
    scan_cache: dict[tuple, list[int]] = {}
    integral: dict[GLFamily, list[TrselpGL]] = {}

    def exponents(fam, coeff):
        key = (fam, coeff)
        if key not in scan_cache:
            scan_cache[key] = list(fam.scan(coeff))
        return scan_cache[key]

    # 1: the golden component
    rd = preset("GL", 2)
    desc = component_descriptor(rd, coxeter_twist(rd), 11, 5)
    golden_ok = (
        (desc.fixed_scheme, desc.mu, desc.stabilizer)
        == (FinGenAbGroup.cyclic(120), FinGenAbGroup.cyclic(5), FinGenAbGroup(1, ()))
        and desc.orbit_torus_rank == 1
        and desc.elliptic
    )
    checks.append(
        GridCheck(
            "golden-component",
            "GL_2, q=11, ell=5: mu_120 fixed scheme, mu_5, G_m stabilizer",
            golden_ok,
            f"fixed={desc.fixed_scheme.describe()}, mu={desc.mu.describe()}, "
            f"rank={desc.orbit_torus_rank}",
        )
    )

    # 2: the fixed scheme is cyclic of order q^n - 1
    cases = 0
    bad = []
    for n in GRID_N_COMPONENT:
        for q in GRID_Q:
            rd = preset("GL", n)
            ell = admissible_ells(q)[0]
            ft = FrobTorus(n, coxeter_twist(rd), q, ell)
            cases += 1
            if frob_fixed_scheme(ft) != FinGenAbGroup.cyclic(q**n - 1):
                bad.append((n, q))
    checks.append(
        GridCheck(
            "fixed-scheme-cyclic",
            "inertia fixed scheme is mu_{q^n - 1} for the GL_n shift twist",
            not bad,
            f"{cases} cases" + (f"; failures: {bad}" if bad else ""),
        )
    )

    # 3: the mu invariant is cyclic of ell-power order ell^{v_ell(q^n-1)}
    cases = 0
    bad = []
    for n in GRID_N_COMPONENT:
        for q in GRID_Q:
            rd = preset("GL", n)
            for ell in admissible_ells(q):
                ft = FrobTorus(n, coxeter_twist(rd), q, ell)
                expected = FinGenAbGroup.cyclic(ell ** valuation(q**n - 1, ell))
                cases += 1
                if mu_invariant(ft) != expected:
                    bad.append((n, q, ell))
    checks.append(
        GridCheck(
            "mu-exponent-law",
            "mu invariant equals Z/ell^{v_ell(q^n - 1)}",
            not bad,
            f"{cases} cases" + (f"; failures: {bad}" if bad else ""),
        )
    )

    # 4: the two sides match across the grid
    cases = 0
    bad = []
    for n in GRID_N_COMPONENT:
        for q in GRID_Q:
            rd = preset("GL", n)
            tw = coxeter_twist(rd)
            cotw = WeylTwist(tw.matrix.transpose())
            for ell in admissible_ells(q):
                comp = component_descriptor(rd, tw, q, ell)
                block = torus_block_descriptor(n, cotw, q, ell, coxeter_number=n)
                report = match_sides(comp, block)
                cases += 1
                if not (report.isomorphic and report.free_ranks_agree and not report.context_mismatch):
                    bad.append((n, q, ell))
    checks.append(
        GridCheck(
            "match-law",
            "component mu matches block torsion, free ranks agree",
            not bad,
            f"{cases} cases" + (f"; failures: {bad}" if bad else ""),
        )
    )

    # 5: the cocycle relation holds for every enumerated parameter
    cases = 0
    bad = []
    for n in GRID_N_PARAMS:
        for q in GRID_Q:
            fam = GLFamily(n, q, admissible_ells(q)[0])
            integral[fam] = fam.parameters(ZBAR)
            for phi in integral[fam]:
                cases += 1
                if not verify_cocycle(matrices(phi), q):
                    bad.append((n, q, phi.a))
    checks.append(
        GridCheck(
            "cocycle-relation",
            "y x y^{-1} = x^q for every enumerated integral parameter",
            not bad,
            f"{cases} parameters" + (f"; failures: {bad[:3]}" if bad else ""),
        )
    )

    # 6: enumeration counts agree with a direct orbit walk and the closed form
    cases = 0
    bad = []
    for n in GRID_N_PARAMS:
        for q in GRID_Q:
            for ell in admissible_ells(q):
                fam = GLFamily(n, q, ell)
                for coeff in (ZBAR, FBAR):
                    listed = len(exponents(fam, coeff))
                    direct = _direct_orbit_count(n, q, fam.modulus(coeff))
                    closed = fam.count(coeff)
                    cases += 1
                    if not (listed == direct == closed):
                        bad.append((n, q, ell, coeff, listed, direct, closed))
    checks.append(
        GridCheck(
            "count-oracle",
            "enumeration count = direct orbit walk = closed form",
            not bad,
            f"{cases} cases" + (f"; failures: {bad[:3]}" if bad else ""),
        )
    )

    # 7: lifts form an ell^k torsor with a prime-to-ell canonical point
    rng = random.Random(SAMPLE_SEED)
    cases = 0
    bad = []
    for n in GRID_N_PARAMS:
        for q in GRID_Q:
            for ell in admissible_ells(q):
                fam = GLFamily(n, q, ell)
                pool = exponents(fam, FBAR)
                sample = pool if len(pool) <= SAMPLE_SIZE else rng.sample(pool, SAMPLE_SIZE)
                lk = ell**fam.k
                for a in sample:
                    phi = TrselpGL(fam, FBAR, a)
                    lifts = lifts_in_component(phi)
                    cases += 1
                    ok = (
                        len(lifts) == lk
                        and all(reduction(psi) == phi for psi in lifts)
                        and lifts[0].a % lk == 0
                    )
                    if not ok:
                        bad.append((n, q, ell, phi.a))
    checks.append(
        GridCheck(
            "lift-torsor",
            "each residue parameter has ell^k integral lifts; reduction returns",
            not bad,
            f"{cases} sampled parameters" + (f"; failures: {bad[:3]}" if bad else ""),
        )
    )

    # 8: nilpotent support is the diagonal exactly in the regular case
    cases = 0
    bad = []
    for n in GRID_N_PARAMS:
        for q in GRID_Q:
            fam = GLFamily(n, q, admissible_ells(q)[0])
            diag = [(i, i) for i in range(1, n + 1)]
            for phi in integral[fam]:
                cases += 1
                if nilpotent_support_fixed_positions(phi) != diag:
                    bad.append((n, q, phi.a))
            if n >= 2:
                degenerate = TrselpGL(fam, ZBAR, 0, 0)
                cases += 1
                if len(nilpotent_support_fixed_positions(degenerate)) <= n:
                    bad.append((n, q, "degenerate"))
    checks.append(
        GridCheck(
            "nilpotent-support",
            "support is the diagonal iff the parameter is regular",
            not bad,
            f"{cases} cases" + (f"; failures: {bad[:3]}" if bad else ""),
        )
    )

    return checks
