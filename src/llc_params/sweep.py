"""The grid sweep: one-command reproduction of the computable grid claims.

Each check aggregates a family of exact assertions over the standard grid
(n up to 6, q in {3, 5, 7, 11, 13}, odd primes ell <= 19 coprime to q; the
parameter-level checks stop at n = 4).  Enumeration counts are re-derived
by a direct orbit walk.  Checks 2-4 hold the character side, coker(w - q)
and coker(1 - w), to closed forms and to the cocharacter side,
coker(q w^T - 1) and coker(1 - w^T); both read the one cycle type of w, so
they check the descriptors built on the cokernels, whose second route
(n-row presentations) is the oracle of tests/test_twist_cokernels.py.  The sweep
makes one pass over (n, q): each pair takes its cokernels once for all its
ells, and scans and walks each of its distinct exponent moduli once.  The
cocycle and support checks (5 and 8) read each integral exponent in one
pass, each keeping its own failures.  The parameter checks run the family
kernels of glparams on exponents, so they mint no record.
"""

from __future__ import annotations

import random

from .abgroups import FinGenAbGroup
from .arith import valuation
from .blocks import categorical_summaries
from .cocycles import component_descriptor
from .errors import FrozenRecord
from .glparams import FBAR, ZBAR, GLFamily, cocycle_law
from .rootdata import coxeter_twist, preset

GRID_Q = (3, 5, 7, 11, 13)
GRID_N_COMPONENT = (1, 2, 3, 4, 5, 6)
GRID_N_PARAMS = (1, 2, 3, 4)
SAMPLE_SEED = 20260817
SAMPLE_SIZE = 50


def admissible_ells(q: int) -> tuple[int, ...]:
    """Odd primes up to 19, excluding the characteristic of q."""
    return tuple(ell for ell in (3, 5, 7, 11, 13, 17, 19) if q % ell != 0)


class GridCheck(FrozenRecord):
    __slots__ = ("check_id", "label", "passed", "detail")

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


# the checks after the golden one: id, label, what their count counts, and how
# many failures the detail lists (None: all of them)
_CHECKS = (
    ("fixed-scheme-cyclic", "inertia fixed scheme is mu_{q^n - 1} for the GL_n shift twist",
     "cases", None),
    ("mu-exponent-law", "mu invariant equals Z/ell^{v_ell(q^n - 1)}", "cases", None),
    ("match-law", "component mu matches block torsion, free ranks agree", "cases", None),
    ("cocycle-relation", "y x y^{-1} = x^q for every enumerated integral parameter",
     "parameters", 3),
    ("count-oracle", "enumeration count = direct orbit walk = closed form", "cases", 3),
    ("lift-torsor", "each residue parameter has ell^k integral lifts; reduction returns",
     "sampled parameters", 3),
    ("nilpotent-support", "support is the diagonal iff the parameter is regular", "cases", 3),
)


def run_grid() -> list[GridCheck]:
    # 1: the golden component
    desc = component_descriptor(coxeter_twist(preset("GL", 2)), 11, 5)
    golden = GridCheck(
        "golden-component",
        "GL_2, q=11, ell=5: mu_120 fixed scheme, mu_5, G_m stabilizer",
        (desc.fixed_scheme, desc.mu, desc.stabilizer)
        == (FinGenAbGroup.cyclic(120), FinGenAbGroup.cyclic(5), FinGenAbGroup(1, ()))
        and desc.orbit_torus_rank == 1
        and desc.elliptic,
        f"fixed={desc.fixed_scheme.describe()}, mu={desc.mu.describe()}, "
        f"rank={desc.orbit_torus_rank}",
    )

    cases = {check_id: 0 for check_id, *_ in _CHECKS}
    bad: dict[str, list] = {check_id: [] for check_id, *_ in _CHECKS}

    def tally(check_id, count, failures):
        cases[check_id] += count
        bad[check_id] += failures

    rng = random.Random(SAMPLE_SEED)
    for n in GRID_N_COMPONENT:
        for q in GRID_Q:
            ells = admissible_ells(q)
            # 2-4: the fixed scheme is cyclic of order q^n - 1, the mu invariant
            # is cyclic of order ell^{v_ell(q^n - 1)}, and the two sides match.
            # One call takes the four ell-free cokernels of (n, q) once and
            # reads them at each ell; checks 2 and 3 read the match's components
            summaries = categorical_summaries(n, q, ells)
            fixed_ok = summaries[0].match.component.fixed_scheme == FinGenAbGroup.cyclic(q**n - 1)
            tally("fixed-scheme-cyclic", 1, [] if fixed_ok else [(n, q)])
            tally("mu-exponent-law", len(summaries), [
                (n, q, s.ell) for s in summaries
                if s.match.component.mu != FinGenAbGroup.cyclic(s.ell ** valuation(q**n - 1, s.ell))
            ])
            tally("match-law", len(summaries), [
                (n, q, s.ell) for s in summaries
                if not (s.match.isomorphic and s.match.free_ranks_agree
                        and not s.match.context_mismatch)
            ])
            if n not in GRID_N_PARAMS:
                continue

            # 5 and 8: the cocycle law holds on the diagonal of every
            # enumerated integral exponent, and the nilpotent support is the
            # diagonal exactly in the regular case.  One pass reads each
            # exponent for both checks, and each check keeps its own failures
            fam = GLFamily(n, q, ells[0])
            m = fam.full_modulus
            integral = fam.exponents(ZBAR)
            diagonal, support = fam.diagonal, fam.support
            diag = [(i, i) for i in range(1, n + 1)]
            broken, spread = [], []
            for a in integral:
                if not cocycle_law(diagonal(a), q, m):
                    broken.append((n, q, a))
                if support(ZBAR, a) != diag:
                    spread.append((n, q, a))
            tally("cocycle-relation", len(integral), broken)
            tally("nilpotent-support", len(integral), spread)
            if n >= 2:
                regular = len(support(ZBAR, 0)) <= n
                tally("nilpotent-support", 1, [(n, q, "degenerate")] if regular else [])

            # 6: enumeration counts agree with a direct orbit walk and the
            # closed form; 7: lifts form an ell^k torsor with a prime-to-ell
            # canonical point.  A scan and a walk depend only on the modulus,
            # q^n - 1 at every ell or the residue modulus at each: `moduli`
            # holds each distinct one's exponents and direct count, taken once
            moduli = {m: (integral, _direct_orbit_count(n, q, m))}
            for ell in ells:
                fam = GLFamily(n, q, ell)
                for coeff in (ZBAR, FBAR):
                    m = fam.modulus(coeff)
                    if m not in moduli:
                        moduli[m] = fam.exponents(coeff), _direct_orbit_count(n, q, m)
                    listed, direct, closed = len(moduli[m][0]), moduli[m][1], fam.count(coeff)
                    tally("count-oracle", 1, [] if listed == direct == closed
                          else [(n, q, ell, coeff, listed, direct, closed)])
                pool = moduli[fam.residue_modulus][0]
                sample = pool if len(pool) <= SAMPLE_SIZE else rng.sample(pool, SAMPLE_SIZE)
                # a residue exponent has ell^k lifts, each reducing to it, the
                # first one divisible by ell^k
                lk, torn = ell**fam.k, []
                for a in sample:
                    lifts = list(fam.lifts(a))
                    if not (len(lifts) == lk and all(fam.least(FBAR, e) == a for e in lifts)
                            and lifts[0] % lk == 0):
                        torn.append((n, q, ell, a))
                tally("lift-torsor", len(sample), torn)

    return [golden] + [
        GridCheck(check_id, label, not bad[check_id], f"{cases[check_id]} {noun}"
                  + (f"; failures: {bad[check_id][:shown]}" if bad[check_id] else ""))
        for check_id, label, noun, shown in _CHECKS
    ]
