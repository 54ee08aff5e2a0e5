"""Seeded workload generation.

Each generator turns a seed into one cycle of CLI argument vectors; the
benchmark replays the cycle until its time is up, so every op in a run is
repeated and repeats must give byte-identical output.  The program never sees
the seed, only the generated argv.

Cycles are stratified: the seed chooses twists, (q, ell), moduli, offsets and
order inside fixed strata of similar cost, so that two seeds load the same
layers by about the same amount and the end-to-end figures of different seeds
can be compared.  Every op in the traffic is one that the program gets right
today; the known defects are listed separately by ``defects`` and run once
per run as a probe whose failures are reported but not timed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from oracles import (
    canonical_regular,
    closed_form_count,
    coxeter_element,
    det,
    factor,
    identity,
    is_prime,
    is_smooth,
    lattice_rank,
    nullity,
    orbit,
    permutation_matrix,
    random_word,
    shift,
    transpose,
    valuation,
)

ELLS = (3, 5, 7, 11, 13, 17, 19)


@dataclass
class Op:
    """One CLI invocation plus what the checks and the curves need to know."""

    argv: list[str]
    cmd: str
    family: str = "GL"
    n: int = 0
    q: int = 0
    ell: int = 0
    twist: list[list[int]] | None = None
    curve: str = ""
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if "--output" not in self.argv:
            self.argv = [*self.argv, "--output", "json"]

    def to_json(self) -> dict:
        return dict(self.__dict__)


def _odd_prime_powers(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    out = []
    for p in range(3, limit + 1, 2):
        if sieve[p]:
            x = p
            while x <= limit:
                out.append(x)
                x *= p
    return sorted(out)


def _weyl_arg(kind: str, w) -> str:
    return kind if kind in ("coxeter", "identity") else json.dumps(w, separators=(",", ":"))


def _twist(family: str, n: int, kind: str, rng: random.Random):
    if kind == "coxeter":
        return coxeter_element(family, n)
    if kind == "identity":
        return identity(lattice_rank(family, n))
    if family == "GL":
        perm = list(range(n))
        rng.shuffle(perm)
        return permutation_matrix(perm)
    word = random_word(family, n, rng)
    if kind == "elliptic":
        for _ in range(50):
            if nullity(shift(word, 1, 1)) == 0:
                return word
            word = random_word(family, n, rng)
        return coxeter_element(family, n)
    return word


def _geometry_args(family, n, q, ell):
    return ["--group", family, "--n", str(n), "--q", str(q), "--ell", str(ell)]


# ---------------------------------------------------------------------------
# rank-sweep: SNF-bound descriptors over the rank


RANK_GL = tuple(range(4, 25, 2))
RANK_SEMISIMPLE = tuple(range(2, 17, 2))
RANK_Q = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31)
# every prime factor of the fixed-scheme and finite-torus orders stays below
# this, so factoring is cheap and the sweep measures Smith normal forms
SMOOTH_BOUND = 10**6


def _smooth_q(w, rng: random.Random, need_block: bool) -> int | None:
    for q in rng.sample(RANK_Q, len(RANK_Q)):
        orders = [det(shift(w, 1, q))]
        if need_block:
            orders.append(det(shift(transpose(w), q, 1)))
        if all(is_smooth(abs(d), SMOOTH_BOUND) for d in orders):
            return q
    return None


def rank_sweep(seed: int) -> list[Op]:
    """Component, block and match at every rank.

    The twist kind is fixed per (family, rank, command), so every seed runs
    the same mix of cheap identity twists and costlier ones; the seed draws
    the random twists, q, ell and the order.
    """
    rng = random.Random(seed)
    ops = []
    for family, ranks in (("GL", RANK_GL), ("SL", RANK_SEMISIMPLE), ("PGL", RANK_SEMISIMPLE)):
        for i, n in enumerate(ranks):
            for cmd in ("component", "block", "match"):
                if family == "GL" and cmd != "component":
                    kind = "coxeter"  # the GL block is pinned to Coxeter: see defects()
                elif cmd == "match":
                    kind = ("coxeter", "elliptic")[i % 2]
                else:
                    kind = ("coxeter", "identity", "random")[(i + (cmd == "block")) % 3]
                for _ in range(20):
                    w = _twist(family, n, kind, rng)
                    q = _smooth_q(w, rng, cmd != "component")
                    if q is not None:
                        break
                else:
                    raise RuntimeError(f"no smooth q for {family}_{n} {cmd}")
                ell = rng.choice([e for e in ELLS if q % e])
                argv = [cmd, *_geometry_args(family, n, q, ell), "--weyl", _weyl_arg(kind, w)]
                ops.append(
                    Op(argv, cmd, family, n, q, ell, w, curve=f"{family} n={n:02d}",
                       extra={"twist": kind})
                )
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# param-scan: canonical scans, parameter construction, page rendering


SCAN_N = (2, 3, 4, 6)
SCAN_Q = _odd_prime_powers(2500)
VERIFY_MAX_MODULUS = 10**5
SHALLOW_BAND = (10**5, 10**6)
SHALLOW_LIMIT = 2000
# the rank of each shallow page: a page's cost depends on n
SHALLOW_N = (2, 2, 3, 4, 6)
# (modulus band, n, exponent the scan reaches): a scan's cost is about the
# number of exponents it visits, at a cost per exponent that depends on n and
# on how far into the modulus it is; fixing n, the band and the exponent
# reached keeps the cost of each stratum nearly the same for every seed
DEEP_STRATA = (
    ((2_000, 8_000), 4, 1_000),
    ((285_000, 315_000), 3, 80_000),
    ((950_000, 1_050_000), 2, 290_000),
    ((2_400_000, 2_600_000), 2, 570_000),
    ((4_500_000, 5_000_000), 4, 420_000),
)
DEEP_LIMIT = 100


def _families():
    """Every (n, q, ell, coeff, modulus) with a modulus under 5.1e6."""
    out = []
    for n in SCAN_N:
        for q in SCAN_Q:
            full = q**n - 1
            if full > 5_100_000:
                break
            for ell in ELLS:
                if q % ell == 0:
                    continue
                out.append((n, q, ell, "zbar", full))
                out.append((n, q, ell, "fbar", full // ell ** valuation(full, ell)))
    return out


def _modulus_bucket(m: int) -> str:
    for hi, label in ((10**4, "1e3-1e4"), (10**5, "1e4-1e5"), (10**6, "1e5-1e6")):
        if m < hi:
            return label
    return "1e6-5e6"


def _enumerate_op(fam, offset, limit):
    n, q, ell, coeff, m = fam
    argv = ["enumerate", "--n", str(n), "--q", str(q), "--ell", str(ell),
            "--coeff", coeff, "--offset", str(offset), "--limit", str(limit)]
    return Op(argv, "enumerate", "GL", n, q, ell, curve=f"modulus {_modulus_bucket(m)}",
              extra={"coeff": coeff, "offset": offset, "limit": limit})


def param_scan(seed: int) -> list[Op]:
    rng = random.Random(seed)
    fams = _families()
    ops = []

    small = [f for f in fams if f[3] == "zbar" and f[4] <= VERIFY_MAX_MODULUS]
    for regular in (True, True, False, False):
        n, q, ell, _, m = rng.choice(small)
        if regular:
            reps = canonical_regular(n, q, m) if m <= 20_000 else None
            a = rng.choice(reps) if reps else _regular_exponent(n, q, m, rng)
        else:
            a = _irregular_exponent(n, q, m, rng)
        b = rng.randrange(m)
        argv = ["verify", "--n", str(n), "--q", str(q), "--ell", str(ell),
                "--a", str(a), "--b", str(b)]
        ops.append(Op(argv, "verify", "GL", n, q, ell, curve="verify",
                      extra={"a": a}))

    lo, hi = SHALLOW_BAND
    for n in SHALLOW_N:
        fam = rng.choice([f for f in fams if f[0] == n and lo <= f[4] < hi])
        ops.append(_enumerate_op(fam, rng.randrange(1000), SHALLOW_LIMIT))

    for (lo, hi), n, reach in DEEP_STRATA:
        fam = rng.choice([f for f in fams if f[0] == n and lo <= f[4] < hi])
        m = fam[4]
        # about 1 - (1 - a/m)^(n-1) of the exponents near a are not orbit
        # minima, so about this many minima lie below the exponent reached
        below = closed_form_count(n, fam[1], m) * (1 - (1 - reach / m) ** n)
        ops.append(_enumerate_op(fam, int(below), DEEP_LIMIT))

    rng.shuffle(ops)
    return ops


def _regular_exponent(n, q, m, rng):
    for _ in range(1000):
        a = rng.randrange(m)
        if len(orbit(a, q, m)) == n:
            return a
    raise RuntimeError(f"no regular exponent found for n={n} q={q}")


def _irregular_exponent(n, q, m, rng):
    """An exponent fixed by q^d for a proper divisor d of n >= 2."""
    d = rng.choice([d for d in range(1, n) if n % d == 0])
    step = m // math.gcd(q**d - 1, m)
    return step * rng.randrange(m // step)


# ---------------------------------------------------------------------------
# grid: the one-command reproduction, as a user runs it

GRID_FORMS = (
    ["--grid", "--output", "json"],
    ["--output", "json", "--grid"],
    ["grid", "--output", "json"],
    ["--output", "json", "grid"],
)
GRID_OPS = 2


def grid(seed: int) -> list[Op]:
    rng = random.Random(seed)
    return [Op(list(argv), "grid", curve="grid") for argv in rng.sample(GRID_FORMS, GRID_OPS)]


# ---------------------------------------------------------------------------
# rough-moduli: factoring-bound descriptors in fresh processes

# GL_n Coxeter inputs whose q^n - 1 has a large prime factor (20 to 45 bits)
# but whose component still finishes in well under a second.  Every cycle
# runs all of them with both commands: a seed-drawn subset changed the
# median by a quarter from seed to seed, because the ops' costs overlap too
# much to be grouped into strata of equal cost.  The seed draws each input's
# ell, the large prime q below, and the order.  An input's ell divides
# q^n - 1 whenever some ell in ELLS does: a nontrivial ell-part costs an
# input up to 1.7 times as much, so leaving it to the seed made the slowest
# ops, and the tail, differ from seed to seed.
ROUGH_INPUTS = ((13, 9), (15, 41), (13, 31), (14, 47), (17, 17),
                (17, 27), (11, 47), (11, 23), (17, 13), (11, 29))
# GL_2 with a prime q near 10^12: trial division of q itself dominates
LARGE_Q_RANGE = (10**12, 11 * 10**11)


def _large_prime_q(rng: random.Random) -> int:
    """A prime q in LARGE_Q_RANGE whose q^2 - 1 is cheap to factor next to q."""
    lo, hi = LARGE_Q_RANGE
    while True:
        q = rng.randrange(lo, hi) | 1
        while not is_prime(q):
            q += 2
        primes = factor(q * q - 1)
        if primes and max(primes[-2], primes[-1] ** 0.5) <= q**0.5 / 4:
            return q


def largest_prime_bits(n: int, q: int) -> int:
    primes = factor(q**n - 1, max_steps=2_000_000)
    return primes[-1].bit_length() if primes else 0


def rough_moduli(seed: int) -> list[Op]:
    rng = random.Random(seed)
    large_q = _large_prime_q(rng)
    ops = []
    for n, q in (*ROUGH_INPUTS, (2, large_q)):
        coprime = [e for e in ELLS if q % e]
        ell = rng.choice([e for e in coprime if (q**n - 1) % e == 0] or coprime)
        if n == 2:
            curve = f"q prime {q.bit_length()} bits"
        else:
            curve = f"largest prime {largest_prime_bits(n, q):02d} bits"
        for cmd in ("component", "match"):
            argv = [cmd, *_geometry_args("GL", n, q, ell), "--weyl", "coxeter"]
            ops.append(Op(argv, cmd, "GL", n, q, ell, coxeter_element("GL", n),
                          curve=curve, extra={"twist": "coxeter"}))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "rank-sweep": (rank_sweep, "inproc"),
    "param-scan": (param_scan, "inproc"),
    "grid": (grid, "subproc"),
    "rough-moduli": (rough_moduli, "subproc"),
}


# ---------------------------------------------------------------------------
# known defects: kept in every run of their workload, reported by name


DEFECT_BUDGET_S = 1.5


def defects(workload: str, seed: int) -> list[tuple[str, Op]]:
    rng = random.Random(seed ^ 0x5EED)
    if workload == "rank-sweep":
        n = rng.choice(RANK_GL[:4])
        perm = list(range(1, n))
        rng.shuffle(perm)
        w = permutation_matrix([0, *perm])  # a fixed point: never a Coxeter element
        geo = _geometry_args("GL", n, 7, 3)
        sl = ["match", *_geometry_args("SL", 4, 7, 3), "--weyl", "identity"]
        return [
            # the GL block is pinned to the Coxeter torus whatever the twist
            ("gl-match-non-coxeter", Op(["match", *geo, "--weyl", _weyl_arg("random", w)],
                                        "match", "GL", n, 7, 3, w)),
            ("gl-block-non-coxeter", Op(["block", *geo, "--weyl", "identity"],
                                        "block", "GL", n, 7, 3, identity(n))),
            # the semisimple block has free rank 0 even when the twist fixes vectors
            ("sl-match-non-elliptic", Op(sl, "match", "SL", 4, 7, 3, identity(3))),
        ]
    if workload == "param-scan":
        a = rng.randrange(1, 38)
        argv = ["verify", "--n", "3", "--q", "7", "--ell", "3", "--coeff", "fbar",
                "--a", str(a), "--b", "0"]
        return [("verify-fbar", Op(argv, "verify", "GL", 3, 7, 3, extra={"coeff": "fbar", "a": a}))]
    if workload == "rough-moduli":
        return [
            ("hang-gl17-q11", Op(["component", *_geometry_args("GL", 17, 11, 3)],
                                 "component", "GL", 17, 11, 3, coxeter_element("GL", 17))),
            ("hang-gl2-q1e18", Op(["component", *_geometry_args("GL", 2, 10**18 + 3, 3)],
                                  "component", "GL", 2, 10**18 + 3, 3, coxeter_element("GL", 2))),
        ]
    return []
