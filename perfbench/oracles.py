"""Independent arithmetic used to generate inputs and to check outputs.

Nothing here imports llc_params.  The routes differ on purpose from the
program's: determinants and ranks by Gaussian elimination over Fraction
instead of Smith normal form, factoring by Pollard-Brent rho instead of trial
division, orbit counts by a visited-table walk as well as by Moebius
inversion, and Weyl group elements built from reflections written out from
their definition.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

SMALL_PRIMES = tuple(p for p in range(2, 1000) if all(p % d for d in range(2, math.isqrt(p) + 1)))
# deterministic Miller-Rabin bases: correct for every n < 3.3e24
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


# ---------------------------------------------------------------------------
# linear algebra over Q


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def shift(a, s: int, c: int):
    """s * a - c * identity."""
    return [[s * x - (c if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(a)]


def _echelon(rows):
    """Row-reduce over Q; return (rank, determinant of the square case)."""
    m = [[Fraction(x) for x in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    det = Fraction(1)
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        det *= m[r][c]
        inv = 1 / m[r][c]
        for i in range(r + 1, n_rows):
            f = m[i][c] * inv
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == n_rows:
            break
    return r, det


def det(rows) -> int:
    if not rows:
        return 1
    _, d = _echelon(rows)
    if d.denominator != 1:
        raise ArithmeticError("integer matrix with a non-integral determinant")
    return int(d)


def nullity(rows) -> int:
    """Dimension of the kernel of a square integer matrix over Q."""
    rank, _ = _echelon(rows)
    return len(rows) - rank


# ---------------------------------------------------------------------------
# number theory


def valuation(n: int, p: int) -> int:
    v = 0
    n = abs(n)
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def ell_part(n: int, ell: int) -> int:
    return ell ** valuation(n, ell)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int, rng: random.Random, max_steps: int) -> int | None:
    """One nontrivial factor of the odd composite n by Brent's rho, or None."""
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g, r, q, steps = 1, 1, 1, 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
            steps += r
            if steps > max_steps:
                return None
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factor(n: int, max_steps: int = 200_000) -> list[int] | None:
    """Prime factors of n >= 1 with multiplicity, ascending; None if rho gives up."""
    out = []
    for p in SMALL_PRIMES:
        while n % p == 0:
            out.append(p)
            n //= p
    rng = random.Random(n)
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.append(m)
            continue
        f = _rho(m, rng, max_steps)
        if f is None:
            return None
        stack.extend((f, m // f))
    return sorted(out)


def is_smooth(n: int, bound: int) -> bool:
    """True when every prime factor of n is below bound (False if unknown)."""
    primes = factor(n, max_steps=20 * math.isqrt(bound))
    return primes is not None and all(p < bound for p in primes)


def moebius(n: int) -> int:
    primes = factor(n)
    if len(set(primes)) != len(primes):
        return 0
    return -1 if len(primes) % 2 else 1


def closed_form_count(n: int, q: int, modulus: int) -> int:
    """Number of q-power orbits of size exactly n on Z/modulus."""
    total = sum(
        moebius(n // d) * math.gcd(q**d - 1, modulus) for d in range(1, n + 1) if n % d == 0
    )
    return total // n


def orbit(a: int, q: int, modulus: int) -> list[int]:
    out = [a]
    x = a * q % modulus
    while x != a:
        out.append(x)
        x = x * q % modulus
    return out


def canonical_regular(n: int, q: int, modulus: int) -> list[int]:
    """Orbit minima of the size-n orbits, ascending, by a visited-table walk."""
    seen = bytearray(modulus)
    reps = []
    for a in range(modulus):
        if seen[a]:
            continue
        orb = orbit(a, q, modulus)
        for x in orb:
            seen[x] = 1
        if len(orb) == n:
            reps.append(a)
    return reps


def is_regular_minimum(a: int, n: int, q: int, modulus: int) -> bool:
    orb = orbit(a, q, modulus)
    return len(orb) == n and a == min(orb)


# ---------------------------------------------------------------------------
# Weyl groups of the three preset families, on the lattice the CLI uses


def cartan_a(m: int) -> list[list[int]]:
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(m)] for i in range(m)]


def lattice_rank(family: str, n: int) -> int:
    return n if family == "GL" else n - 1


def simple_reflections(family: str, n: int) -> list[tuple[list[int], list[int]]]:
    """(root, coroot) of each simple reflection s(x) = x - <x, coroot> root.

    GL uses the coordinate basis (e_i - e_{i+1} is its own coroot).  The SL
    input has the adjoint dual datum in the simple-root basis (roots e_i,
    coroots the Cartan columns); the PGL input has the simply connected dual
    datum in the fundamental-weight basis (roots the Cartan columns,
    coroots e_i).
    """
    if family == "GL":
        gens = []
        for i in range(n - 1):
            v = [0] * n
            v[i], v[i + 1] = 1, -1
            gens.append((v, v))
        return gens
    m = n - 1
    cartan = cartan_a(m)
    gens = []
    for i in range(m):
        col = [cartan[k][i] for k in range(m)]
        e = [int(k == i) for k in range(m)]
        gens.append((e, col) if family == "SL" else (col, e))
    return gens


def _times_reflection(w, root, coroot):
    """w @ (1 - root coroot^T), as a rank-one update."""
    wr = [sum(a * b for a, b in zip(row, root)) for row in w]
    return [[x - k * c for x, c in zip(row, coroot)] for row, k in zip(w, wr)]


def coxeter_element(family: str, n: int) -> list[list[int]]:
    w = identity(lattice_rank(family, n))
    for root, coroot in simple_reflections(family, n):
        w = _times_reflection(w, root, coroot)
    return w


def permutation_matrix(perm: list[int]) -> list[list[int]]:
    """The matrix sending e_j to e_perm[j]."""
    n = len(perm)
    return [[int(perm[j] == i) for j in range(n)] for i in range(n)]


def random_word(family: str, n: int, rng: random.Random) -> list[list[int]]:
    gens = simple_reflections(family, n)
    w = identity(lattice_rank(family, n))
    for _ in range(rng.randint(len(gens), 3 * len(gens))):
        w = _times_reflection(w, *gens[rng.randrange(len(gens))])
    return w
