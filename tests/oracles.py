"""Independent oracles used by the test suite.

Everything here is deliberately written from scratch on top of the standard
library, with different algorithms than the package under test (Gauss over
Fraction instead of Bareiss, cofactor adjugates, determinantal divisors and
coset enumeration instead of Smith normal form, linear scans instead of
closed-form counts, the closed-form GL_n block instead of the twisted
torus, cycle-type closed forms for type A twists, the root-datum axioms
checked by hand).  Nothing in this module imports from llc_params.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


def gauss_det(rows) -> int:
    """Determinant over Q by plain Gaussian elimination, returned as int.

    >>> gauss_det([[2, 0], [1, 3]])
    6
    >>> gauss_det([[1, 2], [2, 4]])
    0
    """
    n = len(rows)
    if n == 0:
        return 1
    m = [[Fraction(x) for x in row] for row in rows]
    if any(len(row) != n for row in m):
        raise ValueError("square matrix required")
    det = Fraction(1)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    assert det.denominator == 1
    return int(det)


def _minor(rows, i, j):
    return [[row[c] for c in range(len(row)) if c != j] for r, row in enumerate(rows) if r != i]


def adjugate(rows):
    """Classical adjugate via cofactors: adj(A)[i][j] = (-1)^(i+j) det(M_ji).

    Satisfies adj(A) @ A = det(A) * I.

    >>> adjugate([[2, 1], [5, 3]])
    [[3, -1], [-5, 2]]
    """
    n = len(rows)
    if n == 1:
        return [[1]]
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sign = -1 if (i + j) % 2 else 1
            out[i][j] = sign * gauss_det(_minor(rows, j, i))
    return out


def determinantal_divisors(rows, cols=None):
    """[D_1, ..., D_m]: D_k is the gcd of all k x k minors, m = min(rows, cols).

    No elimination over Z: every minor is a gauss_det over Q.  D_k = 0 means
    every k x k minor vanishes, and then so does every larger one.  The
    Smith invariants are d_k = D_k / D_{k-1} (see smith_invariants_by_minors).
    ``cols`` is needed only when there are no rows.

    >>> determinantal_divisors([[2, 4], [6, 8]])
    [2, 8]
    >>> determinantal_divisors([[1, 2], [2, 4]])
    [1, 0]
    """
    r = len(rows)
    c = len(rows[0]) if rows else (cols or 0)
    out = []
    for k in range(1, min(r, c) + 1):
        if out and out[-1] == 0:
            out.append(0)
            continue
        g = 0
        for ri in combinations(range(r), k):
            for ci in combinations(range(c), k):
                g = gcd(g, gauss_det([[rows[i][j] for j in ci] for i in ri]))
                if g == 1:
                    break
            if g == 1:
                break
        out.append(g)
    return out


def smith_invariants_by_minors(rows, cols=None):
    """Smith invariants d_k = D_k / D_{k-1} from the determinantal divisors.

    >>> smith_invariants_by_minors([[2, 0], [0, 3]])
    (1, 6)
    >>> smith_invariants_by_minors([], cols=2)
    ()
    """
    out = []
    prev = 1
    for d in determinantal_divisors(rows, cols):
        out.append(d // prev if d else 0)
        prev = d
    return tuple(out)


def gln_block_descriptor(n: int, q: int, ell: int) -> dict:
    """Closed-form GL_n block data at the Coxeter torus, as block JSON.

    The elliptic finite torus is cyclic of order q^n - 1; the block carries
    its ell-part Z/ell^k, k = v_ell(q^n - 1), and one free direction.  The
    applicability flags are left out.

    >>> gln_block_descriptor(2, 11, 5)["torsion"]
    {'freeRank': 0, 'torsion': [5]}
    """
    order = q**n - 1
    k = 0
    while order % ell ** (k + 1) == 0:
        k += 1
    return {
        "torsion": {"freeRank": 0, "torsion": [ell**k] if k else []},
        "freeRank": 1,
        "finiteTorusOrder": order,
        "k": k,
    }


def _prime_factors(n: int) -> dict:
    """Multiset of prime factors of n >= 1 as {p: multiplicity}."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primary_invariant_factors(factors) -> tuple[int, list]:
    """(free rank, invariant factors) of the sum of the Z/d, by primary parts.

    Z/0 = Z adds free rank.  Each d >= 1 splits into prime powers; the i-th
    largest power of every prime goes into the i-th largest invariant factor.

    >>> primary_invariant_factors([4, 2, 3, 0, 1])
    (1, [2, 12])
    """
    free = sum(1 for d in factors if d == 0)
    powers = {}
    for d in factors:
        if d:
            for p, mult in _prime_factors(d).items():
                powers.setdefault(p, []).append(p**mult)
    depth = max((len(v) for v in powers.values()), default=0)
    chain = [1] * depth
    for v in powers.values():
        for i, pe in enumerate(sorted(v, reverse=True)):
            chain[depth - 1 - i] *= pe
    return free, chain


def coset_group_structure(rows):
    """Invariant factors of Z^r / (column span of A) for square nonsingular A.

    No Smith normal form: embed the cokernel into (Z/|det|)^r through the
    adjugate (adj(A)*v = 0 mod det iff v is in the column span), enumerate
    the image by breadth-first closure, and read off each prime part from
    annihilator counts.  Returns the ascending invariant factor list, e.g.
    [2, 12].  Cost is O(|det| * r) so keep |det| small.

    >>> coset_group_structure([[2, 0], [0, 4]])
    [2, 4]
    >>> coset_group_structure([[1, -1], [-1, -11]])
    [12]
    """
    r = len(rows)
    d = abs(gauss_det(rows))
    if d == 0:
        raise ValueError("nonsingular matrix required")
    if d == 1:
        return []
    adj = adjugate(rows)
    # generators of the embedded cokernel: images of the standard basis
    gens = [tuple(adj[i][j] % d for i in range(r)) for j in range(r)]
    zero = (0,) * r
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple((a + b) % d for a, b in zip(v, g))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    assert len(seen) == d, f"coset count {len(seen)} != |det| {d}"
    elements = list(seen)

    # per prime: annihilator counts give the conjugate partition
    exponents_by_prime = {}
    for p, mult in _prime_factors(d).items():
        conjugate = []
        prev_count = 1
        power = 1
        for _ in range(mult):
            power *= p
            count = sum(1 for v in elements if all((power * a) % d == 0 for a in v))
            step = count // prev_count
            if step == 1:
                break
            t = 0
            while p**t != step:
                t += 1
            conjugate.append(t)
            prev_count = count
        # conjugate partition -> exponent partition (descending)
        exps = []
        for j, t in enumerate(conjugate, start=1):
            # t = number of cyclic p-factors with exponent >= j
            while len(exps) < t:
                exps.append(0)
            for i in range(t):
                exps[i] = j
        exponents_by_prime[p] = sorted(exps, reverse=True)

    # recombine largest-with-largest into invariant factors
    width = max(len(v) for v in exponents_by_prime.values())
    factors = []
    for i in range(width):
        f = 1
        for p, exps in exponents_by_prime.items():
            if i < len(exps):
                f *= p ** exps[i]
        factors.append(f)
    return sorted(factors)


def brute_orbit_reps(n: int, q: int, modulus: int):
    """All canonical representatives of size-n multiplication-by-q orbits.

    Linear scan over Z/modulus with a visited table; the canonical
    representative of an orbit is its minimum.

    >>> brute_orbit_reps(1, 11, 2)
    [0, 1]
    """
    visited = bytearray(modulus)
    reps = []
    for a in range(modulus):
        if visited[a]:
            continue
        orbit = [a]
        x = a * q % modulus
        while x != a:
            orbit.append(x)
            x = x * q % modulus
        for x in orbit:
            visited[x] = 1
        if len(orbit) == n:
            reps.append(a)
    return reps


def brute_count(n: int, q: int, modulus: int) -> int:
    """Number of size-n multiplication-by-q orbits in Z/modulus.

    >>> brute_count(2, 11, 24)
    11
    >>> brute_count(2, 11, 120)
    55
    """
    return len(brute_orbit_reps(n, q, modulus))


def monomial_product(x, y, modulus: int):
    """The product x y of monomial matrices, each given as {row: (col, exponent)}.

    The entry of a monomial matrix in row i is zeta^exponent in column col;
    exponents are reduced mod the order of zeta.

    >>> monomial_product({0: (1, 2), 1: (0, 3)}, {0: (1, 5), 1: (0, 7)}, 10)
    {0: (0, 9), 1: (1, 8)}
    """
    out = {}
    for i, (k, e) in x.items():
        j, f = y[k]
        out[i] = (j, (e + f) % modulus)
    return out


def conjugation_law_holds(diagonal, corner: int, q: int, modulus: int) -> bool:
    """y x y^{-1} == x^q for x = diag(zeta^e) and y the cyclic shift, entry by entry.

    y has ones on the superdiagonal and zeta^corner in the lower-left corner
    (y = (zeta^corner) for n = 1); the matrices are multiplied as monomial
    matrices, and the inverse of y is read off its entries.

    >>> conjugation_law_holds([1, 11], 7, 11, 120), conjugation_law_holds([1, 12], 7, 11, 120)
    (True, False)
    """
    n = len(diagonal)
    x = {i: (i, e % modulus) for i, e in enumerate(diagonal)}
    y = {i: (i + 1, 0) for i in range(n - 1)}
    y[n - 1] = (0, corner % modulus)
    y_inv = {j: (i, -e % modulus) for i, (j, e) in y.items()}
    x_q = {i: (i, q * e % modulus) for i, (_, e) in x.items()}
    return monomial_product(monomial_product(y, x, modulus), y_inv, modulus) == x_q


def orbit_size_by_powers(a: int, q: int, modulus: int, n: int) -> int:
    """The least s >= 1 with a q^s == a mod modulus, from fresh powers; n if none below n.

    >>> orbit_size_by_powers(12, 11, 120, 2), orbit_size_by_powers(1, 11, 120, 2)
    (1, 2)
    """
    for s in range(1, n):
        if a * pow(q, s, modulus) % modulus == a % modulus:
            return s
    return n


def fixed_positions_by_powers(a: int, q: int, modulus: int, n: int) -> list[tuple[int, int]]:
    """Positions (i, j), 1-indexed, row by row, with a q^(i-1) == a q^(j-1) mod modulus.

    >>> fixed_positions_by_powers(12, 11, 120, 2)
    [(1, 1), (1, 2), (2, 1), (2, 2)]
    """
    diagonal = [a * pow(q, i, modulus) % modulus for i in range(n)]
    return [(i + 1, j + 1) for i in range(n) for j in range(n) if diagonal[i] == diagonal[j]]


def brute_lifts(a: int, residue_modulus: int, full_modulus: int) -> tuple[int, list[int]]:
    """The canonical lift of a mod residue_modulus and all its lifts, by a linear scan.

    The lifts are the exponents mod full_modulus congruent to a mod
    residue_modulus; the canonical one is the lift divisible by
    full_modulus / residue_modulus (whose eigenvalue has prime-to-ell order).

    >>> brute_lifts(1, 24, 120)
    (25, [1, 25, 49, 73, 97])
    """
    lifts = [e for e in range(full_modulus) if e % residue_modulus == a % residue_modulus]
    ell_part = full_modulus // residue_modulus
    (canonical,) = [e for e in lifts if e % ell_part == 0]
    return canonical, lifts


def brute_reduction(e: int, q: int, residue_modulus: int, n: int) -> int:
    """The least exponent of the q-power orbit of e mod residue_modulus, from fresh powers.

    >>> brute_reduction(35, 11, 24, 2), brute_reduction(37, 11, 24, 2)
    (1, 13)
    """
    return min(e * pow(q, i, residue_modulus) % residue_modulus for i in range(n))


def naive_is_prime(n: int) -> bool:
    """Trial division primality, no wheel.

    >>> [m for m in range(2, 30) if naive_is_prime(m)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    """
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def multiplicative_order(q: int, m: int) -> int:
    """Order of q in (Z/m)*; requires gcd(q, m) = 1.

    >>> multiplicative_order(11, 24)
    2
    """
    x = q % m
    order = 1
    while x != 1:
        x = x * q % m
        order += 1
        if order > m:
            raise ValueError("q is not a unit modulo m")
    return order


def matmul(a, b) -> list[list[int]]:
    """The product of two integer matrices given as sequences of rows.

    >>> matmul([[1, 2], [3, 4]], [[5, 6], [7, 8]])
    [[19, 22], [43, 50]]
    """
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def identity(n: int) -> list[list[int]]:
    """The n x n identity matrix as rows.

    >>> identity(2)
    [[1, 0], [0, 1]]
    """
    return [[int(i == j) for j in range(n)] for i in range(n)]


def shifted(rows, s: int, t: int) -> list[list[int]]:
    """s * a + t * I for a square matrix a given as rows.

    >>> shifted([[0, 1], [1, 0]], 1, -11)
    [[-11, 1], [1, -11]]
    """
    return [[s * x + t * (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)]


def signed_permutation_cokernels(rows, q: int) -> tuple[list[int], list[int]]:
    """Closed forms for a twist w = eps * P, P a permutation matrix, eps = +-1.

    The dense rows are read as the permutation i -> j of their one nonzero
    and its common sign; see `signed_cycle_cokernels`.

    >>> signed_permutation_cokernels([[0, -1, 0], [-1, 0, 0], [0, 0, -1]], 3)
    ([8, 4], [0, 2])
    """
    n = len(rows)
    image, signs = [], set()
    for row in rows:
        nonzero = [(j, x) for j, x in enumerate(row) if x]
        if len(row) != n or len(nonzero) != 1:
            raise ValueError("not a signed permutation matrix")
        image.append(nonzero[0][0])
        signs.add(nonzero[0][1])
    if sorted(image) != list(range(n)) or len(signs) > 1 or not signs <= {1, -1}:
        raise ValueError("not eps times a permutation matrix")
    return signed_cycle_cokernels(image, signs.pop() if signs else 1, q)


def signed_cycle_cokernels(image, eps: int, q: int) -> tuple[list[int], list[int]]:
    """Closed forms for w = eps * P, where row i of P has its 1 in column image[i].

    Read the cycle type (l_1, ..., l_r) of P.  On a cycle of length l, w acts
    as eps times the l-cycle, whose characteristic polynomial is x^l - eps^l,
    and w - q is cyclic there, so

        coker(w - q) = coker(q w^T - 1) = Z/(q^l_1 - eps^l_1) + ...,

    while 1 - w has determinant 1 - eps^l on the cycle: coker(1 - w) gets a Z
    for each cycle with eps^l = 1 and a Z/2 for each with eps^l = -1.
    Returns the cyclic orders of coker(w - q) and of coker(1 - w), one per
    cycle, with 0 standing for Z.

    >>> signed_cycle_cokernels([1, 0, 2], -1, 3)
    ([8, 4], [0, 2])
    """
    lengths = cycle_lengths(image)
    fixed = [q**l - eps**l for l in lengths]
    centralizer = [0 if eps**l == 1 else 2 for l in lengths]
    return fixed, centralizer


def cycle_lengths(image) -> list[int]:
    """The cycle lengths of the permutation i -> image[i], by first element.

    >>> cycle_lengths([1, 0, 2, 4, 5, 3])
    [2, 1, 3]
    """
    n = len(image)
    lengths, seen = [], [False] * n
    for start in range(n):
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            length += 1
            i = image[i]
        if length:
            lengths.append(length)
    return lengths


def textbook_smith_invariants(rows, cols: int) -> tuple[int, ...]:
    """The Smith invariants of a small dense matrix, zeros last, by the textbook route.

    Move a least nonzero |entry| of the trailing block to its corner, clear
    its row and column by division with remainder, and start over while a
    remainder survives; once the corner divides nothing else fails, add a
    row whose entry it does not divide to its row and start over.

    >>> textbook_smith_invariants([[2, 4], [6, 8]], 2)
    (2, 4)
    >>> textbook_smith_invariants([[4, 0, 6]], 3)
    (2,)
    """
    a = [list(r) for r in rows]
    m, out = len(a), []
    t = 0
    while t < min(m, cols):
        block = [(abs(a[i][j]), i, j) for i in range(t, m) for j in range(t, cols) if a[i][j]]
        if not block:
            break
        _, i, j = min(block)
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        d = a[t][t]
        for i in range(t + 1, m):
            k = a[i][t] // d
            a[i] = [x - k * y for x, y in zip(a[i], a[t])]
        for j in range(t + 1, cols):
            k = a[t][j] // d
            for row in a:
                row[j] -= k * row[t]
        if any(a[i][t] for i in range(t + 1, m)) or any(a[t][j] for j in range(t + 1, cols)):
            continue
        bad = next((i for i in range(t + 1, m) for j in range(t + 1, cols) if a[i][j] % d), None)
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            continue
        out.append(abs(d))
        t += 1
    return tuple(out) + (0,) * (min(m, cols) - len(out))


def textbook_cokernel(rows, cols: int) -> tuple[int, tuple[int, ...]]:
    """Z^m / (column span of a), m = len(rows): (free rank, invariant factors > 1).

    >>> textbook_cokernel([[2, 0], [0, 0]], 2)
    (1, (2,))
    >>> textbook_cokernel([[]], 0)
    (1, ())
    """
    nonzero = [d for d in textbook_smith_invariants(rows, cols) if d]
    return len(rows) - len(nonzero), tuple(d for d in nonzero if d > 1)


def center_by_roots(rank: int, roots) -> tuple[int, tuple[int, ...]]:
    """The center's character group X* / ZPhi, X* = Z^rank, from every root.

    The roots, given as coordinate vectors, are the columns; see
    `textbook_cokernel` for the answer's shape.

    >>> center_by_roots(2, [(1, -1), (-1, 1)])
    (1, ())
    >>> center_by_roots(1, [(2,), (-2,)])
    (0, (2,))
    """
    return textbook_cokernel([[a[i] for a in roots] for i in range(rank)], len(roots))


def json_roots(doc: dict) -> tuple[tuple, tuple]:
    """(roots, coroots), each a tuple of vectors, read off a root datum's JSON.

    >>> json_roots({"roots": [[1, -1], [-1, 1]], "coroots": [[1, -1], [-1, 1]]})
    (((1, -1), (-1, 1)), ((1, -1), (-1, 1)))
    """
    return tuple(map(tuple, doc["roots"])), tuple(map(tuple, doc["coroots"]))


def type_a_fixed_cokernel(family: str, lengths, eps: int, q: int) -> tuple[int, tuple[int, ...]]:
    """coker(w - q) on a type A preset's lattice, for w = eps * sigma on e-coordinates.

    sigma has cycle lengths l_1, ..., l_r; C = Z/(q^l_1 - eps^l_1) + ..., one
    generator g_i per cycle, is the answer on Z^n (GL).  The sum-zero lattice
    (SL's preset, the root lattice) and Z^n / Z(1, ..., 1) (PGL's preset, the
    weight lattice) are read off C with the sums s_i = sum_{k < l_i} (eps q)^k:

    * PGL: C / <(s_1, ..., s_r)>, the cokernel of [diag(q^l_i - eps^l_i) | s],
      since (1, ..., 1) restricted to cycle i is sum_k eps^k w^k e_i;
    * SL: the kernel of C -> Z/(q - eps), g_i -> 1, written in the basis
      g_1 - g_2, ..., g_{r-1} - g_r, (q - eps) g_r of the preimage lattice.

    Returns (free rank, invariant factors > 1) from `textbook_cokernel`.
    The finite torus coker(q w^T - 1) = coker(w^{-T} - q) is the other
    semisimple preset's formula at the same cycle type and eps.

    >>> type_a_fixed_cokernel("SL", [3], 1, 3), type_a_fixed_cokernel("PGL", [3], 1, 3)
    ((0, (13,)), (0, (13,)))
    >>> type_a_fixed_cokernel("SL", [1, 1], 1, 7)
    (0, (6,))
    """
    d = [q**l - eps**l for l in lengths]
    r = len(d)
    diagonal = [[d[i] if i == j else 0 for j in range(r)] for i in range(r)]
    if family == "GL":
        rows, cols = diagonal, r
    elif family == "PGL":
        sums = [sum((eps * q) ** k for k in range(l)) for l in lengths]
        rows, cols = [row + [s] for row, s in zip(diagonal, sums)], r + 1
    else:
        # the column of d_j g_j has coordinates d_j on the first r - 1 basis
        # vectors from j on and d_j / (q - eps) on the last
        rows = [[d[j] if j <= i else 0 for j in range(r)] for i in range(r - 1)]
        rows, cols = rows + [[x // (q - eps) for x in d]], r
    return textbook_cokernel(rows, cols)


def preset_twist_matrix(family: str, perm, eps: int) -> list[list[int]]:
    """w = eps * sigma, e_i -> eps e_perm[i], as the dense matrix of a preset's basis.

    Column j is the image of basis vector j: e_j for GL; the simple root
    e_j - e_{j+1} for SL, whose image e_a - e_b is +-(ones on a..b-1); the
    fundamental weight e_0 + ... + e_j mod (1, ..., 1) for PGL, whose image x
    has coordinates x_i - x_{i+1}.

    >>> preset_twist_matrix("SL", [1, 2, 0], 1)
    [[0, -1], [1, -1]]
    >>> preset_twist_matrix("PGL", [1, 2, 0], 1)
    [[-1, -1], [1, 0]]
    """
    n = len(perm)
    if family == "GL":
        return [[eps * (perm[j] == i) for j in range(n)] for i in range(n)]
    columns, x = [], [0] * n
    for j in range(n - 1):
        if family == "SL":
            (lo, hi), sign = sorted(perm[j : j + 2]), eps if perm[j] < perm[j + 1] else -eps
            columns.append([0] * lo + [sign] * (hi - lo) + [0] * (n - 1 - hi))
        else:
            x[perm[j]] = 1  # x is now e_perm[0] + ... + e_perm[j]
            columns.append([eps * (x[i] - x[i + 1]) for i in range(n - 1)])
    return [list(row) for row in zip(*columns)]


def pairwise_diagonal_invariants(diagonal) -> tuple[int, ...]:
    """The Smith invariants of a nonnegative diagonal by the pairwise gcd/lcm pass.

    Ones lead and zeros trail.  Every other pair (a_i, a_j), i < j, with a_i
    not dividing a_j becomes (gcd, lcm); after the pass for i, a_i divides
    every later entry.  Quadratic in the number of entries.

    >>> pairwise_diagonal_invariants([0, 4, 1, 6])
    (1, 2, 12, 0)
    """
    diagonal = list(diagonal)
    chain = [d for d in diagonal if d > 1]
    for i, a in enumerate(chain):
        for j in range(i + 1, len(chain)):
            b = chain[j]
            if b % a:
                g = gcd(a, b)
                chain[j] = a // g * b
                a = g
        chain[i] = a
    return (1,) * diagonal.count(1) + tuple(chain) + (0,) * diagonal.count(0)


def root_datum_problems(rank: int, roots, coroots) -> list[str]:
    """Check the root-datum axioms for the dot pairing; list the violations.

    Roots and coroots are paired in order: <alpha, alpha_vee> = 2, and the
    reflection x - <x, alpha_vee> alpha must map the root set to itself.

    >>> root_datum_problems(2, [(1, -1), (-1, 1)], [(1, -1), (-1, 1)])
    []
    >>> root_datum_problems(2, [(1, -1)], [(1, 0)])
    ['<(1, -1), (1, 0)> = 1, expected 2']
    """
    def pair(x, y):
        return sum(a * b for a, b in zip(x, y))

    if rank < 0:
        return [f"rank must be nonnegative, got {rank}"]
    if len(roots) != len(coroots):
        return [f"{len(roots)} roots but {len(coroots)} coroots"]
    problems = []
    for vecs, label in ((roots, "root"), (coroots, "coroot")):
        for a in vecs:
            if len(a) != rank:
                return problems + [f"{label} {a} does not have length {rank}"]
            if not any(a):
                problems.append(f"zero {label} is not allowed")
    if len(set(roots)) != len(roots):
        problems.append("duplicate roots")
    for alpha, alpha_vee in zip(roots, coroots):
        if pair(alpha, alpha_vee) != 2:
            problems.append(f"<{alpha}, {alpha_vee}> = {pair(alpha, alpha_vee)}, expected 2")
    if problems:
        return problems
    root_set = set(roots)
    for alpha, alpha_vee in zip(roots, coroots):
        for beta in roots:
            image = tuple(b - pair(beta, alpha_vee) * a for a, b in zip(alpha, beta))
            if image not in root_set:
                problems.append(f"reflection in {alpha} maps {beta} outside the root set")
                break
    return problems
