"""Small exact number-theory helpers: primality, valuations, prime powers.

Nothing here factors a large integer.  Primality is deterministic
Miller-Rabin to the thirteen prime bases 2, ..., 41, which no composite below
PRIME_BOUND passes (Sorenson and Webster, *Math. Comp.* 86, 2017); at or above
the bound a number with no small factor is refused with a structured error,
never guessed at.  Prime powers are recognised by stripping small primes and
an integer k-th-root test.  The one trial-division routine left, `factorint`,
serves the Moebius function over divisors of a rank.  Nothing here is
probabilistic.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import InvalidArgument, InvalidPrime, InvalidPrimePower

# the Miller-Rabin bases, also the primes stripped by trial division
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13: the least strong pseudoprime to all thirteen bases
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=65536)
def factorint(n: int) -> tuple[tuple[int, int], ...]:
    """Factor n >= 1 into a sorted tuple of (prime, exponent) pairs.

    >>> factorint(120)
    ((2, 3), (3, 1), (5, 1))
    >>> factorint(1)
    ()
    """
    if n < 1:
        raise InvalidArgument(f"cannot factor {n}: need a positive integer")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    # remaining factors are coprime to 6; walk the 6k +- 1 wheel
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            if n % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                out.append((p, e))
        d += 6
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _too_large(name: str, n: int) -> InvalidArgument:
    return InvalidArgument(
        f"{name} = {n} is too large: primality is certified only below {PRIME_BOUND}",
        code=f"{name}-too-large",
        hint="deterministic Miller-Rabin to the prime bases 2, ..., 41 is exact below that bound",
    )


def is_prime(n: int, *, name: str = "n") -> bool:
    """Whether n is prime, decided exactly; anything but an exact int is not.

    A number with a prime factor up to 41 is decided by division.  Any other
    n at or above PRIME_BOUND raises ``{name}-too-large``.

    >>> [m for m in range(30) if is_prime(m)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    >>> is_prime(3215031751)  # a strong pseudoprime to the bases 2, 3, 5, 7
    False
    """
    if type(n) is not int or n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n >= PRIME_BOUND:
        raise _too_large(name, n)
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _exact_root(n: int, k: int) -> int | None:
    """The r with r**k == n, or None; for n >= 2 and k >= 2."""
    # log2(n) / k in floating point, from the top 53 bits of n; its relative
    # error is far below 2**-30, so the seed lies above the root
    shift = max(n.bit_length() - 53, 0)
    e = (math.log2(n >> shift) + shift) / k
    low = max(int(e) - 52, 0)
    r = int(2.0 ** (e - low)) << low
    r += (r >> 30) + 1
    # integer Newton decreases from above to the floor of the root
    while True:
        y = ((k - 1) * r + n // r ** (k - 1)) // k
        if y >= r:
            break
        r = y
    return r if r**k == n else None


def _perfect_power_root(n: int) -> tuple[int, int]:
    """(r, m) with n = r**m and m maximal, for n with no prime factor up to 41."""
    m = 1
    k = 2
    # a root r >= 43 > 2**5 needs n >= 2**(5 k)
    while n >> (5 * k):
        r = _exact_root(n, k) if is_prime(k) else None
        if r is None:
            k += 1
        else:
            n, m = r, m * k
    return n, m


def prime_power_split(q: int) -> tuple[int, int]:
    """Write q = p**e with p prime, e >= 1, or raise InvalidPrimePower.

    A q that is no int (a float or a bool) is refused before any arithmetic.

    A q with a prime factor up to 41 is a prime power exactly when it is a
    power of that prime.  Otherwise its maximal perfect-power root is
    certified prime, or refused with ``q-too-large`` at or above PRIME_BOUND.

    >>> prime_power_split(121), prime_power_split(3**8000)[1]
    ((11, 2), 8000)
    """
    if type(q) is not int or q < 2:
        raise InvalidPrimePower(f"q = {q!r} is not a prime power", code="q-not-prime-power")
    for p in _SMALL_PRIMES:
        if q % p == 0:
            e = valuation(q, p)
            if q == p**e:
                return p, e
            break
    else:
        root, e = _perfect_power_root(q)
        if root >= PRIME_BOUND:
            raise _too_large("q", q)
        if is_prime(root):
            return root, e
    raise InvalidPrimePower(
        f"q = {q} is not a prime power",
        code="q-not-prime-power",
        hint="q must equal p**e for a single prime p",
    )


def valuation(n: int, p: int) -> int:
    """The exponent of the prime p in n != 0."""
    if n == 0:
        raise InvalidArgument("valuation of 0 is undefined")
    if not is_prime(p, name="p"):
        raise InvalidPrime(f"{p} is not prime")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def check_admissible(q: int, ell: int) -> tuple[int, int]:
    """Validate the standing hypotheses on (q, ell); return (p, e).

    q must be a power of an odd prime p, ell an odd prime different from p,
    both exact ints (a float or a bool is refused before any arithmetic).
    Each violation raises with its own stable error code so callers can tell
    them apart.
    """
    p, e = prime_power_split(q)
    if p == 2:
        raise InvalidPrimePower(
            f"q = {q} is a power of 2; residue characteristic 2 is excluded",
            code="p-even",
        )
    if not is_prime(ell, name="ell"):
        raise InvalidPrime(f"ell = {ell!r} is not prime", code="ell-not-prime")
    if ell == 2:
        raise InvalidPrime("ell = 2 is excluded; the coefficient prime must be odd", code="ell-even")
    if ell == p:
        raise InvalidPrime(
            f"ell = {ell} equals the residue characteristic of q = {q}",
            code="ell-equals-p",
            hint="pick ell coprime to q",
        )
    return p, e
