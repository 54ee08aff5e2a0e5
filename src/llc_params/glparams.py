"""Tame regular elliptic parameters for GL_n, in exponent coordinates.

A tame parameter of this shape sends inertia to a diagonal matrix with
eigenvalues zeta^a, zeta^{aq}, ..., zeta^{a q^{n-1}} (zeta a root of unity of
order q^n - 1) and Frobenius to the cyclic shift with a unit corner entry
zeta^b.  Everything about such a parameter is therefore integer arithmetic
on exponents; no cyclotomic element is ever materialized.

Coefficients come in two flavors: integral (ZBAR, exponents mod q^n - 1) and
residue (FBAR, exponents mod the prime-to-ell part).  Reduction forgets the
ell-part of the exponent; the lifts of a residue parameter form a torsor
under the ell-power roots of unity, with the unique prime-to-ell-order lift
playing the role of the Teichmueller representative.

Regularity (the q-power orbit of the exponent has full size n) is exactly
ellipticity plus regular semisimplicity for this family; non-regular
exponents remain representable so that diagnostics like the nilpotent
support stay total, but enumeration only emits regular ones.
"""

from __future__ import annotations

from math import gcd

from .arith import check_admissible, factorint, valuation
from .errors import CoefficientMismatch, InternalError, InvalidArgument, ShapeMismatch

ZBAR = "zbar"  # integral coefficients (Z-bar_ell)
FBAR = "fbar"  # residue coefficients (F-bar_ell)

COEFFS = (ZBAR, FBAR)


class TrselpGL:
    """One tame GL_n parameter, stored as exponent data.

    >>> phi = TrselpGL(2, 11, 5, ZBAR, a=1)
    >>> phi.modulus, phi.k
    (120, 1)
    >>> phi.is_regular
    True
    >>> TrselpGL(2, 11, 5, ZBAR, a=12).is_regular
    False
    """

    __slots__ = ("n", "q", "ell", "coeff", "a", "b", "p", "k", "full_modulus", "modulus")

    def __init__(self, n: int, q: int, ell: int, coeff: str = ZBAR, a: int = 0, b: int = 0):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise InvalidArgument(f"n must be a positive integer, got {n!r}")
        p, _ = check_admissible(q, ell)
        if coeff not in COEFFS:
            raise InvalidArgument(f"coeff must be one of {COEFFS}, got {coeff!r}")
        if isinstance(a, bool) or not isinstance(a, int):
            raise InvalidArgument(f"a must be an integer, got {a!r}")
        if isinstance(b, bool) or not isinstance(b, int):
            raise InvalidArgument(f"b must be an integer, got {b!r}")
        full = q**n - 1
        k = valuation(full, ell)
        self.n = n
        self.q = q
        self.ell = ell
        self.coeff = coeff
        self.p = p
        self.k = k
        self.full_modulus = full
        self.modulus = full if coeff == ZBAR else full // ell**k
        self.a = a % self.modulus
        self.b = b % full

    def orbit(self) -> tuple[int, ...]:
        """The q-power orbit of the exponent, in generation order."""
        out = [self.a]
        x = self.a
        for _ in range(self.n):
            x = x * self.q % self.modulus
            if x == self.a:
                return tuple(out)
            out.append(x)
        # the orbit size divides n because the modulus divides q^n - 1
        raise InternalError(f"orbit of {self.a} mod {self.modulus} did not close within n steps")

    @property
    def is_regular(self) -> bool:
        """True when a, qa, ..., q^{n-1} a are pairwise distinct mod the modulus."""
        return len(self.orbit()) == self.n

    @property
    def is_canonical(self) -> bool:
        return self.a == min(self.orbit())

    def canonical(self) -> "TrselpGL":
        """The same parameter with the exponent replaced by its orbit minimum."""
        least = min(self.orbit())
        if least == self.a:
            return self
        return TrselpGL(self.n, self.q, self.ell, self.coeff, least, self.b)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "ell": self.ell,
            "coeff": self.coeff,
            "a": self.a,
            "b": self.b,
            "modulus": self.modulus,
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrselpGL):
            return NotImplemented
        return (
            (self.n, self.q, self.ell, self.coeff, self.a, self.b)
            == (other.n, other.q, other.ell, other.coeff, other.a, other.b)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.q, self.ell, self.coeff, self.a, self.b))

    def __repr__(self) -> str:
        return (
            f"TrselpGL(n={self.n}, q={self.q}, ell={self.ell}, "
            f"coeff={self.coeff!r}, a={self.a}, b={self.b})"
        )


class ParamMatrices:
    """Exponent matrices for a parameter: entries are None (zero) or exponents.

    ``x`` is the inertia value, ``y`` the Frobenius value; an integer entry e
    stands for zeta^e with zeta of order ``modulus``.
    """

    __slots__ = ("n", "modulus", "x", "y")

    def __init__(self, n: int, modulus: int, x, y):
        if n < 1 or modulus < 1:
            raise InvalidArgument("need n >= 1 and a positive modulus")
        self.n = n
        self.modulus = modulus
        self.x = self._normalize(x, n, modulus, "x")
        self.y = self._normalize(y, n, modulus, "y")

    @staticmethod
    def _normalize(m, n: int, modulus: int, which: str):
        rows = [list(row) for row in m]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ShapeMismatch(f"{which} must be {n}x{n}")
        out = []
        for row in rows:
            cooked = []
            for e in row:
                if e is None:
                    cooked.append(None)
                elif isinstance(e, bool) or not isinstance(e, int):
                    raise InvalidArgument(f"{which} entries must be None or integers, got {e!r}")
                else:
                    cooked.append(e % modulus)
            out.append(tuple(cooked))
        return tuple(out)

    @staticmethod
    def _entry_json(e):
        return {"zero": True} if e is None else {"exp": e}

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "modulus": self.modulus,
            "x": [[self._entry_json(e) for e in row] for row in self.x],
            "y": [[self._entry_json(e) for e in row] for row in self.y],
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamMatrices):
            return NotImplemented
        return (self.n, self.modulus, self.x, self.y) == (other.n, other.modulus, other.x, other.y)

    def __repr__(self) -> str:
        return f"ParamMatrices(n={self.n}, modulus={self.modulus})"


def matrices(phi: TrselpGL) -> ParamMatrices:
    """The (x, y) pair for an integral parameter.

    x = diag(zeta^a, zeta^{aq}, ..., zeta^{a q^{n-1}}); y is the cyclic shift
    with ones on the superdiagonal and zeta^b in the lower-left corner.  For
    n = 1 the matrices are (zeta^a) and (zeta^b).
    """
    if phi.coeff != ZBAR:
        raise CoefficientMismatch(
            "matrices need integral coefficients",
            hint="lift the parameter first; residue exponents do not pin down matrices",
        )
    n, mod = phi.n, phi.modulus
    x = [[None] * n for _ in range(n)]
    e = phi.a
    for i in range(n):
        x[i][i] = e
        e = e * phi.q % mod
    y = [[None] * n for _ in range(n)]
    if n == 1:
        y[0][0] = phi.b
    else:
        for i in range(n - 1):
            y[i][i + 1] = 0
        y[n - 1][0] = phi.b
    return ParamMatrices(n, mod, x, y)


def _diagonal_exponents(m: ParamMatrices) -> list[int]:
    diag = []
    for i in range(m.n):
        for j in range(m.n):
            e = m.x[i][j]
            if i == j:
                if e is None:
                    raise ShapeMismatch("x must be diagonal with unit eigenvalues")
                diag.append(e)
            elif e is not None:
                raise ShapeMismatch("x must be diagonal")
    return diag


def _check_cyclic_shift(m: ParamMatrices) -> None:
    n = m.n
    for i in range(n):
        for j in range(n):
            e = m.y[i][j]
            expected = (j == (i + 1) % n)
            if expected and e is None:
                raise ShapeMismatch("y must be the cyclic shift with a corner unit")
            if not expected and e is not None:
                raise ShapeMismatch("y must be the cyclic shift with a corner unit")


def verify_cocycle(m: ParamMatrices, q: int) -> bool:
    """Check y x y^{-1} == x^q in exponent arithmetic.

    Conjugating a diagonal matrix by the cyclic shift rotates its diagonal
    exponents left by one (the corner unit cancels); raising to the q-th
    power multiplies exponents by q mod the exponent modulus.

    >>> verify_cocycle(matrices(TrselpGL(2, 11, 5, ZBAR, a=1)), 11)
    True
    """
    diag = _diagonal_exponents(m)
    _check_cyclic_shift(m)
    n, mod = m.n, m.modulus
    return all(diag[(i + 1) % n] == diag[i] * q % mod for i in range(n))


def reduction(phi: TrselpGL) -> TrselpGL:
    """Residue-coefficient image: forget the ell-part of the exponent.

    The fixed splitting Z/(q^n - 1) = Z/M' x Z/ell^k (M' the prime-to-ell
    part) sends a to a mod M'; the result is re-canonicalized to its orbit
    minimum.
    """
    if phi.coeff != ZBAR:
        raise CoefficientMismatch("reduction starts from an integral parameter")
    mprime = phi.full_modulus // phi.ell**phi.k
    return TrselpGL(phi.n, phi.q, phi.ell, FBAR, phi.a % mprime, phi.b).canonical()


def canonical_lift(phi: TrselpGL) -> TrselpGL:
    """The integral lift of a residue parameter with prime-to-ell eigenvalues.

    Its exponent is the one congruent to a mod M' and divisible by ell^k
    (Chinese remainders); it has the same orbit size as the residue
    exponent, hence the same regularity and nilpotent support.

    >>> canonical_lift(TrselpGL(2, 11, 5, FBAR, a=1)).a
    25
    """
    if phi.coeff != FBAR:
        raise CoefficientMismatch("lifts start from a residue parameter")
    lk = phi.ell**phi.k
    a = phi.a * lk * pow(lk, -1, phi.modulus) % phi.full_modulus
    return TrselpGL(phi.n, phi.q, phi.ell, ZBAR, a, phi.b)


def lifts_in_component(phi: TrselpGL) -> list[TrselpGL]:
    """All integral lifts of a residue parameter, canonical lift first.

    The lifts form a torsor under the ell-power roots of unity: exactly the
    ell^k exponents congruent to a mod M'.  The canonical lift (see
    canonical_lift) comes first; the remaining lifts follow in increasing
    exponent order.

    >>> [psi.a for psi in lifts_in_component(TrselpGL(2, 11, 5, FBAR, a=1))]
    [25, 1, 49, 73, 97]
    """
    first = canonical_lift(phi)
    rest = sorted(
        (first.a + phi.modulus * t) % phi.full_modulus for t in range(1, phi.ell**phi.k)
    )
    return [first] + [TrselpGL(phi.n, phi.q, phi.ell, ZBAR, e, phi.b) for e in rest]


def equivalent(phi: TrselpGL, psi: TrselpGL) -> bool:
    """Equivalence: same q-power orbit of the exponent and equal corner unit.

    Comparable parameters must share (n, q, ell, coeff); anything else is a
    shape error, not inequivalence.
    """
    if (phi.n, phi.q, phi.ell, phi.coeff) != (psi.n, psi.q, psi.ell, psi.coeff):
        raise ShapeMismatch(
            "parameters live in different families",
            hint="equivalence only compares parameters with equal (n, q, ell, coeff)",
        )
    return psi.a in phi.orbit() and phi.b == psi.b


def nilpotent_support_fixed_positions(phi: TrselpGL) -> list[tuple[int, int]]:
    """Matrix positions where an inertia-fixed nilpotent could live.

    Position (i, j), 1-indexed, is fixed by the inertia action exactly when
    a (q^{i-1} - q^{j-1}) == 0 mod the exponent modulus.  For a regular
    parameter this is precisely the diagonal, which is the computational
    form of the statement that the relevant nilpotent cone meets the fixed
    space only at zero.
    """
    n, mod = phi.n, phi.modulus
    powers = [pow(phi.q, i, mod) for i in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            if phi.a * (powers[i] - powers[j]) % mod == 0:
                out.append((i + 1, j + 1))
    return out


def _scan_canonical(n: int, q: int, modulus: int):
    """Yield the canonical exponents of size-n orbits in increasing order."""
    for a in range(modulus):
        x = a
        size = None
        canonical = True
        for i in range(1, n + 1):
            x = x * q % modulus
            if x == a:
                size = i
                break
            if x < a:
                canonical = False
                break
        if canonical and size == n:
            yield a


def enumerate_params(n: int, q: int, ell: int, coeff: str = ZBAR) -> list[TrselpGL]:
    """All regular parameters up to equivalence: canonical exponents, b = 0.

    Representatives are the orbit minima, listed in increasing order.  For
    n = 1 every exponent qualifies (a one-element orbit has full size).

    >>> len(enumerate_params(2, 11, 5, ZBAR))
    55
    >>> len(enumerate_params(2, 11, 5, FBAR))
    11
    """
    probe = TrselpGL(n, q, ell, coeff, 0, 0)
    return [
        TrselpGL(n, q, ell, coeff, a, 0) for a in _scan_canonical(n, q, probe.modulus)
    ]


def _moebius(m: int) -> int:
    mu = 1
    for _, e in factorint(m):
        if e > 1:
            return 0
        mu = -mu
    return mu


def count_params(n: int, q: int, ell: int, coeff: str = ZBAR) -> int:
    """Number of enumerated parameters, by Moebius inversion over orbit sizes.

    Exponents with q^d a == a form a subgroup of size gcd(q^d - 1, M), so
    the number of size-n orbits is (1/n) sum_{d | n} mu(n/d) gcd(q^d - 1, M).
    This closed form lets the CLI report counts without a full scan; tests
    check it against both the enumeration and an independent direct scan.

    >>> count_params(2, 11, 5, ZBAR), count_params(2, 11, 5, FBAR)
    (55, 11)
    """
    probe = TrselpGL(n, q, ell, coeff, 0, 0)
    m = probe.modulus
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _moebius(n // d) * gcd(q**d - 1, m)
    if total % n:
        raise InternalError("orbit count was not divisible by n")
    return total // n
