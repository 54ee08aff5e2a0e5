"""Tame regular elliptic parameters for GL_n, in exponent coordinates.

A tame parameter of this shape sends inertia to a diagonal matrix with
eigenvalues zeta^a, zeta^{aq}, ..., zeta^{a q^{n-1}} (zeta a root of unity of
order q^n - 1) and Frobenius to the cyclic shift with a unit corner entry
zeta^b.  Everything about such a parameter is therefore integer arithmetic
on exponents; no cyclotomic element is ever materialized.

The parameters with one (n, q, ell) form a GLFamily.  It checks the standing
hypotheses once and owns the canonical scan and the closed-form count; pages
come as exponents.  Everything about one parameter is a family kernel on an
exponent, GLFamily.orbit to GLFamily.lifts, and cocycle_law checks a
diagonal.  TrselpGL and ParamMatrices are the validated records of a
parameter and of its matrix pair, for reports.  GLFamily, TrselpGL and
ParamMatrices are frozen records (errors.FrozenRecord), so a family's moduli
always divide q^n - 1 and every orbit closes within n steps.

Coefficients come in two flavors: integral (ZBAR, exponents mod q^n - 1) and
residue (FBAR, exponents mod the prime-to-ell part).  Reduction
(GLFamily.least at FBAR) forgets the ell-part of the exponent; the lifts of
a residue exponent (GLFamily.lifts) form a torsor under the ell-power roots
of unity, with the unique prime-to-ell-order lift playing the role of the
Teichmueller representative.

Regularity (the q-power orbit of the exponent has full size n) is exactly
ellipticity plus regular semisimplicity for this family; non-regular
exponents remain representable so that diagnostics like the nilpotent
support stay total, but enumeration only emits regular ones.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice
from math import gcd

from .arith import check_admissible, factorint, valuation
from .errors import FrozenRecord, InternalError, InvalidArgument, InvalidRank

ZBAR = "zbar"  # integral coefficients (Z-bar_ell)
FBAR = "fbar"  # residue coefficients (F-bar_ell)

COEFFS = (ZBAR, FBAR)

_SCAN_WINDOW = 4096  # exponents per window; a short page stops after one


def _exponent(e, name: str) -> int:
    if isinstance(e, bool) or not isinstance(e, int):
        raise InvalidArgument(f"{name} must be an integer exponent, got {e!r}")
    return e


def _moebius(m: int) -> int:
    mu = 1
    for _, e in factorint(m):
        if e > 1:
            return 0
        mu = -mu
    return mu


def _cut_bands(ranges: list[range], p: int, m: int) -> list[range]:
    """The exponents a in the ranges with a p mod m > a, for 2 <= p < m.

    The rejected exponents are the bands [ceil(j m / p), floor(j m / (p - 1))]
    (see GLFamily._windows); only the j that meet a range are visited, so
    the cost is one step per band and range, whatever the bands' lengths.
    """
    out = []
    for r in ranges:
        cur, stop = r.start, r.stop
        for jm in range(cur * p // m * m, (stop - 1) * p // m * m + 1, m):
            start, end = -(-jm // p), jm // (p - 1) + 1  # band j = jm / m is [start, end)
            if start < end:
                if start > cur:
                    out.append(range(cur, start))
                if end > cur:
                    cur = end
        if cur < stop:
            out.append(range(cur, stop))
    return out


class GLFamily(FrozenRecord):
    """The tame GL_n parameters at one (n, q, ell), with the hypotheses checked once.

    Every parameter of a family shares n, q, ell, the residue characteristic
    p, the modulus q^n - 1 and k = v_ell(q^n - 1).  The family validates
    (n, q, ell) when it is built and holds these, so a parameter carries only
    its coefficient flavor and its exponents.

    >>> fam = GLFamily(2, 11, 5)
    >>> fam.p, fam.k, fam.full_modulus, fam.residue_modulus
    (11, 1, 120, 24)
    """

    __slots__ = ("n", "q", "ell", "p", "k", "full_modulus", "residue_modulus")

    def __init__(self, n: int, q: int, ell: int):
        # GL_n's rank rule, worded as rootdata.preset words it
        if isinstance(n, bool) or not isinstance(n, int):
            raise InvalidRank(f"n must be an integer, got {n!r}")
        if n < 1:
            raise InvalidRank(f"GL needs n >= 1, got {n}")
        p, _ = check_admissible(q, ell)
        full = q**n - 1
        k = valuation(full, ell)
        self._fill(n, q, ell, p, k, full, full // ell**k)

    def modulus(self, coeff: str) -> int:
        """The exponent modulus: q^n - 1 for ZBAR, its prime-to-ell part for FBAR."""
        if coeff == ZBAR:
            return self.full_modulus
        if coeff == FBAR:
            return self.residue_modulus
        raise InvalidArgument(f"coeff must be one of {COEFFS}, got {coeff!r}")

    def powers(self, coeff: str) -> tuple[int, ...]:
        """q^0, q^1, ..., q^(n-1) mod the exponent modulus."""
        m = self.modulus(coeff)
        return tuple(pow(self.q, i, m) for i in range(self.n))

    def _windows(self, coeff: str) -> Iterator[tuple[int, list[range]]]:
        """The canonical exponents of size-n orbits, one window of _SCAN_WINDOW at a time.

        a mod M is the minimum of a size-n orbit exactly when a q^i mod M > a
        for every 1 <= i < n.  This also rejects short orbits: an orbit's size
        s divides n because M divides q^n - 1, and if s < n then i = s gives
        a q^s = a.  For n = 1 there is no power and every exponent passes.

        The exponents one power p = q^i mod M rejects form bands: with
        j = floor(a p / M), a p mod M <= a exactly when
        ceil(j M / p) <= a <= floor(j M / (p - 1)), one band for each
        j = 0, ..., p - 1 (the last one runs to M - 1); p <= 1 rejects every
        exponent.

        Each window yields its number of canonical exponents and the ascending
        ranges that hold them: every power, in ascending order, cuts its bands
        out of the surviving ranges, so a window costs per band, whatever the
        bands' lengths, and builds no list.  A power p visits about
        floor(w p / M) + 1 bands of a window of w exponents (at most one more
        per surviving range), so the sum of those over the powers prices a
        window, and a page, before the scan runs.
        """
        m = self.modulus(coeff)
        powers = sorted(self.powers(coeff)[1:])
        if powers and powers[0] <= 1:
            return  # q^i = 1 mod m for some 0 < i < n, so no orbit has size n
        for lo in range(0, m, _SCAN_WINDOW):
            ranges = [range(lo, min(lo + _SCAN_WINDOW, m))]
            for power in powers:
                ranges = _cut_bands(ranges, power, m)
            yield sum(map(len, ranges)), ranges

    def exponents(self, coeff: str, offset: int = 0, limit: int | None = None) -> list[int]:
        """The canonical exponents of the regular parameters, ascending.

        Returns the page [offset, offset + limit) of the scan, all of it by
        default.  Scan windows wholly before the page are skipped by their
        count, and no surviving range is expanded past the page's end.

        >>> fam = GLFamily(2, 11, 5)
        >>> len(fam.exponents(ZBAR)), fam.exponents(ZBAR, 3, 2)
        (55, [4, 5])
        """
        if type(offset) is not int or offset < 0 or (
            limit is not None and (type(limit) is not int or limit < 0)
        ):
            raise InvalidArgument(
                f"offset and limit must be nonnegative ints, got {offset!r} and {limit!r}"
            )
        m = self.modulus(coeff)
        end = offset + (m if limit is None else limit)  # at most m exponents exist
        page: list[int] = []
        seen = 0
        # the window that fills the page is the last one built, and limit 0 builds none
        for size, chunks in self._windows(coeff) if end > offset else ():
            if seen + size > offset:
                page += islice(chain.from_iterable(chunks), max(offset - seen, 0), end - seen)
            seen += size
            if seen >= end:
                break
        return page

    def count(self, coeff: str) -> int:
        """Number of enumerated parameters, by Moebius inversion over orbit sizes.

        Exponents with q^d a == a form a subgroup of size gcd(q^d - 1, M), so
        the number of size-n orbits is (1/n) sum_{d | n} mu(n/d) gcd(q^d - 1, M).
        This closed form lets the CLI report counts without a full scan; tests
        check it against both the enumeration and an independent direct scan.

        >>> fam = GLFamily(2, 11, 5)
        >>> fam.count(ZBAR), fam.count(FBAR)
        (55, 11)
        """
        n, q, m = self.n, self.q, self.modulus(coeff)
        total = 0
        for d in range(1, n + 1):
            if n % d == 0:
                total += _moebius(n // d) * gcd(q**d - 1, m)
        if total % n:
            raise InternalError("orbit count was not divisible by n")
        return total // n

    def orbit(self, coeff: str, a: int) -> tuple[int, ...]:
        """The q-power orbit of the exponent a mod the modulus, in generation order.

        >>> GLFamily(2, 11, 5).orbit(ZBAR, 1), GLFamily(2, 11, 5).orbit(ZBAR, 132)
        ((1, 11), (12,))
        """
        m, q = self.modulus(coeff), self.q
        a = _exponent(a, "a") % m
        out = [a]
        x = a * q % m
        while x != a:
            out.append(x)
            x = x * q % m
        return tuple(out)

    def orbit_size(self, coeff: str, a: int) -> int:
        """The size s of the orbit of a, walked without building it; s = n when a is regular.

        >>> GLFamily(2, 11, 5).orbit_size(ZBAR, 1), GLFamily(2, 11, 5).orbit_size(ZBAR, 12)
        (2, 1)
        """
        m, q = self.modulus(coeff), self.q
        a = _exponent(a, "a") % m
        s, x = 1, a * q % m
        while x != a:
            s, x = s + 1, x * q % m
        return s

    def least(self, coeff: str, a: int) -> int:
        """The least exponent of the orbit of a: its canonical representative.

        At FBAR it reduces an integral a, since Z/(q^n - 1) = Z/M' x Z/ell^k.

        >>> GLFamily(2, 11, 5).least(ZBAR, 11), GLFamily(2, 11, 5).least(FBAR, 37)
        (1, 13)
        """
        return min(self.orbit(coeff, a))

    def diagonal(self, a: int) -> tuple[int, ...]:
        """The integral exponents a q^i, i < n: the orbit of a, n / s times over (a q^s = a).

        >>> GLFamily(2, 11, 5).diagonal(1), GLFamily(2, 11, 5).diagonal(12)
        ((1, 11), (12, 12))
        """
        orbit = self.orbit(ZBAR, a)
        return orbit * (self.n // len(orbit))

    def support(self, coeff: str, a: int) -> list[tuple[int, int]]:
        """Matrix positions where an inertia-fixed nilpotent could live, row by row.

        (i, j), 1-indexed, is fixed by inertia exactly when a q^{i-1} and
        a q^{j-1} agree, i.e. i == j mod the orbit size s; for a regular a
        (s = n) the nilpotent cone meets the fixed space only at zero.

        >>> GLFamily(2, 11, 5).support(ZBAR, 1), GLFamily(2, 11, 5).support(ZBAR, 12)
        ([(1, 1), (2, 2)], [(1, 1), (1, 2), (2, 1), (2, 2)])
        """
        n, s = self.n, self.orbit_size(coeff, a)
        if s == n:
            return [(i, i) for i in range(1, n + 1)]
        return [(i, j) for i in range(1, n + 1) for j in range((i - 1) % s + 1, n + 1, s)]

    def lifts(self, a: int) -> Iterator[int]:
        """The ell^k integral exponents congruent to the residue exponent a mod M'.

        The canonical lift, divisible by ell^k, comes first (it has the orbit
        size of a); the rest follow in increasing order.

        >>> list(GLFamily(2, 11, 5).lifts(1))
        [25, 1, 49, 73, 97]
        """
        lk, r, full = self.ell**self.k, self.residue_modulus, self.full_modulus
        a = _exponent(a, "a") % r
        first = a * lk * pow(lk, -1, r) % full
        return chain((first,), (e for e in range(a, full, r) if e != first))

    def __repr__(self) -> str:
        return f"GLFamily(n={self.n}, q={self.q}, ell={self.ell})"


class TrselpGL(FrozenRecord):
    """One tame GL_n parameter of a family, stored as exponent data.

    >>> phi = TrselpGL(GLFamily(2, 11, 5), ZBAR, a=121, b=-1)
    >>> phi.modulus, phi.a, phi.b
    (120, 1, 119)
    """

    __slots__ = ("family", "coeff", "modulus", "a", "b")

    def __init__(self, family: GLFamily, coeff: str = ZBAR, a: int = 0, b: int = 0):
        if not isinstance(family, GLFamily):
            raise InvalidArgument(f"family must be a GLFamily, got {family!r}")
        modulus = family.modulus(coeff)
        a, b = _exponent(a, "a"), _exponent(b, "b")
        self._fill(family, coeff, modulus, a % modulus, b % family.full_modulus)

    def to_json(self) -> dict:
        fam = self.family
        return {
            "n": fam.n,
            "q": fam.q,
            "ell": fam.ell,
            "coeff": self.coeff,
            "a": self.a,
            "b": self.b,
            "modulus": self.modulus,
        }

    def __repr__(self) -> str:
        fam = self.family
        return (
            f"TrselpGL(n={fam.n}, q={fam.q}, ell={fam.ell}, "
            f"coeff={self.coeff!r}, a={self.a}, b={self.b})"
        )


class ParamMatrices(FrozenRecord):
    """The (x, y) pair of a parameter, held as exponents of zeta.

    x, the inertia value, is diag(zeta^e_1, ..., zeta^e_n) with the exponents
    ``diagonal``; y, the Frobenius value, is the cyclic shift with ones on the
    superdiagonal and zeta^``corner`` in the lower-left corner (for n = 1,
    x = (zeta^e_1) and y = (zeta^corner)).  zeta has order ``modulus``.

    >>> ParamMatrices(120, [1, 131], -1)
    ParamMatrices(n=2, modulus=120)
    >>> ParamMatrices(120, [1, 131], -1).diagonal
    (1, 11)
    """

    __slots__ = ("modulus", "diagonal", "corner")

    def __init__(self, modulus: int, diagonal: Iterable[int], corner: int):
        if isinstance(modulus, bool) or not isinstance(modulus, int) or modulus < 1:
            raise InvalidArgument(f"modulus must be a positive integer, got {modulus!r}")
        diagonal = tuple(_exponent(e, "diagonal entry") % modulus for e in diagonal)
        if not diagonal:
            raise InvalidArgument("the diagonal needs n >= 1 exponents")
        self._fill(modulus, diagonal, _exponent(corner, "corner") % modulus)

    @property
    def n(self) -> int:
        return len(self.diagonal)

    def to_json(self) -> dict:
        """Both matrices written out densely: {"exp": e} for zeta^e, {"zero": true} for 0."""
        n = self.n
        x = [[{"zero": True} for _ in range(n)] for _ in range(n)]
        y = [[{"zero": True} for _ in range(n)] for _ in range(n)]
        for i, e in enumerate(self.diagonal):
            x[i][i] = {"exp": e}
            y[i][(i + 1) % n] = {"exp": 0}
        y[n - 1][0] = {"exp": self.corner}
        return {"n": n, "modulus": self.modulus, "x": x, "y": y}

    def __repr__(self) -> str:
        return f"ParamMatrices(n={self.n}, modulus={self.modulus})"


def cocycle_law(diagonal: Sequence[int], q: int, modulus: int) -> bool:
    """y x y^{-1} == x^q for x = diag(zeta^e) over reduced exponents, zeta of order modulus.

    Conjugating by the cyclic shift rotates the diagonal exponents left by
    one (the corner unit cancels), and x^q multiplies them by q: one comparison.

    >>> cocycle_law((1, 11), 11, 120), cocycle_law((1, 12), 11, 120)
    (True, False)
    """
    return [e * q % modulus for e in diagonal] == [*diagonal[1:], diagonal[0]]
