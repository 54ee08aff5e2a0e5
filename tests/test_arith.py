"""Integer arithmetic helpers: factorization, prime powers, admissibility."""

from time import perf_counter

import pytest
from hypothesis import given, strategies as st

from llc_params.arith import (
    PRIME_BOUND,
    check_admissible,
    factorint,
    is_prime,
    prime_power_split,
    valuation,
)
from llc_params.errors import LlcError

from oracles import naive_is_prime

SMALL_PRIMES = [p for p in range(2, 500) if naive_is_prime(p)]


def test_factorint_small_values():
    assert factorint(1) == ()
    assert factorint(2) == ((2, 1),)
    assert factorint(120) == ((2, 3), (3, 1), (5, 1))
    assert factorint(2**10 * 3**4) == ((2, 10), (3, 4))


def test_factorint_rejects_nonpositive():
    with pytest.raises(LlcError):
        factorint(0)
    with pytest.raises(LlcError):
        factorint(-6)


@given(st.integers(min_value=1, max_value=200_000))
def test_factorint_reconstructs(n):
    prod = 1
    pairs = factorint(n)
    assert list(pairs) == sorted(pairs)
    for p, e in pairs:
        assert naive_is_prime(p)
        assert e >= 1
        prod *= p**e
    assert prod == n


@given(st.integers(min_value=-100, max_value=20_000))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == naive_is_prime(n)


@given(st.integers(min_value=20_000, max_value=10**9))
def test_is_prime_matches_trial_division_on_larger_numbers(n):
    assert is_prime(n) == naive_is_prime(n)


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2..7 and 2..31 respectively
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)


def test_is_prime_refuses_above_the_bound():
    with pytest.raises(LlcError) as exc:
        is_prime(PRIME_BOUND)
    assert exc.value.code == "n-too-large"
    # a small factor still decides
    assert not is_prime(3 * PRIME_BOUND)


@pytest.mark.parametrize("n", [5.0, 2.0, 7.5, True, "5", None, 5 + 0j])
def test_is_prime_is_false_for_anything_but_an_exact_int(n):
    # 5.0 used to pass every Miller-Rabin round and read as prime
    assert is_prime(n) is False


@pytest.mark.parametrize(
    "ell,message", [(5.0, "ell = 5.0 is not prime"), ("5", "ell = '5' is not prime")]
)
def test_check_admissible_refuses_an_inexact_ell_through_is_prime(ell, message):
    with pytest.raises(LlcError) as exc:
        check_admissible(11, ell)
    assert (exc.value.code, exc.value.message) == ("ell-not-prime", message)


def test_prime_power_split():
    assert prime_power_split(11) == (11, 1)
    assert prime_power_split(27) == (3, 3)
    assert prime_power_split(121) == (11, 2)
    assert prime_power_split(3**8000) == (3, 8000)
    assert prime_power_split(1000000000000000003) == (1000000000000000003, 1)
    assert prime_power_split(1000000000000000003**7) == (1000000000000000003, 7)
    assert prime_power_split(1009**1000) == (1009, 1000)
    assert prime_power_split(43**2000) == (43, 2000)


def test_prime_power_split_of_a_large_power_is_fast():
    # the root's seed lies just above the root, so Newton takes a few steps:
    # about 1 ms each.  Seeded at n itself, Newton takes about 0.4 s
    for q in (43**2000, 1009**1000):
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            prime_power_split(q)
            best = min(best, perf_counter() - start)
        assert best < 0.1, f"prime_power_split took {best:.3f} s"


@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=1, max_value=200))
def test_prime_power_split_round_trips(p, e):
    assert prime_power_split(p**e) == (p, e)


def test_prime_power_split_refuses_a_root_above_the_bound():
    with pytest.raises(LlcError) as exc:
        prime_power_split((2**89 - 1) ** 3)
    assert exc.value.code == "q-too-large"


def test_prime_power_split_rejects_composites():
    for q in (1, 0, 6, 12, 100, 3**20 * 5, 43**5 * 47):
        with pytest.raises(LlcError) as exc:
            prime_power_split(q)
        assert exc.value.code == "q-not-prime-power"


def test_valuation():
    assert valuation(120, 5) == 1
    assert valuation(120, 2) == 3
    assert valuation(7, 5) == 0


def test_valuation_refuses_a_huge_prime_as_p():
    with pytest.raises(LlcError) as exc:
        valuation(120, PRIME_BOUND + 6)
    assert exc.value.code == "p-too-large"
    assert str(exc.value).startswith(f"p = {PRIME_BOUND + 6} is too large")


@given(
    st.integers(min_value=1, max_value=10**6),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
def test_valuation_reassembles(n, p):
    v = valuation(n, p)
    m = n // p**v
    assert n == p**v * m
    assert m % p != 0


def test_check_admissible_accepts():
    assert check_admissible(11, 5) == (11, 1)
    assert check_admissible(27, 5) == (3, 3)
    assert check_admissible(3, 7) == (3, 1)


@pytest.mark.parametrize(
    "q,ell,code",
    [
        (12, 5, "q-not-prime-power"),
        (8, 5, "p-even"),
        (2, 5, "p-even"),
        (11, 6, "ell-not-prime"),
        (11, 1, "ell-not-prime"),
        (11, 2, "ell-even"),
        (11, 11, "ell-equals-p"),
        (121, 11, "ell-equals-p"),
        (2**89 - 1, 5, "q-too-large"),
        (11, 2**89 - 1, "ell-too-large"),
        (11, 2 * PRIME_BOUND, "ell-not-prime"),
        # no exact int: 9.0 used to read as (3, 2)
        (9.0, 5, "q-not-prime-power"),
        (True, 5, "q-not-prime-power"),
        ("11", 5, "q-not-prime-power"),
        (11, 5.0, "ell-not-prime"),
        (11, True, "ell-not-prime"),
        (11, "5", "ell-not-prime"),
    ],
)
def test_check_admissible_rejects_with_distinct_codes(q, ell, code):
    with pytest.raises(LlcError) as exc:
        check_admissible(q, ell)
    assert exc.value.code == code
    assert exc.value.exit_code == 2
