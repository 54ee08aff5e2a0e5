"""Every (q, ell) the parser accepts ends fast: an answer or a structured error.

Inputs that used to hang in trial division, q and ell beyond the certified
primality bound, reports with integers too long to print, and guards that
component, block and match never factor and that enumeration validates once.
"""

import gc
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import pytest

import llc_params
from llc_params import arith, cli
from llc_params.cocycles import twisted_centralizer
from llc_params.glparams import ZBAR, GLFamily, TrselpGL
from llc_params.lattice import IntMatrix, smith_normal_form
from llc_params.rootdata import WeylTwist, coxeter_twist, identity_twist, preset
from llc_params.sweep import GRID_N_COMPONENT, GRID_Q, admissible_ells

from oracles import (
    cycle_lengths,
    e_coordinate_cokernel,
    preset_twist_matrix,
    shifted,
    type_a_fixed_cokernel,
)

BUDGET_S = 1.5
PSI_12 = 318665857834031151167461  # strong pseudoprime to 2..37; base 41 catches it
PSI_13 = 3317044064679887385961981  # strong pseudoprime to all of 2..41


def run_timed(argv):
    out = io.StringIO()
    start = perf_counter()
    code = cli.run(argv, stream=out)
    elapsed = perf_counter() - start
    assert elapsed < BUDGET_S, f"{argv[:7]} took {elapsed:.2f} s"
    return code, out.getvalue()


def component_argv(n, q, ell):
    return ["component", "--n", str(n), "--q", str(q), "--ell", str(ell), "--output", "json"]


@pytest.mark.parametrize(
    "n,q", [(17, 11), (2, 1000000000000000003)], ids=["gl17-q11", "gl2-q1e18"]
)
def test_former_hangs_answer(n, q):
    code, text = run_timed(component_argv(n, q, 3))
    assert code == 0
    assert json.loads(text)["input"]["q"] == q


@pytest.mark.parametrize(
    "q,ell,code",
    [
        (2**89 - 1, 3, "q-too-large"),
        (PSI_13, 3, "q-too-large"),
        (PSI_12, 3, "q-not-prime-power"),
        (10**4000 + 1, 3, "q-too-large"),
        (11, 2**89 - 1, "ell-too-large"),
    ],
    ids=["mersenne-89", "psi13", "psi12", "1e4000-plus-1", "ell-mersenne-89"],
)
def test_large_inputs_get_structured_errors(q, ell, code):
    rc, text = run_timed(component_argv(2, q, ell))
    assert rc == 2
    error = json.loads(text)["error"]
    assert error["code"] == code
    assert error["hint"]


@pytest.mark.parametrize("q", [3**8000, 43**2000], ids=["3^8000", "43^2000"])
@pytest.mark.parametrize(
    "cmd,output",
    [
        ("component", "text"),
        ("component", "json"),
        ("block", "text"),
        ("block", "json"),
        ("match", "json"),
        ("summary", "json"),
        ("enumerate", "text"),
        ("enumerate", "json"),
        ("verify", "json"),
    ],
)
def test_reports_too_long_to_print_get_structured_errors(q, cmd, output):
    # q^2 - 1 has more decimal digits than Python converts by default
    argv = [cmd, "--n", "2", "--q", str(q), "--ell", "5", "--output", output]
    if cmd == "verify":
        argv += ["--a", "1"]
    rc, text = run_timed(argv)
    assert rc == 2
    error = json.loads(text)["error"]
    assert error["code"] == "output-too-large"
    assert error["hint"]


@pytest.mark.parametrize("cmd", ["match", "summary", "verify"])
def test_text_reports_without_long_integers_still_answer(cmd):
    # these text reports print neither q^2 - 1 nor anything as long
    argv = [cmd, "--n", "2", "--q", str(3**8000), "--ell", "5", "--a", "1"]
    rc, text = run_timed(argv if cmd == "verify" else argv[:-2])
    assert rc == 0
    assert text.startswith(f"{cmd} [GL_2, q=")


@pytest.mark.parametrize("cmd", ["component", "match"])
def test_high_rank_descriptors_answer(cmd):
    # GL_96: every matrix is rank-sized, so the work grows with the report
    code, text = run_timed([cmd, "--n", "96", "--q", "3", "--ell", "5"])
    assert code == 0
    assert text.startswith(f"{cmd} [GL_96, q=3")


@pytest.mark.parametrize("cmd", ["summary", "block"])
def test_gl150_reports_answer(cmd):
    # the Coxeter twisted tori are sparse; their Smith forms stay sparse too
    code, text = run_timed([cmd, "--n", "150", "--q", "3", "--ell", "5"])
    assert code == 0
    assert text.startswith(f"{cmd} [GL_150, q=3")


@pytest.mark.parametrize("group", ["SL", "PGL"])
@pytest.mark.parametrize("cmd", ["component", "match"])
def test_semisimple_rank_60_answers(cmd, group):
    code, text = run_timed([cmd, "--group", group, "--n", "60", "--q", "3", "--ell", "5"])
    assert code == 0
    assert text.startswith(f"{cmd} [") and "_60, q=3" in text.splitlines()[0]


@pytest.mark.parametrize("cmd", ["block", "summary", "component"])
def test_gl300_text_reports_answer(cmd):
    # a preset is held by its kind and rank: no text report lists its 89,700 roots
    code, text = run_timed([cmd, "--n", "300", "--q", "3", "--ell", "5"])
    assert code == 0
    assert text.startswith(f"{cmd} [GL_300, q=3")


@pytest.mark.parametrize("group", ["SL", "PGL"])
@pytest.mark.parametrize("cmd", ["component", "match"])
def test_semisimple_rank_200_answers(cmd, group):
    code, text = run_timed([cmd, "--group", group, "--n", "200", "--q", "3", "--ell", "5"])
    assert code == 0
    assert text.startswith(f"{cmd} [") and "_200, q=3" in text.splitlines()[0]


@pytest.mark.parametrize("group", ["GL", "SL"])
def test_rank_200_component_json_answers(group):
    # 2n^2(n - 1) root and coroot entries, 176 MB of JSON, each root written
    # from its runs
    code, text = run_timed(["component", "--group", group, "--n", "200", "--q", "3", "--ell", "5",
                            "--output", "json"])
    assert code == 0
    assert '"charLatticeRank"' in text


@pytest.mark.parametrize("coeff", ["zbar", "fbar"])
def test_gl3000_verify_text_answers(coeff):
    # x is held by its diagonal and y by its corner, and the text report
    # counts the n^2 / s support positions of an orbit of size s: O(n) for
    # the regular a = 1 (the diagonal) and for the degenerate a = 0 (all)
    for a, support in (("1", "yes (3000 positions)"), ("0", "no (9000000 positions)")):
        argv = ["verify", "--n", "3000", "--q", "3", "--ell", "5", "--a", a, "--coeff", coeff]
        code, text = run_timed(argv)
        assert code == 0
        assert text.startswith("verify [GL_3000, q=3")
        assert f"support diagonal: {support}" in text


def test_text_verify_never_lists_the_nilpotent_support(monkeypatch):
    calls, listed = [], GLFamily.support

    def listing(fam, coeff, a):
        calls.append(a)
        return listed(fam, coeff, a)

    monkeypatch.setattr(GLFamily, "support", listing)
    for n, a in (("2", "4"), ("6", "0"), ("6", "1"), ("3000", "0")):
        code, _ = run_timed(["verify", "--n", n, "--q", "3", "--ell", "5", "--a", a])
        assert code == 0
    assert calls == []
    # the JSON body still lists it
    code, text = run_timed(["verify", "--n", "2", "--q", "11", "--ell", "5", "--a", "12",
                            "--output", "json"])
    assert code == 0 and calls == [12]
    assert json.loads(text)["nilpotentSupport"]["positions"] == [[1, 1], [1, 2], [2, 1], [2, 2]]


def test_the_nilpotent_support_keeps_no_memory():
    # the support is listed afresh on every call: no table keyed by n, by
    # (n, s) or by the parameter outlives its result.  GL_1500 at a = 0 has
    # orbit size 1 and 2,250,000 positions, about 200 MB as pairs.  Tracing
    # those allocations takes seconds, so the GL_1500 calls are timed and
    # counted in pymalloc blocks, and tracemalloc watches GL_300 (90,000
    # positions, 6.2 MB, which any table would keep)
    fam = GLFamily(1500, 3, 5)
    gc.collect()
    blocks = sys.getallocatedblocks()
    start = perf_counter()
    for _ in range(2):
        assert len(fam.support(ZBAR, 0)) == 1500**2
    elapsed = perf_counter() - start
    assert elapsed < BUDGET_S, f"two GL_1500 supports took {elapsed:.2f} s"
    gc.collect()
    assert sys.getallocatedblocks() - blocks < 2**14  # under 1 MB of 64-byte blocks

    fam = GLFamily(300, 3, 5)
    tracemalloc.start()
    try:
        for _ in range(2):
            assert len(fam.support(ZBAR, 0)) == 300**2
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2**20, f"{held} bytes held after the supports were dropped"


@pytest.mark.parametrize("cmd", ["component", "match"])
def test_gl1000_coxeter_reports_answer(cmd):
    # GL takes no Smith form: each cokernel is read off the n-cycle
    code, text = run_timed([cmd, "--n", "1000", "--q", "3", "--ell", "5"])
    assert code == 0
    assert text.startswith(f"{cmd} [GL_1000, q=3")


@pytest.mark.parametrize("cmd", ["block", "match", "summary"])
def test_gl5000_text_reports_answer(cmd):
    # q^n - 1 has 2,386 digits; the center's rank is read off the datum
    code, text = run_timed([cmd, "--n", "5000", "--q", "3", "--ell", "5"])
    assert code == 0
    assert text.startswith(f"{cmd} [GL_5000, q=3")


def test_gl10000_identity_twist_answers():
    # w - q = (1 - q) I: 10,000 equal diagonal entries pass as one group
    argv = ["match", "--n", "10000", "--q", "3", "--ell", "5", "--weyl", "identity"]
    code, text = run_timed(argv)
    assert code == 0
    assert text.startswith("match [GL_10000, q=3")


@pytest.mark.parametrize("group", ["SL", "PGL"])
def test_semisimple_rank_1000_components_answer(group):
    # the Coxeter twist is written in closed form, O(n)
    code, text = run_timed(["component", "--group", group, "--n", "1000", "--q", "3", "--ell", "5"])
    assert code == 0
    assert text.startswith("component [") and "_1000, q=3" in text.splitlines()[0]


def _refused_as_no_twist(n, rows):
    argv = ["block", "--n", str(n), "--q", "3", "--ell", "5", "--weyl", json.dumps(rows)]
    code, text = run_timed([*argv, "--output", "json"])
    assert code == 2
    error = json.loads(text)["error"]
    assert (error["code"], error["message"]) == (
        "invalid-argument",
        f"twist matrix is no signed permutation of the GL_{n} lattice",
    )


def _dense(n):
    rng = random.Random(100)
    return [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]


def _identity_plus_e01(n):
    return [[int(i == j or (i, j) == (0, 1)) for j in range(n)] for i in range(n)]


def test_a_dense_weyl_matrix_is_refused_within_budget():
    # a matrix that does not read as a signed permutation is refused in
    # O(nnz), with no Smith form and no root list
    _refused_as_no_twist(100, _dense(100))


# a Smith form of a dense matrix grows its entries, and the GL_1000 roots are
# 999,000 vectors of length 1000: the refusal must take neither
@pytest.mark.parametrize(
    "n,make", [(200, _dense), (1000, _identity_plus_e01)],
    ids=["dense-gl200", "gl1000-identity-plus-e01"],
)
def test_large_non_twist_weyl_matrices_are_refused_within_budget(n, make):
    _refused_as_no_twist(n, make(n))


def test_gl300_coxeter_smith_form_is_fast():
    n = 300
    rows = [[1 if i == (j + 1) % n else 0 for j in range(n)] for i in range(n)]
    w_minus_3 = IntMatrix(shifted(rows, 1, -3))
    start = perf_counter()
    invariants = smith_normal_form(w_minus_3)
    elapsed = perf_counter() - start
    assert elapsed < BUDGET_S, f"GL_300 w - 3 took {elapsed:.2f} s"
    assert invariants == (1,) * (n - 1) + (3**n - 1,)


def test_gl5000_twist_matrices_are_built_from_their_nonzeros(smith_forms):
    # a twist is its signed cycle type and its cokernels are read off it, so
    # the n-cycle, its transpose and the identity, and their w - 3 on each
    # lattice, take no Smith form.  A matrix is held as its nonzeros, so a
    # permutation matrix of each, made here, and its transpose, as
    # `weyl_twist` reads one, cost O(n), not n^2 entries
    n = 5000

    def built(make):
        start = perf_counter()
        out = make()
        elapsed = perf_counter() - start
        assert elapsed < BUDGET_S, f"GL_{n} matrix took {elapsed:.2f} s"
        return out

    for family in ("GL", "SL", "PGL"):
        rd = preset(family, n)
        for twist, order, perm in (
            (built(lambda: coxeter_twist(rd)), 3**n - 1, [(j + 1) % n for j in range(n)]),
            (built(coxeter_twist(rd).transpose), 3**n - 1, [(j - 1) % n for j in range(n)]),
            (built(lambda: identity_twist(rd)), 2**n, list(range(n))),
        ):
            assert twist.n == n
            assert twist == WeylTwist.from_permutation(twist.kind, tuple(perm), 1)
            group = built(lambda: twist.cokernel(1, -3))
            # on the sum-zero lattice and on Z^n / Z(1, ..., 1), |det(w - 3)|
            # loses the factor 3 - 1 of the line Z^n / L or Z(1, ..., 1)
            assert (group.free_rank, group.order()) == (0, order // (1 if family == "GL" else 2))
            assert smith_forms == []
            if family == "GL":
                m = built(lambda: IntMatrix._make(tuple(((j, 1),) for j in perm), n, n))
                t = built(m.transpose)
                assert (t.rows, t.cols, sum(map(len, t.nonzeros))) == (n, n, n)


# a child sets an address-space limit on itself alone, times `cli.run` on the
# argv it reads from stdin, and prints the exit code, the seconds taken and the
# report's first line
CHILD_AS_BYTES = 3 << 30
_CHILD = (
    "import io, resource, sys, time\n"
    f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_AS_BYTES}, {CHILD_AS_BYTES}))\n"
    "from llc_params import cli\n"
    "out, start = io.StringIO(), time.perf_counter()\n"
    "code = cli.run(sys.stdin.read().split(), stream=out)\n"
    "print(code, time.perf_counter() - start, out.getvalue().partition('\\n')[0])\n"
)
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("group,n", [
    ("GL", 50000), ("SL", 20000), ("PGL", 20000), ("GL", 10**6), ("SL", 10**6), ("PGL", 10**6),
])
def test_high_rank_coxeter_match_answers_in_a_child(group, n):
    # each of the four cokernels reads the one pair (n, 1) off the twist and
    # takes at most one power 3^n; the child's own address-space limit keeps
    # a blow-up from reaching the machine
    child = subprocess.run(
        [sys.executable, "-c", _CHILD],
        input=f"match --group {group} --n {n} --q 3 --ell 5",
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    code, elapsed, first = child.stdout.split(" ", 2)
    assert code == "0", child.stdout
    assert float(elapsed) < 0.5, f"{group}_{n} match took {float(elapsed):.2f} s"
    assert first.startswith(f"match [{group}_{n}, q=3, ell=5")


def test_coxeter_and_identity_twists_build_nothing_of_size_n():
    # a twist is its signed cycle type: at n = 10^18 the Coxeter and identity
    # twists, the transpose, the datum and coker(1 - w), which takes no power
    # (r = 1), each answer in microseconds, and nothing of size n could be built
    n = 10**18

    def fast(make):
        best = float("inf")
        for _ in range(5):  # the best of five, past a stray pause of the machine
            start = perf_counter()
            out = make()
            best = min(best, perf_counter() - start)
        assert best < 1e-3, f"{make} took {best * 1e6:.0f} us"
        return out

    for family in ("GL", "SL", "PGL"):
        rd = preset(family, n)
        w, one = fast(lambda: coxeter_twist(rd)), fast(lambda: identity_twist(rd))
        assert (w.cycles, one.cycles, w.n, one.n) == (((n, 1),), ((1, n),), n, n)
        assert fast(w.transpose).cycles == w.cycles and fast(one.transpose).cycles == one.cycles
        assert fast(lambda: w.datum) == rd and fast(lambda: one.datum) == rd
        # the n-cycle fixes only the line of (1, ..., 1): Z on Z^n, and
        # Z/n on the semisimple lattices, where that line meets the lattice
        stabilizer = fast(lambda: twisted_centralizer(w))
        assert (stabilizer.free_rank, stabilizer.invariant_factors) == (
            (1, ()) if family == "GL" else (0, (n,))
        )


def test_a_random_sl20000_twist_takes_its_fixed_scheme_within_budget():
    # a seeded permutation of sign -1 with 11 cycles: coker(w - 3) on the
    # sum-zero lattice takes one power of 3 per distinct cycle length
    n, eps = 20000, -1
    perm = random.Random(18).sample(range(n), n)
    lengths = cycle_lengths(perm)
    assert len(lengths) == 11
    twist = WeylTwist.from_permutation("adjoint", tuple(perm), eps)
    start = perf_counter()
    group = twist.cokernel(1, -3)
    elapsed = perf_counter() - start
    assert elapsed < BUDGET_S, f"SL_{n} coker(w - 3) took {elapsed:.2f} s"
    # |det(w - 3)| is the product of the cycles' 3^l - eps^l on Z^n, and
    # 3 - eps on the line Z^n / L
    order = 1
    for length in lengths:
        order *= 3**length - eps**length
    assert (group.free_rank, group.order()) == (0, order // (3 - eps))


def staircase(k, n):
    """A permutation of range(n) with one cycle of each length 1, ..., k, then fixed points."""
    perm, start = [], 0
    for length in range(1, k + 1):
        perm += range(start + 1, start + length)
        perm.append(start)
        start += length
    return tuple(perm) + tuple(range(start, n))


@pytest.mark.parametrize("kind", ["sc", "adjoint"])
def test_a_staircase_sl20000_twist_takes_its_cokernels_within_budget(kind):
    # 199 distinct cycle lengths: the quotient by (1, ..., 1) takes the Smith
    # invariants of 199 geometric sums of up to 199 terms, by gcd and lcm
    n, k = 20000, 199
    perm = staircase(k, n)
    lengths = cycle_lengths(perm)
    assert len(set(lengths)) == k
    twist = WeylTwist.from_permutation(kind, perm, 1)
    start = perf_counter()
    fixed, coinvariants = twist.cokernel(1, -3), twist.cokernel(-1, 1)
    elapsed = perf_counter() - start
    assert elapsed < BUDGET_S, f"staircase SL_{n} cokernels took {elapsed:.2f} s"
    order = 1
    for length in lengths:
        order *= 3**length - 1
    assert (fixed.free_rank, fixed.order()) == (0, order // 2)
    # each cycle gives Z, less the line of the cycle lengths, whose gcd is 1
    assert (coinvariants.free_rank, coinvariants.invariant_factors) == (len(lengths) - 1, ())


@pytest.mark.parametrize("kind", ["sc", "adjoint"])
@pytest.mark.parametrize("sign", [1, -1])
def test_a_small_staircase_matches_the_presentation(kind, sign):
    # nine distinct cycle lengths: the quotient by (1, ..., 1) meets many
    # determinantal divisors, which the exhaustive small twists (at most two
    # distinct lengths) do not
    perm = staircase(9, 46)
    twist = WeylTwist.from_permutation(kind, perm, sign)
    for q in (2, 3):  # the six (s, t) pairs with a unit of test_twist_cokernels
        for s, t in ((1, -q), (q, -1), (-1, 1), (1, 1), (-1, q), (q, 1)):
            group = twist.cokernel(s, t)
            expected = e_coordinate_cokernel(kind, perm, sign, s, t)
            assert (group.free_rank, group.invariant_factors) == expected, (q, s, t)


def _explicit_argv(cmd, family, perm, weyl):
    return [cmd, "--group", family, "--n", str(len(perm)), "--q", "3", "--ell", "5",
            "--weyl", weyl, "--output", "json"]


@pytest.mark.parametrize(
    "cmd,family,n",
    [("block", "GL", 1000), ("match", "GL", 1000), ("match", "SL", 200)],
    ids=["GL-1000", "GL-1000-match", "SL-200"],
)
def test_explicit_coxeter_twists_validate_fast(cmd, family, n):
    # an explicit matrix is read as its signed permutation in O(nnz): no Smith
    # form of its own and no root list.  The GL_1000 JSON passes 128 KiB, the
    # limit on one argv string, so the matrices reach the program by `cli.run`
    perm = [(j + 1) % n for j in range(n)]
    explicit = json.dumps(preset_twist_matrix(family, perm, 1))
    code, text = run_timed(_explicit_argv(cmd, family, perm, explicit))
    assert code == 0
    payload = json.loads(text)
    coxeter = json.loads(run_timed(_explicit_argv(cmd, family, perm, "coxeter"))[1])
    assert payload["input"].pop("weyl") == explicit
    assert coxeter["input"].pop("weyl") == "coxeter"
    assert payload == coxeter


def test_a_random_explicit_sl400_twist_answers_within_budget():
    n = 400
    perm = random.Random(n).sample(range(n), n)
    explicit = json.dumps(preset_twist_matrix("SL", perm, 1))
    code, text = run_timed(_explicit_argv("block", "SL", perm, explicit))
    assert code == 0
    # the finite torus on the cocharacters (the simply connected lattice)
    free, torsion = type_a_fixed_cokernel("PGL", cycle_lengths(perm), 1, 3)
    order = 1
    for d in torsion:
        order *= d
    assert free == 0 and json.loads(text)["block"]["finiteTorusOrder"] == order


# GL_2 q=3137: q^2 - 1 = 9840768, just under the 10^7 modulus cap, and its
# last page starts at count - 100 = 4918716.  GL_6 q=13 fbar at ell = 3 and
# 7 are the families with the most bands under the cap (largest powers 0.69 M
# and 0.54 M); their last pages start at count - 100
@pytest.mark.parametrize(
    "n,q,ell,coeff,offset,limit",
    [
        (1, 9999991, 3, "zbar", 9000000, 10),
        (2, 1583, 3, "zbar", 500000, 100),
        (4, 47, 13, "zbar", 368652, 100),
        (2, 3137, 3, "zbar", 4918716, 100),
        (6, 13, 3, "fbar", 89236, 100),
        (6, 13, 7, "fbar", 114456, 100),
    ],
    ids=["gl1-q9999991", "gl2-q1583", "gl4-q47", "gl2-q3137-last-page",
         "gl6-q13-ell3-fbar-last-page", "gl6-q13-ell7-fbar-last-page"],
)
def test_deep_enumerate_pages_answer(n, q, ell, coeff, offset, limit):
    # a deep page skips whole scan windows and cuts rejected bands out of the
    # windows it scans, instead of testing every exponent below the page
    argv = ["enumerate", "--n", str(n), "--q", str(q), "--ell", str(ell), "--coeff", coeff,
            "--offset", str(offset), "--limit", str(limit), "--output", "json"]
    code, text = run_timed(argv)
    assert code == 0
    doc = json.loads(text)
    page = [p["a"] for p in doc["parameters"]]
    m = doc["modulus"]
    assert len(page) == limit and page == sorted(set(page))
    assert doc["count"] >= offset + limit
    # each listed exponent is the minimum of a size-n orbit
    assert all(a * q**i % m > a for a in page for i in range(1, n))
    if n == 1:
        assert page == list(range(offset, offset + limit))


def replace_everywhere(monkeypatch, original, replacement):
    """Rebind every llc_params module attribute that is ``original``.

    Modules bind functions by name (``from .arith import f``), so patching
    the defining module alone would miss the callers.
    """
    for name, module in list(sys.modules.items()):
        if not name.startswith(llc_params.__name__):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def test_enumerate_validates_its_family_once(monkeypatch):
    calls = {"check_admissible": 0, "valuation": 0}

    def counting(name):
        original = getattr(arith, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        replace_everywhere(monkeypatch, getattr(arith, name), counting(name))
    argv = ["enumerate", "--n", "2", "--q", "173", "--ell", "43", "--limit", "2000"]
    code, text = run_timed(argv + ["--output", "json"])
    assert code == 0
    assert len(json.loads(text)["parameters"]) == 2000
    # one family, validated once; minting its 2000 parameters checks nothing
    assert calls == {"check_admissible": 1, "valuation": 1}


@pytest.mark.parametrize("output", ["json", "text"])
def test_an_enumerate_page_builds_no_parameter_per_row(monkeypatch, output):
    # a page is written from its exponents: JSON takes the row of one
    # parameter, built through the public constructor, and text builds none
    calls = {"_make": 0, "__init__": 0}
    make, init = TrselpGL._make, TrselpGL.__init__
    exponents, dumps = GLFamily.exponents, cli._dumps
    returned, payloads = [], []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def recording_exponents(*args, **kwargs):
        returned.append(exponents(*args, **kwargs))
        return returned[-1]

    def recording_dumps(payload):
        payloads.append(payload)
        return dumps(payload)

    monkeypatch.setattr(TrselpGL, "_make", counting("_make", make))
    monkeypatch.setattr(TrselpGL, "__init__", counting("__init__", init))
    monkeypatch.setattr(GLFamily, "exponents", recording_exponents)
    monkeypatch.setattr(cli, "_dumps", recording_dumps)
    page = ["enumerate", "--n", "2", "--q", "499", "--ell", "3", "--offset", "244",
            "--output", output, "--limit"]
    for limit in (1, 10, 2000):
        calls.update(_make=0, __init__=0)
        returned.clear()
        payloads.clear()
        code, text = run_timed([*page, str(limit)])
        assert code == 0
        rows = json.loads(text)["parameters"] if output == "json" else text.splitlines()[4:]
        assert len(rows) == limit
        assert calls["_make"] == 0 and calls["__init__"] <= 1, (limit, calls)
        assert len(returned) == 1
        if output == "json":
            # the body holds the very list of exponents: no dict is built per row
            assert payloads[0]["parameters"].values is returned[0]


def test_matching_never_factors(monkeypatch):
    def refuse(n):
        raise AssertionError(f"factorint({n}) called")

    replace_everywhere(monkeypatch, arith.factorint, refuse)
    assert arith.factorint is refuse
    inputs = [(17, 11, 3), (17, 11, 5)]
    inputs += [(n, q, ell) for n in GRID_N_COMPONENT for q in GRID_Q for ell in admissible_ells(q)]
    for n, q, ell in inputs:
        for cmd in ("component", "block", "match"):
            argv = [cmd, "--n", str(n), "--q", str(q), "--ell", str(ell), "--output", "json"]
            code, text = run_timed(argv)
            assert code == 0, text
