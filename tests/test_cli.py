"""Command line contract: exit codes, schema validity, determinism, rendering."""

import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from llc_params import blocks, cli, cocycles, glparams, sweep
from llc_params.cocycles import component_descriptor
from llc_params.lattice import IntMatrix
from llc_params.rootdata import WeylTwist, coxeter_twist, preset

from oracles import preset_twist_matrix

SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "docs" / "schema.json").read_text())
VALIDATOR = Draft202012Validator(SCHEMA)


def run_cli(argv):
    """Run the CLI in-process; return (exit_code, text)."""
    out = io.StringIO()
    code = cli.run(argv, stream=out)
    return code, out.getvalue()


def run_json(argv):
    """Run with JSON output; validate against the published schema."""
    code, text = run_cli(argv)
    payload = json.loads(text)
    VALIDATOR.validate(payload)
    return code, payload


# ---------------------------------------------------------------------------
# happy paths, schema validation


def test_component_json_golden():
    code, payload = run_json(
        ["component", "--n", "2", "--q", "11", "--ell", "5", "--output", "json"]
    )
    assert code == 0
    assert payload["schemaVersion"] == 1
    assert payload["command"] == "component"
    assert payload["mu"] == {"freeRank": 0, "torsion": [5]}
    assert payload["stabilizer"] == {"freeRank": 1, "torsion": []}
    assert payload["orbitTorusRank"] == 1
    assert payload["fixedScheme"] == {"freeRank": 0, "torsion": [120]}
    assert payload["elliptic"] is True
    assert payload["notation"] == "[G_m/G_m] × μ_5"


def test_component_json_sl_and_pgl():
    for group in ("SL", "PGL"):
        code, payload = run_json(
            ["component", "--group", group, "--n", "2", "--q", "11", "--ell", "5",
             "--output", "json"]
        )
        assert code == 0
        assert payload["fixedScheme"] == {"freeRank": 0, "torsion": [12]}
        assert payload["productForm"] == "point_mod_S_psi"


def test_enumerate_json():
    code, payload = run_json(
        ["enumerate", "--n", "2", "--q", "11", "--ell", "5", "--coeff", "fbar",
         "--output", "json"]
    )
    assert code == 0
    assert payload["count"] == 11
    assert payload["modulus"] == 24
    assert len(payload["parameters"]) == 11
    assert payload["parameters"][0]["a"] == 1
    assert all(p["coeff"] == "fbar" for p in payload["parameters"])


def test_enumerate_pagination():
    base = ["enumerate", "--n", "2", "--q", "11", "--ell", "5", "--coeff", "fbar",
            "--output", "json"]
    _, full = run_json(base)
    _, page = run_json(base + ["--limit", "4", "--offset", "3"])
    assert page["offset"] == 3 and page["limit"] == 4
    assert page["parameters"] == full["parameters"][3:7]
    _, beyond = run_json(base + ["--offset", "100"])
    assert beyond["parameters"] == []
    assert beyond["count"] == 11
    # an empty page still counts the family
    empty = ["enumerate", "--n", "2", "--q", "11", "--ell", "5", "--limit", "0"]
    code, page = run_json(empty + ["--output", "json"])
    assert code == 0
    assert (page["parameters"], page["count"], page["limit"]) == ([], 55, 0)
    code, text = run_cli(empty)
    assert code == 0
    assert text.splitlines()[2:] == ["  count:   55", "  showing 0 at offset 0"]


def test_verify_json():
    code, payload = run_json(
        ["verify", "--n", "2", "--q", "11", "--ell", "5", "--a", "1", "--output", "json"]
    )
    assert code == 0
    assert payload["regular"] is True
    assert payload["cocycleHolds"] is True
    assert payload["nilpotentSupport"]["diagonalOnly"] is True
    assert payload["nilpotentSupport"]["positions"] == [[1, 1], [2, 2]]
    assert payload["matrices"]["x"][0][0] == {"exp": 1}


def test_verify_non_regular_parameter():
    code, payload = run_json(
        ["verify", "--n", "2", "--q", "11", "--ell", "5", "--a", "12", "--output", "json"]
    )
    assert code == 0
    assert payload["regular"] is False
    # the built pair satisfies the conjugation relation for any exponent;
    # degeneracy shows up in the orbit size and the support instead
    assert payload["cocycleHolds"] is True
    assert payload["nilpotentSupport"]["diagonalOnly"] is False
    assert len(payload["nilpotentSupport"]["positions"]) == 4


def test_verify_fbar_checks_the_canonical_lift():
    # residue exponent 1 mod 24 lifts to 25 mod 120 (divisible by 5)
    code, payload = run_json(
        ["verify", "--n", "2", "--q", "11", "--ell", "5", "--coeff", "fbar", "--a", "1",
         "--output", "json"]
    )
    assert code == 0
    assert payload["parameter"]["coeff"] == "fbar"
    assert payload["parameter"]["a"] == 1
    assert payload["parameter"]["modulus"] == 24
    assert payload["regular"] is True
    assert payload["cocycleHolds"] is True
    assert payload["matrices"]["modulus"] == 120
    assert payload["matrices"]["x"][0][0] == {"exp": 25}
    assert payload["nilpotentSupport"] == {"positions": [[1, 1], [2, 2]], "diagonalOnly": True}


def test_verify_fbar_agrees_with_the_residue_orbit():
    # every residue exponent of GL_3 at q = 7, ell = 3 (modulus 38): the
    # canonical lift is regular and diagonal-only exactly when the residue is
    for a in range(38):
        code, payload = run_json(
            ["verify", "--n", "3", "--q", "7", "--ell", "3", "--coeff", "fbar",
             "--a", str(a), "--output", "json"]
        )
        assert code == 0, a
        assert payload["cocycleHolds"] is True
        regular = len({a * 7**i % 38 for i in range(3)}) == 3
        assert payload["regular"] is regular
        assert payload["nilpotentSupport"]["diagonalOnly"] is regular


def test_block_json():
    code, payload = run_json(["block", "--n", "2", "--q", "11", "--ell", "5",
                              "--output", "json"])
    assert code == 0
    assert payload["block"]["torsion"] == {"freeRank": 0, "torsion": [5]}
    assert payload["block"]["freeRank"] == 1
    assert payload["block"]["finiteTorusOrder"] == 120
    assert payload["block"]["k"] == 1


def test_block_json_pgl():
    code, payload = run_json(
        ["block", "--group", "PGL", "--n", "2", "--q", "11", "--ell", "3",
         "--output", "json"]
    )
    assert code == 0
    assert payload["block"]["finiteTorusOrder"] == 12
    assert payload["block"]["torsion"] == {"freeRank": 0, "torsion": [3]}
    assert payload["block"]["freeRank"] == 0


def test_match_json():
    code, payload = run_json(["match", "--n", "2", "--q", "11", "--ell", "5",
                              "--output", "json"])
    assert code == 0
    m = payload["match"]
    assert m["isomorphic"] is True
    assert m["freeRanksAgree"] is True
    assert m["contextMismatch"] is False
    assert m["grading"]["index"] == "Z"
    assert set(m["grading"]["identifications"]) == {"X*(Z(G-hat))", "pi_1(G)_Gamma"}


def test_match_json_spec_shaped_trivial_case():
    code, payload = run_json(["match", "--n", "2", "--q", "3", "--ell", "7",
                              "--output", "json"])
    assert code == 0
    assert payload["match"]["isomorphic"] is True
    assert payload["match"]["muCharGroup"] == {"freeRank": 0, "torsion": []}


@pytest.mark.parametrize(
    "argv",
    [
        ["match", "--group", "GL", "--n", "3", "--q", "7", "--ell", "3", "--weyl", "identity"],
        ["match", "--group", "GL", "--n", "4", "--q", "7", "--ell", "3",
         "--weyl", "[[1,0,0,0],[0,0,0,1],[0,1,0,0],[0,0,1,0]]"],
        ["match", "--group", "SL", "--n", "4", "--q", "7", "--ell", "3", "--weyl", "identity"],
    ],
    ids=["gl-identity", "gl-fixed-point", "sl-identity"],
)
def test_match_non_coxeter_twists(argv):
    # the block comes from the same twisted torus as the component
    code, payload = run_json(argv + ["--output", "json"])
    assert code == 0
    m = payload["match"]
    assert m["isomorphic"] is True
    assert m["freeRanksAgree"] is True
    assert m["contextMismatch"] is False
    assert payload["component"]["orbitTorusRank"] == payload["block"]["freeRank"] > 0


def test_block_gl_identity_twist():
    # split torus: coker(7 - 1)^4 = (Z/6)^4, ell-part (Z/3)^4, all 4 directions free
    code, payload = run_json(
        ["block", "--n", "4", "--q", "7", "--ell", "3", "--weyl", "identity", "--output", "json"]
    )
    assert code == 0
    assert payload["block"]["finiteTorusOrder"] == 6**4
    assert payload["block"]["torsion"] == {"freeRank": 0, "torsion": [3, 3, 3, 3]}
    assert payload["block"]["freeRank"] == 4
    assert payload["block"]["k"] == 4


def test_summary_json():
    code, payload = run_json(["summary", "--n", "3", "--q", "5", "--ell", "31",
                              "--output", "json"])
    assert code == 0
    s = payload["summary"]
    assert s["gradingIndex"] == "Z"
    assert s["cell"] == {"freeRank": 1, "torsion": {"freeRank": 0, "torsion": [31]}}
    assert s["match"]["isomorphic"] is True


def _count_snf(monkeypatch):
    """Record every matrix handed to the Smith normal form."""
    from llc_params import lattice

    calls = []
    snf = lattice.smith_normal_form

    def counting_snf(a):
        calls.append(a)
        return snf(a)

    monkeypatch.setattr(lattice, "smith_normal_form", counting_snf)
    return calls


def _count_cokernels(monkeypatch):
    """Record (twist, s, t) for every cokernel a twist takes."""
    from llc_params.rootdata import WeylTwist

    taken, cokernel = [], WeylTwist.cokernel
    monkeypatch.setattr(
        WeylTwist, "cokernel", lambda w, s, t: taken.append((w, s, t)) or cokernel(w, s, t)
    )
    return taken


def test_component_takes_each_invariant_once(monkeypatch):
    calls, taken = _count_snf(monkeypatch), _count_cokernels(monkeypatch)
    code, _ = run_cli(["component", "--n", "4", "--q", "11", "--ell", "5"])
    assert code == 0
    # coker(w - q) and coker(1 - w) of the Coxeter twist, the center's rank is
    # read off the datum; GL's cokernels are read off the cycle type, and the
    # twist is a signed permutation by construction, so no Smith form is taken
    coxeter = WeylTwist("gl", ((4, 1),), 1)
    assert taken == [(coxeter, 1, -11), (coxeter, -1, 1)]
    assert calls == []


@pytest.mark.parametrize("cmd", ["component", "match"])
def test_an_explicit_weyl_matrix_takes_no_smith_form_and_no_roots(monkeypatch, cmd):
    from llc_params import rootdata

    calls, taken, generated = _count_snf(monkeypatch), _count_cokernels(monkeypatch), []
    generate = rootdata.RootDatum._roots_and_coroots
    monkeypatch.setattr(
        rootdata.RootDatum, "_roots_and_coroots", lambda rd: generated.append(rd) or generate(rd)
    )
    swap = [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]
    code, _ = run_cli([cmd, "--n", "4", "--q", "11", "--ell", "5", "--weyl", json.dumps(swap)])
    assert code == 0
    # weyl_twist checks the matrix once, by reading it as a signed
    # permutation (unimodular by construction): it takes no Smith form of its
    # own and generates no roots, and GL's cokernels take none either
    assert calls == []
    assert generated == []
    # only the component's two invariants, of the twist read, and the
    # block's two, of its transpose; on GL the transpose w^-1 is of the
    # twist's class, a fixed point and a 3-cycle, so the two records are equal
    read = transposed = WeylTwist("gl", ((1, 1), (3, 1)), 1)
    expected = {"component": [(read, 1, -11), (read, -1, 1)],
                "match": [(read, 1, -11), (read, -1, 1), (transposed, 11, -1), (transposed, -1, 1)]}
    assert taken == expected[cmd]


@pytest.mark.parametrize("group,n", [("GL", 24), ("SL", 16), ("PGL", 16)])
@pytest.mark.parametrize("cmd", ["component", "block", "match"])
def test_descriptor_matrices_are_no_wider_than_the_rank(monkeypatch, smith_forms, cmd, group, n):
    # a twist's cokernels are read off its cycle type on every lattice, so no
    # descriptor takes a Smith form: not for the Coxeter twist, the identity,
    # nor an explicit matrix (a seeded signed permutation of several lengths)
    taken = _count_cokernels(monkeypatch)
    explicit = json.dumps(preset_twist_matrix(group, random.Random(n).sample(range(n), n), -1))
    for weyl in ("coxeter", "identity", explicit):
        taken.clear()
        code, _ = run_cli([cmd, "--group", group, "--n", str(n), "--q", "11", "--ell", "5",
                           "--weyl", weyl])
        assert code == 0
        assert len(taken) == {"component": 2, "block": 2, "match": 4}[cmd]
    assert smith_forms == []


@pytest.fixture(scope="module")
def grid_payload(grid_checks):
    # renders the shared sweep; test_grid_flag_spelling runs the grid end to end
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "run_grid", lambda: grid_checks)
        code, payload = run_json(["grid", "--output", "json"])
    return code, payload


def test_grid_json(grid_payload):
    code, payload = grid_payload
    assert code == 0
    assert payload["allPass"] is True
    assert len(payload["checks"]) == 8
    assert all(c["pass"] for c in payload["checks"])
    ids = [c["id"] for c in payload["checks"]]
    assert "golden-component" in ids
    assert "count-oracle" in ids


def test_grid_flag_spelling():
    code, text = run_cli(["--grid"])
    assert code == 0
    assert "all checks pass" in text


# ---------------------------------------------------------------------------
# validation errors


@pytest.mark.parametrize(
    "argv,expected_code",
    [
        (["component", "--n", "2", "--q", "12", "--ell", "5"], "q-not-prime-power"),
        (["component", "--n", "2", "--q", "8", "--ell", "5"], "p-even"),
        (["component", "--n", "2", "--q", "11", "--ell", "9"], "ell-not-prime"),
        (["component", "--n", "2", "--q", "11", "--ell", "2"], "ell-even"),
        (["component", "--n", "2", "--q", "11", "--ell", "11"], "ell-equals-p"),
        (["enumerate", "--group", "SL", "--n", "2", "--q", "11", "--ell", "5"],
         "usage-error"),
        (["summary", "--group", "PGL", "--n", "2", "--q", "11", "--ell", "5"],
         "usage-error"),
        (["component", "--group", "SL", "--n", "1", "--q", "11", "--ell", "5"],
         "invalid-rank"),
        (["component", "--n", "0", "--q", "11", "--ell", "5"], "invalid-rank"),
        (["component", "--n", "2", "--q", "11", "--ell", "5", "--weyl", "xyz"],
         "weyl-invalid"),
        (["component", "--n", "2", "--q", "11", "--ell", "5", "--weyl", "[[1,0]]"],
         "invalid-argument"),
        (["enumerate", "--n", "2", "--q", "11", "--ell", "5", "--limit", "-1"],
         "paging-invalid"),
        # twists that fix the roots but move the coroots
        *(
            ([cmd, "--n", n, "--q", "3", "--ell", "5", "--weyl", weyl], "invalid-argument")
            for cmd in ("component", "block", "match")
            for n, weyl in (("2", "[[6,5],[-5,-4]]"), ("3", "[[0,-1,-1],[-1,0,-1],[0,0,1]]"))
        ),
        # well-formed JSON that json.loads refuses: an integer past the digit limit,
        # nesting past the recursion limit
        (["component", "--n", "1", "--q", "7", "--ell", "3", "--weyl", f"[[{'9' * 5000}]]"],
         "weyl-invalid"),
        (["component", "--n", "1", "--q", "7", "--ell", "3", "--weyl", "[" * 5000],
         "weyl-invalid"),
        # one rank rule, one code, for every command
        (["enumerate", "--n", "0", "--q", "11", "--ell", "5"], "invalid-rank"),
        (["verify", "--n", "0", "--q", "11", "--ell", "5", "--a", "1"], "invalid-rank"),
    ],
)
def test_validation_errors_are_machine_readable(argv, expected_code):
    code, text = run_cli(argv)
    assert code == 2
    payload = json.loads(text)
    VALIDATOR.validate(payload)
    assert payload["error"]["code"] == expected_code
    assert set(payload["error"]) == {"code", "message", "hint"}


def test_error_envelope_ignores_output_flag():
    # errors are always machine-readable JSON even in text mode
    code, text = run_cli(["component", "--n", "2", "--q", "12", "--ell", "5",
                          "--output", "text"])
    assert code == 2
    assert json.loads(text)["error"]["code"] == "q-not-prime-power"


def test_usage_errors():
    code, text = run_cli([])
    assert code == 2
    assert json.loads(text)["error"]["code"] == "usage-error"
    code, text = run_cli(["component", "--n", "two", "--q", "11", "--ell", "5"])
    assert code == 2
    assert json.loads(text)["error"]["code"] == "usage-error"
    code, text = run_cli(["nonsense"])
    assert code == 2
    assert json.loads(text)["error"]["code"] == "usage-error"


def test_the_coeff_option_spells_the_coefficients_of_glparams():
    # the parser names them without importing glparams; they must not drift
    assert cli._OPTIONS["coeff"] == {"choices": glparams.COEFFS, "default": glparams.ZBAR}


def test_grid_flag_with_a_math_command_is_refused(monkeypatch):
    # --grid with another command is refused before any computation; its own
    # spellings still run the sweep
    from llc_params.sweep import GridCheck

    monkeypatch.setattr(cocycles, "component_descriptor", None)
    for cmd in cli.MATH_COMMANDS:
        extra = ["--a", "1"] if cmd == "verify" else []
        code, payload = run_json(["--grid", cmd, "--n", "2", "--q", "11", "--ell", "5", *extra])
        assert (code, payload["error"]["code"]) == (2, "usage-error"), cmd
        assert "--grid" in payload["error"]["message"]
    checks = [GridCheck("probe", "a probe check", True, "1 case")]
    monkeypatch.setattr(sweep, "run_grid", lambda: checks)
    for argv in (["--grid"], ["grid"], ["--grid", "grid"], ["--output", "json", "--grid", "grid"]):
        assert run_cli(argv)[0] == 0


def test_gl_only_commands_refuse_other_groups_in_the_parser(monkeypatch):
    # enumerate, verify and summary offer only GL: SL and PGL are usage errors
    # whose hint is the command's usage, raised before anything is computed
    def boom(*args, **kwargs):
        raise AssertionError("computed for a refused group")

    geometry = ["--n", "2", "--q", "11", "--ell", "5"]
    gl_only = (("enumerate", []), ("verify", ["--a", "1"]), ("summary", []))
    with monkeypatch.context() as m:
        m.setattr(glparams, "GLFamily", boom)
        m.setattr(blocks, "categorical_summary", boom)
        for cmd, extra in gl_only:
            for group in ("SL", "PGL"):
                code, payload = run_json([cmd, "--group", group, *geometry, *extra])
                assert (code, payload["error"]["code"]) == (2, "usage-error"), (cmd, group)
                assert payload["error"]["message"].startswith("argument --group: invalid choice")
                assert payload["error"]["hint"].startswith(f"usage: llc-params {cmd} ")
                assert "[--group {GL}]" in payload["error"]["hint"]
    for cmd, extra in gl_only:
        assert run_cli([cmd, "--group", "GL", *geometry, *extra])[0] == 0, cmd


def test_missing_required_flag_is_usage_error():
    code, text = run_cli(["component", "--n", "2", "--q", "11"])
    assert code == 2
    payload = json.loads(text)
    assert payload["error"]["code"] == "usage-error"
    assert payload["error"]["hint"]


def test_internal_errors_exit_1(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("contrived failure")

    monkeypatch.setattr(cocycles, "component_descriptor", boom)
    code, text = run_cli(["component", "--n", "2", "--q", "11", "--ell", "5"])
    assert code == 1
    payload = json.loads(text)
    VALIDATOR.validate(payload)
    assert payload["error"]["code"] == "internal-error"
    assert "contrived failure" in payload["error"]["message"]


# ---------------------------------------------------------------------------
# environment cap


def test_modulus_cap_blocks_large_scans(monkeypatch):
    monkeypatch.setenv("LLC_PARAMS_MAX_MODULUS", "100")
    code, text = run_cli(["enumerate", "--n", "3", "--q", "11", "--ell", "5"])
    assert code == 2
    assert json.loads(text)["error"]["code"] == "modulus-cap-exceeded"


def test_modulus_cap_allows_small_scans(monkeypatch):
    monkeypatch.setenv("LLC_PARAMS_MAX_MODULUS", "100")
    code, _ = run_cli(["enumerate", "--n", "2", "--q", "3", "--ell", "5"])
    assert code == 0


def test_modulus_cap_env_validation(monkeypatch):
    for bad in ("abc", "-5", "0"):
        monkeypatch.setenv("LLC_PARAMS_MAX_MODULUS", bad)
        code, text = run_cli(["enumerate", "--n", "2", "--q", "11", "--ell", "5"])
        assert code == 2
        assert json.loads(text)["error"]["code"] == "env-invalid"


def test_default_cap_permits_documented_grid():
    code, _ = run_cli(["enumerate", "--n", "4", "--q", "13", "--ell", "5",
                       "--limit", "1"])
    assert code == 0


# ---------------------------------------------------------------------------
# rendering


def test_text_render_component_golden():
    code, text = run_cli(["component", "--n", "2", "--q", "11", "--ell", "5"])
    assert code == 0
    assert "[G_m/G_m] × μ_5" in text
    assert "elliptic:         yes" in text


def test_text_render_trivial_mu():
    _, text = run_cli(["component", "--n", "2", "--q", "3", "--ell", "7"])
    assert "[G_m/G_m] × 1" in text


def test_text_render_pgl2():
    _, text = run_cli(["component", "--group", "PGL", "--n", "2", "--q", "11",
                       "--ell", "3"])
    assert "[*/μ_2] × μ_3" in text


def test_notation_helper_directly():
    rd = preset("GL", 2)
    d = component_descriptor(coxeter_twist(rd), 11, 5)
    assert cli.component_notation(d) == "[G_m/G_m] × μ_5"
    rd = preset("PGL", 2)
    d = component_descriptor(coxeter_twist(rd), 11, 5)
    assert cli.component_notation(d) == "[*/μ_2] × 1"


def test_render_diag_shapes():
    from llc_params.abgroups import FinGenAbGroup

    assert cli._render_diag(FinGenAbGroup(2, (3, 6))) == "G_m^2 × μ_3 × μ_6"
    assert cli._render_diag(FinGenAbGroup()) == "1"
    assert cli._torus_symbol(0) == "*"
    assert cli._torus_symbol(1) == "G_m"
    assert cli._torus_symbol(3) == "G_m^3"


def test_output_flag_position_is_flexible():
    _, before = run_cli(["--output", "json", "component", "--n", "2", "--q", "11",
                         "--ell", "5"])
    _, after = run_cli(["component", "--n", "2", "--q", "11", "--ell", "5",
                        "--output", "json"])
    assert before == after
    json.loads(before)


def _json_bodies_raise(monkeypatch):
    """Make every report-body builder raise, so text output shows it never calls one."""
    from llc_params import abgroups, rootdata

    def refuse(self):
        raise AssertionError(f"{type(self).__name__}.to_json built for a text report")

    for cls in (
        abgroups.FinGenAbGroup, rootdata.RootDatum, cocycles.CocycleSpace,
        cocycles.ComponentDescriptor, blocks.ApplicabilityFlag, blocks.BlockDescriptor,
        blocks.MatchReport, blocks.CategoricalSummary, glparams.TrselpGL,
        glparams.ParamMatrices, sweep.GridCheck,
    ):
        monkeypatch.setattr(cls, "to_json", refuse)


@pytest.mark.parametrize(
    "argv",
    [
        ["component", "--n", "4", "--q", "11", "--ell", "5"],
        ["component", "--group", "SL", "--n", "4", "--q", "11", "--ell", "5"],
        ["enumerate", "--n", "2", "--q", "11", "--ell", "5"],
        ["verify", "--n", "3", "--q", "5", "--ell", "31", "--a", "1"],
        ["block", "--n", "4", "--q", "11", "--ell", "5"],
        ["match", "--n", "4", "--q", "11", "--ell", "5", "--weyl", "identity"],
        ["summary", "--n", "3", "--q", "5", "--ell", "31"],
    ],
    ids=["component-GL", "component-SL", "enumerate", "verify", "block", "match", "summary"],
)
def test_text_reports_never_build_their_json_body(monkeypatch, argv):
    _, expected = run_cli(argv)
    _json_bodies_raise(monkeypatch)
    assert run_cli(argv) == (0, expected)
    assert run_cli(argv + ["--output", "json"])[0] == 1  # the JSON body does need them


@pytest.mark.parametrize("group", ["GL", "SL", "PGL"])
def test_presets_generate_their_roots_only_for_component_json(monkeypatch, group):
    """Text reports with the Coxeter, identity and explicit twists, and the
    grid, read only a preset's simple system, and an explicit --weyl matrix
    is refused without one; only component JSON needs every root."""
    from llc_params import rootdata

    geometry = ["--group", group, "--n", "5", "--q", "11", "--ell", "5"]
    rank = 5 if group == "GL" else 4
    identity = json.dumps([[int(i == j) for j in range(rank)] for i in range(rank)])
    argvs = [
        [cmd, *geometry, "--weyl", weyl]
        for cmd in ("component", "block", "match")
        for weyl in ("coxeter", "identity", identity)
    ]
    if group == "GL":
        argvs += [["summary", *geometry], ["--grid"]]
    expected = [run_cli(argv) for argv in argvs]
    assert all(code == 0 for code, _ in expected)

    def refuse(self):
        raise AssertionError(f"the roots of {self.name} generated")

    monkeypatch.setattr(rootdata.RootDatum, "_roots_and_coroots", refuse)
    assert [run_cli(argv) for argv in argvs] == expected
    # unimodular, but it moves a root
    transvection = json.dumps(
        [[int(i == j or (i, j) == (0, 1)) for j in range(rank)] for i in range(rank)]
    )
    assert run_cli(["component", *geometry, "--output", "json"])[0] == 1
    code, text = run_cli(["match", *geometry, "--weyl", transvection])
    assert code == 2
    assert json.loads(text)["error"]["message"] == (
        f"twist matrix is no signed permutation of the {preset(group, 5).name} lattice"
    )


@pytest.mark.parametrize("group,n", [("SL", 16), ("GL", 24)])
def test_component_json_with_an_explicit_twist_generates_the_roots_once(monkeypatch, group, n):
    """The datum's JSON reads the one root list; weyl_twist reads none."""
    from llc_params import rootdata

    calls = []
    generate = rootdata.RootDatum._roots_and_coroots

    def counting(self):
        calls.append(self.name)
        return generate(self)

    monkeypatch.setattr(rootdata.RootDatum, "_roots_and_coroots", counting)
    explicit = json.dumps(preset_twist_matrix(group, [(j + 1) % n for j in range(n)], 1))
    geometry = ["--group", group, "--n", str(n), "--q", "11", "--ell", "5"]
    code, payload = run_json(["component", *geometry, "--weyl", explicit, "--output", "json"])
    assert code == 0 and len(payload["datum"]["roots"]) == n * (n - 1)
    assert len(calls) == 1


@pytest.mark.parametrize("group", ["GL", "SL", "PGL"])
def test_reports_read_matrices_as_their_nonzeros(monkeypatch, group):
    """Only the constructor (input) and `IntMatrix.data` (read-out) know the
    dense format: every report, in text and in JSON, prints the same bytes
    when the read-out refuses."""
    geometry = ["--group", group, "--n", "5", "--q", "11", "--ell", "5"]
    explicit = json.dumps(preset_twist_matrix(group, [1, 2, 3, 4, 0], 1))
    argvs = [
        [cmd, *geometry, "--weyl", weyl]
        for cmd in ("component", "block", "match")
        for weyl in ("coxeter", "identity", explicit)
    ]
    if group == "GL":
        argvs += [["summary", *geometry], ["--grid"]]
    argvs = [[*argv, "--output", output] for argv in argvs for output in ("text", "json")]
    expected = [run_cli(argv) for argv in argvs]
    assert all(code == 0 for code, _ in expected)

    def refuse(self):
        raise AssertionError("a matrix was read densely")

    monkeypatch.setattr(IntMatrix, "data", property(refuse))
    assert [run_cli(argv) for argv in argvs] == expected


def test_the_grid_exit_code_does_not_build_the_json_body(monkeypatch):
    from llc_params.sweep import GridCheck

    _json_bodies_raise(monkeypatch)
    for passed, code, verdict in ((True, 0, "all checks pass"), (False, 1, "SOME CHECKS FAILED")):
        checks = [GridCheck("probe", "a probe check", passed, "1 case")]
        monkeypatch.setattr(sweep, "run_grid", lambda: checks)
        rc, text = run_cli(["--grid"])
        assert (rc, text.splitlines()[-1].strip()) == (code, verdict)


# ---------------------------------------------------------------------------
# determinism and entry points


def test_byte_determinism_in_process():
    argv = ["summary", "--n", "3", "--q", "5", "--ell", "11", "--output", "json"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second


def test_byte_determinism_across_hash_seeds():
    argv = [sys.executable, "-m", "llc_params", "match", "--n", "2", "--q", "11",
            "--ell", "5", "--output", "json"]
    outs = []
    for seed in ("0", "424242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(argv, capture_output=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    VALIDATOR.validate(json.loads(outs[0]))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "llc_params", "component", "--n", "2", "--q", "11",
         "--ell", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "[G_m/G_m] × μ_5" in proc.stdout


def test_version_flag():
    code, _ = run_cli(["--version"])
    assert code == 0


def test_reusing_the_parser_leaks_no_state_between_calls(monkeypatch, capsys):
    gl3 = ["--n", "3", "--q", "7", "--ell", "3"]
    sequence = [
        ["--output", "json", "component", *gl3],
        ["component", *gl3, "--output", "json"],
        ["component", *gl3],
        ["component", *gl3, "--weyl", "identity", "--output", "json"],
        ["component", *gl3, "--output", "json"],
        ["enumerate", *gl3, "--coeff", "fbar", "--limit", "2", "--offset", "3", "--output", "json"],
        ["enumerate", *gl3, "--output", "json"],
        ["component", "--n", "3", "--q"],
        ["component", *gl3],
        ["--version"],
        ["component", *gl3],
    ]

    def outputs():
        seen = []
        for argv in sequence:
            code, text = run_cli(argv)
            # --version prints through argparse, to sys.stdout
            seen.append((code, text, capsys.readouterr().out))
        return seen

    assert cli._shared_parser() is cli._shared_parser()
    shared = outputs()
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    assert outputs() == shared

    codes = [code for code, _, _ in shared]
    assert codes == [0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0]
    assert shared[0][1] == shared[1][1] == shared[4][1]
    assert shared[2][1] == shared[8][1] == shared[10][1]
    assert "weyl=coxeter" in shared[2][1]
    assert json.loads(shared[3][1])["input"]["weyl"] == "identity"
    assert json.loads(shared[4][1])["input"]["weyl"] == "coxeter"
    deep, default = json.loads(shared[5][1]), json.loads(shared[6][1])
    assert (deep["input"]["coeff"], deep["limit"], deep["offset"]) == ("fbar", 2, 3)
    assert (default["input"]["coeff"], default["limit"], default["offset"]) == ("zbar", 100, 0)
    assert shared[9][2].startswith("llc-params ")


# command -> (its argv, the "input" its JSON report echoes)
ECHOES = {
    "component": (
        ["--group", "SL", "--n", "3", "--q", "7", "--ell", "3", "--weyl", "identity"],
        {"group": "SL", "n": 3, "q": 7, "ell": 3, "weyl": "identity"},
    ),
    "enumerate": (
        ["--n", "2", "--q", "11", "--ell", "5", "--coeff", "fbar", "--limit", "2", "--offset", "1"],
        {"group": "GL", "n": 2, "q": 11, "ell": 5, "coeff": "fbar"},
    ),
    "verify": (
        ["--n", "2", "--q", "11", "--ell", "5", "--a", "1", "--b", "7"],
        {"group": "GL", "n": 2, "q": 11, "ell": 5, "coeff": "zbar", "a": 1, "b": 7},
    ),
    "block": (
        ["--group", "PGL", "--n", "2", "--q", "11", "--ell", "3", "--weyl", "[[-1]]"],
        {"group": "PGL", "n": 2, "q": 11, "ell": 3, "weyl": "[[-1]]"},
    ),
    "match": (
        ["--n", "2", "--q", "11", "--ell", "5"],
        {"group": "GL", "n": 2, "q": 11, "ell": 5, "weyl": "coxeter"},
    ),
    "summary": (["--n", "3", "--q", "7", "--ell", "3"], {"group": "GL", "n": 3, "q": 7, "ell": 3}),
}


@pytest.mark.parametrize("cmd", ECHOES)
def test_each_report_echoes_exactly_its_declared_input(cmd):
    argv, echoed = ECHOES[cmd]
    code, payload = run_json([cmd, *argv, "--output", "json"])
    assert code == 0
    assert payload["input"] == echoed


def test_the_grid_report_echoes_no_input(monkeypatch):
    from llc_params.sweep import GridCheck

    assert set(ECHOES) | {"grid"} == set(cli.COMMANDS)  # every command is covered
    monkeypatch.setattr(sweep, "run_grid", lambda: [GridCheck("probe", "a probe check", True, "1 case")])
    code, payload = run_json(["grid", "--output", "json"])
    assert code == 0
    assert "input" not in payload


def test_json_is_sorted_and_newline_terminated():
    _, text = run_cli(["block", "--n", "2", "--q", "11", "--ell", "5",
                       "--output", "json"])
    assert text.endswith("\n")
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
