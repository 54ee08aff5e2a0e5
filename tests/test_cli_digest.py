"""Byte-identity nets over the CLI: SHA-256 digests of many runs.

Every argv of the report net runs in-process through ``cli.run``, in text and
in JSON.  The digest covers each argv, its output mode, its exit code and its
stdout, so any change in what the CLI prints or how it exits on the net
changes the digest.  The grammar net does the same for the help texts and
the usage errors.  A refactor that means to keep the CLI's bytes keeps every
digest; a deliberate change of output recomputes them all with
``PYTHONPATH=src python tests/test_cli_digest.py`` and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
from unittest import mock

from llc_params import cli

NET_DIGEST = "4b5635718d5a342419e2ac10468631a7f81f9ac8f257f4906358dd67d49519c9"
GRID_DIGESTS = {
    "text": "580b831932902d8b823097bf567f9feddf38dba25da192b076c5ed34fa855513",
    "json": "b000b32987ec83139d3af5051942da405cdc5593e58047b603a178d4bf6a72b4",
}
# "program-help": llc-params --help, whose description is the cli module's
# docstring; "kept": the help of component, block, match and grid, and the
# usage errors of the program and of those commands; "gl-only": the help and
# usage errors of enumerate, verify and summary
GRAMMAR_DIGESTS = {
    "program-help": "9a0566f963fecc3db12cb0b69c757eff0d6f2c866ae13ebe1977a1bfa00c8216",
    "kept": "78fdb455c4068438201d78ebf97d6b6dbec717657da27fa641b795dd7a5934ba",
    "gl-only": "90f884da91ed01b8da138bf6d39ee23167112846525c5ebf8e37ca0414f2250e",
}

ALL_COMMANDS = ("component", "enumerate", "verify", "block", "match", "summary", "grid")
GL_ONLY = ("enumerate", "verify", "summary")

TWISTS = ("coxeter", "identity", "[[0,1],[1,0]]", "[[6,5],[-5,-4]]")
Q_ELL = ((11, 5), (3, 13), (9, 5), (12, 5), (11, 11))
GROUP_RANKS = (
    *(("GL", n) for n in range(1, 7)),
    *((group, n) for group in ("SL", "PGL") for n in range(2, 6)),
)


def net() -> list[list[str]]:
    argvs = [
        [cmd, "--group", group, "--n", str(n), "--q", str(q), "--ell", str(ell), "--weyl", weyl]
        for cmd in ("component", "block", "match")
        for group, n in GROUP_RANKS
        for weyl in TWISTS
        for q, ell in Q_ELL
    ]
    argvs += [
        ["summary", "--n", str(n), "--q", str(q), "--ell", str(ell)]
        for n in (1, 2, 3, 5)
        for q, ell in Q_ELL
    ]
    argvs += [
        ["enumerate", "--n", "2", "--q", "11", "--ell", "5"],
        ["enumerate", "--n", "3", "--q", "7", "--ell", "3", "--coeff", "fbar", "--limit", "5"],
        ["enumerate", "--n", "2", "--q", "13", "--ell", "7", "--offset", "40", "--limit", "3"],
        ["enumerate", "--n", "2", "--q", "12", "--ell", "5"],
        ["verify", "--n", "2", "--q", "11", "--ell", "5", "--a", "1", "--b", "7"],
        ["verify", "--n", "3", "--q", "7", "--ell", "3", "--coeff", "fbar", "--a", "2"],
        ["verify", "--n", "2", "--q", "11", "--ell", "5", "--a", "0"],
        ["verify", "--n", "2", "--q", "11", "--ell", "11", "--a", "1"],
    ]
    return argvs


def net_digest() -> str:
    h = hashlib.sha256()
    for argv in net():
        for output in ("text", "json"):
            out = io.StringIO()
            code = cli.run([*argv, "--output", output], stream=out)
            h.update(json.dumps([argv, output, code]).encode())
            h.update(b"\n")
            h.update(out.getvalue().encode())
            h.update(b"\0")
    return h.hexdigest()


def test_the_cli_net_keeps_its_bytes():
    assert net_digest() == NET_DIGEST


def grid_digests() -> dict[str, str]:
    digests = {}
    for output, argv in (("text", ["--grid"]), ("json", ["--grid", "--output", "json"])):
        out = io.StringIO()
        assert cli.run(argv, stream=out) == 0
        digests[output] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return digests


def test_the_grid_keeps_its_bytes():
    # the net leaves out the grid (about a second a run); these pin its
    # table, labels included, in both output modes
    assert grid_digests() == GRID_DIGESTS


def grammar_net() -> dict[str, list[list[str]]]:
    """The help of the program and of each command, and one usage error per
    command: the program's help, the GL-only commands' part and the rest."""
    nets = {
        "program-help": [["--help"]],
        "kept": [
            ["nonsense"],
            ["--output", "xml"],
            ["component", "--group", "XX", "--n", "2", "--q", "11", "--ell", "5"],
        ],
        "gl-only": [
            ["enumerate", "--group", "SL", "--n", "2", "--q", "11", "--ell", "5"],
            ["verify", "--group", "PGL", "--n", "2", "--q", "11", "--ell", "5", "--a", "1"],
            ["summary", "--group", "SL", "--n", "2", "--q", "11", "--ell", "5"],
        ],
    }
    for cmd in ALL_COMMANDS:
        argvs = nets["gl-only" if cmd in GL_ONLY else "kept"]
        argvs.append([cmd, "--help"])
        if cmd != "grid":  # a missing --n
            argvs.append([cmd, "--q", "11", "--ell", "5", *(["--a", "1"] if cmd == "verify" else [])])
    return nets


def grammar_digests() -> dict[str, str]:
    # argparse prints help to sys.stdout and wraps it to the terminal's width
    digests = {}
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for part, argvs in grammar_net().items():
            h = hashlib.sha256()
            for argv in argvs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.run(argv, stream=out)
                h.update(json.dumps([argv, code]).encode())
                h.update(b"\n")
                h.update(out.getvalue().encode())
                h.update(b"\0")
            digests[part] = h.hexdigest()
    return digests


def test_the_grammar_keeps_its_bytes():
    assert grammar_digests() == GRAMMAR_DIGESTS


if __name__ == "__main__":
    print("net:", net_digest())
    for output, digest in grid_digests().items():
        print(f"grid {output}:", digest)
    for part, digest in grammar_digests().items():
        print(f"grammar {part}:", digest)
