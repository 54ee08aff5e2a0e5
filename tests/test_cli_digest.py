"""A byte-identity net over the CLI: one SHA-256 digest of many runs.

Every argv of the net runs in-process through ``cli.run``, in text and in
JSON.  The digest covers each argv, its output mode, its exit code and its
stdout, so any change in what the CLI prints or how it exits on the net
changes the digest.  A refactor that means to keep the CLI's bytes keeps
``NET_DIGEST``; a deliberate change of output recomputes it with
``PYTHONPATH=src python tests/test_cli_digest.py`` and says so in CHANGES.md.
"""

import hashlib
import io
import json

from llc_params import cli

NET_DIGEST = "4b5635718d5a342419e2ac10468631a7f81f9ac8f257f4906358dd67d49519c9"

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


def test_the_grid_keeps_its_bytes():
    # the net leaves out the grid (about a second a run); these pin its
    # table, labels included, in both output modes
    digests = {}
    for output, argv in (("text", ["--grid"]), ("json", ["--grid", "--output", "json"])):
        out = io.StringIO()
        assert cli.run(argv, stream=out) == 0
        digests[output] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digests == {
        "text": "580b831932902d8b823097bf567f9feddf38dba25da192b076c5ed34fa855513",
        "json": "b000b32987ec83139d3af5051942da405cdc5593e58047b603a178d4bf6a72b4",
    }


if __name__ == "__main__":
    print(net_digest())
