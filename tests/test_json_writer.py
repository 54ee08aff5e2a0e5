"""The report writer reproduces json.dumps(..., sort_keys=True, indent=2,
ensure_ascii=False) byte for byte over the values reports contain."""

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from llc_params import cli


def reference(value):
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# non-ASCII text, quotes, backslashes and control characters, beside the
# rest of Unicode
text = st.text(st.one_of(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7fé×μ… \U0001d11e'),
                         st.characters()))
ints = st.one_of(st.integers(), st.integers(-(10**30), 10**30), st.sampled_from([10**30, -(10**30)]))
scalars = st.one_of(st.none(), st.booleans(), ints, text)
# all-int vectors take the writer's one-join path; a bool among them must not
int_vectors = st.lists(st.one_of(ints, st.booleans()))
values = st.recursive(
    st.one_of(scalars, int_vectors, int_vectors.map(tuple)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(text, inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(values)
def test_writer_matches_json_dumps(value):
    assert cli._dumps(value) == reference(value)


def test_writer_edge_cases():
    for value in ({}, [], (), {"a": {}}, {"a": [[], ()]}, [True, 1, False, 0], (7,), [-0],
                  {"b": 1, "a": 2, "A": 3, "é": 4, "": 5}):
        assert cli._dumps(value) == reference(value), value


SWAP_GL4 = "[[1,0,0,0],[0,0,0,1],[0,1,0,0],[0,0,1,0]]"
GL2 = ["--n", "2", "--q", "11", "--ell", "5"]
REPORTS = [
    ["component", *GL2],
    ["component", "--group", "SL", "--n", "3", "--q", "11", "--ell", "5"],
    ["component", "--group", "PGL", "--n", "3", "--q", "11", "--ell", "5", "--weyl", "identity"],
    ["component", "--n", "4", "--q", "7", "--ell", "3", "--weyl", SWAP_GL4],
    ["enumerate", *GL2],
    ["enumerate", "--n", "3", "--q", "5", "--ell", "31", "--coeff", "fbar", "--limit", "4"],
    ["verify", "--n", "3", "--q", "11", "--ell", "5", "--a", "7"],
    ["block", "--n", "4", "--q", "7", "--ell", "3"],
    ["block", "--group", "PGL", "--n", "4", "--q", "7", "--ell", "3", "--weyl", "identity"],
    ["match", *GL2],
    ["match", "--group", "SL", "--n", "4", "--q", "7", "--ell", "3", "--weyl", "identity"],
    ["summary", *GL2],
    ["grid"],
    # errors: validation, usage, no command
    ["component", "--n", "2", "--q", "12", "--ell", "5"],
    ["component", *GL2, "--weyl", "xyz"],
    ["component", *GL2, "--weyl", "[[2,0],[0,1]]"],
    ["enumerate", *GL2, "--limit", "-1"],
    ["component", "--n"],
    [],
]


@pytest.mark.parametrize("argv", REPORTS, ids=lambda argv: " ".join(argv[:3]) or "none")
def test_every_report_is_written_as_json_dumps_writes_it(monkeypatch, argv):
    payloads = []
    dumps = cli._dumps

    def recording_dumps(payload):
        payloads.append(payload)
        return dumps(payload)

    monkeypatch.setattr(cli, "_dumps", recording_dumps)
    out = io.StringIO()
    cli.run(["--output", "json", *argv], stream=out)
    # the objects the handlers built, tuples and all, and the bytes on stdout
    assert len(payloads) == 1
    assert out.getvalue() == reference(payloads[0])


@pytest.mark.parametrize(
    "value",
    [1.5, {"x": float("nan")}, [1, 2.0], {1: "a"}, {("a",): 1}, {"a": {None: 1}},
     object(), {"a": {1, 2}}, b"bytes"],
    ids=["float", "nan", "float-in-ints", "int-key", "tuple-key", "none-key",
         "object", "set", "bytes"],
)
def test_writer_refuses_values_outside_the_report_domain(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


def test_an_integer_too_long_to_print_is_output_too_large():
    with pytest.raises(ValueError):
        cli._dumps({"modulus": 10**5000})
    out = io.StringIO()
    code = cli.run(["component", "--n", "2", "--q", str(3**8000), "--ell", "5",
                    "--output", "json"], stream=out)
    assert code == 2
    assert json.loads(out.getvalue())["error"]["code"] == "output-too-large"
