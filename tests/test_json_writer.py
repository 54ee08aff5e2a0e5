"""The report writer reproduces json.dumps(..., sort_keys=True, indent=2,
ensure_ascii=False) byte for byte over the values reports contain."""

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from llc_params import cli
from llc_params.rootdata import RunRows


def reference(value):
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def expand(value):
    """The value with each RunRows written out: a list of rows, each the list
    of its runs' values, every value as many times as its run's count; and
    each page as the list of its records, its row with the key at each value."""
    if type(value) is RunRows:
        return [[v for v, count in row for _ in range(count)] for row in value.rows]
    if type(value) is cli._Page:
        return [{**expand(value.row), value.key: v} for v in value.values]
    if isinstance(value, dict):
        return {key: expand(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [expand(item) for item in value]
    return value


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


# run values: rows of one run count, each holding a value, with small and
# negative values and counts of 0 and 1; one value in eight has an int past
# the digit limit in one of its runs, counted or not
@st.composite
def run_rows(draw):
    width = draw(st.integers(1, 4))
    runs = st.tuples(st.one_of(st.integers(-3, 3), st.integers()), st.integers(0, 3))
    rows = [draw(st.lists(runs, min_size=width, max_size=width))
            for _ in range(draw(st.integers(0, 4)))]
    for row in rows:
        if not any(count for _, count in row):  # a row of no value is no RunRows row
            k = draw(st.integers(0, width - 1))
            row[k] = (row[k][0], 1)
    if rows and draw(st.integers(0, 7)) == 0:
        row, k = draw(st.sampled_from(rows)), draw(st.integers(0, width - 1))
        row[k] = (draw(st.sampled_from([10**5000, -(10**5000)])), row[k][1])
    return RunRows(tuple(map(tuple, rows)))


nested_run_rows = st.recursive(
    st.one_of(run_rows(), scalars),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(text, inner, max_size=3)),
    max_leaves=8,
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(nested_run_rows)
def test_run_rows_are_written_as_json_dumps_writes_their_expansion(value):
    try:
        expected = reference(expand(value))
    except ValueError as err:  # an int too long to print
        with pytest.raises(ValueError) as raised:
            cli._dumps(value)
        assert str(raised.value) == str(err)
    else:
        assert cli._dumps(value) == expected


def test_run_rows_edge_cases():
    # no rows, rank-1 rows, runs of count 0 before, between and after, and an
    # int too long to print in a run of count 0, which prints nothing
    for rows in ((), (((1, 1),),), (((0, 0), (-2, 1), (0, 0)), ((0, 0), (2, 1), (0, 0))),
                 (((0, 2), (10**5000, 0), (1, 1)),), (((-1, 3),), ((0, 1),))):
        for value in (RunRows(rows), {"a": [RunRows(rows)], "b": {"c": RunRows(rows)}}):
            assert cli._dumps(value) == reference(expand(value)), rows


# uniform int vectors take the writer's one-template path, and lists of
# records the recursive one; each strategy sometimes breaks the uniformity,
# which must send the list down the recursive path
keys = st.sampled_from(["a", "b", "modulus", "%", "%s", "%%", "%d", "", '"', "'", "\\",
                        "é", "μ_5", "\U0001d11e"])


@st.composite
def int_vector_lists(draw):
    length = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(ints, min_size=length, max_size=length), min_size=1, max_size=5))
    rows = [tuple(row) if draw(st.booleans()) else row for row in rows]
    i = draw(st.integers(0, len(rows) - 1))
    odd = draw(st.sampled_from([None, None, "bool", "ragged"]))
    if odd == "bool":
        rows[i] = [*rows[i][:-1], draw(st.booleans())]
    elif odd == "ragged":
        rows[i] = [*rows[i], 0] if draw(st.booleans()) else rows[i][:-1]
    return rows


@st.composite
def record_lists(draw):
    names = draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    columns = {name: draw(st.sampled_from([ints, text])) for name in names}
    count = draw(st.integers(1, 5))
    # every record lists its keys in an order of its own
    rows = [{name: draw(columns[name]) for name in draw(st.permutations(names))}
            for _ in range(count)]
    row = rows[draw(st.integers(0, count - 1))]
    name = draw(st.sampled_from(names))
    odd = draw(st.sampled_from([None, "none", "bool", "float", "nested", "other kind",
                                "missing", "renamed", "extra"]))
    if odd == "none":
        row[name] = None
    elif odd == "bool":
        row[name] = draw(st.booleans())
    elif odd == "float":
        row[name] = 0.5
    elif odd == "nested":
        row[name] = draw(st.sampled_from([[1, 2], [], {"x": 1}, {}]))
    elif odd == "other kind":
        row[name] = "7" if isinstance(row[name], int) else 7
    elif odd in ("missing", "renamed"):
        del row[name]
        if odd == "renamed":  # as many keys as the others, not the same ones
            row[name + "?"] = 1
    elif odd == "extra":
        row[name + "?"] = 1
    return rows


def holds_float(value):
    if isinstance(value, dict):
        return any(map(holds_float, value.values()))
    if isinstance(value, (list, tuple)):
        return any(map(holds_float, value))
    return isinstance(value, float)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(int_vector_lists(), record_lists()), st.sampled_from(["bare", "in dict", "in list"]))
def test_uniform_lists_match_json_dumps(rows, where):
    value = {"page": rows, "n": 1} if where == "in dict" else [[rows]] if where == "in list" else rows
    if holds_float(value):
        with pytest.raises(TypeError):
            cli._dumps(value)
    else:
        assert cli._dumps(value) == reference(value)


# a page of parameters varies at one key, which sorts first, in the middle or
# last among the row's keys; the row's values are ints or str, the latter
# from the key alphabet too, with its '%' and quote characters
column_ints = st.one_of(st.integers(-3, 3), st.integers(max_value=-1),
                        st.integers(-(10**30), 10**30), st.sampled_from([10**30, -(10**30)]))


@st.composite
def pages(draw):
    names = sorted(draw(st.lists(keys, min_size=1, max_size=5, unique=True)))
    key = names[draw(st.sampled_from([0, len(names) // 2, len(names) - 1]))]
    row = {name: draw(st.one_of(column_ints, keys, text)) for name in names if name != key}
    # the row as one parameter's record holds the key too, at a value of its own
    if draw(st.booleans()):
        row[key] = draw(column_ints)
    values = draw(st.one_of(st.just([]), st.lists(column_ints, min_size=1, max_size=1),
                            st.lists(column_ints, min_size=2, max_size=6)))
    return cli._Page(row, key, values)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(pages(), st.sampled_from(["bare", "in dict", "in list"]))
def test_pages_match_json_dumps_of_their_records(page, where):
    value = {"page": page, "n": 1} if where == "in dict" else [[page]] if where == "in list" else page
    assert cli._dumps(value) == reference(expand(value))


def test_writer_edge_cases():
    for value in ({}, [], (), {"a": {}}, {"a": [[], ()]}, [True, 1, False, 0], (7,), [-0],
                  {"b": 1, "a": 2, "A": 3, "é": 4, "": 5}):
        assert cli._dumps(value) == reference(value), value


def test_records_that_do_not_share_their_keys_are_written_in_full():
    a, b, c = {"a": 1, "b": "x"}, {"a": 2}, {"a": 3, "c": "y"}
    for value in ([a, b], [b, a], [a, c], [c, a], [a, a, c], [b, b, a], [a, {}], [{}, a]):
        assert cli._dumps(value) == reference(value), value


SWAP_GL4 = "[[1,0,0,0],[0,0,0,1],[0,1,0,0],[0,0,1,0]]"
GL2 = ["--n", "2", "--q", "11", "--ell", "5"]
REPORTS = [
    ["component", *GL2],
    ["component", "--group", "SL", "--n", "3", "--q", "11", "--ell", "5"],
    ["component", "--group", "PGL", "--n", "3", "--q", "11", "--ell", "5", "--weyl", "identity"],
    ["component", "--n", "4", "--q", "7", "--ell", "3", "--weyl", SWAP_GL4],
    ["component", "--n", "24", "--q", "3", "--ell", "5"],
    ["component", "--n", "16", "--group", "SL", "--q", "3", "--ell", "5"],
    ["enumerate", *GL2],
    ["enumerate", "--limit", "2000", "--n", "2", "--q", "499", "--ell", "3", "--offset", "244"],
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
    # pages: none asked for, none left past the count, one row, and 2000 rows
    # under a modulus of 3137^2 - 1 = 9,840,768, just under the cap
    ["enumerate", "--limit", "0", *GL2],
    ["enumerate", "--offset", "60", *GL2],
    ["enumerate", "--limit", "1", *GL2, "--offset", "7"],
    ["enumerate", "--q", "3137", "--n", "2", "--ell", "3", "--offset", "4000000",
     "--limit", "2000"],
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
    # the objects the handlers built, tuples and all, with the datum's run
    # rows written out, and the bytes on stdout
    assert len(payloads) == 1
    assert out.getvalue() == reference(expand(payloads[0]))


@pytest.mark.parametrize(
    "value",
    [1.5, {"x": float("nan")}, [1, 2.0], {1: "a"}, {("a",): 1}, {"a": {None: 1}},
     object(), {"a": {1, 2}}, b"bytes", [{"a": 1, "b": "x"}, {"a": 2, "b": 1.5}]],
    ids=["float", "nan", "float-in-ints", "int-key", "tuple-key", "none-key",
         "object", "set", "bytes", "float-in-records"],
)
def test_writer_refuses_values_outside_the_report_domain(value):
    with pytest.raises(TypeError):
        cli._dumps(value)


def test_an_integer_too_long_to_print_is_output_too_large():
    for value in ({"modulus": 10**5000}, [[1, 2], [3, 10**5000]],
                  [{"a": 1, "b": "x"}, {"a": 10**5000, "b": "y"}],
                  {"parameters": cli._Page({"a": 1, "b": "x"}, "a", [1, 10**5000, 2])},
                  {"parameters": cli._Page({"a": 1, "b": 10**5000}, "a", [1, 2])}):
        with pytest.raises(ValueError):
            cli._dumps(value)
    out = io.StringIO()
    code = cli.run(["component", "--n", "2", "--q", str(3**8000), "--ell", "5",
                    "--output", "json"], stream=out)
    assert code == 2
    assert json.loads(out.getvalue())["error"]["code"] == "output-too-large"


def writer_calls(monkeypatch, argv):
    """How many times `cli._write` runs for one JSON report."""
    calls = 0
    write = cli._write

    def counting_write(value, newline, chunks):
        nonlocal calls
        calls += 1
        write(value, newline, chunks)

    with monkeypatch.context() as m:
        m.setattr(cli, "_write", counting_write)
        assert cli.run(["--output", "json", *argv], stream=io.StringIO()) == 0
    return calls


def test_a_page_of_parameters_takes_a_constant_number_of_writer_calls(monkeypatch):
    # each record was 8 calls before the page was filled from one template
    page = ["enumerate", "--n", "2", "--q", "499", "--ell", "3", "--offset", "244", "--limit"]
    calls = {limit: writer_calls(monkeypatch, [*page, limit]) for limit in ("1", "10", "2000")}
    assert len(set(calls.values())) == 1, calls
    assert calls["2000"] <= 20, calls


@pytest.mark.parametrize("group", ["GL", "SL", "PGL"])
def test_roots_and_coroots_take_a_constant_number_of_writer_calls(monkeypatch, group):
    calls = {n: writer_calls(monkeypatch, ["component", "--group", group, "--n", n,
                                           "--q", "3", "--ell", "5"])
             for n in ("2", "8", "24")}
    assert len(set(calls.values())) == 1, calls
    assert calls["24"] <= 50, calls


def test_vectors_mixing_lists_and_tuples_take_the_template_path(monkeypatch):
    assert cli._uniform_items([[1, 2], (3, 4)], "\n  ") is not None
    calls = 0
    write = cli._write

    def counting_write(value, newline, chunks):
        nonlocal calls
        calls += 1
        write(value, newline, chunks)

    monkeypatch.setattr(cli, "_write", counting_write)
    counts = {}
    for name, rows in {"lists": [[1, 2], [3, 4]], "mixed": [[1, 2], (3, 4)]}.items():
        calls = 0
        assert cli._dumps({"roots": rows}) == reference({"roots": rows})
        counts[name] = calls
    assert counts["mixed"] == counts["lists"], counts
