"""Deterministic command line front end.

Subcommands mirror the library: ``component``, ``enumerate``, ``verify``,
``block``, ``match``, ``summary``; the ``grid`` subcommand, or the top-level
``--grid`` flag, runs the full grid sweep.  ``component``, ``block`` and
``match`` take ``--group`` GL, SL or PGL; ``enumerate``, ``verify`` and
``summary`` take GL only.  Reports go to standard output as either JSON
(sorted keys, schema version stamped, byte-identical across runs) or a text
rendering in component notation such as ``[G_m/G_m] × μ_5``.

Exit codes: 0 success, 2 validation failure, 1 internal error.  Failures are
always emitted as a machine-readable error object regardless of the chosen
output mode.  The environment variable ``LLC_PARAMS_MAX_MODULUS`` (default
10**7) caps the exponent modulus that ``enumerate`` will scan.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from itertools import chain
from json.encoder import encode_basestring
from operator import itemgetter

from . import __version__
from .errors import FrozenRecord, InvalidArgument, LlcError

# each handler imports the layers it calls, so a command loads only what it
# runs; the annotations that name their classes are never evaluated

SCHEMA_VERSION = 1
MAX_MODULUS_ENV = "LLC_PARAMS_MAX_MODULUS"
DEFAULT_MAX_MODULUS = 10**7
OUTPUTS = ("text", "json")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as structured validation errors."""

    def error(self, message):
        raise InvalidArgument(message, code="usage-error", hint=self.format_usage().strip())


def _max_modulus() -> int:
    raw = os.environ.get(MAX_MODULUS_ENV)
    if raw is None:
        return DEFAULT_MAX_MODULUS
    try:
        cap = int(raw)
    except ValueError:
        raise InvalidArgument(
            f"{MAX_MODULUS_ENV} must be an integer, got {raw!r}",
            code="env-invalid",
        )
    if cap < 1:
        raise InvalidArgument(
            f"{MAX_MODULUS_ENV} must be positive, got {cap}",
            code="env-invalid",
        )
    return cap


# option -> its add_argument keywords; --group takes its choices from the command
_OPTIONS = {
    "group": {"default": "GL"},
    "n": {"type": int, "required": True},
    "q": {"type": int, "required": True},
    "ell": {"type": int, "required": True},
    "weyl": {"default": "coxeter",
             "help": "twist: 'coxeter', 'identity', or a JSON matrix like [[0,1],[1,0]]"},
    # glparams.COEFFS and ZBAR, spelled out so that building the parser loads no layer
    "coeff": {"choices": ("zbar", "fbar"), "default": "zbar"},
    "a": {"type": int, "required": True},
    "b": {"type": int, "default": 0},
    "limit": {"type": int, "default": 100},
    "offset": {"type": int, "default": 0},
    # SUPPRESS: a subparser default must not clobber a top-level --output
    "output": {"choices": OUTPUTS, "default": argparse.SUPPRESS},
}


def build_parser() -> _Parser:
    parser = _Parser(prog="llc-params", description=__doc__, add_help=True)
    parser.add_argument("--version", action="version", version=f"llc-params {__version__}")
    parser.add_argument(
        "--grid",
        action="store_true",
        help="run the grid sweep (all computable grid claims) and emit a pass/fail table",
    )
    parser.add_argument(
        "--output", choices=OUTPUTS, default="text", help="report format (default: text)"
    )
    sub = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for option in (*command.echoed, *command.unechoed, "output"):
            keywords = _OPTIONS[option]
            if option == "group":
                keywords = {**keywords, "choices": command.groups}
            p.add_argument(f"--{option}", **keywords)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser `run` uses: argparse parses into a fresh namespace on every
    call and keeps no per-call state, so one parser serves the whole process."""
    return build_parser()


# ---------------------------------------------------------------------------
# rendering


def _torus_symbol(rank: int) -> str:
    return {0: "*", 1: "G_m"}.get(rank, f"G_m^{rank}")


def _render_diag(g: FinGenAbGroup) -> str:
    parts = [_torus_symbol(g.free_rank)] if g.free_rank else []
    parts.extend(f"μ_{f}" for f in g.invariant_factors)
    return " × ".join(parts) if parts else "1"


def component_notation(desc: ComponentDescriptor) -> str:
    """The component in quotient notation, e.g. '[G_m/G_m] × μ_5'; a point
    modulo the stabilizer has orbit torus rank 0, written '*'."""
    left = f"[{_torus_symbol(desc.orbit_torus_rank)}/{_render_diag(desc.stabilizer)}]"
    return f"{left} × {_render_diag(desc.mu)}"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# command implementations: each returns a builder of its JSON body, its text
# lines and its exit code; text output never calls the builder
_Outcome = tuple[Callable[[], dict], Iterator[str], int]


def _build_twist(args) -> WeylTwist:
    """The twist that --weyl names on the preset of --group and --n."""
    from . import rootdata

    rd, choice = rootdata.preset(args.group, args.n), args.weyl
    if choice == "coxeter":
        return rootdata.coxeter_twist(rd)
    if choice == "identity":
        return rootdata.identity_twist(rd)
    try:
        data = json.loads(choice)
    except (ValueError, RecursionError):  # bad JSON, integers over the digit limit, deep nesting
        raise InvalidArgument(
            f"--weyl must be 'coxeter', 'identity', or a JSON matrix; got {choice!r}",
            code="weyl-invalid",
        )
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise InvalidArgument("--weyl matrix must be a list of rows", code="weyl-invalid")
    from . import lattice  # only an explicit matrix needs it
    return rootdata.weyl_twist(rd, lattice.IntMatrix(data))


def _cmd_component(args) -> _Outcome:
    from . import cocycles

    twist = _build_twist(args)
    rd = twist.datum
    desc = cocycles.component_descriptor(twist, args.q, args.ell)
    space = cocycles.cocycle_space(desc.fixed_scheme, rd.rank, args.ell)

    def body():
        return {
            "datum": rd.to_json(),
            "notation": component_notation(desc),
            "cocycleSpace": space.to_json(),
            **desc.to_json(),
        }

    def lines():
        yield f"component [{rd.name}, q={args.q}, ell={args.ell}, weyl={args.weyl}]"
        yield f"  notation:         {component_notation(desc)}"
        yield f"  fixed scheme:     {_render_diag(desc.fixed_scheme)}"
        yield f"  mu invariant:     {_render_diag(desc.mu)}"
        yield f"  stabilizer:       {_render_diag(desc.stabilizer)}"
        yield f"  orbit torus rank: {desc.orbit_torus_rank}"
        yield f"  elliptic:         {_yesno(desc.elliptic)}"
        yield f"  product form:     {desc.product_form}"
        yield (
            f"  cocycle space:    {space.component_count} components, each "
            f"{_render_diag(space.component_shape)}"
        )

    return body, lines(), 0


def _cmd_enumerate(args) -> _Outcome:
    from . import glparams

    if args.limit < 0 or args.offset < 0:
        raise InvalidArgument("--limit and --offset must be nonnegative", code="paging-invalid")
    family = glparams.GLFamily(args.n, args.q, args.ell)
    modulus = family.modulus(args.coeff)
    cap = _max_modulus()
    if modulus > cap:
        with _printing():
            message = f"exponent modulus {modulus} exceeds the cap {cap}"
        raise InvalidArgument(
            message,
            code="modulus-cap-exceeded",
            hint=f"raise {MAX_MODULUS_ENV} to scan larger moduli",
        )
    count = family.count(args.coeff)
    page = family.exponents(args.coeff, args.offset, args.limit)

    def body():
        # a page's parameters differ only in a: one parameter gives the row, and
        # the writer joins the exponents into it, with no record per row
        row = glparams.TrselpGL(family, args.coeff, page[0]).to_json() if page else {}
        return {
            "modulus": modulus,
            "count": count,
            "offset": args.offset,
            "limit": args.limit,
            "parameters": _Page(row, "a", page),
        }

    def lines():
        yield f"enumerate [GL_{args.n}, q={args.q}, ell={args.ell}, coeff={args.coeff}]"
        yield f"  modulus: {modulus}"
        yield f"  count:   {count}"
        yield f"  showing {len(page)} at offset {args.offset}"
        for a in page:
            yield f"  a={a} b=0"

    return body, lines(), 0


def _cmd_verify(args) -> _Outcome:
    from . import glparams

    family = glparams.GLFamily(args.n, args.q, args.ell)
    phi = glparams.TrselpGL(family, args.coeff, args.a, args.b)
    # a residue parameter is checked through its canonical integral lift,
    # which has the same orbit size and the same nilpotent support
    a = phi.a if phi.coeff == glparams.ZBAR else next(family.lifts(phi.a))
    diagonal = family.diagonal(a)
    ok = glparams.cocycle_law(diagonal, args.q, family.full_modulus)
    # the support is the n^2 / s positions i == j mod the orbit size s (s = n
    # exactly when phi is regular), so the text report counts it and only the
    # JSON body lists it
    s = family.orbit_size(glparams.ZBAR, a)
    regular = s == args.n

    def body():
        support = [list(p) for p in family.support(glparams.ZBAR, a)]
        return {
            "parameter": phi.to_json(),
            "regular": regular,
            "cocycleHolds": ok,
            "matrices": glparams.ParamMatrices(family.full_modulus, diagonal, phi.b).to_json(),
            "nilpotentSupport": {"positions": support, "diagonalOnly": regular},
        }

    def lines():
        yield f"verify [GL_{args.n}, q={args.q}, ell={args.ell}, a={phi.a}, b={phi.b}]"
        yield f"  regular:          {_yesno(regular)}"
        yield f"  cocycle holds:    {_yesno(ok)}"
        yield f"  support diagonal: {_yesno(regular)} ({args.n * args.n // s} positions)"

    return body, lines(), 0


def _cmd_block(args) -> _Outcome:
    from . import blocks

    block = blocks.torus_block_descriptor(_build_twist(args).transpose(), args.q, args.ell)

    def lines():
        yield f"block [{args.group}_{args.n}, q={args.q}, ell={args.ell}]"
        yield f"  torsion:            {block.torsion.describe()}"
        yield f"  free rank:          {block.free_rank}"
        yield f"  finite torus order: {block.finite_torus_order}"
        yield f"  k:                  {block.k}"
        for flag in block.applicability:
            yield f"  {flag.code}: {_yesno(flag.holds)} ({flag.detail})"

    return lambda: {"block": block.to_json()}, lines(), 0


def _cmd_match(args) -> _Outcome:
    from . import blocks, cocycles

    twist = _build_twist(args)
    desc = cocycles.component_descriptor(twist, args.q, args.ell)
    block = blocks.torus_block_descriptor(twist.transpose(), args.q, args.ell)
    report = blocks.match_sides(desc, block)

    def body():
        return {"component": desc.to_json(), "block": block.to_json(), "match": report.to_json()}

    def lines():
        yield f"match [{args.group}_{args.n}, q={args.q}, ell={args.ell}, weyl={args.weyl}]"
        yield f"  component:          {component_notation(desc)}"
        yield f"  mu character group: {desc.mu.describe()}"
        yield f"  block torsion:      {block.torsion.describe()}"
        yield f"  isomorphic:         {_yesno(report.isomorphic)}"
        yield (
            f"  free ranks agree:   {_yesno(report.free_ranks_agree)} "
            f"({desc.orbit_torus_rank} vs {block.free_rank})"
        )
        yield f"  grading index:      {blocks.GRADING_INDEX}"
        yield f"  context mismatch:   {_yesno(report.context_mismatch)}"
        for flag in block.applicability:
            yield f"  {flag.code}: {_yesno(flag.holds)} ({flag.detail})"

    return body, lines(), 0


def _cmd_summary(args) -> _Outcome:
    from . import blocks

    summary = blocks.categorical_summary(args.n, args.q, args.ell)
    match = summary.match
    verdict = match.isomorphic and match.free_ranks_agree

    def lines():
        yield f"summary [GL_{args.n}, q={args.q}, ell={args.ell}]"
        yield f"  grading index: {blocks.GRADING_INDEX}"
        yield f"  cell: free rank {match.block.free_rank}, torsion {match.block.torsion.describe()}"
        yield f"  component:     {component_notation(match.component)}"
        yield f"  sides match:   {_yesno(verdict)}"

    return lambda: {"summary": summary.to_json()}, lines(), 0


def _cmd_grid(args) -> _Outcome:
    from . import sweep

    checks = sweep.run_grid()
    all_pass = all(c.passed for c in checks)

    def body():
        return {"checks": [c.to_json() for c in checks], "allPass": all_pass}

    def lines():
        width = max(len(c.check_id) for c in checks)
        yield "grid sweep"
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            yield f"  {status}  {c.check_id.ljust(width)}  {c.detail}"
        yield f"  {'all checks pass' if all_pass else 'SOME CHECKS FAILED'}"

    return body, lines(), 0 if all_pass else 1


class _Page(FrozenRecord):
    # records that differ only at one key: reports print the list of {**row, key: v}
    # for each v in values, and the writer writes it from row once
    __slots__ = ("row", "key", "values")


class _Command(FrozenRecord):
    # handler: args -> _Outcome; groups: the --group choices; echoed: the options,
    # in order, that the JSON report echoes as "input"; unechoed: those after them
    __slots__ = ("help", "handler", "groups", "echoed", "unechoed")

    def __init__(self, help, handler, groups, echoed, unechoed=()):
        self._fill(help, handler, groups, echoed, unechoed)


_ALL, _GL = ("GL", "SL", "PGL"), ("GL",)
_GEOMETRY = ("group", "n", "q", "ell")
COMMANDS = {
    "component": _Command("structure of one parameter component", _cmd_component, _ALL,
                          (*_GEOMETRY, "weyl")),
    "enumerate": _Command("list regular parameters up to equivalence", _cmd_enumerate, _GL,
                          (*_GEOMETRY, "coeff"), ("limit", "offset")),
    "verify": _Command("check one parameter: regularity, cocycle, support", _cmd_verify, _GL,
                       (*_GEOMETRY, "coeff", "a", "b")),
    "block": _Command("block-side invariants", _cmd_block, _ALL, (*_GEOMETRY, "weyl")),
    "match": _Command("compare component and block sides", _cmd_match, _ALL, (*_GEOMETRY, "weyl")),
    "summary": _Command("full GL_n comparison summary", _cmd_summary, _GL, _GEOMETRY),
    "grid": _Command("run the grid sweep", _cmd_grid, (), ()),
}
MATH_COMMANDS = tuple(name for name, command in COMMANDS.items() if command.echoed)


@contextlib.contextmanager
def _printing():
    """Turn Python's refusal to print a long integer into a validation error.

    str() of an int with more decimal digits than sys.get_int_max_str_digits()
    raises ValueError; the guarded code only formats computed values, so no
    other ValueError can arise there.
    """
    try:
        yield
    except ValueError:
        raise InvalidArgument(
            f"the report would print an integer of more than "
            f"{sys.get_int_max_str_digits()} decimal digits",
            code="output-too-large",
            hint="Python prints integers up to that many digits; "
            "the PYTHONINTMAXSTRDIGITS environment variable raises the limit",
        ) from None


def _dumps(payload: dict) -> str:
    """The bytes of json.dumps(payload, sort_keys=True, indent=2,
    ensure_ascii=False) + "\\n", written in one pass.

    The value domain is that of the reports: dicts with str keys, lists,
    tuples, str, int, bool, None, rootdata.RunRows (the list of its rows'
    values) and _Page (the list of its records); anything else raises
    TypeError.  An int too long to print raises ValueError, as str() does.
    """
    chunks: list[str] = []
    _write(payload, "\n", chunks)
    chunks.append("\n")
    return "".join(chunks)


def _write(value, newline: str, chunks: list[str]) -> None:
    """Append ``value``'s JSON; ``newline`` is a line break plus the indent of
    the line the value starts on."""
    if isinstance(value, str):
        chunks.append(encode_basestring(value))
    elif value is None:
        chunks.append("null")
    elif value is True:
        chunks.append("true")
    elif value is False:
        chunks.append("false")
    elif isinstance(value, int):
        chunks.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            chunks.append("[]")
            return
        inner = newline + "  "
        items = _uniform_items(value, inner)
        if items is not None:
            chunks.append("[" + inner + ("," + inner).join(items) + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            chunks.append(sep)
            _write(item, inner, chunks)
            sep = "," + inner
        chunks.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            chunks.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            chunks.append(sep + encode_basestring(key) + ": ")
            _write(value[key], inner, chunks)
            sep = "," + inner
        chunks.append(newline + "}")
    else:  # a rootdata.RunRows, written from its rows' texts, a page, or no report value
        row_texts = getattr(value, "row_texts", None)
        if row_texts is not None:
            sep, cut, head, joint, tail = _row_joints(newline)
            text = joint.join(map(cut, row_texts(sep)))
            chunks.extend((head, text, tail) if text else ("[]",))
        elif type(value) is _Page:
            chunks.extend(_page_texts(value, newline))
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _page_texts(page: _Page, newline: str) -> tuple[str, ...]:
    """A page's records: the row's fixed fields written once, and the values
    joined between the row's texts before and after the key into a chunk of
    their own, which no concatenation copies; no value makes a dict or a fill."""
    if not page.values:
        return ("[]",)
    inner, field = newline + "  ", newline + "    "
    row, texts, sep = {**page.row, page.key: None}, ["{"], field
    for name in sorted(row):
        texts.append(sep + encode_basestring(name) + ": ")
        sep = "," + field
        if name == page.key:
            cut = len(texts)
        else:
            _write(row[name], field, texts)
    before, after = "".join(texts[:cut]), "".join(texts[cut:]) + inner + "}"
    values = (after + "," + inner + before).join(map(int.__repr__, page.values))
    return "[" + inner + before, values, after + newline + "]"


@functools.cache
def _row_joints(newline: str) -> tuple:
    """For the rows of a RunRows written on a line indented as ``newline``:
    the separator after each value, the cut of a row's last one, and the
    texts before, between and after the rows."""
    inner = newline + "  "
    sep = "," + inner + "  "
    opener = "[" + sep[1:]
    return (sep, itemgetter(slice(None, -len(sep))), "[" + inner + opener,
            inner + "]," + inner + opener, inner + "]" + newline + "]")


def _uniform_items(value, inner: str) -> Iterable[str] | None:
    """The items of a uniform list, with no per-value dispatch; None for any
    other list, which `_write` writes value by value.

    A uniform list holds exact ints (a group's torsion) or int vectors (the
    positions of `verify`'s nilpotent support: non-empty exact lists or
    tuples of one length, every entry an exact int); a datum's roots come as
    a RunRows and a page of parameters as a page, which `_write` writes from
    their texts.  Vectors are filled from one item template; '%d' writes an
    int as int.__repr__ does and raises the same ValueError for one too
    long to print.
    """
    kinds = set(map(type, value))
    if kinds == {int}:
        return map(int.__repr__, value)
    if not kinds <= {list, tuple} or len(set(map(len, value))) != 1 or not value[0]:
        return None
    if set(map(type, chain.from_iterable(value))) != {int}:
        return None
    field = inner + "  "
    slots = ("," + field).join(["%d"] * len(value[0]))
    return map(("[" + field + slots + inner + "]").__mod__, map(tuple, value))


def run(argv: list[str] | None = None, stream=None) -> int:
    """Parse argv, execute, write the report; return the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if stream is None:
        stream = sys.stdout
    try:
        args = _shared_parser().parse_args(argv)
        if args.grid:
            if args.command not in (None, "grid"):
                raise InvalidArgument(
                    f"--grid runs the grid sweep and takes no {args.command} command",
                    code="usage-error",
                    hint=f"run llc-params --grid and llc-params {args.command} separately",
                )
            args.command = "grid"
        if args.command is None:
            raise InvalidArgument(
                "no command given",
                code="usage-error",
                hint=f"choose one of: {', '.join(MATH_COMMANDS)} (or --grid)",
            )
        command = COMMANDS[args.command]
        body, lines, code = command.handler(args)
        with _printing():
            if args.output == "json":
                report = {"schemaVersion": SCHEMA_VERSION, "command": args.command, **body()}
                if command.echoed:
                    report["input"] = {name: getattr(args, name) for name in command.echoed}
                text = _dumps(report)
            else:
                text = "\n".join(lines) + "\n"
        stream.write(text)
        return code
    except SystemExit as err:  # argparse --help / --version already printed
        code = err.code
        return code if isinstance(code, int) else 0
    except LlcError as err:
        stream.write(_dumps({"schemaVersion": SCHEMA_VERSION, "error": err.to_json()}))
        return err.exit_code
    except Exception as err:  # defensive: never a traceback on the report stream
        error = {"code": "internal-error", "message": f"{type(err).__name__}: {err}", "hint": None}
        stream.write(_dumps({"schemaVersion": SCHEMA_VERSION, "error": error}))
        return 1


def main() -> None:
    sys.exit(run())
