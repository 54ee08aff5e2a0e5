"""Deterministic command line front end.

Subcommands mirror the library: ``component``, ``enumerate``, ``verify``,
``block``, ``match``, ``summary``; the top-level ``--grid`` flag runs the
full grid sweep.  Reports go to standard output as either JSON (sorted keys,
schema version stamped, byte-identical across runs) or a text rendering in
component notation such as ``[G_m/G_m] × μ_5``.

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
from collections.abc import Iterator
from json.encoder import encode_basestring

from . import __version__
from .abgroups import FinGenAbGroup
from .blocks import BlockDescriptor, categorical_summary, match_sides, torus_block_descriptor
from .cocycles import ComponentDescriptor, cocycle_space, component_descriptor
from .errors import InvalidArgument, InvalidRank, LlcError
from .glparams import (
    COEFFS,
    ZBAR,
    GLFamily,
    TrselpGL,
    canonical_lift,
    matrices,
    nilpotent_support_fixed_positions,
    verify_cocycle,
)
from .lattice import IntMatrix
from .rootdata import RootDatum, WeylTwist, coxeter_twist, identity_twist, preset, weyl_twist
from .sweep import run_grid

SCHEMA_VERSION = 1
MAX_MODULUS_ENV = "LLC_PARAMS_MAX_MODULUS"
DEFAULT_MAX_MODULUS = 10**7

MATH_COMMANDS = ("component", "enumerate", "verify", "block", "match", "summary")


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


def build_parser() -> _Parser:
    parser = _Parser(prog="llc-params", description=__doc__, add_help=True)
    parser.add_argument("--version", action="version", version=f"llc-params {__version__}")
    parser.add_argument(
        "--grid",
        action="store_true",
        help="run the grid sweep (all computable grid claims) and emit a pass/fail table",
    )
    parser.add_argument(
        "--output",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )

    sub = parser.add_subparsers(dest="command")

    def add_common(p, *, weyl=False, coeff=False, ab=False, paging=False):
        p.add_argument("--group", choices=("GL", "SL", "PGL"), default="GL")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--ell", type=int, required=True)
        if weyl:
            p.add_argument(
                "--weyl",
                default="coxeter",
                help="twist: 'coxeter', 'identity', or a JSON matrix like [[0,1],[1,0]]",
            )
        if coeff:
            p.add_argument("--coeff", choices=COEFFS, default=ZBAR)
        if ab:
            p.add_argument("--a", type=int, required=True)
            p.add_argument("--b", type=int, default=0)
        if paging:
            p.add_argument("--limit", type=int, default=100)
            p.add_argument("--offset", type=int, default=0)
        # SUPPRESS: a subparser default must not clobber a top-level --output
        p.add_argument("--output", choices=("text", "json"), default=argparse.SUPPRESS)

    add_common(sub.add_parser("component", help="structure of one parameter component"), weyl=True)
    add_common(
        sub.add_parser("enumerate", help="list regular parameters up to equivalence"),
        coeff=True,
        paging=True,
    )
    add_common(
        sub.add_parser("verify", help="check one parameter: regularity, cocycle, support"),
        coeff=True,
        ab=True,
    )
    add_common(sub.add_parser("block", help="block-side invariants"), weyl=True)
    add_common(sub.add_parser("match", help="compare component and block sides"), weyl=True)
    add_common(sub.add_parser("summary", help="full GL_n comparison summary"))
    sub.add_parser("grid", help="run the grid sweep").add_argument(
        "--output", choices=("text", "json"), default=argparse.SUPPRESS
    )
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """The parser `run` uses: argparse parses into a fresh namespace on every
    call and keeps no per-call state, so one parser serves the whole process."""
    return build_parser()


# ---------------------------------------------------------------------------
# rendering


def _render_diag(g: FinGenAbGroup) -> str:
    parts = []
    if g.free_rank == 1:
        parts.append("G_m")
    elif g.free_rank > 1:
        parts.append(f"G_m^{g.free_rank}")
    parts.extend(f"μ_{f}" for f in g.invariant_factors)
    return " × ".join(parts) if parts else "1"


def _torus_symbol(rank: int) -> str:
    if rank == 0:
        return "*"
    if rank == 1:
        return "G_m"
    return f"G_m^{rank}"


def component_notation(desc: ComponentDescriptor) -> str:
    """The component in quotient notation, e.g. '[G_m/G_m] × μ_5'."""
    stab = _render_diag(desc.stabilizer)
    if desc.product_form == "point_mod_S_psi":
        left = f"[*/{stab}]"
    else:
        left = f"[{_torus_symbol(desc.orbit_torus_rank)}/{stab}]"
    return f"{left} × {_render_diag(desc.mu)}"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# ---------------------------------------------------------------------------
# command implementations


def _build_datum(group: str, n: int) -> RootDatum:
    if group in ("SL", "PGL") and n < 2:
        raise InvalidRank(f"{group} needs n >= 2, got {n}")
    if n < 1:
        raise InvalidRank(f"n must be positive, got {n}")
    return preset(group, n)


def _build_twist(rd: RootDatum, choice: str) -> WeylTwist:
    if choice == "coxeter":
        return coxeter_twist(rd)
    if choice == "identity":
        return identity_twist(rd)
    try:
        data = json.loads(choice)
    except json.JSONDecodeError:
        raise InvalidArgument(
            f"--weyl must be 'coxeter', 'identity', or a JSON matrix; got {choice!r}",
            code="weyl-invalid",
        )
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise InvalidArgument("--weyl matrix must be a list of rows", code="weyl-invalid")
    return weyl_twist(rd, IntMatrix(data))


def _cmd_component(args) -> tuple[dict, Iterator[str]]:
    rd = _build_datum(args.group, args.n)
    twist = _build_twist(rd, args.weyl)
    desc = component_descriptor(rd, twist, args.q, args.ell)
    space = cocycle_space(desc.fixed_scheme, rd.rank, args.ell)
    body = {
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

    return body, lines()


def _require_gl(args, what: str) -> None:
    if args.group != "GL":
        raise InvalidArgument(
            f"{what} is defined for GL only, got group {args.group}",
            code="unsupported-group",
            hint="parameter enumeration lives on the GL side",
        )


def _cmd_enumerate(args) -> tuple[dict, Iterator[str]]:
    _require_gl(args, "enumeration")
    if args.limit < 0 or args.offset < 0:
        raise InvalidArgument("--limit and --offset must be nonnegative", code="paging-invalid")
    family = GLFamily(args.n, args.q, args.ell)
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
    page = family.parameters(args.coeff, args.offset, args.limit)
    body = {
        "modulus": modulus,
        "count": count,
        "offset": args.offset,
        "limit": args.limit,
        "parameters": [phi.to_json() for phi in page],
    }

    def lines():
        yield f"enumerate [GL_{args.n}, q={args.q}, ell={args.ell}, coeff={args.coeff}]"
        yield f"  modulus: {modulus}"
        yield f"  count:   {count}"
        yield f"  showing {len(page)} at offset {args.offset}"
        for phi in page:
            yield f"  a={phi.a} b={phi.b}"

    return body, lines()


def _cmd_verify(args) -> tuple[dict, Iterator[str]]:
    _require_gl(args, "verification")
    phi = TrselpGL(GLFamily(args.n, args.q, args.ell), args.coeff, args.a, args.b)
    # a residue parameter is checked through its canonical integral lift,
    # which has the same orbit size and the same nilpotent support
    lift = phi if phi.coeff == ZBAR else canonical_lift(phi)
    m = matrices(lift)
    ok = verify_cocycle(m, args.q)
    support = nilpotent_support_fixed_positions(lift)
    diagonal = support == [(i, i) for i in range(1, args.n + 1)]
    body = {
        "parameter": phi.to_json(),
        "regular": phi.is_regular,
        "cocycleHolds": ok,
        "matrices": m.to_json(),
        "nilpotentSupport": {
            "positions": [list(p) for p in support],
            "diagonalOnly": diagonal,
        },
    }

    def lines():
        yield f"verify [GL_{args.n}, q={args.q}, ell={args.ell}, a={phi.a}, b={phi.b}]"
        yield f"  regular:          {_yesno(phi.is_regular)}"
        yield f"  cocycle holds:    {_yesno(ok)}"
        yield f"  support diagonal: {_yesno(diagonal)} ({len(support)} positions)"

    return body, lines()


def _block_for(args, rd: RootDatum, twist: WeylTwist) -> BlockDescriptor:
    return torus_block_descriptor(
        rd.rank, WeylTwist(twist.matrix.transpose()), args.q, args.ell, coxeter_number=args.n
    )


def _cmd_block(args) -> tuple[dict, Iterator[str]]:
    rd = _build_datum(args.group, args.n)
    twist = _build_twist(rd, args.weyl)
    block = _block_for(args, rd, twist)

    def lines():
        yield f"block [{args.group}_{args.n}, q={args.q}, ell={args.ell}]"
        yield f"  torsion:            {block.torsion.describe()}"
        yield f"  free rank:          {block.free_rank}"
        yield f"  finite torus order: {block.finite_torus_order}"
        yield f"  k:                  {block.k}"
        for flag in block.applicability:
            yield f"  {flag.code}: {_yesno(flag.holds)} ({flag.detail})"

    return {"block": block.to_json()}, lines()


def _cmd_match(args) -> tuple[dict, Iterator[str]]:
    rd = _build_datum(args.group, args.n)
    twist = _build_twist(rd, args.weyl)
    desc = component_descriptor(rd, twist, args.q, args.ell)
    block = _block_for(args, rd, twist)
    report = match_sides(desc, block)
    body = {"component": desc.to_json(), "block": block.to_json(), "match": report.to_json()}

    def lines():
        yield f"match [{args.group}_{args.n}, q={args.q}, ell={args.ell}, weyl={args.weyl}]"
        yield f"  component:          {component_notation(desc)}"
        yield f"  mu character group: {report.mu_char_group.describe()}"
        yield f"  block torsion:      {report.block_torsion.describe()}"
        yield f"  isomorphic:         {_yesno(report.isomorphic)}"
        yield (
            f"  free ranks agree:   {_yesno(report.free_ranks_agree)} "
            f"({desc.orbit_torus_rank} vs {block.free_rank})"
        )
        yield f"  grading index:      {report.grading_index}"
        yield f"  context mismatch:   {_yesno(report.context_mismatch)}"
        for flag in report.applicability_flags:
            yield f"  {flag.code}: {_yesno(flag.holds)} ({flag.detail})"

    return body, lines()


def _cmd_summary(args) -> tuple[dict, Iterator[str]]:
    _require_gl(args, "the comparison summary")
    summary = categorical_summary(args.n, args.q, args.ell)
    verdict = summary.match.isomorphic and summary.match.free_ranks_agree

    def lines():
        yield f"summary [GL_{args.n}, q={args.q}, ell={args.ell}]"
        yield f"  grading index: {summary.grading_index}"
        yield (
            f"  cell: free rank {summary.cell_free_rank}, "
            f"torsion {summary.cell_torsion.describe()}"
        )
        yield f"  component:     {component_notation(summary.component)}"
        yield f"  sides match:   {_yesno(verdict)}"

    return {"summary": summary.to_json()}, lines()


def _cmd_grid(args) -> tuple[dict, Iterator[str]]:
    checks = run_grid()
    all_pass = all(c.passed for c in checks)
    body = {"checks": [c.to_json() for c in checks], "allPass": all_pass}

    def lines():
        width = max(len(c.check_id) for c in checks)
        yield "grid sweep"
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            yield f"  {status}  {c.check_id.ljust(width)}  {c.detail}"
        yield f"  {'all checks pass' if all_pass else 'SOME CHECKS FAILED'}"

    return body, lines()


# command -> (handler, the argument fields the report echoes as "input");
# a handler returns the report body and its text lines, rendered lazily
COMMANDS = {
    "component": (_cmd_component, ("group", "n", "q", "ell", "weyl")),
    "enumerate": (_cmd_enumerate, ("group", "n", "q", "ell", "coeff")),
    "verify": (_cmd_verify, ("group", "n", "q", "ell", "coeff", "a", "b")),
    "block": (_cmd_block, ("group", "n", "q", "ell", "weyl")),
    "match": (_cmd_match, ("group", "n", "q", "ell", "weyl")),
    "summary": (_cmd_summary, ("group", "n", "q", "ell")),
    "grid": (_cmd_grid, None),
}


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
    tuples, str, int, bool and None; anything else raises TypeError.  An int
    too long to print raises ValueError, as str() does.
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
        if set(map(type, value)) == {int}:
            # roots, coroots and matrix rows: one join, no per-item dispatch
            items = ("," + inner).join(map(int.__repr__, value))
            chunks.append("[" + inner + items + newline + "]")
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
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def run(argv: list[str] | None = None, stream=None) -> int:
    """Parse argv, execute, write the report; return the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if stream is None:
        stream = sys.stdout
    try:
        args = _shared_parser().parse_args(argv)
        if args.grid and args.command is None:
            args.command = "grid"
        if args.command is None:
            raise InvalidArgument(
                "no command given",
                code="usage-error",
                hint=f"choose one of: {', '.join(MATH_COMMANDS)} (or --grid)",
            )
        handler, fields = COMMANDS[args.command]
        body, lines = handler(args)
        report = {"schemaVersion": SCHEMA_VERSION, "command": args.command, **body}
        if fields is not None:
            report["input"] = {name: getattr(args, name) for name in fields}
        with _printing():
            text = _dumps(report) if args.output == "json" else "\n".join(lines) + "\n"
        stream.write(text)
        # only the grid can fail a check
        return 0 if body.get("allPass", True) else 1
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
