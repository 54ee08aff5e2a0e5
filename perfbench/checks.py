"""Correctness laws for every op output, from routes independent of the program.

``problems(op, rc, out)`` returns a list of violated laws; an empty list means
the output is correct.  Outputs are validated against docs/schema.json, then
against the laws of their command:

* component: fixed-scheme order = |det(w - q)|, mu = its ell-part (a group of
  ell-power order), orbit torus rank = dim ker(1 - w);
* block: finite-torus order = |det(q w^T - 1)|, torsion = its ell-part;
* match: both of the above, plus ``isomorphic`` and ``freeRanksAgree``;
* enumerate: count = the closed form (and a direct orbit walk on small
  moduli), listed exponents are regular orbit minima in increasing order with
  none missing between them;
* verify: ``regular`` agrees with the orbit size, ``cocycleHolds``, and the
  nilpotent support is diagonal exactly for regular exponents;
* grid: ``allPass``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from oracles import (
    canonical_regular,
    closed_form_count,
    det,
    ell_part,
    is_regular_minimum,
    nullity,
    orbit,
    shift,
    transpose,
    valuation,
)

WALK_MAX_MODULUS = 200_000
GAP_MAX_SPAN = 200_000


def load_validator(schema_path: Path):
    from jsonschema import Draft202012Validator

    return Draft202012Validator(json.loads(schema_path.read_text(encoding="utf-8")))


def _order(group: dict) -> int | None:
    if group["freeRank"]:
        return None
    return math.prod(group["torsion"])


def _component_laws(doc: dict, op: dict) -> list[str]:
    w, q, ell = op["twist"], op["q"], op["ell"]
    out = []
    order = abs(det(shift(w, 1, q)))
    if _order(doc["fixedScheme"]) != order:
        out.append(f"fixed scheme {doc['fixedScheme']} has order != |det(w - q)| = {order}")
    mu = doc["mu"]
    if _order(mu) != ell_part(order, ell) or any(ell ** valuation(t, ell) != t for t in mu["torsion"]):
        out.append(f"mu {mu} is not the {ell}-part of {order}")
    free = nullity(shift(w, 1, 1))
    if doc["orbitTorusRank"] != free:
        out.append(f"orbit torus rank {doc['orbitTorusRank']} != dim ker(1 - w) = {free}")
    return out


def _block_laws(block: dict, op: dict) -> list[str]:
    w, q, ell = op["twist"], op["q"], op["ell"]
    order = abs(det(shift(transpose(w), q, 1)))
    out = []
    if block["finiteTorusOrder"] != order:
        out.append(f"finite torus order {block['finiteTorusOrder']} != |det(q w^T - 1)| = {order}")
    if _order(block["torsion"]) != ell_part(order, ell):
        out.append(f"block torsion {block['torsion']} is not the {ell}-part of {order}")
    return out


def _enumerate_laws(doc: dict, op: dict) -> list[str]:
    n, q, ell = op["n"], op["q"], op["ell"]
    x = op["extra"]
    full = q**n - 1
    m = full if x["coeff"] == "zbar" else full // ell_part(full, ell)
    out = []
    if doc["modulus"] != m:
        return [f"modulus {doc['modulus']} != {m}"]
    count = closed_form_count(n, q, m)
    if doc["count"] != count:
        out.append(f"count {doc['count']} != closed form {count}")
    page = [p["a"] for p in doc["parameters"]]
    offset, limit = x["offset"], x["limit"]
    if len(page) != max(0, min(limit, count - offset)):
        out.append(f"page has {len(page)} entries, expected {min(limit, count - offset)}")
    if any(p["b"] != 0 or p["modulus"] != m for p in doc["parameters"]):
        out.append("listed parameters must have b = 0 and the family modulus")
    bad = [a for a in page if not is_regular_minimum(a, n, q, m)]
    if bad:
        out.append(f"not regular orbit minima: {bad[:3]}")
    if any(a >= b for a, b in zip(page, page[1:])):
        out.append("page is not strictly increasing")
    if m <= WALK_MAX_MODULUS:
        reps = canonical_regular(n, q, m)
        if len(reps) != count:
            out.append(f"direct orbit walk finds {len(reps)} orbits, count says {count}")
        if reps[offset : offset + limit] != page:
            out.append("page differs from the direct orbit walk")
    elif page and page[-1] - page[0] <= GAP_MAX_SPAN:
        listed = set(page)
        missing = [
            a for a in range(page[0], page[-1])
            if a not in listed and is_regular_minimum(a, n, q, m)
        ]
        if missing:
            out.append(f"regular orbit minima missing from the page: {missing[:3]}")
    return out


def _verify_laws(doc: dict, op: dict) -> list[str]:
    n, q, ell = op["n"], op["q"], op["ell"]
    m = q**n - 1
    if op["extra"].get("coeff") == "fbar":
        m //= ell_part(m, ell)
    a = op["extra"]["a"] % m
    regular = len(orbit(a, q, m)) == n
    out = []
    if doc["parameter"]["a"] != a:
        out.append(f"parameter a {doc['parameter']['a']} != {a}")
    if doc["regular"] != regular:
        out.append(f"regular = {doc['regular']}, orbit size says {regular}")
    if not doc["cocycleHolds"]:
        out.append("cocycle relation reported false")
    if doc["nilpotentSupport"]["diagonalOnly"] != regular:
        out.append("nilpotent support is not diagonal exactly for regular exponents")
    return out


def problems(op: dict, rc: int, out: str, validator) -> list[str]:
    if rc != 0:
        first = out.strip().splitlines()[:8]
        return [f"exit code {rc}: {' '.join(s.strip() for s in first)[:300]}"]
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as err:
        return [f"output is not JSON: {err}"]
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.path))
    if errors:
        return [f"schema: {errors[0].message[:200]}"]
    cmd = op["cmd"]
    if cmd == "component":
        return _component_laws(doc, op)
    if cmd == "block":
        return _block_laws(doc["block"], op)
    if cmd == "match":
        found = _component_laws(doc["component"], op) + _block_laws(doc["block"], op)
        if not doc["match"]["isomorphic"]:
            found.append("match reports isomorphic: false")
        if not doc["match"]["freeRanksAgree"]:
            found.append("match reports freeRanksAgree: false")
        return found
    if cmd == "enumerate":
        return _enumerate_laws(doc, op)
    if cmd == "verify":
        return _verify_laws(doc, op)
    if cmd == "grid":
        return [] if doc["allPass"] else ["grid report has allPass: false"]
    return [f"no laws for command {cmd}"]
