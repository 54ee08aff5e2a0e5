"""Layer spans recorded from outside the program.

``install`` wraps public functions and constructors of the llc_params
modules.  Modules bind names with ``from .x import f``, so a wrapper replaces
every module attribute that is the original object, wherever it is consumed;
constructors and methods are replaced on their class.  Nothing inside the
package changes.

A span is (name, start, end, parent, op_id), plus its busy time for a
generator (see ``_wrap_generator``).  Self time is a span's duration minus the
time its direct child spans cover; it is accumulated as spans close, so the
totals are exact however many spans are kept.  Spans are kept in memory up
to a cap and written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# layer -> [(module, attribute)]; "Class.method" patches the class
TARGETS = {
    "lattice.snf": [("lattice", "smith_normal_form")],
    "lattice.rank": [("lattice", "rank")],
    "lattice.matrix_new": [("lattice", "IntMatrix.__init__")],
    "lattice.det": [("lattice", "IntMatrix.det")],
    "abgroups.cokernel": [("abgroups", "cokernel")],
    "abgroups.normal_form": [("abgroups", "FinGenAbGroup.__init__")],
    "arith.factorint": [("arith", "factorint")],
    "arith.check_admissible": [("arith", "check_admissible")],
    "rootdata.preset": [("rootdata", "preset")],
    "rootdata.center": [("rootdata", "center_char_group")],
    "rootdata.twist": [
        ("rootdata", "coxeter_twist"),
        ("rootdata", "identity_twist"),
        ("rootdata", "weyl_twist"),
    ],
    "diag": [
        ("diag", name)
        for name in (
            "identity_component",
            "component_group",
            "product",
            "torus",
            "mu",
            "torus_hom_kernel",
            "geometric_points",
        )
    ],
    "cocycles.descriptor": [("cocycles", "component_descriptor")],
    "cocycles.space": [("cocycles", "cocycle_space")],
    "blocks.block": [("blocks", "gln_block_descriptor"), ("blocks", "torus_block_descriptor")],
    "blocks.match": [("blocks", "match_sides")],
    "blocks.summary": [("blocks", "categorical_summary")],
    "glparams.param_new": [("glparams", "TrselpGL.__init__")],
    "glparams.scan": [("glparams", "_scan_canonical")],
    "glparams.count": [("glparams", "count_params")],
    "glparams.verify": [
        ("glparams", "verify_cocycle"),
        ("glparams", "matrices"),
        ("glparams", "nilpotent_support_fixed_positions"),
    ],
    "glparams.lifts": [
        ("glparams", "lifts_in_component"),
        ("glparams", "reduction"),
        ("glparams", "enumerate_params"),
    ],
    "sweep.grid": [("sweep", "run_grid")],
}
GENERATORS = {"glparams.scan"}


class Frame:
    __slots__ = ("layer", "start", "child", "index")

    def __init__(self, layer, start, index):
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.index = index


class Tracer:
    def __init__(self, cap: int):
        self.cap = cap
        self.spans: list = []
        self.dropped = 0
        self.stack: list[Frame] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.depth: dict[str, int] = {}
        self.op_id = -1
        self.counters = {
            "snf_max_cells": 0,
            "snf_in_descriptor": 0,
            "factorint_max_bits": 0,
            "scan_emitted": 0,
            "scan_visited": 0,
        }
        self.unmeasured: list[str] = []

    # span bookkeeping -------------------------------------------------------

    def reserve(self) -> int:
        """A slot for a span that will close later, or -1 past the cap."""
        if len(self.spans) < self.cap:
            self.spans.append(None)
            return len(self.spans) - 1
        self.dropped += 1
        return -1

    def record(self, layer, start, end, busy, parent, index, gap=False) -> None:
        """Close a span; busy is the time it takes from its parent."""
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self.depth.get(layer, 0) == 0:
            self.incl_s[layer] = self.incl_s.get(layer, 0.0) + busy
        if parent is not None:
            parent.child += busy
        if index >= 0:
            self.spans[index] = (
                layer, start, end, parent.index if parent else -1, self.op_id, busy if gap else None
            )

    def enter(self, layer: str) -> Frame:
        frame = Frame(layer, perf_counter(), self.reserve())
        self.depth[layer] = self.depth.get(layer, 0) + 1
        self.stack.append(frame)
        return frame

    def exit(self, frame: Frame) -> None:
        end = perf_counter()
        self.stack.pop()
        layer = frame.layer
        dur = end - frame.start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - frame.child
        self.depth[layer] -= 1
        self.record(layer, frame.start, end, dur, self.stack[-1] if self.stack else None,
                    frame.index)

    def active(self, layer: str) -> bool:
        return self.depth.get(layer, 0) > 0

    # wrappers ---------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        tracer = self
        if layer == "lattice.snf":
            def before(args):
                a = args[0]
                cells = a.rows * a.cols
                if cells > tracer.counters["snf_max_cells"]:
                    tracer.counters["snf_max_cells"] = cells
                if tracer.active("cocycles.descriptor"):
                    tracer.counters["snf_in_descriptor"] += 1
        elif layer == "arith.factorint":
            def before(args):
                bits = int(args[0]).bit_length()
                if bits > tracer.counters["factorint_max_bits"]:
                    tracer.counters["factorint_max_bits"] = bits
        else:
            before = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = tracer.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        return wrapper

    def _wrap_generator(self, layer: str, fn):
        """One span per generator; its busy time excludes what the consumer did.

        The consumer (cli's islice, a list comprehension) calls other layers
        between steps, and those spans belong to the consumer.  Timing every
        step would cost more than the scan itself on deep offsets, so the
        span runs from the first step to the close of the generator, and its
        busy time is that interval minus the spans the consumer's frame
        collected meanwhile.  Steps yielded and the last exponent give the
        yield ratio.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            modulus = args[2] if len(args) > 2 else kwargs.get("modulus", 0)
            parent = tracer.stack[-1] if tracer.stack else None
            child_before = parent.child if parent else 0.0
            index = tracer.reserve()
            start = perf_counter()
            emitted, visited = 0, 0
            try:
                for a in fn(*args, **kwargs):
                    emitted += 1
                    visited = a + 1
                    yield a
                visited = modulus
            finally:
                end = perf_counter()
                busy = end - start - ((parent.child if parent else 0.0) - child_before)
                tracer.self_s[layer] = tracer.self_s.get(layer, 0.0) + busy
                tracer.record(layer, start, end, busy, parent, index, gap=True)
                tracer.counters["scan_emitted"] += emitted
                tracer.counters["scan_visited"] += visited

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "llc_params"]
        for layer, targets in TARGETS.items():
            for modname, attr in targets:
                try:
                    mod = importlib.import_module(f"llc_params.{modname}")
                    owner, _, name = attr.rpartition(".")
                    holder = getattr(mod, owner) if owner else mod
                    original = getattr(holder, name)
                except (ImportError, AttributeError):
                    self.unmeasured.append(f"{layer}: llc_params.{modname}.{attr} not found")
                    continue
                wrap = self._wrap_generator if layer in GENERATORS else self._wrap
                wrapped = wrap(layer, original)
                if owner:
                    setattr(holder, name, wrapped)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, op_id, busy = span
                row = {"name": name, "start": start, "end": end, "parent": parent, "op_id": op_id}
                if busy is not None:
                    row["busy"] = busy  # a generator's span also spans its consumer's work
                fh.write(json.dumps(row) + "\n")

    def summary(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "incl_s": self.incl_s,
            "counters": self.counters,
            "spans_kept": sum(1 for s in self.spans if s is not None),
            "spans_dropped": self.dropped,
            "unmeasured": self.unmeasured,
        }
