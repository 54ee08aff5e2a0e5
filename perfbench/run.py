"""Benchmark of the llc-params calculator, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload rank-sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
rank-sweep and param-scan run in one process through ``cli.run``; grid and
rough-moduli start ``python -m llc_params`` per op.  Load is one closed-loop
client: the next op starts when the previous one has finished.  The cycle of
ops a seed generates is replayed, in whole cycles, until ``--seconds`` have
passed.  A short fixed reference computation is timed before every op, and
every timing is calibrated by it against the machine's speed (speed.py).

With ``--trace 0`` the run reports the end-to-end metrics: set-up time of a
fresh process, ops per second, median and tail latency, peak RSS.  With
``--trace 1`` it measures half the time untraced and half traced, and reports
the per-layer metrics from spans recorded around the program's public
functions (tracer.py), the tracing overhead, and per-module import times.

Every output is checked after the timed region (checks.py); known defects
are run once per run and listed by name.  The last line of standard output
is the result as one JSON object; the full report is written to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from speed import factors  # noqa: E402
from worker import setup_sample  # noqa: E402
from workloads import DEFECT_BUDGET_S, WORKLOADS, defects  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "schema.json"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"
PY = sys.executable

SETUP_REPS = 3  # before and after the worker, which adds samples between its ops
IMPORT_REPS = 5
SPAN_CAP = 100_000
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


# ---------------------------------------------------------------------------
# measurements


def setup_times() -> list[tuple[float, float]]:
    return [setup_sample(str(SRC)) for _ in range(SETUP_REPS)]


IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)")


def import_times() -> dict[str, float]:
    """Median self time in ms of each llc_params module, from -X importtime."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_REPS):
        err = subprocess.run([PY, "-X", "importtime", "-c", "import llc_params.cli"],
                             env=child_env(), check=True, capture_output=True, text=True).stderr
        for line in err.splitlines():
            m = IMPORT_LINE.match(line)
            if m and m.group(2).split(".")[0] == "llc_params":
                samples.setdefault(m.group(2), []).append(int(m.group(1)) / 1000)
    return {name: statistics.median(v) for name, v in samples.items()}


def run_worker(spec: dict) -> tuple[dict, dict[int, tuple[int, str]]]:
    proc = subprocess.run([PY, str(HERE / "worker.py")], input=json.dumps(spec), cwd=ROOT,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed with code {proc.returncode}:\n{proc.stderr[-2000:]}")
    refs, result = {}, None
    for line in proc.stdout.splitlines():
        obj = json.loads(line)
        if "ref" in obj:
            refs[obj["ref"]] = (obj["rc"], obj["out"])
        else:
            result = obj["result"]
    return result, refs


def run_defects(workload: str, seed: int, validator) -> list[dict]:
    """Each known-defect op once, as a CLI user runs it, under a time budget."""
    rows = []
    for name, op in defects(workload, seed):
        t0 = perf_counter()
        proc = subprocess.Popen([PY, "-m", "llc_params", *op.argv], cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            out, _ = proc.communicate(timeout=DEFECT_BUDGET_S)
            dt = perf_counter() - t0
            found = checks.problems(op.to_json(), proc.returncode, out.decode(), validator)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            dt = DEFECT_BUDGET_S
            found = [f"over the {DEFECT_BUDGET_S} s budget; killed"]
        rows.append({"name": name, "argv": op.argv, "failed": bool(found),
                     "latency_s": dt, "problems": found[:2]})
    return rows


# ---------------------------------------------------------------------------
# statistics


def calibrate(timed: dict) -> list[float]:
    """Each latency divided by the machine's slowdown around it (speed.py)."""
    lat = timed["latencies"]
    return [dt / f for dt, f in zip(lat, factors(timed["probes"], len(lat)))]


def typical_by_op(timed: dict) -> dict[int, float]:
    """The median calibrated latency of each op over its repeats in this run."""
    samples: dict[int, list[float]] = {}
    for i, dt in zip(timed["ops"], calibrate(timed)):
        samples.setdefault(i, []).append(dt)
    return {i: statistics.median(v) for i, v in samples.items()}


def typical_repeats(timed: dict) -> list[float]:
    """Each sample replaced by its op's median calibrated latency in this run.

    A hiccup the probes did not catch (one rough-moduli op ran 540 ms
    against its usual 340) then cannot move the tail on its own.
    """
    typical = typical_by_op(timed)
    return [typical[i] for i in timed["ops"]]


def tail(latencies: list[float]) -> tuple[int, float]:
    """The mean of the slowest tenth of the samples.

    A percentile can sit on a cliff between two ops of very different cost
    (p90 of rank-sweep falls between PGL_16 at ~90 ms and GL_18 at ~115 ms)
    and jump from run to run; the mean of the slowest tenth moves smoothly.
    A fixed floor on the count would not: with whole cycles of 22 ops, ten
    samples are 3.3 ops' worth in three cycles and 2.5 in four.
    """
    k = math.ceil(len(latencies) / 10)
    return k, statistics.fmean(sorted(latencies)[-k:])


def curves(ops: list[dict], timed: dict) -> dict[str, dict]:
    groups: dict[str, list[float]] = {}
    for i, dt in zip(timed["ops"], calibrate(timed)):
        groups.setdefault(ops[i]["curve"], []).append(dt)
    return {
        label: {"median_ms": 1000 * statistics.median(v), "samples": len(v)}
        for label, v in sorted(groups.items())
    }


def src_lines() -> dict[str, int]:
    return {
        p.name: len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "llc_params").glob("*.py"))
    }


def layer_metrics(trace: dict, timed: dict, untraced: dict, imports: dict) -> dict[str, float]:
    ops = len(timed["latencies"])
    calls, incl, own, c = trace["calls"], trace["incl_s"], trace["self_s"], trace["counters"]

    def per_op(table, layer):
        return table.get(layer, 0) / ops

    hits, misses = trace.get("factorint_hits", 0), trace.get("factorint_misses", 0)
    descriptors = calls.get("cocycles.descriptor", 0)
    traced, untraced_typical = typical_by_op(timed), typical_by_op(untraced)
    shared = traced.keys() & untraced_typical.keys()
    overhead = sum(traced[i] for i in shared) / sum(untraced_typical[i] for i in shared) - 1
    out = {
        "lattice.snf_calls": per_op(calls, "lattice.snf"),
        "lattice.snf_s": per_op(incl, "lattice.snf"),
        "lattice.snf_max_cells": c["snf_max_cells"],
        "lattice.matrix_new_calls": per_op(calls, "lattice.matrix_new"),
        "lattice.matrix_new_s": per_op(incl, "lattice.matrix_new"),
        "lattice.det_calls": per_op(calls, "lattice.det"),
        "lattice.det_s": per_op(incl, "lattice.det"),
        "abgroups.cokernel_calls": per_op(calls, "abgroups.cokernel"),
        "abgroups.cokernel_self_s": per_op(own, "abgroups.cokernel"),
        "abgroups.normal_form_calls": per_op(calls, "abgroups.normal_form"),
        "abgroups.normal_form_s": per_op(incl, "abgroups.normal_form"),
        "arith.factorint_calls": per_op(calls, "arith.factorint"),
        "arith.factorint_s": per_op(incl, "arith.factorint"),
        "arith.factorint_max_bits": c["factorint_max_bits"],
        "arith.factorint_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "arith.check_admissible_calls": per_op(calls, "arith.check_admissible"),
        "arith.check_admissible_s": per_op(incl, "arith.check_admissible"),
        "rootdata.center_calls": per_op(calls, "rootdata.center"),
        "rootdata.center_s": per_op(incl, "rootdata.center"),
        "rootdata.twist_s": per_op(incl, "rootdata.twist"),
        "diag.calls": per_op(calls, "diag"),
        "diag.s": per_op(incl, "diag"),
        "cocycles.descriptor_calls": per_op(calls, "cocycles.descriptor"),
        "cocycles.descriptor_self_s": per_op(own, "cocycles.descriptor"),
        "cocycles.snf_per_descriptor": c["snf_in_descriptor"] / descriptors if descriptors else 0.0,
        "blocks.block_calls": per_op(calls, "blocks.block"),
        "blocks.block_s": per_op(incl, "blocks.block"),
        "blocks.match_s": per_op(incl, "blocks.match"),
        "glparams.param_new_calls": per_op(calls, "glparams.param_new"),
        "glparams.param_new_s": per_op(incl, "glparams.param_new"),
        "glparams.scan_s": per_op(incl, "glparams.scan"),
        "glparams.scan_yield_ratio": (
            c["scan_emitted"] / c["scan_visited"] if c["scan_visited"] else 0.0
        ),
        "glparams.count_s": per_op(incl, "glparams.count"),
        "glparams.verify_s": per_op(incl, "glparams.verify"),
        "sweep.grid_s": per_op(incl, "sweep.grid"),
        "cli.self_s": per_op(own, "cli.run"),
        "cli.bytes_out": trace["bytes_out"] / ops,
        "trace.overhead_ratio": overhead,
        "trace.coverage_ratio": sum(own.values()) / sum(timed["latencies"]),
    }
    for name, ms in imports.items():
        short = name.rpartition(".")[2] if "." in name else name
        out[f"import.{short}_ms"] = ms
    return out


# ---------------------------------------------------------------------------
# one workload


def run_one(args) -> dict:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    generate, mode = WORKLOADS[args.workload]
    phases = {}
    mark = perf_counter()

    def phase(name):
        nonlocal mark
        now = perf_counter()
        phases[name] = phases.get(name, 0.0) + now - mark
        mark = now

    ops = [op.to_json() for op in generate(args.seed)]
    validator = checks.load_validator(SCHEMA)
    phase("generate")
    subprocess.run([PY, "-c", "import llc_params.cli"], env=child_env(), check=True)  # compile
    setup = setup_times()
    imports = import_times() if args.trace else {}
    phase("setup")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_spec = {
        "mode": "inproc" if args.trace else mode,
        "fresh": bool(args.trace) and mode == "subproc",
        "ops": [op["argv"] for op in ops],
        "seconds": args.seconds,
        "trace": args.trace,
        "src": str(SRC),
        "span_cap": SPAN_CAP,
        "trace_file": str(OUT / f"{stem}.spans.jsonl"),
    }
    result, refs = run_worker(worker_spec)
    phase("worker")
    setup += [tuple(x) for x in result["setup_s"]] + setup_times()
    phase("setup")
    probe = run_defects(args.workload, args.seed, validator)
    phase("known_defects")

    op_problems = {
        i: checks.problems(ops[i], rc, out, validator) for i, (rc, out) in sorted(refs.items())
    }
    phase("checks")
    wrong = {i for i, found in op_problems.items() if found}
    timed = result["timed"]
    attempts = list(timed["ops"])
    bad = set(timed["bad"])
    if args.trace:
        attempts += result["untraced"]["ops"]
        bad |= {j + len(timed["ops"]) for j in result["untraced"]["bad"]}
    failed = sum(1 for j, i in enumerate(attempts) if j in bad or i in wrong)

    lat = timed["latencies"]
    ok = sum(1 for j, i in enumerate(timed["ops"]) if j not in bad and i not in wrong)
    typ = typical_repeats(timed)
    k_tail, v_tail = tail(typ)
    speed = factors(timed["probes"], len(lat))
    end_to_end = {
        "setup_s": statistics.median(dt / f for dt, f in setup),
        "ops_per_s": ok / sum(typ),
        "latency_p50_ms": 1000 * statistics.median(typ),
        "latency_tail_ms": 1000 * v_tail,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    defect_failed = sum(r["failed"] for r in probe)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "mode": worker_spec["mode"] + (" (fresh caches per op)" if worker_spec["fresh"] else ""),
        "distinct_ops": len(ops),
        "cycles": timed["cycles"],
        "attempted": len(attempts),
        "failed": failed,
        "samples": len(lat),
        "tail_samples": k_tail,
        "p90_ms": 1000 * statistics.quantiles(typ, n=10, method="inclusive")[8],
        "slowdown": {
            "median": statistics.median(speed),
            "min": min(speed),
            "max": max(speed),
            "setup": statistics.median(f for _, f in setup),
        },
        "raw": {
            "setup_s": statistics.median(dt for dt, _ in setup),
            "ops_per_s": ok / sum(lat),
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_tail_ms": 1000 * tail(lat)[1],
        },
        "setup_samples": len(setup),
        "end_to_end": end_to_end,
        "known_defects": probe,
        "failed_ratio": (failed + defect_failed) / (len(attempts) + len(probe)),
        "problems": {ops[i]["argv"][0] + " " + " ".join(ops[i]["argv"][1:9]): p
                     for i, p in op_problems.items() if p},
        "curves": curves(ops, result["untraced"] if args.trace else timed),
        "op_typical_ms": {
            " ".join(ops[i]["argv"][:-2]): 1000 * dt
            for i, dt in sorted(typical_by_op(timed).items())
        },
        "src_lines": src_lines(),
        "phase_s": phases,
    }
    if args.trace:
        report["per_layer"] = layer_metrics(result["trace"], timed, result["untraced"], imports)
        report["self_s_by_layer"] = {
            k: v / len(lat) for k, v in sorted(result["trace"]["self_s"].items())
        }
        info = {k: result["trace"][k] for k in ("spans_kept", "spans_dropped", "unmeasured")}
        untraced = result["untraced"]["latencies"]
        info["untraced_op_s"] = sum(untraced) / len(untraced)
        info["traced_op_s"] = sum(lat) / len(lat)
        report["trace_info"] = info
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = report["per_layer"] if args.trace else end_to_end
    print_report(report, declared, values)
    return {
        "correct": failed == 0 and not wrong,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }


def print_report(report: dict, declared: list[dict], values: dict) -> None:
    w = report["workload"]
    print(f"llc-params benchmark  workload={w} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']} mode={report['mode']}")
    print(f"  ops: {report['failed']}/{report['attempted']} failed, {report['distinct_ops']} distinct, "
          f"{report['cycles']} timed cycles")
    sd, raw = report["slowdown"], report["raw"]
    print(f"  machine slowdown: median {sd['median']:.3f} (range {sd['min']:.3f}-{sd['max']:.3f}), "
          f"{sd['setup']:.3f} around set-up; uncalibrated: "
          + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    for name, found in report["problems"].items():
        print(f"  FAIL {name}: {found[0]}")
    probe = report["known_defects"]
    if probe:
        names = ", ".join(f"{r['name']} ({'failed' if r['failed'] else 'passed'})" for r in probe)
        print(f"  known defects: {sum(r['failed'] for r in probe)}/{len(probe)} failed: {names}")
    print(f"  failed_ratio: {report['failed_ratio']:.4f} (traffic and known defects)")
    notes = {
        "setup_s": f"median of {report['setup_samples']} samples across the run",
        "latency_tail_ms": f"mean of the slowest {report['tail_samples']} of n={report['samples']}; "
                           f"p90 {report['p90_ms']:.4g} ms",
        "latency_p50_ms": f"n={report['samples']}",
        "ops_per_s": f"n={report['samples']}",
    }
    for m in declared:
        print(f"  {m['name']:<34} {values.get(m['name'], 0.0):>14.6g} {m['unit']:<10} "
              f"{notes.get(m['name'], '')}")
    for label, row in report["curves"].items():
        print(f"  curve {label:<26} {row['median_ms']:>10.2f} ms  n={row['samples']}")
    if "trace_info" in report:
        t = report["trace_info"]
        own = sum(report["self_s_by_layer"].values())
        print(f"  trace: op {1000 * t['untraced_op_s']:.2f} ms untraced, "
              f"{1000 * t['traced_op_s']:.2f} ms traced; layer self times sum to "
              f"{1000 * own:.2f} ms/op; spans kept {t['spans_kept']}, dropped {t['spans_dropped']}")
        for layer, sec in sorted(report["self_s_by_layer"].items(), key=lambda kv: -kv[1]):
            print(f"    self {layer:<24} {1000 * sec:>10.3f} ms/op")
        for reason in t["unmeasured"]:
            print(f"  unmeasured {reason}")
    print("  phases: " + " ".join(f"{k}={v:.2f}s" for k, v in report["phase_s"].items()))
    print(f"  src lines: {sum(report['src_lines'].values())} "
          + " ".join(f"{k}={v}" for k, v in report["src_lines"].items()))


# ---------------------------------------------------------------------------
# all workloads in one command


def run_all(args) -> dict:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [PY, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{name} failed:\n{proc.stderr[-2000:]}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = v
    return merged


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    The speed probes (speed.py) measure the CPU they run on; a child op on
    another CPU, beside another neighbour, would be calibrated by the wrong
    one.  One client runs one op at a time, so one CPU is all it uses.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "llc_params" / "__init__.py", SCHEMA, SPEC) if not p.is_file()]
    if missing:
        print(f"not an llc-params checkout: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
