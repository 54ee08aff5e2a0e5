"""The workload process: replays one cycle of ops in a closed loop.

Started by run.py with a JSON spec on stdin.  It imports only llc_params and
the standard library, so its peak RSS is the program's.  One client, one op
at a time: in-process ops call ``cli.run(argv, stream)``; subprocess ops run
``python -m llc_params`` and wait for it.

Output, one JSON object per line: the first output of every op as a
reference (``{"ref": i, "rc": ..., "out": ...}``), then ``{"result": ...}``.
Later repeats are compared with the reference by digest; the harness checks
the references after this process has exited, outside any timed region.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
from time import perf_counter

from speed import REFERENCE_S, probe

OP_BUDGET_S = 30.0
# one set-up sample per this many seconds of the run, taken between cycles
# so that no op runs just after a fresh process has left the caches cold:
# samples spread over the run give a steadier median than samples taken
# together
SETUP_EVERY_S = 1.5
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import llc_params.cli as c\n"
    "c.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)


def setup_sample(src: str) -> tuple[float, float]:
    """Seconds a fresh process takes to import llc_params.cli and build the parser.

    Returns the time and the machine's slowdown around it (speed.py): the
    mean of a probe just before the process and one just after.
    """
    env = dict(os.environ, PYTHONPATH=src)
    before = probe()
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                         capture_output=True, text=True).stdout
    return float(out), (before + probe()) / 2 / REFERENCE_S


class OpTimeout(BaseException):
    """Raised by the alarm inside an in-process op; cli.run does not catch it."""


def _alarm(signum, frame):
    raise OpTimeout


def digest(rc: int, out: str) -> str:
    return hashlib.blake2b(f"{rc}\n{out}".encode(), digest_size=16).hexdigest()


class Worker:
    def __init__(self, spec: dict):
        self.spec = spec
        self.ops = spec["ops"]
        self.refs: dict[int, str] = {}
        self.tracer = None
        self.bytes_out = 0
        self.cleared = [0, 0]  # factorint cache hits and misses before each clear
        self.setup: list[float] = []
        src = spec["src"]
        if spec["mode"] == "subproc":
            self.env = dict(os.environ, PYTHONPATH=src)
        else:
            sys.path.insert(0, src)
            from llc_params import arith, cli

            self.cli = cli
            self.factorint = arith.factorint
            signal.signal(signal.SIGALRM, _alarm)

    def cache_totals(self) -> tuple[int, int]:
        info = self.factorint.cache_info()
        return self.cleared[0] + info.hits, self.cleared[1] + info.misses

    def run_inproc(self, i: int) -> tuple[int, str, float]:
        if self.spec.get("fresh"):
            info = self.factorint.cache_info()
            self.cleared[0] += info.hits
            self.cleared[1] += info.misses
            self.factorint.cache_clear()  # as a new process would start
        stream = io.StringIO()
        tracer = self.tracer
        signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
        t0 = perf_counter()
        try:
            if tracer is None:
                rc = self.cli.run(self.ops[i], stream)
            else:
                tracer.op_id = i
                frame = tracer.enter("cli.run")
                try:
                    rc = self.cli.run(self.ops[i], stream)
                finally:
                    tracer.exit(frame)
            dt = perf_counter() - t0
        except OpTimeout:
            if tracer is not None:
                tracer.stack.clear()
                tracer.depth.clear()
            return -9, "", OP_BUDGET_S
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        out = stream.getvalue()
        if tracer is not None:
            self.bytes_out += len(out.encode())
        return rc, out, dt

    def run_subproc(self, i: int) -> tuple[int, str, float]:
        cmd = [sys.executable, "-m", "llc_params", *self.ops[i]]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.env)
        try:
            out, _ = proc.communicate(timeout=OP_BUDGET_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return -9, "", OP_BUDGET_S
        dt = perf_counter() - t0
        return proc.returncode, out.decode(), dt

    def execute(self, i: int) -> tuple[int, float, bool]:
        """Run op i; emit it as the reference on first sight; report a mismatch."""
        run = self.run_subproc if self.spec["mode"] == "subproc" else self.run_inproc
        rc, out, dt = run(i)
        d = digest(rc, out)
        ref = self.refs.get(i)
        if ref is None:
            self.refs[i] = d
            sys.stdout.write(json.dumps({"ref": i, "rc": rc, "out": out}) + "\n")
            return rc, dt, True
        return rc, dt, ref == d

    def cycles(self, seconds: float) -> dict:
        """Whole cycles until at least ``seconds`` have passed.

        A speed probe (speed.py) runs before every op and once after the last.
        """
        latencies, ops, bad, probes = [], [], [], []
        start = last_setup = perf_counter()
        cycles = 0
        while True:
            for i in range(len(self.ops)):
                probes.append(probe())
                rc, dt, same = self.execute(i)
                latencies.append(dt)
                ops.append(i)
                if not same or rc == -9:
                    bad.append(len(latencies) - 1)
            cycles += 1
            if perf_counter() - start >= seconds:
                break
            while not self.spec["trace"] and perf_counter() - last_setup >= SETUP_EVERY_S:
                self.setup.append(setup_sample(self.spec["src"]))
                last_setup += SETUP_EVERY_S
        probes.append(probe())
        return {"latencies": latencies, "ops": ops, "bad": bad, "probes": probes,
                "cycles": cycles, "wall_s": perf_counter() - start}

    def main(self) -> dict:
        seconds = self.spec["seconds"]
        result = {}
        if self.spec["mode"] == "inproc" and not self.spec.get("fresh"):
            for i in range(len(self.ops)):  # warm-up: fills caches, emits references
                self.execute(i)
        if not self.spec["trace"]:
            result["timed"] = self.cycles(seconds)
        else:
            from tracer import Tracer

            result["untraced"] = self.cycles(seconds / 2)
            self.tracer = Tracer(self.spec["span_cap"])
            self.tracer.install()
            before = self.cache_totals()
            result["timed"] = self.cycles(seconds / 2)
            trace = self.tracer.summary()
            after = self.cache_totals()
            trace["factorint_hits"] = after[0] - before[0]
            trace["factorint_misses"] = after[1] - before[1]
            trace["bytes_out"] = self.bytes_out
            result["trace"] = trace
            self.tracer.write(self.spec["trace_file"])
        who = resource.RUSAGE_CHILDREN if self.spec["mode"] == "subproc" else resource.RUSAGE_SELF
        result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        result["setup_s"] = self.setup
        return result


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    spec = json.load(sys.stdin)
    res = Worker(spec).main()
    sys.stdout.write(json.dumps({"result": res}) + "\n")
