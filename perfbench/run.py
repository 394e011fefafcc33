"""skewtop benchmark: three closed-loop workloads, exactness-gated.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs the workload's op list one op at a time, every op out of
process with a timeout.  Each exact value an op reports is compared with the
value recorded from this code in `perfbench/expected.json`; an exception, a
nonzero exit, a differing value, an MC verdict other than `pass` or a
timeout fails the op.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the run makes an untraced pass and then a traced pass of the same
op list, and reports the per-layer ones.  Lines before the last record the
environment, the tail percentile and, when traced, each op's unattributed
time.  The full record, spans included, goes to perfbench/out/.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

RUN_BUDGET_S = 170        # every op of a run ends by then, or is killed
OP_IDLE_TIMEOUT_S = 90    # an op process silent this long is killed
SETUP_SAMPLES = 15        # interpreter starts timed per run, at least
MB = 1024                 # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Child:
    """Outcome of one child process: exit, timing, stdout and max RSS."""

    def __init__(self):
        self.t_spawn = self.t_exit = None
        self.returncode = None
        self.timed_out = False
        self.stdout = b""
        self.maxrss_kb = 0


def run_child(argv, env, deadline, on_line=None, stderr=None) -> Child:
    """Run argv to completion, killing it past `deadline` or after
    OP_IDLE_TIMEOUT_S without output.  Exit is observed through a pidfd, so
    the exit time is exact, and the child is reaped with wait4 so its RSS is
    read from its own rusage."""
    child = Child()
    out = bytearray()
    lines_done = 0
    child.t_spawn = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr,
                            env=env, cwd=ROOT)
    pidfd = os.pidfd_open(proc.pid)
    fd = proc.stdout.fileno()
    idle_until = child.t_spawn + OP_IDLE_TIMEOUT_S
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ, "out")
            sel.register(pidfd, selectors.EVENT_READ, "exit")
            while sel.get_map():
                wait = min(idle_until, deadline) - time.monotonic()
                if wait <= 0:
                    child.timed_out = child.t_exit is None
                    break
                for key, _ in sel.select(wait):
                    if key.data == "exit":
                        child.t_exit = time.monotonic()
                        sel.unregister(pidfd)
                        idle_until = min(idle_until, child.t_exit + 5)
                        continue
                    chunk = os.read(fd, 1 << 16)
                    if not chunk:
                        sel.unregister(fd)
                        continue
                    out += chunk
                    if child.t_exit is None:
                        idle_until = time.monotonic() + OP_IDLE_TIMEOUT_S
                    if on_line is not None:
                        lines = bytes(out).split(b"\n")[:-1]
                        for line in lines[lines_done:]:
                            on_line(json.loads(line))
                        lines_done = len(lines)
    finally:
        if child.t_exit is None:
            proc.kill()
            child.t_exit = time.monotonic()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = child.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        os.close(pidfd)
    child.stdout = bytes(out)
    child.maxrss_kb = usage.ru_maxrss
    return child


class Bench:
    """One benchmark run's child processes and what they measured."""

    def __init__(self, stem: str):
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.env.pop("SKEWTOP_SEED", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in
                                   [os.environ.get("PYTHONPATH")] if p])
        OUT.mkdir(exist_ok=True)
        self.record_path = OUT / f"{stem}.json"
        self.stderr = open(OUT / f"{stem}.stderr", "w")
        self.setup_samples = []
        self.untraced_targets = set()   # tracer targets the package lacks
        self.busy_s = 0.0   # lifetime of the current pass's op processes

    def close(self):
        self.stderr.close()

    def spawn(self, argv, env=None, on_line=None) -> Child:
        self.stderr.flush()
        return run_child(argv, env or self.env, self.deadline, on_line,
                         self.stderr)

    # -- setup ------------------------------------------------------------

    def probe_setup(self, count: int):
        """Time `count` interpreter starts up to `import skewtop` done."""
        argv = [sys.executable, "-c",
                "import skewtop, time; print(time.monotonic())"]
        for _ in range(count):
            child = self.spawn(argv)
            if child.returncode != 0 or child.timed_out:
                raise SystemExit("cannot import skewtop from "
                                 f"{ROOT / 'src'}; see {self.stderr.name}")
            self.setup_samples.append(float(child.stdout) - child.t_spawn)

    # -- one pass over the op list ------------------------------------------

    def run_pass(self, batches, trace: bool, probes: int = 0):
        """Run every batch; returns the op records and the summed lifetime
        of the op processes.  `probes` setup probes are spread evenly over
        the gaps before, between and after the batches."""
        records = []
        self.busy_s = 0.0
        gaps = len(batches) + 1
        for i in range(gaps):
            self.probe_setup(probes * (i + 1) // gaps - probes * i // gaps)
            if i == len(batches):
                break
            batch = batches[i]
            if batch[0]["kind"] == "cli":
                records.append(self.run_cli(batch[0], trace))
            else:
                records += self.run_lib(batch, trace)
        return records, self.busy_s

    def run_lib(self, batch, trace: bool) -> list:
        records = []
        todo = list(batch)
        while todo:
            got, ready = [], []

            def on_line(msg):
                (ready if "ready" in msg else got).append(msg)

            argv = [sys.executable, str(HERE / "worker.py"), "lib",
                    json.dumps(todo)] + (["--trace"] if trace else [])
            child = self.spawn(argv, on_line=on_line)
            self.busy_s += child.t_exit - child.t_spawn
            if ready and trace:
                self.untraced_targets.update(ready[0]["missing"])
            elif ready:
                self.setup_samples.append(ready[0]["ready"] - child.t_spawn)
            for op, msg in zip(todo, got):
                records.append({
                    "op": op, "key": ops.op_key(op),
                    "latency": msg["t1"] - msg["t0"],
                    "window": (msg["t0"], msg["t1"]),
                    "values": msg["values"],
                    "error": msg["error"], "spans": msg["spans"],
                    "maxrss_kb": child.maxrss_kb})
            if len(got) < len(todo):
                # the process died or hung inside todo[len(got)]
                op = todo[len(got)]
                why = ("timeout" if child.timed_out else
                       f"exit code {child.returncode}")
                records.append({
                    "op": op, "key": ops.op_key(op),
                    "latency": child.t_exit - (got[-1]["t1"] if got
                                               else child.t_spawn),
                    "window": None, "values": None, "error": why,
                    "spans": [], "maxrss_kb": child.maxrss_kb})
            todo = todo[len(got) + 1:]
        return records

    def run_cli(self, op, trace: bool) -> dict:
        args = op["command"].split() + ["--format", "json"]
        env = dict(self.env, SKEWTOP_SEED=str(op["seed"]))
        spans_file = OUT / f"spans-{os.getpid()}.json"
        if trace:
            argv = [sys.executable, str(HERE / "worker.py"), "cli",
                    str(spans_file)] + args
        else:
            argv = [sys.executable, "-m", "skewtop.cli"] + args
        child = self.spawn(argv, env)
        self.busy_s += child.t_exit - child.t_spawn
        record = {"op": op, "key": ops.op_key(op),
                  "latency": child.t_exit - child.t_spawn,
                  "window": (child.t_spawn, child.t_exit),
                  "values": None, "error": None, "spans": [],
                  "maxrss_kb": child.maxrss_kb}
        if trace and spans_file.exists():
            traced = json.loads(spans_file.read_text())
            spans_file.unlink()
            self.untraced_targets.update(traced["missing"])
            record["spans"] = ([[-1, None, "setup", child.t_spawn,
                                 traced["ready"], None]] + traced["spans"])
        if child.timed_out:
            record["error"] = "timeout"
            return record
        try:
            report = json.loads(child.stdout)
            record["values"] = ops.report_values(op["command"], report)
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            record["error"] = (f"exit code {child.returncode}, unreadable "
                               f"report: {type(exc).__name__}: {exc}")
            return record
        if child.returncode != 0 or not ops.report_verdict_ok(report):
            record["error"] = (f"exit code {child.returncode}, pass="
                               f"{report.get('pass')}, verdict="
                               f"{report.get('verdict')}")
        return record


# ---------------------------------------------------------------------------
# the exactness gate
# ---------------------------------------------------------------------------

def gate(values, expected) -> list:
    """Differences between an op's values and its recorded ones."""
    if expected is None:
        return ["no recorded values for this op"]
    if values is None:
        return ["no values"]
    wrong = [f"{k}: got {values.get(k)}, recorded {v}"
             for k, v in expected.items() if values.get(k) != v]
    wrong += [f"{k}: got {v}, nothing recorded" for k, v in values.items()
              if k not in expected]
    return wrong


def check_records(records, expected) -> int:
    """Mark each record's failures; returns how many ops failed."""
    failed = 0
    for rec in records:
        problems = ([rec["error"]] if rec["error"] else
                    gate(rec["values"], expected.get(rec["key"])))
        rec["problems"] = problems
        failed += bool(problems)
    return failed


def gate_rejects_altered_value(records, expected) -> bool:
    """The gate's own check: alter one recorded value of a passing op and
    require the gate to reject the op's unchanged output."""
    for rec in records:
        recorded = expected.get(rec["key"])
        if rec["problems"] or not recorded:
            continue
        key = sorted(recorded)[0]
        altered = dict(recorded, **{key: str(Fraction(recorded[key]) + 1)})
        return bool(gate(rec["values"], altered))
    return False


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(latencies):
    """Latency at the highest percentile with at least ten ops above it."""
    ordered = sorted(latencies)
    i = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[i], {"percentile": round(100 * (i + 1) / len(ordered), 1),
                        "ops": len(ordered), "ops_above": len(ordered) - 1 - i}


def end_to_end(records, wall, setup_samples):
    latencies = [r["latency"] for r in records]
    tail_s, tail_info = tail(latencies)
    return {"wall_s": wall,
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_s,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": max(r["maxrss_kb"] for r in records) / MB,
            }, tail_info


def mc_samples_per_s(records) -> float:
    mc = [r for r in records if r["op"].get("command") in ops.MC_DRAWS]
    if not mc:
        return 0.0
    return (sum(ops.MC_DRAWS[r["op"]["command"]] for r in mc)
            / sum(r["latency"] for r in mc))


def span_stats(records):
    """Per-function totals over every traced op, and each op's attribution.

    A function's total_s counts only its outermost spans; self_s is a
    span's duration minus its direct children's.  An op's attributed time
    is the part of its latency its top-level spans cover.
    """
    stats = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0,
                                 "count": 0})
    per_op = []
    for rec in records:
        spans = {s[0]: s for s in rec["spans"]}
        child_time = defaultdict(float)
        for s in spans.values():
            if s[1] is not None:
                child_time[s[1]] += s[4] - s[3]
        for s in spans.values():
            st = stats[s[2]]
            dur = s[4] - s[3]
            st["calls"] += 1
            st["self_s"] += dur - child_time[s[0]]
            st["count"] += s[5] or 0
            parent = spans.get(s[1])
            while parent is not None and parent[2] != s[2]:
                parent = spans.get(parent[1])
            if parent is None:
                st["total_s"] += dur
        if rec["window"] is None:
            continue
        lo, hi = rec["window"]
        covered = sum(max(0.0, min(s[4], hi) - max(s[3], lo))
                      for s in spans.values() if s[1] is None)
        latency = hi - lo
        per_op.append({"op": rec["key"], "latency_s": latency,
                       "unattributed_s": latency - covered,
                       "attributed_share": covered / latency})
    return stats, per_op


def per_layer(names, untraced, traced, wall_untraced, wall_traced):
    stats, per_op = span_stats(traced)
    special = {
        "tracing_overhead_s": wall_traced - wall_untraced,
        "unattributed_s": sum(o["unattributed_s"] for o in per_op),
        "attributed_share_min": min((o["attributed_share"] for o in per_op),
                                    default=0.0),
        "mc_samples_per_s": mc_samples_per_s(untraced),
    }
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
            continue
        function, stat = name.rsplit(".", 1)
        st = stats.get(function, {})
        metrics[name] = st.get("count" if stat in ("draws", "terms")
                               else stat, 0)
    return metrics, per_op


# ---------------------------------------------------------------------------

def environment(args, passes, n_ops) -> dict:
    info = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy; c = getattr(numpy.__config__, 'CONFIG', {}); "
         "b = c.get('Build Dependencies', {}).get('blas', {}); "
         "print(json.dumps([numpy.__version__, b.get('name'), "
         "b.get('version')]))"],
        capture_output=True, text=True, cwd=ROOT, timeout=60)
    numpy_version, blas, blas_version = (json.loads(info.stdout)
                                         if info.returncode == 0
                                         else [None, None, None])
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "passes": passes, "ops": n_ops,
            "python": sys.version.split()[0],
            "numpy": numpy_version,
            "blas": f"{blas} {blas_version}",
            "blas_threads": {v: os.environ.get(v, "unset") for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")},
            "nproc": len(os.sched_getaffinity(0)),
            # without a bytecode cache every start compiles skewtop: setup_s
            "PYTHONDONTWRITEBYTECODE": os.environ.get(
                "PYTHONDONTWRITEBYTECODE", "unset"),
            "machine": os.uname().machine}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "skewtop" / "__init__.py").is_file():
        print(f"no skewtop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads(EXPECTED.read_text())
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    batches = ops.build(args.workload, args.seed, args.seconds)
    bench = Bench(f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        env = environment(args, ops.passes(args.workload, args.seconds),
                          sum(map(len, batches)))
        lib_batches = sum(b[0]["kind"] != "cli" for b in batches)
        untraced, wall = bench.run_pass(batches, trace=False, probes=max(
            0, SETUP_SAMPLES - lib_batches))
        records = list(untraced)
        traced, wall_traced = [], None
        if args.trace:
            traced, wall_traced = bench.run_pass(batches, trace=True)
            records += traced
    finally:
        bench.close()

    failed = check_records(records, expected)
    problems = [] if gate_rejects_altered_value(records, expected) else [
        "the gate accepted a deliberately altered recorded value"]
    if args.trace:
        differ = [u["key"] for u, t in zip(untraced, traced)
                  if u["values"] != t["values"]]
        if differ:
            problems.append(f"traced values differ from untraced: {differ}")

    e2e, tail_info = end_to_end(untraced, wall, bench.setup_samples)
    per_op = []
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, per_op = per_layer(names, untraced, traced, wall,
                                   wall_traced)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = e2e
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names}

    print(json.dumps({"env": env}))
    print(json.dumps({"op_tail": tail_info}))
    for o in per_op:
        print(json.dumps({"attribution": o}))
    for rec in records:
        if rec["problems"]:
            print(json.dumps({"failed_op": rec["key"],
                              "problems": rec["problems"][:5]}))
    for p in problems:
        print(json.dumps({"check_failed": p}))
    if bench.untraced_targets:
        print(json.dumps({"tracer_targets_missing":
                          sorted(bench.untraced_targets)}))

    result = {"correct": failed == 0 and not problems,
              "attempted": len(records), "failed": failed,
              "metrics": metrics}
    bench.record_path.write_text(json.dumps(
        {"env": env, "result": result, "end_to_end": e2e,
         "op_tail": tail_info, "setup_samples": bench.setup_samples,
         "attribution": per_op,
         "ops": [{k: r[k] for k in ("key", "op", "latency", "maxrss_kb",
                                    "problems", "spans")} for r in records]},
        indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
