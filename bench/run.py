#!/usr/bin/env python3
"""The ringmpc benchmark: one workload per process, a closed loop with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Workloads are defined in ``workloads.py``: the seed
makes the inputs, and the package sees only those inputs.  There are no
threads and no worker processes; the next op starts when the previous one
has returned.  Each workload is a fixed list of ops, run in whole rounds
until ``--seconds`` have passed.

Set-up is importing the package afresh, generating the inputs and any
warm-up; it is repeated SETUP_REPEATS times and ``setup_s`` is the median.

Every time in the metrics is scaled to a fixed machine speed.  Where the
cores are shared with other tenants, their speed can move by a factor of
two between seconds and between runs, and the raw wall-clock time of the
same op on the same input moves with it.  Between ops, whenever REF_EVERY_S
of op time has passed, the benchmark times ``reference()``, a fixed piece
of pure-Python work that is not ringmpc code, so it costs the same on every
commit.  Each op's wall time is scaled by how much slower or faster than
REF_NOMINAL_S the reference ran around it (see ``scale``); set-up times
likewise.  A change to ringmpc moves the scaled times as it moves the raw
ones, and the host's speed cancels out.  The raw figures are printed beside
them.

With ``--trace 0`` the end-to-end metrics are printed:
  setup_s      median set-up time
  ops_per_s    ops per second of op time: the rate of the closed loop
  op_p50_ms    median op latency
  op_tail_ms   op latency at the workload's TAIL_PERCENTILE; how many
               samples lie beyond it is printed
  peak_rss_mb  ru_maxrss of this process (nothing is measured machine-wide)
  runs_per_s   protocol runs per second of op time: on verify-suite the
               enumerated runs of each SecrecyReport, elsewhere the engine
               runs of each op (one per execute, one per replay)
Failed ops (a wrong result, a wrong verdict, a replay mismatch or an
exception) are counted in ``failed``; error_rate = failed / attempted is
printed beside the metrics.

With ``--trace 1`` the same loop runs untraced for half the time, then, on a
fresh import with spans installed (``tracing.py``), for the other half; the
per-layer metrics come from the traced half and ``trace.overhead_ratio`` is
traced / untraced ops_per_s.  Per-layer times (unit ``s/op``) are scaled by
the traced phase's scaled op time over its wall-clock op time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The result, with
the environment it was measured in, is also written to ``.bench_out/``,
and in traced runs so are the spans.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import types
from pathlib import Path
from time import perf_counter

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
# The reference is timed after every REF_EVERY_S of op time.  An op's wall
# time is multiplied by REF_NOMINAL_S / r, where r is the median of its
# REF_NEIGHBOURS nearest reference times.  REF_NOMINAL_S is a fixed constant
# within the range of the reference's times on a shared 2-core x86-64 host
# under CPython 3.11 (0.33 to 0.7 ms), so scaled times are of the order of raw
# ones.  There, with the host's speed moving by a factor of two between runs,
# the scaled ops_per_s of five or ten seeds spread (quartile distance over
# median) by at most 5% on every workload, the raw ones by 7-55%.
REF_EVERY_S = 0.01
REF_NEIGHBOURS = 7
REF_NOMINAL_S = 0.5e-3
MODULES = ("ring", "topology", "engine", "analysis", "arithmetic", "commitment", "sharing",
           "poker", "cli")
# For each workload, the highest of p90, p95, p99 and p99.9 that keeps at least
# ten samples beyond it in a 35-second run on a shared 2-core host at this
# commit, also when the host runs at half speed; fixed, so that the tail means
# the same on every commit.
TAIL_PERCENTILE = {"verify-suite": 90, "sum-many-parties": 95, "cli-run-replay": 99}


@dataclasses.dataclass
class Record:
    start: float
    latency: float  # wall-clock seconds
    ok: bool
    runs: int
    tamper: bool
    k: int | None
    view_entries: int
    problem: str | None
    scaled: float = 0.0  # latency at the reference speed; set by ``scale``


def reference() -> tuple[float, float]:
    """Time a fixed piece of pure-Python work; return its midpoint and duration.

    Messages appended to a few views and a JSON round trip: the kind of
    interpreter work ringmpc does, with none of its code.
    """
    start = perf_counter()
    views = [[] for _ in range(8)]
    x = 1
    for seq in range(120):
        x = x * 48271 % 2147483647
        message = {"seq": seq, "src": seq % 8, "payload": str(x)}
        for view in views:
            view.append(message)
    json.loads(json.dumps(views[0]))
    end = perf_counter()
    return (start + end) / 2, end - start


def scale(records, refs) -> None:
    """Set each record's ``scaled`` time from the reference times nearest to it."""
    times = [t for t, _ in refs]
    for r in records:
        mid = r.start + r.latency / 2
        lo = hi = bisect.bisect(times, mid)
        while hi - lo < min(REF_NEIGHBOURS, len(refs)):
            if hi == len(times) or (lo > 0 and mid - times[lo - 1] <= times[hi] - mid):
                lo -= 1
            else:
                hi += 1
        r.scaled = r.latency * REF_NOMINAL_S / statistics.median(d for _, d in refs[lo:hi])


def load_package():
    """Import ringmpc afresh from the checkout's src/, so every import pays full cost."""
    for name in [n for n in sys.modules if n == "ringmpc" or n.startswith("ringmpc.")]:
        del sys.modules[name]
    pkg = types.SimpleNamespace(
        MODULES=MODULES, **{m: importlib.import_module(f"ringmpc.{m}") for m in MODULES})
    if Path(pkg.cli.__file__).resolve().parent != SRC / "ringmpc":
        raise RuntimeError(f"imported ringmpc from {pkg.cli.__file__}, not from {SRC}")
    return pkg


def execute(op, tracer=None) -> Record:
    if tracer is not None:
        tracer.begin_op(op)
    problem = None
    start = perf_counter()
    try:
        result = op.call()
    except Exception as e:  # a raising op is a failed op; the loop goes on
        problem = f"{op.family}: raised {type(e).__name__}: {e}"
    latency = perf_counter() - start
    if problem is None:
        try:
            problem = op.check(result)
        except Exception as e:  # a malformed outcome is a wrong result
            problem = f"{op.family}: oracle raised {type(e).__name__}: {e}"
    runs = op.runs(result) if problem is None else 0
    entries = tracer.op_view_entries if tracer is not None else 0
    return Record(start, latency, problem is None, runs, op.tamper, op.k, entries, problem)


def measure(ops, seconds, tracer=None):
    """Rounds of all ``ops``, in their order, until ``seconds`` have passed.

    Returns the records, scaled, and the reference times taken between ops.
    """
    records, refs = [], [reference()]
    start = perf_counter()
    since_ref = 0.0
    while True:
        for op in ops:
            records.append(execute(op, tracer))
            since_ref += records[-1].latency
            if since_ref >= REF_EVERY_S:
                refs.append(reference())
                since_ref = 0.0
        if perf_counter() - start >= seconds:
            break
    refs.append(reference())
    scale(records, refs)
    return records, refs


def setup(make, seed, smoke):
    """Set up SETUP_REPEATS times; return the last workload and every scaled set-up time."""
    records, refs = [], []
    for _ in range(SETUP_REPEATS):
        refs += [reference() for _ in range(REF_NEIGHBOURS // 2)]
        start = perf_counter()
        workload = make(load_package(), random.Random(seed), smoke)
        records.append(Record(start, perf_counter() - start, True, 0, False, None, 0, None))
    refs += [reference() for _ in range(REF_NEIGHBOURS // 2)]
    scale(records, refs)
    return workload, records


def rate(records, per=lambda r: 1):
    return sum(per(r) for r in records) / sum(r.scaled for r in records)


def end_to_end(name, records, setups, refs):
    latencies = sorted(r.scaled for r in records)
    p = TAIL_PERCENTILE[name]
    tail = (statistics.quantiles(latencies, n=100, method="inclusive")[p - 1]
            if len(latencies) > 1 else latencies[-1])
    metrics = {
        "setup_s": statistics.median(r.scaled for r in setups),
        "ops_per_s": rate(records),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "runs_per_s": rate(records, lambda r: r.runs),
    }
    wall = sorted(r.latency for r in records)
    ref_times = [d for _, d in refs]
    detail = {
        "ops": len(records), "tail_percentile": p,
        "tail_samples_beyond": sum(x > tail for x in latencies),
        "reference_ms": {"nominal": REF_NOMINAL_S * 1e3, "samples": len(ref_times),
                         "quartiles": [q * 1e3 for q in statistics.quantiles(ref_times, n=4)]},
        "wall_clock": {"setup_s": statistics.median(r.latency for r in setups),
                       "ops_per_s": len(wall) / sum(wall),
                       "op_p50_ms": statistics.median(wall) * 1e3},
    }
    return metrics, detail


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "load": "closed loop, one client, one process, no threads",
        "rss": "ru_maxrss of this workload process; nothing is measured machine-wide",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "ringmpc" / "__init__.py").is_file():
        print(f"error: no ringmpc source under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    sys.path.insert(0, str(SRC))

    make = WORKLOADS[args.workload]
    phase_seconds = args.seconds / 2 if args.trace else args.seconds
    workload, setups = setup(make, args.seed, args.smoke)
    records, refs = measure(workload.ops, phase_seconds)
    checked = records + [execute(op) for op in workload.post_checks()]
    metrics, detail = end_to_end(args.workload, records, setups, refs)

    spans = None
    if args.trace:
        pkg = load_package()
        workload = make(pkg, random.Random(args.seed), args.smoke)
        tracer = Tracer()
        tracer.install(pkg)
        traced, _ = measure(workload.ops, phase_seconds, tracer)
        checked += traced
        metrics = layer_metrics(tracer, traced, rate(traced), metrics["ops_per_s"])
        speed = sum(r.scaled for r in traced) / sum(r.latency for r in traced)
        metrics.update({name: value * speed for name, value in metrics.items()
                        if units[name] == "s/op"})
        detail.update(traced_ops=len(traced), spans_kept=len(tracer.spans),
                      spans_dropped=tracer.dropped)
        spans = tracer.spans

    failed = [r.problem for r in checked if not r.ok]
    kind = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": units[m["name"]]}
                    for m in declared[kind]},
    }
    env = environment()
    detail["error_rate"] = len(failed) / len(checked)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"args": vars(args), "environment": env, "detail": detail, "failures": failed[:50],
         **result}, indent=1))
    if spans is not None:
        with open(OUT / f"spans-{stem}.jsonl", "w") as f:
            f.write('["op", "id", "parent", "name", "start", "end"]\n')
            f.writelines(json.dumps(s) + "\n" for s in spans)

    for problem in failed[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# {json.dumps(detail, sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
