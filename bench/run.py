#!/usr/bin/env python3
"""rootfield benchmark: four seeded workloads, checked outputs, two modes.

One workload, as the repository's benchmark contract runs it:

    python3 bench/run.py --workload theorem-n500 --seed 1 --seconds 20 --trace 0

Every workload in turn, each in a fresh process, with a summary table:

    python3 bench/run.py [--seed 1] [--seconds 20] [--trace 0|1]

With --trace 0 the last line of standard output is one JSON object with
the end-to-end metrics; with --trace 1 it carries the per-layer split
instead, and the spans go to .bench_out/trace-<workload>-<seed>.json.
rootfield is imported from the src/ directory next to bench/, never from
an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
EXIT_FAIL = 2

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _import_rootfield():
    """rootfield from this checkout's src/, or exit without a result."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import rootfield
        import rootfield.cli  # noqa: F401  (the package does not load it)
    except ImportError as exc:
        sys.exit(f"cannot import rootfield from {SRC}: {exc}")
    origin = Path(rootfield.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        sys.exit(f"rootfield was imported from {origin}, not from {SRC}")
    return rootfield


def _steal_s() -> float:
    """CPU time the hypervisor has given to other guests (/proc/stat)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 \
        else 0.0


class Stopwatch:
    """Wall time, less the time the hypervisor kept this machine's busy
    CPUs from running.

    On a shared virtual machine the host hands CPU time to other guests
    (steal); the wall clock runs on while the program cannot.  Steal is
    summed over all CPUs, so it is divided by the number of CPUs the
    process kept busy (its CPU time over the wall time, at least 1).
    """

    def __init__(self, cpu_of=time.process_time):
        self.cpu_of = cpu_of

    def __enter__(self):
        self.t0, self.s0, self.c0 = (time.perf_counter(), _steal_s(),
                                     self.cpu_of())
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.t0
        self.steal = _steal_s() - self.s0
        busy = max(1.0, (self.cpu_of() - self.c0) / max(self.wall, 1e-9))
        self.seconds = self.wall - self.steal / busy
        return False


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _setup_s(args) -> float:
    """Median time of fresh processes that start, import and build."""
    times = []
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        with Stopwatch(_children_cpu) as sw:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"set-up failed: {proc.stderr.strip()}")
        times.append(sw.seconds)
        print(f"set-up: wall {sw.wall:.3f} s, steal {sw.steal:.3f} s",
              file=sys.stderr)
    return statistics.median(times)


def _build(args):
    """The set-up: import rootfield and build the workload's inputs."""
    rf = _import_rootfield()
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    work = workloads.WORKLOADS[args.workload](rf, args.seed, OUT, tracer)
    return rf, tracer, work


def run_workload(args) -> dict:
    setup_s = None if args.trace else _setup_s(args)
    rf, tracer, work = _build(args)

    times: list[float] = []
    attempted = failed = 0
    problems: list[str] = []
    if tracer is not None:
        tracer.begin(rf)
    cpu0 = time.process_time()
    start = time.perf_counter()
    while True:
        with Stopwatch() as sw:
            a, f, p = work.run_round()
        times.append(sw.seconds)
        print(f"round {len(times)}: wall {sw.wall:.3f} s, steal "
              f"{sw.steal:.3f} s", file=sys.stderr)
        attempted, failed, problems = attempted + a, failed + f, problems + p
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(times) > args.seconds:
            break
    cpu_s = time.process_time() - cpu0
    if tracer is not None:
        tracer.end()
    for msg in dict.fromkeys(problems):
        print(f"check failed: {msg}", file=sys.stderr)

    if tracer is not None:
        layers = tracer.per_layer(len(times), cpu_s)
        metrics = {k: {"value": layers[k], "unit": unit}
                   for k, unit in PER_LAYER_UNITS.items()}
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"trace-{args.workload}-{args.seed}.json"
        dump.write_text(json.dumps({"workload": args.workload,
                                    "seed": args.seed, "rounds": len(times),
                                    **tracer.dump()}))
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process, one at a time; print a table."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = EXIT_FAIL
            continue
        res = json.loads(lines[-1])
        results[name] = res
        status = status or (0 if res["correct"] else 1)
        print(f"{name}: attempted {res['attempted']}, failed "
              f"{res['failed']}, correct {res['correct']}")
        for key, m in res["metrics"].items():
            print(f"  {key:38s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.workload is None:
        return run_all(args)
    if args.setup_only:
        _build(args)
        return 0
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
