"""One workload run in a fresh process; started by run.py.

Set-up is the import of this module (which imports `hypergroups`) plus
the workload's constructor. The process then prints the monotonic clock
at which the first operation was ready, so run.py can measure set-up
from the moment it started the process. Unless --setup-only, it then
runs passes of the fixed work for --seconds and prints their timings,
failures and the facts each pass produced, as one JSON line.

With --trace 1 the untraced passes take half the time. Then a Tracer is
installed, the set-up repeated under it, and two more passes run: one
for counts and self times, one for memory peaks (tracemalloc slows the
calls it watches). The timed pass minus the untraced median is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import EXACT_COUNTS, Tracer
from workloads import WORKLOADS, Pass

SETUP_OP = -1


def run_pass(workload, tracer=None, first_op: int = 0) -> Pass:
    p = Pass(tracer, first_op)
    workload.run_pass(p)
    if tracer is not None:
        p.facts["layers"] = tracer.take_stats()
    return p


def measure(workload, seconds: float) -> tuple[list[Pass], int]:
    """Untraced passes of the fixed work for about `seconds`, at least
    one; and the peak RSS in KiB after set-up and the first pass, which
    does not grow with the number of passes run.

    A pass starts only if half a pass still fits, so a run ends within
    half a pass of `seconds`."""
    start = time.monotonic()
    passes = [run_pass(workload)]
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while time.monotonic() - start + passes[-1].wall / 2 < seconds:
        passes.append(run_pass(workload))
    return passes, maxrss_kb


def median_pass(passes: list[Pass]) -> float:
    """Time of one pass as the sum over its operations of each one's
    median across passes. A slow spell of a few seconds lands on a few
    operations of one pass, and the per-operation median drops it."""
    return sum(statistics.median(times) for times in zip(*(p.times for p in passes)))


def consistency(passes: list[Pass], what: str) -> list[str]:
    """Each pass does the same work, so its facts must repeat exactly."""
    problems = []
    first = passes[0].facts
    for i, p in enumerate(passes[1:], start=2):
        for key, value in first.items():
            if p.facts.get(key) != value:
                problems.append(f"{what} pass {i}: {key} = {p.facts.get(key)}, "
                                f"pass 1 had {value}")
    layers = [q.facts["layers"] for q in passes if "layers" in q.facts]
    for name in EXACT_COUNTS:
        if len({q[name] for q in layers}) > 1:
            problems.append(f"{what}: {name} differs between passes: "
                            f"{[q[name] for q in layers]}")
    return problems


def layer_metrics(setup: dict, timed: dict, peaks: dict) -> dict:
    """One set-up plus one pass: counts and times from the timed pass,
    memory peaks from the pass that measured them (set-up measures none)."""
    out = {}
    for name, value in timed.items():
        if name.endswith(".peak_mb"):
            out[name] = peaks[name]
        elif name.endswith("_ratio"):
            out[name] = value
        else:
            out[name] = value + setup[name]
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, workdir)
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if args.setup_only:
        workload.close()
        print(json.dumps(result))
        return 0

    budget = args.seconds / 2 if args.trace else args.seconds
    passes, maxrss_kb = measure(workload, budget)
    workload.close()
    problems = consistency(passes, "untraced")
    op_times = [t for p in passes for t in p.times]
    cuts = statistics.quantiles(op_times, n=100, method="inclusive")
    result.update({
        "walls": [p.wall for p in passes],
        "wall_s": median_pass(passes),
        "op_n": len(op_times),
        "op_p50_ms": cuts[49] * 1e3,
        "op_p99_ms": cuts[98] * 1e3,
        "attempted": len(op_times),
        "failures": [f for p in passes for f in p.failures],
        "facts": passes[0].facts,
        "maxrss_kb": maxrss_kb,
    })

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            tracer.op = SETUP_OP
            try:
                workload = cls(args.seed, workdir)
            finally:
                tracer.op = None
            setup_layers = tracer.take_stats()
            timed = run_pass(workload, tracer)
            tracer.peaks = True
            peaks = run_pass(workload, tracer, first_op=len(timed.times))
            workload.close()
        finally:
            tracer.restore()
        problems += consistency([passes[0], timed, peaks], "traced")
        layers = layer_metrics(setup_layers, timed.facts["layers"], peaks.facts["layers"])
        layers["trace.overhead_s"] = timed.wall - result["wall_s"]
        result["layers"] = layers
        result["attempted"] += len(timed.times) + len(peaks.times)
        result["failures"] += timed.failures + peaks.failures
        result["facts"].update({k: layers[k] for k in EXACT_COUNTS})
        if args.spans:
            tracer.write_spans(args.spans)
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
