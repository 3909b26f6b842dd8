"""Benchmark of the hypergroups library: one workload, one seed, one run.

    python3 perfbench/run.py --workload construct_verify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a source tree: the library is imported from ./src,
nothing is installed. Each run starts fresh single-threaded child
processes (child.py), pinned to one CPU, with OPENBLAS_NUM_THREADS=1:
the library calls no BLAS routine, so the thread pool OpenBLAS starts at
import is only set-up noise.

With --trace 0 the last line of stdout is a JSON object whose metrics
are the end-to-end ones: setup_s (median over several child starts),
wall_s (median time of one pass of the workload's fixed work) and
peak_rss_mb (ru_maxrss of the measuring child). With --trace 1 they are
the per-layer metrics of tracing.PER_LAYER_UNITS. Lines above it show
each metric by name and unit, plus fail_ratio and, on construct_verify,
the per-operation latency percentiles.

Counts that must repeat for a fixed seed are kept under
.perfbench_state/ and compared with those of earlier runs of the same
library source; a difference makes the run incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_state"
CHILD = HERE / "child.py"

# The keys of workloads.WORKLOADS; this process never imports the library.
WORKLOAD_NAMES = ("construct_verify", "classify", "verify_large", "field")
SETUP_STARTS = 5      # set-up-only child starts, besides the measuring child
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170   # the whole run must end within 180 s


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def pin_to_last_cpu() -> None:
    """Children run on the last CPU allowed: the first one takes most
    interrupts and steal time on small VMs, and construct_verify runs
    timed there spread about three times as much."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def start_child(args, extra: list[str], timeout: float) -> tuple[dict, float]:
    """Run child.py to completion; returns its result and its set-up time."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    argv = [sys.executable, str(CHILD), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", str(args.workdir), *extra]
    started = time.monotonic()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout, preexec_fn=pin_to_last_cpu)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - started


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hypergroups").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def compare_counts(args, facts: dict) -> list[str]:
    """Facts of earlier runs with this seed and library source must match."""
    record = STATE / "counts" / f"{args.workload}-{args.seed}-{source_digest()}.json"
    earlier = json.loads(record.read_text()) if record.exists() else {}
    problems = [f"{key} = {facts[key]}, an earlier run had {earlier[key]}"
                for key in sorted(facts) if key in earlier and earlier[key] != facts[key]]
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({**earlier, **facts}, sort_keys=True, indent=1))
    return problems


def run_workload(args) -> int:
    """One run of args.workload: set-up starts, the measuring child, and
    the printed result."""
    begun = time.monotonic()
    args.workdir = STATE / f"work-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_STARTS):
                _, setup = start_child(args, ["--setup-only"], SETUP_TIMEOUT_S)
                setups.append(setup)
        spans = STATE / f"spans-{args.workload}.csv"
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", str(spans)]
        result, setup = start_child(args, extra, RUN_TIMEOUT_S - (time.monotonic() - begun))
        setups.append(setup)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    problems = result["problems"] + compare_counts(args, result["facts"])
    attempted = result["attempted"]
    failed = len(result["failures"])
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(result['walls'])} passes, {attempted} operations")
    print("  pass walls (s): " + " ".join(f"{w:.3f}" for w in result["walls"]))
    for line in result["failures"][:10] + problems:
        print(f"  FAILED {line}")

    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
        busiest = sorted(((m["value"], name[:-2]) for name, m in metrics.items()
                          if name.endswith(".s")),
                         reverse=True)[:4]
        print("  dominant layers by self time: "
              + ", ".join(f"{name} {value:.3f} s" for value, name in busiest))
        print(f"  spans written to {spans.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["maxrss_kb"] / 1024.0, "unit": "MB"},
        }
        shown = [("setup_s", metrics["setup_s"], f"median of {len(setups)} child starts"),
                 ("wall_s", metrics["wall_s"],
                  f"per-operation medians over {len(result['walls'])} passes, summed")]
        if args.workload == "construct_verify":
            for q in ("op_p50_ms", "op_p99_ms"):
                shown.append((q, {"value": result[q], "unit": "ms"},
                              f"over {result['op_n']} operations"))
        shown.append(("peak_rss_mb", metrics["peak_rss_mb"], "ru_maxrss of the measuring child"))
        for name, m, note in shown:
            print(f"  {name:<12} {m['value']:.6g} {m['unit']:<5} {note}")
    print(f"  {'fail_ratio':<12} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0



def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="'all' runs the four in turn, each with its own result line")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hypergroups" / "__init__.py").is_file():
        return fail(f"no library source at {SRC / 'hypergroups'}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        code = run_workload(args)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
